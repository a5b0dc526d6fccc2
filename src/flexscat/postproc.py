"""Error norms, boundary traces, point evaluation, and file export.

Relative errors compare the finite element field against an evaluator of
the exact (or reference) solution:

    E_L2 = ||phi_e - phi_h||_0 / ||phi_e||_0,
    E_H1 = ||grad phi_e - grad phi_h||_0 / ||grad phi_e||_0,

integrated element by element with a degree-4 symmetric 6-point triangle
rule (a degree-7 rule is kept for cross-checks).  The FE gradient is
constant per element.  ``exact_samples`` evaluates the exact side once per
mesh and keeps the rule with the values, for any number of solves on it.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .assembly import Method, tri_geometry
from .geometry import Mesh
from .solve import SolutionField

# Symmetric triangle rules in barycentric coordinates, weights sum to 1.
_DEG4_PTS = np.array([
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
])
_DEG4_WTS = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)

# Dunavant degree-7 (13 points, one negative weight); used only as a
# quadrature-refinement check.
_DEG7_PTS = np.array(
    [[1 / 3, 1 / 3, 1 / 3]]
    + [[0.479308067841923, 0.260345966079038, 0.260345966079038][i:] +
       [0.479308067841923, 0.260345966079038, 0.260345966079038][:i] for i in range(3)]
    + [[0.869739794195568, 0.065130102902216, 0.065130102902216][i:] +
       [0.869739794195568, 0.065130102902216, 0.065130102902216][:i] for i in range(3)]
    + [[0.638444188569809, 0.312865496004875, 0.048690315425316],
       [0.048690315425316, 0.638444188569809, 0.312865496004875],
       [0.312865496004875, 0.048690315425316, 0.638444188569809],
       [0.638444188569809, 0.048690315425316, 0.312865496004875],
       [0.312865496004875, 0.638444188569809, 0.048690315425316],
       [0.048690315425316, 0.312865496004875, 0.638444188569809]])
_DEG7_WTS = np.array([-0.149570044467670]
                     + [0.175615257433204] * 3
                     + [0.053347235608839] * 3
                     + [0.077113760890257] * 6)
_RULES = {"deg4": (_DEG4_PTS, _DEG4_WTS), "deg7": (_DEG7_PTS, _DEG7_WTS)}


class PostprocError(Exception):
    pass


@dataclass
class ErrorReport:
    method: str
    kappa: float
    gamma: float
    eta: float
    n_trunc: int
    h: float
    dofs: int
    e_l2_v: float
    e_h1_v: float
    e_l2_w: float
    e_h1_w: float

    CSV_HEADER = "method,kappa,gamma,eta,N,h,dofs,E_L2_v,E_H1_v,E_L2_w,E_H1_w"

    def csv_row(self) -> str:
        kappa, gamma, eta, h = (float(x) for x in
                                (self.kappa, self.gamma, self.eta, self.h))
        return (f"{self.method},{kappa!r},{gamma!r},{eta!r},"
                f"{self.n_trunc},{h!r},{self.dofs},"
                f"{self.e_l2_v!r},{self.e_h1_v!r},{self.e_l2_w!r},{self.e_h1_w!r}")


@dataclass
class BoundaryTrace:
    """Bending moment sampled along the cavity boundary, ordered by angle."""

    params: np.ndarray
    w: np.ndarray

    @property
    def total_variation(self) -> float:
        """Cyclic total variation of Re w (oscillation metric)."""
        re = self.w.real
        return float(np.abs(np.diff(np.concatenate([re, re[:1]]))).sum())


def _quad_points(mesh: Mesh, rule_pts: np.ndarray):
    """Physical quadrature points (M, Q, 2) for all elements."""
    verts = mesh.nodes[mesh.triangles]          # (M, 3, 2)
    return np.einsum("qb,mbx->mqx", rule_pts, verts)


def _fe_values(mesh: Mesh, nodal: np.ndarray, rule_pts: np.ndarray):
    vals = nodal[mesh.triangles]                # (M, 3)
    return np.einsum("qb,mb->mq", rule_pts, vals)


def _fe_gradients(mesh: Mesh, nodal: np.ndarray):
    """Constant per-element gradient (M, 2) of a nodal field."""
    _, grads = tri_geometry(mesh.nodes[mesh.triangles])
    return np.einsum("mb,mbx->mx", nodal[mesh.triangles], grads)


def exact_samples(mesh: Mesh, exact, rule: str = "deg4"):
    """(rule, v, w, grad_v, grad_w) of ``exact(points)`` at the rule's points."""
    return (rule, *exact(_quad_points(mesh, _RULES[rule][0])))


def compute_errors(field: SolutionField, mesh: Mesh, samples, method: Method,
                   kappa: float, n_trunc: int) -> ErrorReport:
    """Relative L2 and H1(semi) errors of v and w against ``exact_samples``."""
    rule, v_e, w_e, gv_e, gw_e = samples
    pts_b, wts = _RULES[rule]
    areas = mesh.areas()
    v_h = _fe_values(mesh, field.v, pts_b)
    w_h = _fe_values(mesh, field.w, pts_b)
    gv_h = _fe_gradients(mesh, field.v)[:, None, :]
    gw_h = _fe_gradients(mesh, field.w)[:, None, :]

    def norm2(x):
        # quadrature weights are area-normalized
        sq = np.abs(x) ** 2
        if x.ndim == 3:
            sq = sq.sum(axis=-1)
        return float(np.einsum("mq,q,m->", sq, wts, areas))

    e_l2_v = math.sqrt(norm2(v_e - v_h) / norm2(v_e))
    e_l2_w = math.sqrt(norm2(w_e - w_h) / norm2(w_e))
    e_h1_v = math.sqrt(norm2(gv_e - gv_h) / norm2(gv_e))
    e_h1_w = math.sqrt(norm2(gw_e - gw_h) / norm2(gw_e))
    return ErrorReport(method=method.label, kappa=kappa, gamma=method.gamma,
                       eta=method.eta, n_trunc=n_trunc, h=mesh.h,
                       dofs=mesh.n_dofs, e_l2_v=e_l2_v, e_h1_v=e_h1_v,
                       e_l2_w=e_l2_w, e_h1_w=e_h1_w)


def boundary_trace(field: SolutionField, mesh: Mesh) -> BoundaryTrace:
    """w at the cavity nodes, ordered by boundary parameter."""
    d_nodes = mesh.d_nodes
    params = mesh.d_params()
    order = np.argsort(params)
    return BoundaryTrace(params[order], field.w[d_nodes][order])


# ---------------------------------------------------------------------------
# Point evaluation
# ---------------------------------------------------------------------------

#: Barycentric tolerance for a point to count as inside an element.
_BARY_TOL = 1e-10
#: A point outside every element is clamped onto the closest one if it lies
#: within this fraction of the mesh's bounding-box diagonal.
_CLAMP_FRACTION = 0.025


class PointLocator:
    """Triangle lookup by centroid KD-tree with brute-force fallback."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        span = mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)
        self.clamp_dist = _CLAMP_FRACTION * float(np.linalg.norm(span))
        self.verts = mesh.nodes[mesh.triangles]
        self.tree = cKDTree(self.verts.mean(axis=1))

    def _bary(self, tri_ids: np.ndarray, points: np.ndarray) -> np.ndarray:
        v = self.verts[tri_ids]
        d1 = v[..., 1, :] - v[..., 0, :]
        d2 = v[..., 2, :] - v[..., 0, :]
        rp = points - v[..., 0, :]
        det = d1[..., 0] * d2[..., 1] - d2[..., 0] * d1[..., 1]
        l1 = (rp[..., 0] * d2[..., 1] - d2[..., 0] * rp[..., 1]) / det
        l2 = (d1[..., 0] * rp[..., 1] - rp[..., 0] * d1[..., 1]) / det
        return np.stack([1.0 - l1 - l2, l1, l2], axis=-1)

    def locate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(element ids, barycentric coords) per point; raises if outside."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        k = min(32, len(self.verts))
        _, cand = self.tree.query(pts, k=k)
        cand = np.atleast_2d(cand)
        tri = np.full(len(pts), -1, dtype=np.int64)
        bary = np.zeros((len(pts), 3))
        remaining = np.arange(len(pts))
        for col in range(cand.shape[1]):
            if not len(remaining):
                break
            b = self._bary(cand[remaining, col], pts[remaining])
            ok = b.min(axis=1) >= -_BARY_TOL
            hit = remaining[ok]
            tri[hit] = cand[hit, col]
            bary[hit] = b[ok]
            remaining = remaining[~ok]
        if len(remaining):  # brute force over every element
            for i in remaining:
                b = self._bary(np.arange(len(self.verts)), pts[i])
                ok = np.flatnonzero(b.min(axis=1) >= -_BARY_TOL)
                if len(ok):
                    tri[i] = ok[0]
                    bary[i] = b[ok[0]]
                else:
                    # Slightly outside (e.g. in the sliver between a coarse
                    # boundary chord and a finer one): clamp onto the closest
                    # element, within a physical distance bound.
                    clamped = np.clip(b, 0.0, None)
                    clamped /= clamped.sum(axis=1, keepdims=True)
                    proj = np.einsum("tb,tbx->tx", clamped, self.verts)
                    dist = np.linalg.norm(proj - pts[i], axis=1)
                    best = int(np.argmin(dist))
                    if dist[best] <= self.clamp_dist:
                        tri[i] = best
                        bary[i] = clamped[best]
        if np.any(tri < 0):
            bad = pts[tri < 0]
            raise PostprocError(f"{len(bad)} points outside the mesh, first: {bad[:3].tolist()}")
        return tri, bary


def evaluate_at_points(field: SolutionField, mesh: Mesh, points: np.ndarray):
    """(v, w) by barycentric interpolation at arbitrary interior points."""
    v, w, _, _ = fe_evaluator(field, mesh)(points)
    return v, w


def fe_evaluator(field: SolutionField, mesh: Mesh):
    """Exact-evaluator interface backed by an FE field (reference solutions).

    Gradients are the element-wise constant FE gradients.
    """
    locator = PointLocator(mesh)
    v_nodal, w_nodal = field.v, field.w
    gv = _fe_gradients(mesh, v_nodal)
    gw = _fe_gradients(mesh, w_nodal)

    def evaluate(points: np.ndarray):
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, 2)
        tri, bary = locator.locate(flat)
        conn = mesh.triangles[tri]
        v = np.einsum("pb,pb->p", bary, v_nodal[conn])
        w = np.einsum("pb,pb->p", bary, w_nodal[conn])
        shape = pts.shape[:-1]
        return (v.reshape(shape), w.reshape(shape),
                gv[tri].reshape(shape + (2,)), gw[tri].reshape(shape + (2,)))

    return evaluate


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def field_csv(field: SolutionField, mesh: Mesh) -> str:
    out = io.StringIO()
    out.write("node_id,x,y,class,Re_p,Im_p,Re_q,Im_q,Re_v,Im_v,Re_w,Im_w\n")
    rows = zip(mesh.nodes.tolist(), mesh.node_class, field.p.tolist(),
               field.q.tolist(), field.v.tolist(), field.w.tolist())
    for i, ((x, y), c, p, q, v, w) in enumerate(rows, start=1):
        out.write(f"{i},{x!r},{y!r},{c},"
                  f"{p.real!r},{p.imag!r},{q.real!r},{q.imag!r},"
                  f"{v.real!r},{v.imag!r},{w.real!r},{w.imag!r}\n")
    return out.getvalue()


def trace_csv(trace: BoundaryTrace) -> str:
    out = io.StringIO()
    out.write("param,Re_w,Im_w,abs_w\n")
    for t, w in zip(trace.params, trace.w):
        t, w = float(t), complex(w)
        out.write(f"{t!r},{w.real!r},{w.imag!r},{abs(w)!r}\n")
    return out.getvalue()


def error_csv(reports: list[ErrorReport]) -> str:
    return ErrorReport.CSV_HEADER + "\n" + "".join(r.csv_row() + "\n" for r in reports)


def vtk_field(field: SolutionField, mesh: Mesh) -> str:
    """Legacy ASCII VTK unstructured grid with Re/Im of v and w."""
    out = io.StringIO()
    out.write("# vtk DataFile Version 3.0\n")
    out.write("flexural scattering field\n")
    out.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
    out.write(f"POINTS {mesh.n_nodes} double\n")
    for x, y in mesh.nodes:
        out.write(f"{float(x)!r} {float(y)!r} 0.0\n")
    m = mesh.n_triangles
    out.write(f"CELLS {m} {4 * m}\n")
    for a, b, c in mesh.triangles:
        out.write(f"3 {a} {b} {c}\n")
    out.write(f"CELL_TYPES {m}\n")
    out.write("\n".join(["5"] * m) + "\n")
    out.write(f"POINT_DATA {mesh.n_nodes}\n")
    for name, data in (("Re_v", field.v.real), ("Im_v", field.v.imag),
                       ("Re_w", field.w.real), ("Im_w", field.w.imag)):
        out.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        out.write("\n".join(repr(float(x)) for x in data) + "\n")
    return out.getvalue()
