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

import math
from dataclasses import astuple, dataclass

import numpy as np
from scipy.spatial import cKDTree

from .assembly import Method, tri_geometry
from .geometry import Mesh
from .solve import SolutionField
from .table import format_rows, parse_rows

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


@dataclass
class BoundaryTrace:
    """Bending moment at the cavity nodes in loop order, with their polar angles."""

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
    return ErrorReport(method=method.label, kappa=float(kappa), gamma=float(method.gamma),
                       eta=float(method.eta), n_trunc=n_trunc, h=mesh.h,
                       dofs=mesh.n_dofs, e_l2_v=e_l2_v, e_h1_v=e_h1_v,
                       e_l2_w=e_l2_w, e_h1_w=e_h1_w)


def boundary_trace(field: SolutionField, mesh: Mesh) -> BoundaryTrace:
    """w at the cavity nodes along the cavity loop, with their polar angles."""
    loop = mesh.cavity_loop
    pts = mesh.nodes[loop]
    return BoundaryTrace(np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * math.pi), field.w[loop])


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

#: Header of ``field.csv``: p, q and the derived v, w at every node.
FIELD_CSV_HEADER = "node_id,x,y,class,Re_p,Im_p,Re_q,Im_q,Re_v,Im_v,Re_w,Im_w"


def field_csv(field: SolutionField, mesh: Mesh) -> str:
    values = np.column_stack([field.p, field.q, field.v, field.w]).view(float)
    return FIELD_CSV_HEADER + "\n" + format_rows(
        range(1, mesh.n_nodes + 1), *mesh.nodes.T.tolist(), mesh.node_class.tolist(),
        *values.T.tolist())


def read_field_csv(text: str, mesh: Mesh) -> SolutionField:
    """The field ``field_csv`` wrote on ``mesh``; a malformed file raises
    PostprocError naming its first bad line."""
    lines = text.splitlines()
    if lines[:1] != [FIELD_CSV_HEADER]:
        raise PostprocError("line 1: unrecognized field CSV header")
    ids, _, _, _, *values = parse_rows(
        enumerate(lines[1:], start=2), (int, float, float, str) + (float,) * 8,
        f"'{FIELD_CSV_HEADER}'", PostprocError, sep=",")
    if len(ids) != mesh.n_nodes:
        raise PostprocError(f"{len(ids)} rows for a mesh of {mesh.n_nodes} nodes")
    values = np.column_stack(values)
    bad = (np.array(ids) != np.arange(1, len(ids) + 1)) | ~np.isfinite(values).all(axis=1)
    if np.any(bad):
        raise PostprocError(f"line {int(np.argmax(bad)) + 2}: "
                            "node id out of order or value not finite")
    p, q, v, _ = values.view(complex).T
    # v = q - p - u_inc; v and w are re-derived from it to within roundoff
    return SolutionField(p=p, q=q, u_inc=q - p - v, residual=0.0)


def trace_csv(trace: BoundaryTrace) -> str:
    w = trace.w
    # Python's abs(complex), not np.abs: the two can differ in the last digit
    return "param,Re_w,Im_w,abs_w\n" + format_rows(
        trace.params.tolist(), w.real.tolist(), w.imag.tolist(), map(abs, w.tolist()))


def error_csv(reports: list[ErrorReport]) -> str:
    return ErrorReport.CSV_HEADER + "\n" + format_rows(*zip(*map(astuple, reports)))


def vtk_field(field: SolutionField, mesh: Mesh) -> str:
    """Legacy ASCII VTK unstructured grid with Re/Im of v and w."""
    n, m = mesh.n_nodes, mesh.n_triangles
    parts = ["# vtk DataFile Version 3.0\nflexural scattering field\n"
             f"ASCII\nDATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n",
             format_rows(*mesh.nodes.T.tolist(), [0.0] * n, sep=" "),
             f"CELLS {m} {4 * m}\n",
             format_rows([3] * m, *mesh.triangles.T.tolist(), sep=" "),
             f"CELL_TYPES {m}\n", format_rows([5] * m), f"POINT_DATA {n}\n"]
    v, w = field.v, field.w
    for name, data in (("Re_v", v.real), ("Im_v", v.imag), ("Re_w", w.real), ("Im_w", w.imag)):
        parts += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n", format_rows(data.tolist())]
    return "".join(parts)
