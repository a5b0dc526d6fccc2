"""Error norms, boundary traces, point evaluation, and file export.

Relative errors compare the finite element field against an evaluator of
the exact (or reference) solution:

    E_L2 = ||phi_e - phi_h||_0 / ||phi_e||_0,
    E_H1 = ||grad phi_e - grad phi_h||_0 / ||grad phi_e||_0,

integrated element by element with a symmetric triangle rule, by default
the degree-4 6-point one.  The FE gradient is constant per element.
``exact_samples`` evaluates the exact side once per mesh and keeps the rule
with the values, for any number of solves on it.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .assembly import Method
from .geometry import Mesh
from .solve import SolutionField
from .table import format_rows, parse_rows

#: The symmetric 6-point degree-4 triangle rule: (barycentric points, weights
#: summing to 1).  A rule is passed around as such a pair.
DEG4 = (np.array([
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
]), np.array([0.223381589678011] * 3 + [0.109951743655322] * 3))


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


def quad_points(mesh: Mesh, rule=DEG4) -> np.ndarray:
    """Physical points (M, Q, 2) of the rule on all elements."""
    verts = mesh.nodes[mesh.triangles]          # (M, 3, 2)
    return np.einsum("qb,mbx->mqx", rule[0], verts)


def _fe_values(mesh: Mesh, nodal: np.ndarray, rule_pts: np.ndarray):
    vals = nodal[mesh.triangles]                # (M, 3)
    return np.einsum("qb,mb->mq", rule_pts, vals)


def _fe_gradients(mesh: Mesh, nodal: np.ndarray):
    """Constant per-element gradient (M, 2) of a nodal field."""
    return np.einsum("mb,mbx->mx", nodal[mesh.triangles], mesh.grads)


def _norm2(x: np.ndarray, mesh: Mesh, wts: np.ndarray) -> float:
    """Squared L2 norm of values (M, Q) or gradients (M, Q, 2) at the rule's points."""
    # quadrature weights are area-normalized
    sq = np.abs(x) ** 2
    if x.ndim == 3:
        sq = sq.sum(axis=-1)
    return float(np.einsum("mq,q,m->", sq, wts, mesh.areas))


def exact_samples(mesh: Mesh, exact, rule=DEG4):
    """The samples of ``exact(points)`` at the rule's points."""
    return samples_from_values(mesh, exact(quad_points(mesh, rule)), rule)


def samples_from_values(mesh: Mesh, values, rule=DEG4):
    """(rule, (v, w, grad_v, grad_w), norms): exact values at the rule's points,
    with the squared norm of each of the four for every solve on it."""
    return rule, values, [_norm2(x, mesh, rule[1]) for x in values]


def compute_errors(field: SolutionField, mesh: Mesh, samples, method: Method,
                   kappa: float, n_trunc: int) -> ErrorReport:
    """Relative L2 and H1(semi) errors of v and w against ``exact_samples``."""
    (pts_b, wts), exact, norms = samples
    fe = (_fe_values(mesh, field.v, pts_b), _fe_values(mesh, field.w, pts_b),
          _fe_gradients(mesh, field.v)[:, None, :], _fe_gradients(mesh, field.w)[:, None, :])
    e_l2_v, e_l2_w, e_h1_v, e_h1_w = (math.sqrt(_norm2(x_e - x_h, mesh, wts) / norm)
                                      for x_e, x_h, norm in zip(exact, fe, norms))
    return ErrorReport(method=method.label, kappa=float(kappa), gamma=float(method.gamma),
                       eta=float(method.eta), n_trunc=n_trunc, h=mesh.h,
                       dofs=mesh.n_dofs, e_l2_v=e_l2_v, e_h1_v=e_h1_v,
                       e_l2_w=e_l2_w, e_h1_w=e_h1_w)


def boundary_trace(field: SolutionField, mesh: Mesh) -> BoundaryTrace:
    """w at the cavity nodes in ring order, with their polar angles."""
    return BoundaryTrace(mesh.polar_angles(mesh.d_nodes), field.w[mesh.d_nodes])


# ---------------------------------------------------------------------------
# Point evaluation
# ---------------------------------------------------------------------------

#: Barycentric tolerance for a point to count as inside an element.
_BARY_TOL = 1e-10
#: A point outside every element is clamped onto the closest one if it lies
#: within this fraction of the mesh's bounding-box diagonal.
_CLAMP_FRACTION = 0.025


class PointLocator:
    """Triangle lookup by centroid KD-tree, with a scan of the nearby elements
    for the points that no nearest-centroid candidate contains."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        span = mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)
        self.clamp_dist = _CLAMP_FRACTION * float(np.linalg.norm(span))
        self.verts = mesh.nodes[mesh.triangles]
        centroids = self.verts.mean(axis=1)
        # an element that contains a point, or clamps it within clamp_dist, has
        # its centroid within clamp_dist + reach of it (a hair more for roundoff)
        reach = float(np.linalg.norm(self.verts - centroids[:, None], axis=2).max())
        self.scan_radius = (self.clamp_dist + reach) * (1.0 + 1e-9)
        # imported here: runs that never locate a point skip loading scipy.spatial
        from scipy.spatial import cKDTree
        self.tree = cKDTree(centroids)

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
        """(element ids, barycentric coords) of points (..., 2), shaped (...)
        and (..., 3); raises if one is outside."""
        pts = np.asarray(points, dtype=float)
        shape = pts.shape[:-1]
        pts = pts.reshape(-1, 2)
        tri = np.full(len(pts), -1, dtype=np.int64)
        bary = np.zeros((len(pts), 3))
        remaining = np.arange(len(pts))
        # nearly every point lies in one of its 4 nearest centroids' elements;
        # only the rest pay for the wider query, scanned from its first column
        for k in (4, 32):
            if not len(remaining):
                break
            k = min(k, len(self.verts))
            cand = self.tree.query(pts[remaining], k=k)[1].reshape(-1, k)
            for col in range(k):
                b = self._bary(cand[:, col], pts[remaining])
                ok = b.min(axis=1) >= -_BARY_TOL
                tri[remaining[ok]] = cand[ok, col]
                bary[remaining[ok]] = b[ok]
                remaining, cand = remaining[~ok], cand[~ok]
                if not len(remaining):
                    break
        # the rest scan, in ascending element order, every element near enough
        # to contain or clamp them: the same choice as a scan of all elements
        near = self.tree.query_ball_point(pts[remaining], self.scan_radius)
        for i, cand in zip(remaining, near):
            cand = np.array(sorted(cand), dtype=np.int64)
            b = self._bary(cand, pts[i])
            ok = np.flatnonzero(b.min(axis=1) >= -_BARY_TOL)
            if len(ok):
                tri[i] = cand[ok[0]]
                bary[i] = b[ok[0]]
            elif len(cand):
                # Slightly outside (e.g. in the sliver between a coarse
                # boundary chord and a finer one): clamp onto the closest
                # element, within a physical distance bound.
                clamped = np.clip(b, 0.0, None)
                clamped /= clamped.sum(axis=1, keepdims=True)
                proj = np.einsum("tb,tbx->tx", clamped, self.verts[cand])
                dist = np.linalg.norm(proj - pts[i], axis=1)
                best = int(np.argmin(dist))
                if dist[best] <= self.clamp_dist:
                    tri[i] = cand[best]
                    bary[i] = clamped[best]
        if np.any(tri < 0):
            bad = pts[tri < 0]
            raise PostprocError(f"{len(bad)} points outside the mesh, first: {bad[:3].tolist()}")
        return tri.reshape(shape), bary.reshape(shape + (3,))


def fe_interpolant(field: SolutionField, mesh: Mesh):
    """The field step of an FE-reference evaluator: (v, w, grad_v, grad_w) of
    ``field`` at points given by their elements and barycentric coordinates,
    as ``PointLocator.locate`` returns them.

    Gradients are the element-wise constant FE gradients.
    """
    v_nodal, w_nodal = field.v, field.w
    gv = _fe_gradients(mesh, v_nodal)
    gw = _fe_gradients(mesh, w_nodal)

    def interpolate(tri: np.ndarray, bary: np.ndarray):
        conn = mesh.triangles[tri.ravel()]
        flat = bary.reshape(-1, 3)
        v = np.einsum("pb,pb->p", flat, v_nodal[conn])
        w = np.einsum("pb,pb->p", flat, w_nodal[conn])
        return v.reshape(tri.shape), w.reshape(tri.shape), gv[tri], gw[tri]

    return interpolate


def fe_evaluator(field: SolutionField, mesh: Mesh):
    """Exact-evaluator interface backed by an FE field (reference solutions):
    the points are located in ``mesh``, then ``fe_interpolant`` reads the field."""
    locate, interpolate = PointLocator(mesh).locate, fe_interpolant(field, mesh)
    return lambda points: interpolate(*locate(points))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

#: Header of ``field.csv``: p, q and the derived v, w at every node.
FIELD_CSV_HEADER = "node_id,x,y,class,Re_p,Im_p,Re_q,Im_q,Re_v,Im_v,Re_w,Im_w"


def field_csv(field: SolutionField, mesh: Mesh) -> str:
    return FIELD_CSV_HEADER + "\n" + format_rows(
        *mesh.node_text, mesh.node_class.tolist(), *field.value_text)


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
    # Python's abs(complex), not np.abs: the two can differ in the last digit
    return "param,Re_w,Im_w,abs_w\n" + format_rows(
        trace.params.tolist(), trace.w.real.tolist(), trace.w.imag.tolist(),
        map(abs, trace.w.tolist()))


def error_csv(reports: list[ErrorReport]) -> str:
    return ErrorReport.CSV_HEADER + "\n" + format_rows(*zip(*map(astuple, reports)))


def vtk_field(field: SolutionField, mesh: Mesh) -> str:
    """Legacy ASCII VTK unstructured grid with Re/Im of v and w."""
    n, m = mesh.n_nodes, mesh.n_triangles
    parts = ["# vtk DataFile Version 3.0\nflexural scattering field\n"
             f"ASCII\nDATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n",
             format_rows(*mesh.node_text[1:], ["0.0"] * n, sep=" "),
             f"CELLS {m} {4 * m}\n",
             format_rows(["3"] * m, *mesh.triangles.T.tolist(), sep=" "),
             f"CELL_TYPES {m}\n", "5\n" * m, f"POINT_DATA {n}\n"]
    # Re/Im of v and w: the last four of the field's text columns
    for name, column in zip(("Re_v", "Im_v", "Re_w", "Im_w"), field.value_text[4:]):
        parts += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n", format_rows(column)]
    return "".join(parts)
