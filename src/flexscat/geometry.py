"""Cavity shapes, annulus triangulation, and mesh import/export.

The computational domain is the annulus Omega = B_R \\ cavity.  Meshes are
generated by a structured radial blend between the sampled cavity boundary
and the truncation circle: node(i, j) sits at

    (1 - t_i) * gamma(theta_j) + t_i * R * (cos theta_j, sin theta_j),

with t_i = i / n_radial and theta_j = 2 pi j / n_angular, each quad split
into two triangles along its shorter diagonal.  This covers every
star-shaped cavity; arbitrary triangulations enter through the ASCII
import format.

Node classes: 'I' interior, 'T' on the truncation circle Gamma_R, 'D' on
the cavity boundary.  The unknown-vector dimension of the scattering
solver is 2 N_I + 2 N_T + N_D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .table import format_rows, parse_rows

_CONTAINMENT_SAMPLES = 720


class MeshError(Exception):
    """Raised for invalid meshes: parse failures or violated invariants."""


# ---------------------------------------------------------------------------
# Cavity shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Circle:
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("circle radius must be positive")


@dataclass(frozen=True)
class Ellipse:
    a: float  # major semi-axis
    b: float  # minor semi-axis

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("ellipse semi-axes must be positive")


@dataclass(frozen=True)
class Kite:
    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0 or self.c <= 0:
            raise ValueError("kite coefficients must be positive")
        _check_star_shaped(self)


CavityShape = Circle | Ellipse | Kite


def cavity_point(shape: CavityShape, t: float | np.ndarray) -> np.ndarray:
    """Point(s) on the cavity boundary at parameter t (wrapped mod 2 pi).

    Returns shape (2,) for scalar t, else (len(t), 2).
    """
    t = np.asarray(t, dtype=float) % (2.0 * math.pi)
    if isinstance(shape, Circle):
        x = shape.radius * np.cos(t)
        y = shape.radius * np.sin(t)
    elif isinstance(shape, Ellipse):
        x = shape.a * np.cos(t)
        y = shape.b * np.sin(t)
    elif isinstance(shape, Kite):
        x = shape.a * np.cos(t) + shape.b * np.cos(2.0 * t) - shape.c
        y = shape.a * np.sin(t)
    else:
        raise TypeError(f"unknown cavity shape {shape!r}")
    return np.stack([x, y], axis=-1)


def _check_star_shaped(shape: CavityShape) -> None:
    """Sampled check: positive radius and strictly increasing polar angle.

    Run by Kite construction; a circle or an ellipse with positive axes is
    star-shaped by construction.
    """
    t = np.linspace(0.0, 2.0 * math.pi, _CONTAINMENT_SAMPLES, endpoint=False)
    pts = cavity_point(shape, t)
    r = np.hypot(pts[:, 0], pts[:, 1])
    if np.any(r <= 0):
        raise ValueError("cavity boundary passes through the origin")
    psi = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
    if np.any(np.diff(psi) <= 0) or not math.isclose(psi[-1] - psi[0],
                                                     2.0 * math.pi * (1 - 1 / len(t)),
                                                     rel_tol=0.2):
        raise ValueError("cavity boundary is not star-shaped about the origin")


def _check_contained(shape: CavityShape, R: float) -> None:
    t = np.linspace(0.0, 2.0 * math.pi, _CONTAINMENT_SAMPLES, endpoint=False)
    pts = cavity_point(shape, t)
    rmax = float(np.hypot(pts[:, 0], pts[:, 1]).max())
    if rmax >= R:
        raise MeshError(
            f"cavity extends to radius {rmax:.6g}, not strictly inside R = {R}")


def cavity_min_gap(shape: CavityShape, R: float) -> float:
    """Largest radial distance from the cavity boundary to Gamma_R."""
    t = np.linspace(0.0, 2.0 * math.pi, _CONTAINMENT_SAMPLES, endpoint=False)
    pts = cavity_point(shape, t)
    r = np.hypot(pts[:, 0], pts[:, 1])
    return float((R - r).max())


# ---------------------------------------------------------------------------
# Mesh
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Generator:
    """Provenance of a structured mesh, kept so refine() can regenerate."""

    shape: CavityShape
    R: float
    n_radial: int
    n_angular: int


@dataclass
class Mesh:
    """Triangulation of the annulus with node/edge classification.

    Attributes
    ----------
    nodes : (N, 2) float array
    triangles : (M, 3) int array, counter-clockwise; row index is the
        element index i_K (0-based; 1-based in the ASCII format).
    node_class : (N,) array of 'I' | 'T' | 'D'
    interior_edges : (E, 2) int node pairs, with edge_tris (E, 2) the two
        adjacent element indices and edge_lengths (E,)
    cavity_loop, truncation_loop : node ids ordered counter-clockwise
        around each boundary, starting at the smallest polar angle
    warnings : notes from import (e.g. auto-fixed orientation)
    """

    nodes: np.ndarray
    triangles: np.ndarray
    node_class: np.ndarray
    interior_edges: np.ndarray = field(repr=False, default=None)
    edge_tris: np.ndarray = field(repr=False, default=None)
    edge_lengths: np.ndarray = field(repr=False, default=None)
    cavity_loop: np.ndarray = field(repr=False, default=None)
    truncation_loop: np.ndarray = field(repr=False, default=None)
    generator: _Generator | None = None
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        self._build_topology()
        self._validate()

    # -- derived quantities -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def interior_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.node_class == "I")

    @property
    def t_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.node_class == "T")

    @property
    def d_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.node_class == "D")

    @property
    def n_dofs(self) -> int:
        """Unknown-vector dimension 2 N_I + 2 N_T + N_D."""
        return (2 * len(self.interior_nodes) + 2 * len(self.t_nodes)
                + len(self.d_nodes))

    @property
    def h(self) -> float:
        """Mesh size: the maximum edge length over all triangle edges."""
        p = self.nodes[self.triangles]
        e = np.linalg.norm(p - np.roll(p, -1, axis=1), axis=2)
        return float(e.max())

    def t_angles(self) -> np.ndarray:
        """Polar angles of the T nodes (mesh node order), in [0, 2 pi)."""
        pts = self.nodes[self.t_nodes]
        return np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * math.pi)

    def d_params(self) -> np.ndarray:
        """Boundary parameters (polar angles) of the D nodes, mesh order."""
        pts = self.nodes[self.d_nodes]
        return np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * math.pi)

    def areas(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    @property
    def truncation_radius(self) -> float:
        return float(np.linalg.norm(self.nodes[self.t_nodes], axis=1).mean())

    # -- construction helpers ----------------------------------------------

    def _build_topology(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        self.node_class = np.asarray(self.node_class, dtype="<U1")

        # every triangle side as a sorted (lo, hi) pair, keyed lo * n + hi so
        # that sorting the keys sorts the pairs; a stable sort keeps each
        # edge's triangles in ascending element order
        tris = self.triangles
        sides = np.stack([tris, np.roll(tris, -1, axis=1)], axis=2).reshape(-1, 2)
        sides.sort(axis=1)
        keys = sides[:, 0] * np.int64(len(self.nodes)) + sides[:, 1]
        order = np.argsort(keys, kind="stable")
        _, first, counts = np.unique(keys[order], return_index=True, return_counts=True)
        if np.any(counts > 2):
            e = int(np.flatnonzero(counts > 2)[0])
            key = tuple(int(v) for v in sides[order[first[e]]])
            raise MeshError(f"edge {key} shared by {int(counts[e])} triangles")
        side_tri = order // 3  # element index of each sorted side

        inner = first[counts == 2]
        self.interior_edges = sides[order[inner]]
        self.edge_tris = np.stack([side_tri[inner], side_tri[inner + 1]], axis=1)
        d = self.nodes[self.interior_edges[:, 0]] - self.nodes[self.interior_edges[:, 1]]
        self.edge_lengths = np.linalg.norm(d, axis=1)

        boundary = sides[order[first[counts == 1]]]
        cls = self.node_class[boundary]
        cav = boundary[np.all(cls == "D", axis=1)]
        trc = boundary[np.all(cls == "T", axis=1)]
        if len(cav) + len(trc) != len(boundary):
            raise MeshError("boundary edge with mixed or interior node classes")
        self.cavity_loop = self._order_loop(cav, "cavity")
        self.truncation_loop = self._order_loop(trc, "truncation")

    def _order_loop(self, edges: np.ndarray, name: str) -> np.ndarray:
        if not len(edges):
            raise MeshError(f"{name} boundary has no edges")
        adj: dict[int, list[int]] = {}
        for a, b in edges.tolist():
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        if any(len(v) != 2 for v in adj.values()):
            raise MeshError(f"{name} boundary is not a single closed loop")
        start = min(adj)
        loop = [start]
        prev, cur = None, start
        while True:
            nxt = [v for v in adj[cur] if v != prev]
            if not nxt:
                raise MeshError(f"{name} boundary loop is broken")
            prev, cur = cur, nxt[0]
            if cur == start:
                break
            loop.append(cur)
        if len(loop) != len(adj):
            raise MeshError(f"{name} boundary is not a single closed loop")
        pts = self.nodes[loop]
        # canonical start and direction: smallest angle, counter-clockwise
        area2 = np.sum(pts[:, 0] * np.roll(pts[:, 1], -1)
                       - np.roll(pts[:, 0], -1) * pts[:, 1])
        if area2 < 0:
            loop = loop[::-1]
        ang = np.arctan2(self.nodes[loop, 1], self.nodes[loop, 0]) % (2 * math.pi)
        k = int(np.argmin(ang))
        return np.array(loop[k:] + loop[:k], dtype=np.int64)

    def _validate(self):
        areas = self.areas()
        if np.any(areas <= 0):
            raise MeshError(f"{int(np.sum(areas <= 0))} triangles have non-positive area")
        if np.any((self.node_class != "I") & (self.node_class != "T")
                  & (self.node_class != "D")):
            raise MeshError("unknown node class")
        off_loop = self.node_class != "I"
        off_loop[self.cavity_loop] = False
        off_loop[self.truncation_loop] = False
        if np.any(off_loop):
            v = int(np.flatnonzero(off_loop)[0])
            raise MeshError(f"node {v} classed as boundary but not on a boundary loop")
        r = np.linalg.norm(self.nodes[self.t_nodes], axis=1)
        if len(r) and (r.max() - r.min()) > 1e-12 * r.mean():
            raise MeshError("T nodes do not lie on a common circle")
        if self.generator is not None:
            if abs(r.mean() - self.generator.R) > 1e-12 * self.generator.R:
                raise MeshError("T nodes off the truncation circle")
            th = self.d_params()
            expect = cavity_point(self.generator.shape, _radius_params(
                self.generator.shape, th))
            err = np.linalg.norm(self.nodes[self.d_nodes] - expect, axis=1)
            scale = np.linalg.norm(self.nodes[self.d_nodes], axis=1)
            if np.any(err > 1e-9 * np.maximum(scale, 1.0)):
                raise MeshError("D nodes off the cavity curve")


def _radius_params(shape: CavityShape, angles: np.ndarray) -> np.ndarray:
    """Parameters t such that cavity_point(shape, t) has the given polar angles."""
    if isinstance(shape, (Circle, Ellipse)):
        if isinstance(shape, Circle):
            return angles
        return np.arctan2(shape.a * np.sin(angles), shape.b * np.cos(angles)) % (2 * math.pi)
    # general star-shaped curve: bisection on the (monotone) angle of gamma(t)
    angles = np.asarray(angles, dtype=float)
    psi0 = float(math.atan2(*cavity_point(shape, 0.0)[::-1]))
    target = (angles - psi0) % (2.0 * math.pi)
    lo = np.zeros_like(target)
    hi = np.full_like(target, 2.0 * math.pi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        p = np.atleast_2d(cavity_point(shape, mid))
        ang = (np.arctan2(p[:, 1], p[:, 0]) - psi0) % (2.0 * math.pi)
        below = ang.reshape(target.shape) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


#: Dense sampling used to tabulate arc length and curvature for grading.
_GRADING_SAMPLES = 4096

#: Radial layers cluster toward the cavity as t_i = (i / n)^beta per ray,
#: capped so strongly curved cavities (sharp bending-moment peaks) get thin
#: boundary layers without degenerate outer cells.
_RADIAL_GRADING_BETA_MAX = 2.6

#: Extra radial layers budgeted for graded (noncircular) cavities so the
#: outermost cell of the most strongly graded ray still respects h_target.
_RADIAL_COUNT_FACTOR = 1.9


def _radial_grading_exponents(shape: CavityShape, inner: np.ndarray,
                              outer: np.ndarray, n_radial: int) -> np.ndarray:
    """Per-ray grading exponents keeping first layers shape regular.

    The first radial layer on each ray is matched to the local tangential
    node spacing: gap * (1/n)^beta = ds.  High-curvature regions (dense in
    angle) then get matching thin radial layers, while cells elsewhere stay
    near isotropic and clear of the maximum angle condition.
    """
    if isinstance(shape, Circle):
        return np.ones(len(inner))
    seg = np.linalg.norm(np.roll(inner, -1, axis=0) - inner, axis=1)
    ds = 0.5 * (seg + np.roll(seg, 1))
    gap = np.linalg.norm(outer - inner, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.log(gap / ds) / math.log(n_radial)
    return np.clip(np.nan_to_num(beta, nan=1.0), 1.0, _RADIAL_GRADING_BETA_MAX)


def _graded_angles(shape: CavityShape, R: float, n_angular: int) -> np.ndarray:
    """Angular samples graded by cavity curvature; uniform for a circle.

    Spacing follows the equidistribution density curvature * arc speed,
    floored at the truncation circle's curvature 1/R, so curvature-scale
    solution features (bending-moment peaks) stay resolved along
    high-curvature cavities.
    """
    if isinstance(shape, Circle):
        return 2.0 * math.pi * np.arange(n_angular) / n_angular
    m = _GRADING_SAMPLES
    dt = 2.0 * math.pi / m
    t = dt * np.arange(m)
    pts = cavity_point(shape, t)
    d1 = (np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)) / (2.0 * dt)
    d2 = (np.roll(pts, -1, axis=0) - 2.0 * pts + np.roll(pts, 1, axis=0)) / dt ** 2
    speed = np.hypot(d1[:, 0], d1[:, 1])
    curv = np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed ** 3
    phi = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
    density = speed * np.maximum(curv, 1.0 / R)
    cdf = np.concatenate([[0.0], np.cumsum(density)])
    cdf /= cdf[-1]
    phi_grid = np.concatenate([phi, [phi[0] + 2.0 * math.pi]])
    u = np.arange(n_angular) / n_angular
    return np.interp(u, cdf, phi_grid)


# ---------------------------------------------------------------------------
# Generation / refinement
# ---------------------------------------------------------------------------

def generate_mesh(shape: CavityShape, R: float, n_radial: int,
                  n_angular: int) -> Mesh:
    """Structured radial-blend mesh of the annulus B_R minus the cavity."""
    if n_radial < 2:
        raise ValueError("n_radial must be at least 2")
    if n_angular < 8:
        raise ValueError("n_angular must be at least 8")
    _check_contained(shape, R)

    theta = _graded_angles(shape, R, n_angular)
    # place the cavity node on the ray of angle theta_j so every blend
    # segment is radial; nonconvex star-shaped cavities stay untangled
    inner = cavity_point(shape, _radius_params(shape, theta))  # (n_angular, 2)
    outer = R * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    beta = _radial_grading_exponents(shape, inner, outer, n_radial)
    frac = np.arange(n_radial + 1) / n_radial
    t = (frac[:, None] ** beta[None, :])[..., None]  # (n_radial+1, n_angular, 1)
    nodes = ((1.0 - t) * inner[None] + t * outer[None]).reshape(-1, 2)

    i, j = np.divmod(np.arange(n_radial * n_angular), n_angular)
    jn = (j + 1) % n_angular
    # quad corners (c00, c10, c11, c01), split along the shorter diagonal
    quads = np.stack([i * n_angular + j, (i + 1) * n_angular + j,
                      (i + 1) * n_angular + jn, i * n_angular + jn], axis=1)

    def length(d):
        # a row dot product rounds exactly like the scalar np.linalg.norm
        # the split was defined with; axis norms or hypot can flip the
        # diagonals that tie on a circle
        return np.sqrt(d[:, None, :] @ d[:, :, None]).ravel()

    p = nodes[quads]
    short_a = length(p[:, 0] - p[:, 2]) <= length(p[:, 1] - p[:, 3])
    triangles = np.where(short_a[:, None, None], quads[:, [[0, 1, 2], [0, 2, 3]]],
                         quads[:, [[0, 1, 3], [1, 2, 3]]])

    cls = np.full(len(nodes), "I", dtype="<U1")
    cls[:n_angular] = "D"
    cls[n_radial * n_angular:] = "T"
    return Mesh(nodes, triangles.reshape(-1, 3), cls,
                generator=_Generator(shape, R, n_radial, n_angular))


def refine(mesh: Mesh) -> Mesh:
    """Regenerate with doubled radial and angular resolution (h halves)."""
    g = mesh.generator
    if g is None:
        raise MeshError("refine requires a mesh produced by generate_mesh")
    return generate_mesh(g.shape, g.R, 2 * g.n_radial, 2 * g.n_angular)


def refine_nested(mesh: Mesh) -> Mesh:
    """Quadrisect every triangle, keeping the cavity polygon fixed.

    Edge midpoints become new nodes.  Midpoints of truncation edges are
    projected back onto the circle (the artificial boundary is exact and
    the DtN pairing lives on it), while cavity-edge midpoints stay on the
    chord.  Every nested level therefore solves the same computational
    cavity geometry, which is what a reference-solution convergence study
    needs: the errors measure discretization alone, not a level-dependent
    polygonal approximation of the cavity.
    """
    n = np.int64(mesh.n_nodes)
    tris = mesh.triangles
    # sides ab, bc, ca of each triangle in turn: the order midpoints are
    # numbered in; sorted (lo, hi) pairs keyed lo * n + hi
    sides = np.sort(np.stack([tris, np.roll(tris, -1, axis=1)], axis=2).reshape(-1, 2),
                    axis=1)
    _, first, side_edge, counts = np.unique(sides[:, 0] * n + sides[:, 1],
                                            return_index=True, return_inverse=True,
                                            return_counts=True)
    by_use = np.argsort(first)
    rank = np.argsort(by_use)  # first-use number of each edge
    ends = sides[first[by_use]]
    p = 0.5 * (mesh.nodes[ends[:, 0]] + mesh.nodes[ends[:, 1]])
    # a boundary edge (one triangle) has two D or two T ends; Mesh checks it
    cls = np.where(counts[by_use] == 1, mesh.node_class[ends[:, 0]], "I")
    t = cls == "T"
    # the row dot product rounds like the scalar np.linalg.norm
    q = p[t]
    p[t] = q * (mesh.truncation_radius / np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0])

    a, b, c = tris.T
    ab, bc, ca = (n + rank[side_edge]).reshape(-1, 3).T
    children = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1)
    return Mesh(np.vstack([mesh.nodes, p]), children.reshape(-1, 3),
                np.concatenate([mesh.node_class, cls]))


def generate_mesh_for_h(shape: CavityShape, R: float, h_target: float,
                        max_angular: int = 8192) -> Mesh:
    """Smallest structured mesh (by n_angular bisection) with h <= h_target."""
    if h_target <= 0:
        raise ValueError("h_target must be positive")
    # containment errors are no under-resolution: report them, not a failed search
    _check_contained(shape, R)
    gap = cavity_min_gap(shape, R)
    factor = 1.0 if isinstance(shape, Circle) else _RADIAL_COUNT_FACTOR
    n_radial = max(2, math.ceil(factor * math.sqrt(2.0) * gap / h_target))

    def build(n_ang):
        # An under-resolved angular sampling can fold the radial blend
        # into inverted triangles; treat that the same as h too large.
        try:
            return generate_mesh(shape, R, n_radial, n_ang)
        except MeshError:
            return None

    lo, hi = 8, 8
    mesh = build(hi)
    while mesh is None or mesh.h > h_target:
        hi *= 2
        if hi > max_angular:
            raise MeshError(f"cannot reach h <= {h_target} with n_angular <= {max_angular}")
        mesh = build(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        trial = build(mid)
        if trial is None or trial.h > h_target:
            lo = mid
        else:
            hi = mid
            mesh = trial
    return mesh


# ---------------------------------------------------------------------------
# ASCII import / export
# ---------------------------------------------------------------------------

def export_mesh(mesh: Mesh) -> str:
    """Serialize to the line-oriented ASCII format (inverse of import_mesh)."""
    n, m = mesh.n_nodes, mesh.n_triangles
    return (f"nodes {n}\n"
            + format_rows(range(1, n + 1), *mesh.nodes.T.tolist(),
                          mesh.node_class.tolist(), sep=" ")
            + f"triangles {m}\n"
            + format_rows(range(1, m + 1), *(mesh.triangles + 1).T.tolist(), sep=" "))


def _read_block(lines: list, pos: int, word: str, types: tuple, layout: str):
    """Typed columns and line numbers of the ``<word> <count>`` block at ``pos``."""
    header = f"'{word} <count>'"
    if pos >= len(lines):
        raise MeshError(f"unexpected end of file, expected {header}")
    (name,), (count,) = parse_rows(lines[pos:pos + 1], (str, int), header, MeshError)
    left = len(lines) - pos - 1
    if name != word or not 0 <= count <= left:
        raise MeshError(f"line {lines[pos][0]}: expected {header} with a count in 0..{left}")
    rows = lines[pos + 1:pos + 1 + count]
    return parse_rows(rows, types, layout, MeshError), [no for no, _ in rows]


def _reject(line_numbers: list, bad: np.ndarray, message: str) -> None:
    """MeshError naming the line of the first row flagged in ``bad``."""
    if np.any(bad):
        raise MeshError(f"line {line_numbers[int(np.argmax(bad))]}: {message}")


def _id_order(ids: list, line_numbers: list, what: str) -> np.ndarray:
    """Row order that sorts a block by its ids, which must be 1..len(ids)."""
    ids = np.array(ids)
    _reject(line_numbers, (ids < 1) | (ids > len(ids)), f"{what} id out of range 1..{len(ids)}")
    repeated = np.ones(len(ids), dtype=bool)
    repeated[np.unique(ids, return_index=True)[1]] = False
    _reject(line_numbers, repeated, f"duplicate {what} id")
    return np.argsort(ids)


def import_mesh(text: str) -> Mesh:
    """Parse the ASCII format; validates all mesh invariants.

    Clockwise triangles are accepted and reoriented, with a note appended
    to the returned mesh's warning list.
    """
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1)
             if ln.strip() and not ln.lstrip().startswith("#")]
    (ids, xs, ys, cls), node_lines = _read_block(
        lines, 0, "nodes", (int, float, float, str), "'<id> <x> <y> <class>'")
    (tids, *conn), tri_lines = _read_block(
        lines, len(ids) + 1, "triangles", (int,) * 4, "'<id> <n1> <n2> <n3>'")
    end = len(ids) + len(tids) + 2
    if end < len(lines):
        raise MeshError(f"line {lines[end][0]}: trailing content after triangle block")

    nodes, cls = np.column_stack([xs, ys]), np.array(cls, dtype=str)
    _reject(node_lines, ~np.isfinite(nodes).all(axis=1), "node coordinates must be finite")
    _reject(node_lines, ~np.isin(cls, ("I", "T", "D")), "node class must be I, T or D")
    order = _id_order(ids, node_lines, "node")
    nodes, cls = nodes[order], cls[order]
    conn = np.array(conn).T
    _reject(tri_lines, ((conn < 1) | (conn > len(ids))).any(axis=1),
            f"triangle references a node outside 1..{len(ids)}")
    tris = conn[_id_order(tids, tri_lines, "triangle")].astype(np.int64) - 1

    warnings = []
    p = nodes[tris]
    area2 = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    flipped = np.flatnonzero(area2 < 0)
    if len(flipped):
        tris[flipped] = tris[flipped][:, ::-1]
        warnings.append(
            f"reoriented {len(flipped)} clockwise triangle(s): "
            + ", ".join(str(k + 1) for k in flipped[:10]))
    return Mesh(nodes, tris, cls, warnings=warnings)
