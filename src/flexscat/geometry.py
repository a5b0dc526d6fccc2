"""Cavity shapes, annulus triangulation, and mesh import/export.

The computational domain is the annulus Omega = B_R \\ cavity.  Meshes are
generated by a structured radial blend between the sampled cavity boundary
and the truncation circle: node (i, j) sits at

    (1 - s_ij) * gamma(t_j) + s_ij * R * gamma(t_j) / |gamma(t_j)|,

so node column j lies on the ray through its cavity node gamma(t_j).  The
curve parameters t_j equidistribute curvature times arc speed (floored at
1/R; t_j = 2 pi j / n_angular on a circle).  The per-ray exponent beta_j in
s_ij = (i / n_radial)^beta_j matches the first layer to the cavity node
spacing (beta = 1 on a circle).  Quads split along their shorter diagonal.
generate_mesh_for_h sizes n_angular on node arrays and builds one Mesh.
This covers every star-shaped cavity; arbitrary triangulations enter
through the ASCII import format.

Node classes: 'I' interior, 'T' on the truncation circle Gamma_R, 'D' on
the cavity boundary.  The unknown-vector dimension of the scattering
solver is 2 N_I + 2 N_T + N_D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .table import format_rows, parse_rows

_CONTAINMENT_SAMPLES = 720

#: Largest n_angular the h-driven search tries.
MAX_ANGULAR = 8192

#: A triangle's area must lie in (AREA_EPS L^2, inf), with L its longest side;
#: a smaller one is degenerate.  The floor is scale-free: it bounds the shape.
AREA_EPS = 1e-14


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


def cavity_min_gap(shape: CavityShape, R: float) -> float:
    """Largest radial distance from the cavity boundary to Gamma_R.

    Raises MeshError unless the cavity lies strictly inside Gamma_R.
    """
    t = np.linspace(0.0, 2.0 * math.pi, _CONTAINMENT_SAMPLES, endpoint=False)
    pts = cavity_point(shape, t)
    r = np.hypot(pts[:, 0], pts[:, 1])
    if r.max() >= R:
        raise MeshError(f"cavity extends to radius {r.max():.6g}, not strictly inside R = {R}")
    return float(R - r.min())


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
    t_nodes, d_nodes : truncation and cavity ring node ids in ring order:
        counter-clockwise from the smallest polar angle, which is ascending
        id on a generated mesh.  All ring data follow this order.  Each ring
        is read off its triangles' orientation, which puts the domain left of
        every boundary side; no node may lie outside the truncation circle,
        and every node must lie in a triangle.
    warnings : notes from import (e.g. auto-fixed orientation)

    areas and grads are the one source of element geometry.  They and the
    other derived arrays (interior nodes, h) are cached on first use,
    which assumes the mesh is never mutated after construction.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    node_class: np.ndarray
    interior_edges: np.ndarray = field(init=False, repr=False)
    edge_tris: np.ndarray = field(init=False, repr=False)
    edge_lengths: np.ndarray = field(init=False, repr=False)
    t_nodes: np.ndarray = field(init=False, repr=False)
    d_nodes: np.ndarray = field(init=False, repr=False)
    generator: _Generator | None = None
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        # huge coordinates overflow into non-finite areas, which _validate rejects
        with np.errstate(over="ignore", invalid="ignore"):
            self._build_topology()
            self._validate()

    # -- derived quantities -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def interior_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.node_class == "I")

    @property
    def n_dofs(self) -> int:
        """Unknown-vector dimension 2 N_I + 2 N_T + N_D."""
        return (2 * len(self.interior_nodes) + 2 * len(self.t_nodes)
                + len(self.d_nodes))

    @cached_property
    def h(self) -> float:
        """Mesh size: the maximum edge length over all triangle edges."""
        return _longest_side(self.nodes[self.triangles])

    def polar_angles(self, ids) -> np.ndarray:
        """Polar angles of the nodes ``ids`` (a ring, say), in [0, 2 pi)."""
        pts = self.nodes[ids]
        return np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * math.pi)

    @cached_property
    def areas(self) -> np.ndarray:
        """Triangle areas (M,)."""
        return _signed_areas(self.nodes[self.triangles])

    @cached_property
    def grads(self) -> np.ndarray:
        """Barycentric gradients (M, 3, 2), constant per triangle."""
        v = self.nodes[self.triangles]
        # grad(lambda_i) is the opposite edge rotated by +90 degrees over twice the area
        edges = v[:, [2, 0, 1]] - v[:, [1, 2, 0]]
        return (np.stack([-edges[..., 1], edges[..., 0]], axis=-1)
                / (2.0 * self.areas)[:, None, None])

    @cached_property
    def node_text(self) -> tuple[list[str], list[str], list[str]]:
        """The node ids 1..N and the x and y coordinates as artifact text.

        Each value is formatted once per mesh by ``repr``, which equals ``str``
        for an int or a float (its shortest round-trip text), and shared by
        every writer; caching it assumes the mesh is never mutated.
        """
        return (list(map(repr, range(1, self.n_nodes + 1))),
                *(list(map(repr, column)) for column in self.nodes.T.tolist()))

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

        # sorted side s is corner s % 3 -> (s + 1) % 3 of counter-clockwise triangle
        # s // 3: Gamma_R's sides run counter-clockwise and the cavity's clockwise
        tri, corner = np.divmod(order[first[counts == 1]], 3)
        boundary = np.stack([tris[tri, corner], tris[tri, (corner + 1) % 3]], axis=1)
        cls = self.node_class[boundary]
        cav = boundary[np.all(cls == "D", axis=1)]
        trc = boundary[np.all(cls == "T", axis=1)]
        if len(cav) + len(trc) != len(boundary):
            raise MeshError("boundary edge with mixed or interior node classes")
        self.d_nodes = self._order_loop(cav[:, ::-1], "cavity")
        self.t_nodes = self._order_loop(trc, "truncation")

    def _order_loop(self, sides: np.ndarray, name: str) -> np.ndarray:
        # one side leaves and one enters each node of a ring: succ permutes its keys
        succ = dict(sides.tolist())
        if not succ:
            raise MeshError(f"{name} boundary has no edges")
        closed = len(succ) == len(sides) and succ.keys() == set(succ.values())
        loop = [min(succ)]
        while closed and succ[loop[-1]] != loop[0]:
            loop.append(succ[loop[-1]])
        if not closed or len(loop) != len(succ):
            raise MeshError(f"{name} boundary is not a single closed loop")
        k = int(np.argmin(self.polar_angles(loop)))
        return np.array(loop[k:] + loop[:k], dtype=np.int64)

    def _validate(self):
        p = self.nodes[self.triangles]
        bad = np.flatnonzero(~_area_ok(p, self.areas))
        if len(bad):
            k = bad[0]
            raise MeshError(f"{len(bad)} degenerate triangle(s): area outside ({AREA_EPS:g} L^2, "
                            f"inf) for longest side L, the first {self.areas[k]:.3e} with "
                            f"L = {_longest_side(p[k:k + 1]):.3e}")
        if not np.isin(self.node_class, ("I", "T", "D")).all():
            raise MeshError("unknown node class")
        off_loop = self.node_class != "I"
        off_loop[self.d_nodes] = False
        off_loop[self.t_nodes] = False
        if np.any(off_loop):
            raise MeshError(f"{self._node_name(np.flatnonzero(off_loop)[0])} classed as "
                            "boundary but not on a boundary loop")
        r = np.linalg.norm(self.nodes, axis=1)
        rt, tol = r[self.t_nodes], 1e-12 * r[self.t_nodes].mean()
        if rt.max() - rt.min() > tol:
            raise MeshError("T nodes do not lie on a common circle")
        if r.max() - rt.mean() > tol:
            raise MeshError(f"{self._node_name(np.argmax(r))} lies outside the truncation circle")
        unused = np.flatnonzero(np.bincount(self.triangles.ravel(), minlength=self.n_nodes) == 0)
        if len(unused):
            raise MeshError(f"{self._node_name(unused[0])} is in no triangle")

    def _node_name(self, v) -> str:
        """Node v as a mesh file numbers it (from 1), with its coordinates."""
        return "node {} at ({:.6g}, {:.6g})".format(v + 1, *self.nodes[v])


def _area_ok(p: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Per triangle p (M, 3, 2) of these areas, whether its area lies in
    (AREA_EPS L^2, inf), with L its longest side."""
    sides = np.diff(p[:, [0, 1, 2, 0]], axis=1)
    longest2 = np.einsum("mks,mks->mk", sides, sides).max(axis=1)
    return (AREA_EPS * longest2 < areas) & (areas < np.inf)


def _signed_areas(p: np.ndarray) -> np.ndarray:
    """Areas of triangles p (M, 3, 2), positive when counter-clockwise."""
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def _longest_side(p: np.ndarray) -> float:
    """Longest side over all triangles p (M, 3, 2)."""
    return float(np.linalg.norm(p - np.roll(p, -1, axis=1), axis=2).max())


#: Dense sampling used to tabulate arc length and curvature for grading.
_GRADING_SAMPLES = 4096

#: Radial layers cluster toward the cavity as s_i = (i / n)^beta per ray,
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


def _graded_params(shape: CavityShape, R: float, n_angular: int) -> np.ndarray:
    """Curve parameters of the cavity nodes, graded by curvature.

    Spacing follows the equidistribution density curvature * arc speed,
    floored at the truncation circle's curvature 1/R, so curvature-scale
    solution features (bending-moment peaks) stay resolved along
    high-curvature cavities.  Uniform for a circle.
    """
    if isinstance(shape, Circle):
        # not 2 pi * (j / n): that rounds differently and flips tied diagonals
        return 2.0 * math.pi * np.arange(n_angular) / n_angular
    m = _GRADING_SAMPLES
    dt = 2.0 * math.pi / m
    t = dt * np.arange(m)
    pts = cavity_point(shape, t)
    d1 = (np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)) / (2.0 * dt)
    d2 = (np.roll(pts, -1, axis=0) - 2.0 * pts + np.roll(pts, 1, axis=0)) / dt ** 2
    speed = np.hypot(d1[:, 0], d1[:, 1])
    curv = np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed ** 3
    density = speed * np.maximum(curv, 1.0 / R)
    cdf = np.concatenate([[0.0], np.cumsum(density)])
    cdf /= cdf[-1]
    u = np.arange(n_angular) / n_angular
    return np.interp(u, cdf, np.append(t, 2.0 * math.pi))


# ---------------------------------------------------------------------------
# Generation / refinement
# ---------------------------------------------------------------------------

def _structured(shape: CavityShape, R: float, n_radial: int, n_angular: int):
    """Nodes, counter-clockwise triangles and node classes of the radial blend."""
    t = _graded_params(shape, R, n_angular)
    inner = cavity_point(shape, t)  # (n_angular, 2)
    # each node column lies on the ray through its cavity node, so every
    # blend segment is radial; nonconvex star-shaped cavities stay untangled
    psi = t if isinstance(shape, Circle) else np.arctan2(inner[:, 1], inner[:, 0])
    outer = R * np.stack([np.cos(psi), np.sin(psi)], axis=1)
    beta = _radial_grading_exponents(shape, inner, outer, n_radial)
    frac = np.arange(n_radial + 1) / n_radial
    s = (frac[:, None] ** beta[None, :])[..., None]  # (n_radial+1, n_angular, 1)
    nodes = ((1.0 - s) * inner[None] + s * outer[None]).reshape(-1, 2)

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
    return nodes, triangles.reshape(-1, 3), cls


def generate_mesh(shape: CavityShape, R: float, n_radial: int,
                  n_angular: int) -> Mesh:
    """Structured radial-blend mesh of the annulus B_R minus the cavity."""
    if n_radial < 2:
        raise ValueError("n_radial must be at least 2")
    if n_angular < 8:
        raise ValueError("n_angular must be at least 8")
    cavity_min_gap(shape, R)  # raises unless the cavity fits inside Gamma_R
    return Mesh(*_structured(shape, R, n_radial, n_angular),
                generator=_Generator(shape, R, n_radial, n_angular))


def refine(mesh: Mesh) -> Mesh:
    """Regenerate with doubled radial and angular resolution (h halves)."""
    g = mesh.generator
    if g is None:
        raise MeshError("refine requires a mesh produced by generate_mesh")
    return generate_mesh(g.shape, g.R, 2 * g.n_radial, 2 * g.n_angular)


def generate_mesh_for_h(shape: CavityShape, R: float, h_target: float) -> Mesh:
    """Smallest structured mesh with h <= h_target, by n_angular bisection on node arrays."""
    if h_target <= 0:
        raise ValueError("h_target must be positive")
    # containment errors are no under-resolution: report them, not a failed search
    gap = cavity_min_gap(shape, R)
    unreachable = f"cannot reach h <= {h_target} with n_angular <= {MAX_ANGULAR}"
    # truncation chords are triangle sides: h >= 2 R sin(pi / n_angular)
    if MAX_ANGULAR * math.asin(min(1.0, h_target / (2.0 * R))) < math.pi:
        raise MeshError(unreachable)
    factor = 1.0 if isinstance(shape, Circle) else _RADIAL_COUNT_FACTOR
    n_radial = max(2, math.ceil(factor * math.sqrt(2.0) * gap / h_target))

    def fits(n_angular: int) -> bool:
        # an under-resolved sampling can fold the blend into inverted triangles;
        # coordinates near the float limit give non-finite areas and sides
        with np.errstate(over="ignore", invalid="ignore"):
            nodes, triangles, _ = _structured(shape, R, n_radial, n_angular)
            p = nodes[triangles]
            return bool(np.all(_area_ok(p, _signed_areas(p)))) and _longest_side(p) <= h_target

    lo, hi = 8, 8
    while not fits(hi):
        hi *= 2
        if hi > MAX_ANGULAR:
            raise MeshError(unreachable)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return generate_mesh(shape, R, n_radial, hi)


# ---------------------------------------------------------------------------
# ASCII import / export
# ---------------------------------------------------------------------------

def export_mesh(mesh: Mesh) -> str:
    """Serialize to the line-oriented ASCII format (inverse of import_mesh)."""
    n, m = mesh.n_nodes, mesh.n_triangles
    return (f"nodes {n}\n"
            + format_rows(*mesh.node_text, mesh.node_class.tolist(), sep=" ")
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
    flipped = np.flatnonzero(_signed_areas(nodes[tris]) < 0)
    if len(flipped):
        tris[flipped] = tris[flipped][:, ::-1]
        warnings.append(
            f"reoriented {len(flipped)} clockwise triangle(s): "
            + ", ".join(str(k + 1) for k in flipped[:10]))
    return Mesh(nodes, tris, cls, warnings=warnings)
