"""Element matrices, penalty matrices, and the global coupled block system.

Scalar matrices live on all mesh nodes, each penalty built at its first read:

* stiffness  Kbar[j,l] = int grad(phi_j) . grad(phi_l)
* mass       Mbar[j,l] = int phi_j phi_l
* interior Neumann penalty  KbarJ = sum_e h_e^2 g_e g_e^T, with g_e the
  discretized normal-derivative jump across interior edge e
* boundary tangential penalty  KG = sum over cavity edges of the local
  matrix [[1,-1],[-1,1]] on the edge's two D nodes

The coupled system couples a Helmholtz field p and a modified-Helmholtz
field q that share one unknown per cavity-boundary node.  Unknown ordering
is (P_I, Q_I, P_T, Q_T, P_D); I in node order, T and D in ring order.  With P
the 0/1 relabelling from unknowns to the nodal pair (p, q), on whose D rows
p and q read the same column,

    A = P^T blockdiag(B1, -B2) P + DtN,
    B1 = Kbar - kappa^2 Mbar - gamma KbarJ - eta KG,
    B2 = Kbar + kappa^2 Mbar + gamma KbarJ,

where DtN puts -T_p on the P_T block and +T_q on the Q_T block.  A D row
thus holds the coupling B1 p - B2 q.  As P only relabels, build_system
forms no product: it maps each entry of B1 through p_dof and of -B2
through q_dof, puts the DtN entries on the T rows, and sums duplicates
(two terms at most, on D-D and T-T entries).  The q-field rows are scaled
by -1 so that A = A^T exactly, by construction: every block (Kbar, Mbar,
KbarJ, KG, DtN) is exactly symmetric and an entry of A sums at most two
terms, which commute.  The direct solver and the sign-structure tests rely
on it.

The p and q halves meet only in the shared cavity unknowns P_D, A's last
n_cavity unknowns.  The solver's minimum degree (on A + A^T) alone would
eliminate those low-degree unknowns early and so join the halves' fill.
An IP pattern therefore also stores an entry for every pair of P_D
unknowns, zero where the formula has none: each then has degree at least
n_cavity and is ordered last, as a constrained minimum degree (CAMD) would
order it.  That pays where the KbarJ stencil carries the fill: nnz(L+U)
3.28M without the clique against 2.65M with it on a 13,520-dof kite.
Regular and BP patterns store no clique; there it gained no time.

A sweep solves many systems on one mesh that differ only in kappa, the
penalty value and the TBC.  A's pattern depends on the mesh and the method
kind alone, so build_system keeps one SystemPattern per ScalarMatrices and
kind, built at the kind's first system: the node pairs of B1 and B2, A's
CSR structure and the slot of every relabelled entry.  Every system is
filled into it in the operation order of the sparse sums above, so A
equals the formula bit for bit on the formula's entries and is zero on
the clique's others; an entry of B1 or B2 that cancels to an exact zero,
which the sparse sums would drop, is stored as a zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .dtn import TbcMatrix
from .geometry import Mesh

_MASS_REF = np.array([[2.0, 1.0, 1.0],
                      [1.0, 2.0, 1.0],
                      [1.0, 1.0, 2.0]]) / 12.0


class AssemblyError(Exception):
    pass


# ---------------------------------------------------------------------------
# Method choice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Method:
    """Stabilization choice: 'regular', 'ip' (gamma > 0), or 'bp' (eta > 0).

    Each kind carries only its own finite penalty; the other stays 0.
    """

    kind: str
    gamma: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("regular", "ip", "bp"):
            raise ValueError(f"unknown method kind {self.kind!r}")
        for name, own in (("gamma", self.kind == "ip"), ("eta", self.kind == "bp")):
            value = getattr(self, name)
            if own and not 0 < value < math.inf:
                raise ValueError(f"{self.label} method requires a finite {name} > 0")
            if not own and value != 0:
                raise ValueError(f"{self.label} method takes no {name}")

    @staticmethod
    def regular() -> "Method":
        return Method("regular")

    @staticmethod
    def interior_penalty(gamma: float) -> "Method":
        return Method("ip", gamma=gamma)

    @staticmethod
    def boundary_penalty(eta: float) -> "Method":
        return Method("bp", eta=eta)

    @property
    def label(self) -> str:
        return {"regular": "regular", "ip": "IP", "bp": "BP"}[self.kind]


# ---------------------------------------------------------------------------
# Global scalar matrices
# ---------------------------------------------------------------------------

class ScalarMatrices:
    """Global real matrices over all nodes of `mesh`, penalties unscaled:
    Kbar and Mbar assembled at construction, each penalty at its first read.
    Never mutated once built; `patterns` keeps, per method kind, the
    SystemPattern that build_system derives from these matrices alone."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.kbar, self.mbar = assemble_scalar(mesh)
        self.patterns: dict[str, SystemPattern] = {}

    @cached_property
    def kbar_j(self) -> sp.csr_matrix:
        return assemble_interior_penalty(self.mesh)

    @cached_property
    def kg(self) -> sp.csr_matrix:
        return assemble_boundary_penalty(self.mesh)


def assemble_scalar(mesh: Mesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Global stiffness and mass matrices (symmetric by construction)."""
    n, tris, area, grads = mesh.n_nodes, mesh.triangles, mesh.areas, mesh.grads
    k_loc = area[:, None, None] * (grads @ grads.transpose(0, 2, 1))
    m_loc = area[:, None, None] * _MASS_REF
    ij = (np.repeat(tris, 3, axis=1).ravel(), np.tile(tris, 3).ravel())
    kbar = sp.coo_matrix((k_loc.ravel(), ij), shape=(n, n)).tocsr()
    mbar = sp.coo_matrix((m_loc.ravel(), ij), shape=(n, n)).tocsr()
    return kbar, mbar


def assemble_interior_penalty(mesh: Mesh) -> sp.csr_matrix:
    """KbarJ = sum_e h_e^2 g_e g_e^T over all interior edges (unscaled).

    g_e lists the normal derivatives of the shape functions of the edge's
    two elements, the second element's negated: the jump [d_nu phi].  The
    normal is not oriented, as its sign flips g_e, which cancels in
    g_e g_e^T.  Each edge emits 36 entries; csr conversion sums those of its
    two shared nodes.
    """
    a, b = mesh.interior_edges.T
    tang = mesh.nodes[b] - mesh.nodes[a]
    normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / mesh.edge_lengths[:, None]
    dn = (mesh.grads[mesh.edge_tris] @ normal[:, None, :, None])[..., 0]  # (E, 2, 3)
    g = (dn * np.array([[1.0], [-1.0]])).reshape(-1, 6)
    # int32 node ids: scipy's index type, so coo_matrix keeps them without a copy
    ids = mesh.triangles[mesh.edge_tris].reshape(-1, 6).astype(np.int32)
    vals = g[:, :, None] * g[:, None, :]
    vals *= mesh.edge_lengths[:, None, None] ** 2
    rows, cols = np.repeat(ids, 6, axis=1).ravel(), np.tile(ids, 6).ravel()
    kj = sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(mesh.n_nodes,) * 2).tocsr()
    # the edge sums can round (i, j) and (j, i) apart: symmetrize exactly, once
    return 0.5 * (kj + kj.T)


def assemble_boundary_penalty(mesh: Mesh) -> sp.csr_matrix:
    """KG over all nodes: local [[1,-1],[-1,1]] per cavity edge (unscaled).

    Nonzero only on the D-node block; the eta * h_e weight times the exact
    edge integral of the tangential derivatives reduces to this constant
    local matrix for linear elements.
    """
    n = mesh.n_nodes
    a = mesh.d_nodes
    b = np.roll(a, -1)
    rows = np.stack([a, a, b, b], axis=1).ravel()
    cols = np.stack([a, b, a, b], axis=1).ravel()
    vals = np.tile([1.0, -1.0, -1.0, 1.0], len(a))
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


# ---------------------------------------------------------------------------
# Block system
# ---------------------------------------------------------------------------

@dataclass
class DofMap:
    """Maps (field, node) to a row of the unknown vector (P_I,Q_I,P_T,Q_T,P_D)."""

    p_dof: np.ndarray  # per node: row of its p unknown
    q_dof: np.ndarray  # per node: row of its q unknown (= p_dof on D nodes)
    n_interior: int
    n_trunc: int
    n_cavity: int

    @property
    def size(self) -> int:
        return 2 * self.n_interior + 2 * self.n_trunc + self.n_cavity


def build_dof_map(mesh: Mesh) -> DofMap:
    ni, nt, nd = len(mesh.interior_nodes), len(mesh.t_nodes), len(mesh.d_nodes)
    p_dof = np.full(mesh.n_nodes, -1, dtype=np.int64)
    q_dof = np.full(mesh.n_nodes, -1, dtype=np.int64)
    p_dof[mesh.interior_nodes] = np.arange(ni)
    q_dof[mesh.interior_nodes] = ni + np.arange(ni)
    p_dof[mesh.t_nodes] = 2 * ni + np.arange(nt)
    q_dof[mesh.t_nodes] = 2 * ni + nt + np.arange(nt)
    shared = 2 * ni + 2 * nt + np.arange(nd)
    p_dof[mesh.d_nodes] = shared
    q_dof[mesh.d_nodes] = shared
    return DofMap(p_dof, q_dof, ni, nt, nd)


@dataclass
class BlockSystem:
    """Sparse complex-symmetric system A W = F for W = (P_I,Q_I,P_T,Q_T,P_D)."""

    A: sp.csr_matrix
    F: np.ndarray
    dof_map: DofMap
    pattern: SystemPattern | None = None
    tbc: TbcMatrix | None = None  # its low-rank form serves the real solve


def _merge(keys: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The sorted distinct values of all `keys` and, per array, the position
    of each of its entries among them.  The arrays come in long ascending
    runs, which a stable sort (timsort) merges in about linear time."""
    flat = np.concatenate(keys)
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    new = np.concatenate([[True], flat[1:] != flat[:-1]])
    at = np.empty(len(flat), dtype=np.int32)
    at[order] = np.cumsum(new, dtype=np.int32) - 1
    return flat[new], np.split(at, np.cumsum([len(k) for k in keys[:-1]]))


class SystemPattern:
    """A's structure for one method kind on one ScalarMatrices, built
    at the kind's first build_system call and filled by every system of it.
    `ordering` is left to the solver, which keeps the fill-reducing
    permutation of A's pattern there."""

    def __init__(self, scalars: ScalarMatrices, kind: str):
        mesh = scalars.mesh
        self.dof = dof = build_dof_map(mesh)
        self.ordering = None
        n, size = mesh.n_nodes, dof.size
        self.mats = [getattr(scalars, name) for name in ["kbar", "mbar"] + {
            "regular": [], "ip": ["kbar_j"], "bp": ["kg"]}[kind]]
        # B1 and B2 live on the node pairs of the kind's scalar matrices; maps
        # holds each matrix's positions among them (a copy, so the rest is
        # freed), or all of them for a matrix on every pair
        pairs, maps = _merge([np.repeat(np.arange(n, dtype=np.int64), np.diff(m.indptr))
                              * n + m.indices for m in self.mats])
        self.n_pairs = len(pairs)
        self.maps = [slice(None) if len(at) == len(pairs) else at.copy() for at in maps]
        # A's entries, listed as B1's by p_dof, -B2's by q_dof, then the -T_p
        # and T_q blocks; slots holds the position in A.data of each entry of
        # B1 and -B2.  The T unknowns of a field are consecutive, so each T row
        # holds its block row as one run of n_trunc slots: runs holds, per
        # block, the first slot of each row's run
        i, j = np.divmod(pairs, n)
        t_p, t_q = dof.p_dof[mesh.t_nodes], dof.q_dof[mesh.t_nodes]
        blocks = [dof.p_dof[i] * size + dof.p_dof[j], dof.q_dof[i] * size + dof.q_dof[j],
                  (t_p[:, None] * size + t_p).ravel(), (t_q[:, None] * size + t_q).ravel()]
        if kind == "ip":  # the cavity clique: every P_D pair, zero where B1, B2 have none
            d = np.arange(size - dof.n_cavity, size)
            blocks.append((d[:, None] * size + d).ravel())
        keys, slots = _merge(blocks)
        # copies: the views would keep the blocks' slots alive
        self.slots = [at.copy() for at in slots[:2]]
        self.runs = [at[::dof.n_trunc].copy() for at in slots[2:4]]
        self.indptr = np.searchsorted(keys, np.arange(size + 1) * size).astype(np.int32)
        self.indices = (keys - np.repeat(np.arange(size) * size, np.diff(self.indptr))
                        ).astype(np.int32)  # key - row * size, without a division

    def fill(self, tbc, kappa: float, method: Method) -> sp.csr_matrix:
        """A for these values, holding this pattern's indptr and indices."""
        kbar, mbar, *penalty = terms = [np.zeros(self.n_pairs) for _ in self.mats]
        for term, m, at in zip(terms, self.mats, self.maps):
            term[at] = m.data
        # the sparse sums' operation order, where an absent entry reads 0;
        # an exact zero is kept as an entry of A
        b1 = kbar - kappa**2 * mbar
        b2 = kbar + kappa**2 * mbar
        if method.kind == "ip":
            b1 = b1 - method.gamma * penalty[0]
            b2 = b2 + method.gamma * penalty[0]
        elif method.kind == "bp":
            b1 = b1 - method.eta * penalty[0]
        # a slot holds one entry, or two on the D-D and T-T blocks; -0.0 is
        # the exact identity of +, so each slot ends as its one value or the
        # sum of its two
        data = np.full(len(self.indices), complex(-0.0, -0.0))
        for at, vals in zip(self.slots, (b1, -b2)):
            np.add.at(data, at, vals.astype(complex))  # complex: ufunc.at's fast loop
        cols = np.arange(self.dof.n_trunc)
        for starts, block in zip(self.runs, (-tbc.p_block, tbc.q_block)):
            data[starts[:, None] + cols] += block  # each row into its run, each slot once
        A = sp.csr_matrix((data, self.indices, self.indptr), shape=(self.dof.size,) * 2)
        # the pattern's own arrays, not views: the solver tells a system of
        # this pattern by their identity
        A.indptr, A.indices = self.indptr, self.indices
        return A


def build_system(mesh: Mesh, scalars: ScalarMatrices, tbc, load_t: np.ndarray,
                 kappa: float, method: Method) -> BlockSystem:
    """Assemble the global penalized system.

    Parameters
    ----------
    tbc : TbcMatrix
        Dense transparent-boundary blocks over the T nodes (ring order).
    load_t : complex vector over T nodes
        Incident-field load; lands on the p-field T rows.
    """
    if mesh is not scalars.mesh:
        raise AssemblyError("the scalar matrices were assembled on another mesh")
    pattern = scalars.patterns.get(method.kind)
    if pattern is None:
        pattern = scalars.patterns[method.kind] = SystemPattern(scalars, method.kind)
    dof = pattern.dof
    nt = dof.n_trunc
    if tbc.p_block.shape != (nt, nt) or len(load_t) != nt:
        raise AssemblyError("TBC/load dimensions do not match the mesh T nodes")

    F = np.zeros(dof.size, dtype=complex)
    F[dof.p_dof[mesh.t_nodes]] = load_t
    return BlockSystem(pattern.fill(tbc, kappa, method), F, dof, pattern, tbc)
