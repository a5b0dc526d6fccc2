"""Element matrices, penalty matrices, and the global coupled block system.

Scalar matrices live on all mesh nodes:

* stiffness  Kbar[j,l] = int grad(phi_j) . grad(phi_l)
* mass       Mbar[j,l] = int phi_j phi_l
* interior Neumann penalty  KbarJ = sum_e h_e^2 g_e g_e^T, with g_e the
  discretized normal-derivative jump across interior edge e
* boundary tangential penalty  KG = sum over cavity edges of the local
  matrix [[1,-1],[-1,1]] on the edge's two D nodes

The coupled system couples a Helmholtz field p and a modified-Helmholtz
field q that share one unknown per cavity-boundary node.  Unknown ordering
is (P_I, Q_I, P_T, Q_T, P_D); within each block, mesh node order.  With P
the 0/1 relabelling from unknowns to the nodal pair (p, q), on whose D rows
p and q read the same column,

    A = P^T blockdiag(B1, -B2) P + DtN,
    B1 = Kbar - kappa^2 Mbar - gamma KbarJ - eta KG,
    B2 = Kbar + kappa^2 Mbar + gamma KbarJ,

where DtN puts -T_p on the P_T block and +T_q on the Q_T block.  A D row
thus holds the coupling B1 p - B2 q.  As P only relabels, build_system
forms no product: it maps each entry of B1 through p_dof and of -B2
through q_dof, puts the DtN entries on the T rows, and sums duplicates
(two terms at most, on D-D and T-T entries) in one sparse conversion.  The
q-field rows are scaled by -1 so that A = A^T exactly, by construction:
every block (Kbar, Mbar, KbarJ, KG, DtN) is exactly symmetric and an entry
of A sums at most two terms, which commute.  The direct solver and the
sign-structure tests rely on it.

A sweep solves many systems on one mesh that differ only in kappa, the
penalty value and the TBC.  A's pattern depends on the mesh and the method
kind alone (a zero penalty adds no entries), so build_system keeps one
SystemPattern per ScalarMatrices and kind.  The first system of a kind is
built as above and pays nothing more.  The second derives the pattern
stage: A's CSR structure, the slot of every relabelled entry, and the
scalar terms aligned to one node-pair pattern.  Every later system is a
value stage: B1 and B2 in the same operation order as the sparse sums,
then one gather and one add into A.data.  A is bit-identical to the
general build, pattern included; a system whose B1 or B2 cancels to an
exact zero, which the sparse sums would drop, takes the general build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

@dataclass
class ScalarMatrices:
    """Global real matrices over all mesh nodes (penalties unscaled).

    Never mutated once assembled: `patterns` keeps, per method kind, the
    SystemPattern that build_system derives from them.
    """

    kbar: sp.csr_matrix
    mbar: sp.csr_matrix
    kbar_j: sp.csr_matrix
    kg: sp.csr_matrix
    patterns: dict = field(default_factory=dict, init=False, repr=False, compare=False)


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
    a = mesh.cavity_loop
    b = np.roll(a, -1)
    rows = np.stack([a, a, b, b], axis=1).ravel()
    cols = np.stack([a, b, a, b], axis=1).ravel()
    vals = np.tile([1.0, -1.0, -1.0, 1.0], len(a))
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def assemble_all(mesh: Mesh) -> ScalarMatrices:
    kbar, mbar = assemble_scalar(mesh)
    return ScalarMatrices(kbar, mbar, assemble_interior_penalty(mesh),
                          assemble_boundary_penalty(mesh))


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
    method: Method
    pattern: SystemPattern | None = None
    tbc: TbcMatrix | None = None  # its low-rank form serves the real solve


def _node_pair_keys(m: sp.csr_matrix) -> np.ndarray:
    """row * n + col of each stored entry of a square CSR matrix, in order."""
    n = m.shape[0]
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(m.indptr)) * n + m.indices


def _entry_positions(mesh: Mesh, dof: DofMap, b1_ij, b2_ij) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) in A of B1's entries by p_dof, -B2's by q_dof, then the
    -T_p and T_q blocks: the order in which build_system lists A's entries."""
    t_p, t_q = dof.p_dof[mesh.t_nodes], dof.q_dof[mesh.t_nodes]
    nt = len(t_p)
    rows = (dof.p_dof[b1_ij[0]], dof.q_dof[b2_ij[0]], np.repeat(t_p, nt), np.repeat(t_q, nt))
    cols = (dof.p_dof[b1_ij[1]], dof.q_dof[b2_ij[1]], np.tile(t_p, nt), np.tile(t_q, nt))
    return np.concatenate(rows), np.concatenate(cols)


class SystemPattern:
    """A's structure for one method kind on one mesh's scalar matrices.

    Derived at the kind's second build_system call, so that a single solve
    pays nothing for it.  `ordering` is left to the solver, which keeps the
    fill-reducing permutation of A's pattern there.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.dof = build_dof_map(mesh)
        self.ordering = None
        self.terms: tuple[np.ndarray, ...] | None = None  # None: not derived yet
        self.indptr = self.indices = None

    def _derive(self, scalars: ScalarMatrices, kind: str) -> None:
        mats = [scalars.kbar, scalars.mbar] + {"regular": [], "ip": [scalars.kbar_j],
                                               "bp": [scalars.kg]}[kind]
        if not all(m.has_canonical_format for m in mats):
            self.terms = ()  # a duplicate entry would be summed, not aligned
            return
        # node pairs of B1 and B2: a zero penalty adds no entries to either
        keys = [_node_pair_keys(m) for m in mats]
        pairs = np.unique(np.concatenate(keys))
        self.terms = tuple(np.zeros(len(pairs)) for _ in mats)
        for m, k, aligned in zip(mats, keys, self.terms):
            aligned[np.searchsorted(pairs, k)] = m.data
        ij = np.divmod(pairs, self.mesh.n_nodes)
        rows, cols = _entry_positions(self.mesh, self.dof, ij, ij)
        size = self.dof.size
        slots, self.first, inverse = np.unique(rows * size + cols, return_index=True,
                                               return_inverse=True)
        # a slot holds at most two entries (see build_system)
        self.dup_src = np.flatnonzero(self.first[inverse] != np.arange(len(rows)))
        self.dup_slot = inverse[self.dup_src]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(slots // size, minlength=size))])
        skeleton = sp.csr_matrix((np.zeros(len(slots)), slots % size, indptr),
                                 shape=(size, size))
        self.indptr, self.indices = skeleton.indptr, skeleton.indices

    def fill(self, scalars: ScalarMatrices, tbc, kappa: float,
             method: Method) -> sp.csr_matrix | None:
        """A on this pattern, or None where the general build must run."""
        if self.terms is None:
            self._derive(scalars, method.kind)
        if not self.terms:
            return None
        kbar, mbar, *penalty = self.terms
        # the sparse sums' operation order; an absent term reads 0 there too
        b1 = kbar - kappa**2 * mbar
        b2 = kbar + kappa**2 * mbar
        if method.kind == "ip":
            b1 = b1 - method.gamma * penalty[0]
            b2 = b2 + method.gamma * penalty[0]
        elif method.kind == "bp":
            b1 = b1 - method.eta * penalty[0]
        if not (b1.all() and b2.all()):
            return None  # the sparse sums drop an exact zero
        vals = np.concatenate([b1, -b2, -tbc.p_block.ravel(), tbc.q_block.ravel()])
        data = vals[self.first]
        data[self.dup_slot] += vals[self.dup_src]
        size = self.dof.size
        A = sp.csr_matrix((data, self.indices, self.indptr), shape=(size, size))
        # the pattern's own arrays, not views: the solver tells a system
        # filled into this pattern by their identity
        A.indptr, A.indices = self.indptr, self.indices
        return A


def build_system(mesh: Mesh, scalars: ScalarMatrices, tbc, load_t: np.ndarray,
                 kappa: float, method: Method) -> BlockSystem:
    """Assemble the global penalized system.

    Parameters
    ----------
    tbc : TbcMatrix
        Dense transparent-boundary blocks over the T nodes (mesh order).
    load_t : complex vector over T nodes
        Incident-field load; lands on the p-field T rows.
    """
    pattern = scalars.patterns.get(method.kind)
    later = pattern is not None and pattern.mesh is mesh
    if not later:
        pattern = scalars.patterns[method.kind] = SystemPattern(mesh)
    dof = pattern.dof
    nt = dof.n_trunc
    if tbc.p_block.shape != (nt, nt) or len(load_t) != nt:
        raise AssemblyError("TBC/load dimensions do not match the mesh T nodes")

    A = pattern.fill(scalars, tbc, kappa, method) if later else None
    if A is None:
        A = _relabel(mesh, scalars, tbc, kappa, method, dof)
    F = np.zeros(dof.size, dtype=complex)
    F[dof.p_dof[mesh.t_nodes]] = load_t
    return BlockSystem(A, F, dof, method, pattern, tbc)


def _relabel(mesh: Mesh, scalars: ScalarMatrices, tbc, kappa: float, method: Method,
             dof: DofMap) -> sp.csr_matrix:
    """The general build: B1 and B2 as sparse sums, relabelled in one conversion."""
    b1 = (scalars.kbar - kappa**2 * scalars.mbar - method.gamma * scalars.kbar_j
          - method.eta * scalars.kg)
    b2 = scalars.kbar + kappa**2 * scalars.mbar + method.gamma * scalars.kbar_j

    # the relabelling P: a D node's p and q entries land in its one shared
    # row and column, where csr conversion sums them
    b1, b2 = b1.tocoo(), b2.tocoo()
    rows, cols = _entry_positions(mesh, dof, (b1.row, b1.col), (b2.row, b2.col))
    vals = np.concatenate([b1.data, -b2.data, -tbc.p_block.ravel(), tbc.q_block.ravel()])
    # every block is exactly symmetric and each entry sums at most two
    # terms, so A = A^T exactly without a repair pass
    return sp.csr_matrix((vals, (rows, cols)), shape=(dof.size, dof.size))
