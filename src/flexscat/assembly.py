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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
    """Global real matrices over all mesh nodes (penalties unscaled)."""

    kbar: sp.csr_matrix
    mbar: sp.csr_matrix
    kbar_j: sp.csr_matrix
    kg: sp.csr_matrix


def assemble_scalar(mesh: Mesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Global stiffness and mass matrices (symmetric by construction)."""
    n, tris, area, grads = mesh.n_nodes, mesh.triangles, mesh.areas, mesh.grads
    k_loc = area[:, None, None] * (grads @ grads.transpose(0, 2, 1))
    m_loc = area[:, None, None] * _MASS_REF
    ij = (np.repeat(tris, 3, axis=1).ravel(), np.tile(tris, 3).ravel())
    kbar = sp.coo_matrix((k_loc.ravel(), ij), shape=(n, n)).tocsr()
    mbar = sp.coo_matrix((m_loc.ravel(), ij), shape=(n, n)).tocsr()
    return kbar, mbar


def interior_jump_vector(mesh: Mesh, edge_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse jump vector g_e of [d_nu phi] across one interior edge.

    Returns (node_ids, coefficients).  The normal points from the adjacent
    element with the smaller element index to the other one; flipping that
    convention flips g_e's sign, which cancels in g_e g_e^T.
    """
    a, b = mesh.interior_edges[edge_index]
    k_lo, k_hi = mesh.edge_tris[edge_index]  # ascending element order
    tang = mesh.nodes[b] - mesh.nodes[a]
    normal = np.array([tang[1], -tang[0]])
    normal /= np.linalg.norm(normal)
    tri_lo = mesh.triangles[k_lo]
    # orient the normal out of the lower-index element
    centroid = mesh.nodes[tri_lo].mean(axis=0)
    if np.dot(normal, mesh.nodes[a] - centroid) < 0:
        normal = -normal
    # one row dot product per node: a matrix-vector product would round the
    # normal derivatives differently from the per-node np.dot they replace
    dn = (mesh.grads[[k_lo, k_hi], :, None, :] @ normal[:, None]).reshape(2, 3).tolist()
    coeffs: dict[int, float] = {}
    for k, sign, d in ((k_lo, 1.0, dn[0]), (k_hi, -1.0, dn[1])):
        for node, x in zip(mesh.triangles[k].tolist(), d):
            coeffs[node] = coeffs.get(node, 0.0) + sign * x
    ids = np.array(sorted(coeffs), dtype=np.int64)
    return ids, np.array([coeffs[i] for i in ids])


def assemble_interior_penalty(mesh: Mesh) -> sp.csr_matrix:
    """KbarJ = sum_e h_e^2 g_e g_e^T over all interior edges (unscaled)."""
    n = mesh.n_nodes
    rows, cols, vals = [], [], []
    for e in range(len(mesh.interior_edges)):
        ids, g = interior_jump_vector(mesh, e)
        rows.append(np.repeat(ids, len(ids)))
        cols.append(np.tile(ids, len(ids)))
        vals.append((mesh.edge_lengths[e] ** 2 * np.outer(g, g)).ravel())
    # the edge sums can round (i, j) and (j, i) apart: symmetrize exactly, once
    kj = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n, n)).tocsr()
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

    def block_slices(self) -> dict[str, slice]:
        ni, nt, nd = self.n_interior, self.n_trunc, self.n_cavity
        ofs = np.cumsum([0, ni, ni, nt, nt, nd])
        names = ["P_I", "Q_I", "P_T", "Q_T", "P_D"]
        return {nm: slice(int(a), int(b)) for nm, a, b in zip(names, ofs[:-1], ofs[1:])}


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
    dof = build_dof_map(mesh)
    nt = dof.n_trunc
    if tbc.p_block.shape != (nt, nt) or len(load_t) != nt:
        raise AssemblyError("TBC/load dimensions do not match the mesh T nodes")

    b1 = (scalars.kbar - kappa**2 * scalars.mbar - method.gamma * scalars.kbar_j
          - method.eta * scalars.kg)
    b2 = scalars.kbar + kappa**2 * scalars.mbar + method.gamma * scalars.kbar_j

    # the relabelling P: a D node's p and q entries land in its one shared
    # row and column, where csr conversion sums them
    b1, b2 = b1.tocoo(), b2.tocoo()
    t_p, t_q = dof.p_dof[mesh.t_nodes], dof.q_dof[mesh.t_nodes]
    rows, cols, vals = map(np.concatenate, zip(
        (dof.p_dof[b1.row], dof.p_dof[b1.col], b1.data),
        (dof.q_dof[b2.row], dof.q_dof[b2.col], -b2.data),
        (np.repeat(t_p, nt), np.tile(t_p, nt), -tbc.p_block.ravel()),
        (np.repeat(t_q, nt), np.tile(t_q, nt), tbc.q_block.ravel())))
    # every block is exactly symmetric and each entry sums at most two
    # terms, so A = A^T exactly without a repair pass
    A = sp.csr_matrix((vals, (rows, cols)), shape=(dof.size, dof.size))

    F = np.zeros(dof.size, dtype=complex)
    F[dof.p_dof[mesh.t_nodes]] = load_t
    return BlockSystem(A, F, dof, method)
