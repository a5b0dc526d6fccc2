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
the 0/1 map from unknowns to the nodal pair (p, q), on whose D rows p and
q read the same column,

    A = P^T blockdiag(B1, -B2) P + DtN,
    B1 = Kbar - kappa^2 Mbar - gamma KbarJ - eta KG,
    B2 = Kbar + kappa^2 Mbar + gamma KbarJ,

where DtN puts -T_p on the P_T block and +T_q on the Q_T block.  A D row
thus holds the coupling B1 p - B2 q.  The q-field rows are scaled by -1 so
the assembled matrix is complex symmetric (A = A^T exactly), which the
direct solver and the sign-structure tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import Mesh

#: Triangles with area below this are rejected as degenerate.
AREA_EPS = 1e-14

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
    """Stabilization choice: 'regular', 'ip' (gamma > 0), or 'bp' (eta > 0)."""

    kind: str
    gamma: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("regular", "ip", "bp"):
            raise ValueError(f"unknown method kind {self.kind!r}")
        if self.kind == "ip" and self.gamma <= 0:
            raise ValueError("interior penalty requires gamma > 0")
        if self.kind == "bp" and self.eta <= 0:
            raise ValueError("boundary penalty requires eta > 0")
        if self.kind == "regular" and (self.gamma or self.eta):
            raise ValueError("regular method has no penalty parameters")

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
# Element level
# ---------------------------------------------------------------------------

def tri_geometry(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Areas (M,) and barycentric gradients (M, 3, 2) of CCW triangles (M, 3, 2)."""
    v = np.asarray(verts, dtype=float)
    d1, d2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d2[:, 0] * d1[:, 1])
    bad = np.flatnonzero(area <= AREA_EPS)
    if len(bad):
        raise AssemblyError(f"degenerate triangle, area = {area[bad[0]]:.3e}")
    # grad(lambda_i) is the opposite edge rotated by +90 degrees over twice the area
    edges = v[:, [2, 0, 1]] - v[:, [1, 2, 0]]
    grads = np.stack([-edges[..., 1], edges[..., 0]], axis=-1) / (2.0 * area)[:, None, None]
    return area, grads


def local_matrices(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact stiffness and mass matrices of the linear element."""
    area, grads = tri_geometry(np.asarray(verts, dtype=float)[None])
    return area[0] * (grads[0] @ grads[0].T), area[0] * _MASS_REF


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
    n, tris = mesh.n_nodes, mesh.triangles
    area, grads = tri_geometry(mesh.nodes[tris])
    k_loc = area[:, None, None] * (grads @ grads.transpose(0, 2, 1))
    m_loc = area[:, None, None] * _MASS_REF
    ij = (np.repeat(tris, 3, axis=1).ravel(), np.tile(tris, 3).ravel())
    kbar = sp.coo_matrix((k_loc.ravel(), ij), shape=(n, n)).tocsr()
    mbar = sp.coo_matrix((m_loc.ravel(), ij), shape=(n, n)).tocsr()
    return kbar, mbar


def _jump_vector(mesh: Mesh, edge_index: int,
                 grads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """interior_jump_vector from precomputed element gradients (M, 3, 2)."""
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
    dn = (grads[[k_lo, k_hi], :, None, :] @ normal[:, None]).reshape(2, 3).tolist()
    coeffs: dict[int, float] = {}
    for k, sign, d in ((k_lo, 1.0, dn[0]), (k_hi, -1.0, dn[1])):
        for node, x in zip(mesh.triangles[k].tolist(), d):
            coeffs[node] = coeffs.get(node, 0.0) + sign * x
    ids = np.array(sorted(coeffs), dtype=np.int64)
    return ids, np.array([coeffs[i] for i in ids])


def interior_jump_vector(mesh: Mesh, edge_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse jump vector g_e of [d_nu phi] across one interior edge.

    Returns (node_ids, coefficients).  The normal points from the adjacent
    element with the smaller element index to the other one; flipping that
    convention flips g_e's sign, which cancels in g_e g_e^T.
    """
    _, grads = tri_geometry(mesh.nodes[mesh.triangles])
    return _jump_vector(mesh, edge_index, grads)


def assemble_interior_penalty(mesh: Mesh) -> sp.csr_matrix:
    """KbarJ = sum_e h_e^2 g_e g_e^T over all interior edges (unscaled)."""
    n = mesh.n_nodes
    _, grads = tri_geometry(mesh.nodes[mesh.triangles])
    rows, cols, vals = [], [], []
    for e in range(len(mesh.interior_edges)):
        ids, g = _jump_vector(mesh, e, grads)
        rows.append(np.repeat(ids, len(ids)))
        cols.append(np.tile(ids, len(ids)))
        vals.append((mesh.edge_lengths[e] ** 2 * np.outer(g, g)).ravel())
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


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
    kappa: float
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

    gamma = method.gamma if method.kind == "ip" else 0.0
    eta = method.eta if method.kind == "bp" else 0.0
    b1 = (scalars.kbar - kappa**2 * scalars.mbar - gamma * scalars.kbar_j
          - eta * scalars.kg)
    b2 = scalars.kbar + kappa**2 * scalars.mbar + gamma * scalars.kbar_j

    # P maps the unknowns to nodal (p, q); a D node's p and q share a column
    n = mesh.n_nodes
    P = sp.csr_matrix((np.ones(2 * n), (np.arange(2 * n),
                                        np.concatenate([dof.p_dof, dof.q_dof]))),
                      shape=(2 * n, dof.size))
    ni, nd = dof.n_interior, dof.n_cavity
    dtn = sp.block_diag([sp.csr_matrix((2 * ni, 2 * ni)), -tbc.p_block, tbc.q_block,
                         sp.csr_matrix((nd, nd))])
    A = P.T @ sp.block_diag([b1, -b2]) @ P + dtn
    # the operator is symmetric; duplicate-entry summation order can leave
    # roundoff asymmetry, so enforce A = A^T exactly
    A = 0.5 * (A + A.T).tocsr()

    F = np.zeros(dof.size, dtype=complex)
    F[dof.p_dof[mesh.t_nodes]] = load_t
    return BlockSystem(A, F, dof, kappa, method)
