"""Element matrices, penalty operators, and the coupled block system."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from flexscat.assembly import (AssemblyError, Method, assemble_all,
                               assemble_boundary_penalty,
                               assemble_interior_penalty, assemble_scalar,
                               build_dof_map, build_system,
                               interior_jump_vector, local_matrices)
from flexscat.dtn import assemble_tbc, incident_load
from flexscat.geometry import Circle, generate_mesh

KAPPA = math.pi
R = 0.6


def test_local_matrices_reference_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    k, m = local_matrices(verts)
    k_ref = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    m_ref = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    assert np.allclose(k, k_ref)
    assert np.allclose(m, m_ref)


def test_local_matrices_match_quadrature_on_random_triangle():
    rng = np.random.default_rng(11)
    verts = rng.normal(size=(3, 2))
    d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
    if d1[0] * d2[1] - d1[1] * d2[0] < 0:
        verts = verts[::-1]
        d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
    k, m = local_matrices(verts)
    # exact midpoint rule (degree 2) for products of linear shape functions
    mids = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
    m_quad = (area / 3.0) * mids.T @ mids
    assert np.allclose(m, m_quad)
    # stiffness invariants: symmetric, PSD, constants in the null space
    assert np.allclose(k, k.T)
    assert np.allclose(k @ np.ones(3), 0.0, atol=1e-14)
    assert np.all(np.linalg.eigvalsh(k) >= -1e-14)


def test_local_matrices_reject_degenerate_triangle():
    with pytest.raises(AssemblyError):
        local_matrices(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))


def test_global_scalar_matrices(coarse_circle_mesh):
    kbar, mbar = assemble_scalar(coarse_circle_mesh)
    # the batched assembly equals the sum of the element matrices
    k_ref = np.zeros(kbar.shape)
    m_ref = np.zeros(mbar.shape)
    for tri in coarse_circle_mesh.triangles:
        k_loc, m_loc = local_matrices(coarse_circle_mesh.nodes[tri])
        k_ref[np.ix_(tri, tri)] += k_loc
        m_ref[np.ix_(tri, tri)] += m_loc
    assert np.abs(kbar.toarray() - k_ref).max() <= 1e-14 * np.abs(k_ref).max()
    assert np.abs(mbar.toarray() - m_ref).max() <= 1e-14 * np.abs(m_ref).max()
    assert (kbar != kbar.T).nnz == 0
    assert (mbar != mbar.T).nnz == 0
    ones = np.ones(coarse_circle_mesh.n_nodes)
    assert np.allclose(kbar @ ones, 0.0, atol=1e-12)
    assert mbar.sum() == pytest.approx(coarse_circle_mesh.areas().sum())
    # a linear field x has energy int |grad x|^2 = domain area
    x = coarse_circle_mesh.nodes[:, 0]
    assert x @ (kbar @ x) == pytest.approx(coarse_circle_mesh.areas().sum())


def test_interior_jump_vector_kills_linear_fields(coarse_circle_mesh):
    mesh = coarse_circle_mesh
    plane = 0.7 * mesh.nodes[:, 0] - 1.3 * mesh.nodes[:, 1] + 0.4
    for e in (0, 5, len(mesh.interior_edges) - 1):
        ids, g = interior_jump_vector(mesh, e)
        assert abs(g @ plane[ids]) <= 1e-12
        assert abs(g @ np.ones(len(ids))) <= 1e-12


def test_interior_jump_vector_sign_convention_cancels(coarse_circle_mesh):
    ids, g = interior_jump_vector(coarse_circle_mesh, 3)
    outer = np.outer(g, g)
    assert np.allclose(outer, outer.T)


def test_interior_penalty_matrix_properties(coarse_circle_mesh):
    kj = assemble_interior_penalty(coarse_circle_mesh)
    dense = kj.toarray()
    # per-edge blocks are exact outer products; global summation order may
    # differ between (i, j) and (j, i), so symmetry holds to roundoff
    assert np.abs(dense - dense.T).max() <= 1e-14 * np.abs(dense).max()
    evals = np.linalg.eigvalsh(dense)
    assert evals.min() >= -1e-12 * np.abs(dense).max()
    ones = np.ones(coarse_circle_mesh.n_nodes)
    assert np.allclose(kj @ ones, 0.0, atol=1e-12)
    plane = coarse_circle_mesh.nodes @ np.array([0.3, -0.9])
    assert abs(plane @ (kj @ plane)) <= 1e-12


def test_boundary_penalty_matrix_properties(coarse_circle_mesh):
    kg = assemble_boundary_penalty(coarse_circle_mesh)
    assert (kg != kg.T).nnz == 0
    d = coarse_circle_mesh.d_nodes
    dense = kg.toarray()
    # supported on cavity nodes only
    mask = np.zeros(coarse_circle_mesh.n_nodes, dtype=bool)
    mask[d] = True
    assert np.abs(dense[~mask][:, ~mask]).max() == 0.0
    sub = dense[np.ix_(d, d)]
    evals = np.linalg.eigvalsh(sub)
    assert evals.min() >= -1e-12 * np.abs(sub).max()
    # the loop Laplacian annihilates exactly the constants
    assert np.allclose(sub @ np.ones(len(d)), 0.0, atol=1e-12)
    assert np.linalg.matrix_rank(sub) == len(d) - 1


def test_method_validation():
    assert Method.regular().label == "regular"
    assert Method.interior_penalty(1e-3).gamma == 1e-3
    assert Method.boundary_penalty(2e-3).eta == 2e-3
    for bad in (lambda: Method.interior_penalty(0.0),
                lambda: Method.boundary_penalty(-1.0),
                lambda: Method("weird"),
                lambda: Method("regular", gamma=1.0)):
        with pytest.raises(ValueError):
            bad()


def test_dof_map_blocks(coarse_circle_mesh):
    dof = build_dof_map(coarse_circle_mesh)
    mesh = coarse_circle_mesh
    assert dof.size == mesh.n_dofs
    sl = dof.block_slices()
    assert list(sl) == ["P_I", "Q_I", "P_T", "Q_T", "P_D"]
    assert sl["P_D"].stop == dof.size
    # p and q dofs coincide exactly on the cavity nodes
    shared = dof.p_dof == dof.q_dof
    assert np.array_equal(np.flatnonzero(shared), mesh.d_nodes)


@pytest.mark.parametrize("method", [Method.regular(),
                                    Method.interior_penalty(KAPPA * 1e-3),
                                    Method.boundary_penalty(2.5 * KAPPA * 1e-3)])
def test_global_system_complex_symmetric(coarse_circle_mesh, method):
    mesh = coarse_circle_mesh
    scalars = assemble_all(mesh)
    tbc = assemble_tbc(mesh, KAPPA, R, 15)
    load = incident_load(tbc, KAPPA, R, math.pi / 3)
    system = build_system(mesh, scalars, tbc, load, KAPPA, method)
    asym = system.A - system.A.T
    assert np.abs(asym.toarray()).max() == 0.0
    assert system.A.shape == (mesh.n_dofs, mesh.n_dofs)
    # load lives on the p-field truncation rows only
    dof = system.dof_map
    support = np.flatnonzero(system.F)
    assert set(support) <= set(dof.p_dof[mesh.t_nodes])


@pytest.mark.parametrize("method", [Method.regular(),
                                    Method.interior_penalty(0.3),
                                    Method.boundary_penalty(0.7)])
def test_global_system_rows_match_scalar_operators(coarse_circle_mesh, method):
    mesh = coarse_circle_mesh
    scalars = assemble_all(mesh)
    tbc = assemble_tbc(mesh, KAPPA, R, 15)
    load = incident_load(tbc, KAPPA, R, math.pi / 3)
    system = build_system(mesh, scalars, tbc, load, KAPPA, method)
    dof = system.dof_map
    rng = np.random.default_rng(3)
    p = rng.normal(size=mesh.n_nodes) + 1j * rng.normal(size=mesh.n_nodes)
    q = rng.normal(size=mesh.n_nodes) + 1j * rng.normal(size=mesh.n_nodes)
    d, t = mesh.d_nodes, mesh.t_nodes
    q[d] = p[d]
    w = np.zeros(dof.size, dtype=complex)
    w[dof.p_dof], w[dof.q_dof] = p, q
    aw = system.A @ w

    k, m, kj, kg = scalars.kbar, scalars.mbar, scalars.kbar_j, scalars.kg
    b1p = (k - KAPPA**2 * m - method.gamma * kj - method.eta * kg) @ p
    b2q = (k + KAPPA**2 * m + method.gamma * kj) @ q
    b1p[t] -= tbc.p_block @ p[t]
    b2q[t] -= tbc.q_block @ q[t]
    free = mesh.node_class != "D"
    scale = np.abs(aw).max()
    assert np.abs(aw[dof.p_dof[free]] - b1p[free]).max() <= 1e-12 * scale
    assert np.abs(aw[dof.q_dof[free]] + b2q[free]).max() <= 1e-12 * scale
    assert np.abs(aw[dof.p_dof[d]] - (b1p - b2q)[d]).max() <= 1e-12 * scale


def test_build_system_dimension_mismatch(coarse_circle_mesh):
    mesh = coarse_circle_mesh
    scalars = assemble_all(mesh)
    tbc = assemble_tbc(mesh, KAPPA, R, 15)
    with pytest.raises(AssemblyError):
        build_system(mesh, scalars, tbc, np.zeros(3, dtype=complex), KAPPA,
                     Method.regular())
