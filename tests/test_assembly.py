"""Element matrices, penalty operators, and the coupled block system."""

import copy
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from flexscat import assembly, cli
from flexscat.assembly import (AssemblyError, Method, ScalarMatrices,
                               assemble_boundary_penalty,
                               assemble_interior_penalty, assemble_scalar,
                               build_dof_map, build_system)
from flexscat.config import ScatterConfig
from flexscat.dtn import assemble_tbc, incident_load
from flexscat.geometry import (AREA_EPS, Circle, Ellipse, Kite, Mesh, MeshError,
                               generate_mesh, generate_mesh_for_h)
from conftest import shuffled_import

KAPPA = math.pi
R = 0.6


def local_matrices(verts):
    """Exact stiffness and mass matrices of one linear element (reference)."""
    # lambda_i = c_0i + c_1i x + c_2i y is column i of inv([1, x, y] rows)
    vander = np.column_stack([np.ones(3), np.asarray(verts, dtype=float)])
    grads = np.linalg.inv(vander)[1:].T
    area = 0.5 * abs(np.linalg.det(vander))
    return area * (grads @ grads.T), area * (1.0 + np.eye(3)) / 12.0


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


def test_assembly_rejects_degenerate_triangles():
    # a mesh whose areas all fall below AREA_EPS is rejected on construction,
    # so that no assembly sees it
    mesh = generate_mesh(Circle(0.3), 0.6, 2, 12)
    assert (1e-8) ** 2 * mesh.areas.max() <= AREA_EPS
    with pytest.raises(MeshError, match=r"^48 degenerate triangle\(s\): area outside "
                                        r"\(1e-14, inf\), the first \d\.\d{3}e-18$"):
        Mesh(1e-8 * mesh.nodes, mesh.triangles.copy(), mesh.node_class.copy())


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
    assert mbar.sum() == pytest.approx(coarse_circle_mesh.areas.sum())
    # a linear field x has energy int |grad x|^2 = domain area
    x = coarse_circle_mesh.nodes[:, 0]
    assert x @ (kbar @ x) == pytest.approx(coarse_circle_mesh.areas.sum())


def interior_jump_vector(mesh, edge_index):
    """Sparse jump vector g_e of [d_nu phi] across one interior edge (reference).

    Returns (node_ids, coefficients) over the edge's four distinct nodes.  The
    normal points from the adjacent element with the smaller element index
    to the other one.
    """
    a, b = mesh.interior_edges[edge_index]
    k_lo, k_hi = mesh.edge_tris[edge_index]  # ascending element order
    tang = mesh.nodes[b] - mesh.nodes[a]
    normal = np.array([tang[1], -tang[0]])
    normal /= np.linalg.norm(normal)
    centroid = mesh.nodes[mesh.triangles[k_lo]].mean(axis=0)
    if np.dot(normal, mesh.nodes[a] - centroid) < 0:
        normal = -normal
    dn = (mesh.grads[[k_lo, k_hi], :, None, :] @ normal[:, None]).reshape(2, 3).tolist()
    coeffs = {}
    for k, sign, d in ((k_lo, 1.0, dn[0]), (k_hi, -1.0, dn[1])):
        for node, x in zip(mesh.triangles[k].tolist(), d):
            coeffs[node] = coeffs.get(node, 0.0) + sign * x
    ids = np.array(sorted(coeffs), dtype=np.int64)
    return ids, np.array([coeffs[i] for i in ids])


def edge_loop_interior_penalty(mesh):
    """KbarJ summed edge by edge over interior_jump_vector (reference)."""
    n = mesh.n_nodes
    rows, cols, vals = [], [], []
    for e in range(len(mesh.interior_edges)):
        ids, g = interior_jump_vector(mesh, e)
        rows.append(np.repeat(ids, len(ids)))
        cols.append(np.tile(ids, len(ids)))
        vals.append((mesh.edge_lengths[e] ** 2 * np.outer(g, g)).ravel())
    kj = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n, n)).tocsr()
    return 0.5 * (kj + kj.T)


def test_interior_jump_vector_kills_linear_fields(coarse_circle_mesh):
    mesh = coarse_circle_mesh
    plane = 0.7 * mesh.nodes[:, 0] - 1.3 * mesh.nodes[:, 1] + 0.4
    for e in (0, 5, len(mesh.interior_edges) - 1):
        ids, g = interior_jump_vector(mesh, e)
        assert abs(g @ plane[ids]) <= 1e-12
        assert abs(g @ np.ones(len(ids))) <= 1e-12


def test_interior_jump_vector_sign_convention_cancels(coarse_circle_mesh):
    # reversing every interior edge flips the kernel's unoriented normals,
    # and so every g_e, exactly: KbarJ stays the same bit for bit
    flipped = copy.copy(coarse_circle_mesh)
    flipped.interior_edges = coarse_circle_mesh.interior_edges[:, ::-1]
    kj = assemble_interior_penalty(coarse_circle_mesh)
    kj_flipped = assemble_interior_penalty(flipped)
    assert np.array_equal(kj.indptr, kj_flipped.indptr)
    assert np.array_equal(kj.indices, kj_flipped.indices)
    assert kj.data.tobytes() == kj_flipped.data.tobytes()


KJ_MESHES = {
    "coarse-circle": lambda request: request.getfixturevalue("coarse_circle_mesh"),
    "circle-h0.05": lambda request: request.getfixturevalue("medium_circle_mesh"),
    "ellipse-h0.2": lambda request: generate_mesh_for_h(Ellipse(0.4, 0.2), R, 0.2),
    "kite-h0.2": lambda request: generate_mesh_for_h(Kite(0.3, 0.2, 0.1), R, 0.2),
}


@pytest.mark.parametrize("case", list(KJ_MESHES))
def test_interior_penalty_kernel_matches_edge_loop(request, case):
    mesh = KJ_MESHES[case](request)
    kj = assemble_interior_penalty(mesh)
    ref = edge_loop_interior_penalty(mesh)
    assert np.array_equal(kj.indptr, ref.indptr)
    assert np.array_equal(kj.indices, ref.indices)
    # summing 36 entries per edge, not 16 of pre-summed g_e, rounds apart
    assert np.abs(kj.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()
    assert (kj != kj.T).nnz == 0


@pytest.mark.parametrize("case", ["coarse-circle", "kite-h0.2"])
def test_interior_penalty_annihilates_linear_fields(request, case):
    # every g_e kills a + b x + c y, so KbarJ does, up to roundoff: bound each
    # row by the magnitudes that its sums run over
    mesh = KJ_MESHES[case](request)
    kj = assemble_interior_penalty(mesh)
    for a, b, c in ((1.0, 0.0, 0.0), (0.4, 0.7, -1.3), (-2.0, -0.2, 3.1)):
        f = a + b * mesh.nodes[:, 0] + c * mesh.nodes[:, 1]
        scale = abs(kj) @ np.abs(f)
        assert np.all(np.abs(kj @ f) <= 1e-14 * scale.max())


@pytest.mark.parametrize("method", [Method.regular(),
                                    Method.interior_penalty(KAPPA * 1e-3),
                                    Method.boundary_penalty(2.5 * KAPPA * 1e-3)],
                         ids=["regular", "ip", "bp"])
def test_reference_kj_changes_only_ip_systems(method):
    mesh = generate_mesh_for_h(Kite(0.3, 0.2, 0.1), R, 0.2)
    scalars = ScalarMatrices(mesh)
    tbc = assemble_tbc(mesh, KAPPA, R, 15)
    load = incident_load(tbc, KAPPA, R, math.pi / 3)
    with_ref = ScalarMatrices(mesh)
    with_ref.kbar_j = edge_loop_interior_penalty(mesh)
    A = build_system(mesh, scalars, tbc, load, KAPPA, method).A
    ref = build_system(mesh, with_ref, tbc, load, KAPPA, method).A
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    if method.kind == "ip":
        assert np.abs(A.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max()
    else:
        assert A.data.tobytes() == ref.data.tobytes()


def test_interior_penalty_matrix_properties(coarse_circle_mesh, medium_circle_mesh):
    kj = assemble_interior_penalty(coarse_circle_mesh)
    # summing the edge blocks rounds (i, j) and (j, i) apart; the assembly
    # symmetrizes, so KbarJ = KbarJ^T exactly, also on circle h 0.05 and kite h 0.2
    for other in (kj, assemble_interior_penalty(medium_circle_mesh),
                  assemble_interior_penalty(generate_mesh_for_h(Kite(0.3, 0.2, 0.1), R, 0.2))):
        assert (other != other.T).nnz == 0
    dense = kj.toarray()
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
                lambda: Method("regular", gamma=1.0),
                # each kind carries only its own, finite penalty
                lambda: Method("bp", gamma=1e-3, eta=0.5),
                lambda: Method("ip", gamma=1e-3, eta=0.5),
                lambda: Method("ip", gamma=math.nan),
                lambda: Method("ip", gamma=math.inf),
                lambda: Method("bp", eta=math.inf)):
        with pytest.raises(ValueError):
            bad()


def test_dof_map_blocks(coarse_circle_mesh):
    dof = build_dof_map(coarse_circle_mesh)
    mesh = coarse_circle_mesh
    assert dof.size == mesh.n_dofs
    # blocks (P_I, Q_I, P_T, Q_T, P_D), each in mesh node order
    order = np.concatenate([dof.p_dof[mesh.interior_nodes], dof.q_dof[mesh.interior_nodes],
                            dof.p_dof[mesh.t_nodes], dof.q_dof[mesh.t_nodes],
                            dof.p_dof[mesh.d_nodes]])
    assert np.array_equal(order, np.arange(dof.size))
    assert dof.p_dof[mesh.d_nodes].min() == 2 * dof.n_interior + 2 * dof.n_trunc
    # p and q dofs coincide exactly on the cavity nodes
    shared = dof.p_dof == dof.q_dof
    assert np.array_equal(np.flatnonzero(shared), mesh.d_nodes)


@pytest.mark.parametrize("method", [Method.regular(),
                                    Method.interior_penalty(KAPPA * 1e-3),
                                    Method.boundary_penalty(2.5 * KAPPA * 1e-3)])
def test_global_system_complex_symmetric(coarse_circle_mesh, method):
    mesh = coarse_circle_mesh
    scalars = ScalarMatrices(mesh)
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
    scalars = ScalarMatrices(mesh)
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


def triple_product_system(mesh, scalars, tbc, kappa, method):
    """A = P^T blockdiag(B1, -B2) P + DtN as sparse products (reference)."""
    dof = build_dof_map(mesh)
    b1 = (scalars.kbar - kappa**2 * scalars.mbar - method.gamma * scalars.kbar_j
          - method.eta * scalars.kg)
    b2 = scalars.kbar + kappa**2 * scalars.mbar + method.gamma * scalars.kbar_j
    n = mesh.n_nodes
    P = sp.csr_matrix((np.ones(2 * n), (np.arange(2 * n),
                                        np.concatenate([dof.p_dof, dof.q_dof]))),
                      shape=(2 * n, dof.size))
    ni, nd = dof.n_interior, dof.n_cavity
    dtn = sp.block_diag([sp.csr_matrix((2 * ni, 2 * ni)), -tbc.p_block, tbc.q_block,
                         sp.csr_matrix((nd, nd))])
    A = P.T @ sp.block_diag([b1, -b2]) @ P + dtn
    return 0.5 * (A + A.T).tocsr()


def csr_keys(m):
    """row * n_cols + col of each stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)) * m.shape[1] + m.indices


@pytest.mark.parametrize("shape, h, method", [
    (Circle(0.3), 0.1, Method.interior_penalty(KAPPA * 1e-3)),
    (Circle(0.3), 0.1, Method.regular()),
    (Kite(0.3, 0.2, 0.1), 0.1, Method.boundary_penalty(2.5 * KAPPA * 1e-3)),
], ids=["circle-ip", "circle-regular", "kite-bp"])
def test_global_system_equals_triple_product(shape, h, method):
    # relabelling the entries sums at most two terms per entry, so it must
    # reproduce the sparse triple product bit for bit.  The pattern is the
    # product's, plus for IP alone a zero for every other pair of cavity
    # unknowns (the clique that orders them last)
    mesh = generate_mesh_for_h(shape, R, h)
    scalars = ScalarMatrices(mesh)
    tbc = assemble_tbc(mesh, KAPPA, R, 15)
    load = incident_load(tbc, KAPPA, R, math.pi / 3)
    A = build_system(mesh, scalars, tbc, load, KAPPA, method).A
    ref = triple_product_system(mesh, scalars, tbc, KAPPA, method)
    if method.kind != "ip":
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        assert A.data.tobytes() == ref.data.tobytes()
        return
    size = ref.shape[0]
    d = np.arange(size - build_dof_map(mesh).n_cavity, size)
    keys, ref_keys = csr_keys(A), csr_keys(ref)
    assert np.array_equal(keys, np.union1d(ref_keys, (d[:, None] * size + d).ravel()))
    assert len(keys) > len(ref_keys)
    at = np.searchsorted(keys, ref_keys)
    assert A.data[at].tobytes() == ref.data.tobytes()
    assert np.all(np.delete(A.data, at) == 0)


def test_exact_cancellation_is_stored_as_a_zero_of_the_pattern(coarse_circle_mesh):
    # with Kbar replaced by Mbar and kappa = 1, B1 = Mbar - Mbar cancels to
    # exact zeros; A keeps them as stored zeros of its kind's pattern
    mesh = coarse_circle_mesh
    scalars = ScalarMatrices(mesh)
    cancelled = ScalarMatrices(mesh)
    cancelled.kbar = cancelled.mbar
    method = Method.regular()
    tbc = assemble_tbc(mesh, 1.0, R, 15)
    load = incident_load(tbc, 1.0, R, math.pi / 3)
    A = build_system(mesh, cancelled, tbc, load, 1.0, method).A
    assert np.array_equal(A.toarray(), triple_product_system(mesh, cancelled, tbc, 1.0,
                                                             method).toarray())
    assert A.nnz > np.count_nonzero(A.data)
    plain = build_system(mesh, scalars, tbc, load, 1.0, method).A
    assert np.array_equal(A.indptr, plain.indptr) and np.array_equal(A.indices, plain.indices)
    # a refill with another kappa shares A's arrays and matches the formula
    tbc2 = assemble_tbc(mesh, 2.0, R, 15)
    refill = build_system(mesh, cancelled, tbc2, incident_load(tbc2, 2.0, R, 0.3), 2.0, method)
    assert refill.A.indptr is A.indptr and refill.A.indices is A.indices
    ref = triple_product_system(mesh, cancelled, tbc2, 2.0, method)
    assert np.array_equal(refill.A.indices, ref.indices)
    assert refill.A.data.tobytes() == ref.data.tobytes()


@pytest.mark.parametrize("case", ["circle", "ellipse", "kite", "kite-renumbered"])
def test_scalar_matrices_are_canonical_square_csr(case):
    # SystemPattern reads the four matrices as they are: n x n CSR with int32
    # indices, each row's columns ascending and none repeated
    shape = {"circle": Circle(0.3), "ellipse": Ellipse(0.4, 0.2)}.get(case, Kite(0.3, 0.2, 0.1))
    mesh = generate_mesh_for_h(shape, R, 0.2)
    if case == "kite-renumbered":
        mesh = shuffled_import(mesh, 5)[0]
    scalars = ScalarMatrices(mesh)
    n = mesh.n_nodes
    for m in (scalars.kbar, scalars.mbar, scalars.kbar_j, scalars.kg):
        assert m.format == "csr" and m.shape == (n, n)
        assert m.indices.dtype == m.indptr.dtype == np.int32
        assert len(m.indptr) == n + 1 and m.indptr[-1] == len(m.indices) == len(m.data)
        keys = np.repeat(np.arange(n), np.diff(m.indptr)) * n + m.indices
        assert np.all(np.diff(keys) > 0)


def count_penalty_builds(monkeypatch):
    """Calls of each penalty assembly from now on, by matrix name."""
    calls = {"kbar_j": 0, "kg": 0}

    def counted(name, build):
        def wrapper(mesh):
            calls[name] += 1
            return build(mesh)
        return wrapper

    for name, attr in (("kbar_j", "assemble_interior_penalty"),
                       ("kg", "assemble_boundary_penalty")):
        monkeypatch.setattr(assembly, attr, counted(name, getattr(assembly, attr)))
    return calls


@pytest.mark.parametrize("method, built", [
    (Method.regular(), {"kbar_j": 0, "kg": 0}),
    (Method.interior_penalty(KAPPA * 1e-3), {"kbar_j": 1, "kg": 0}),
    (Method.boundary_penalty(2.5 * KAPPA * 1e-3), {"kbar_j": 0, "kg": 1}),
], ids=["regular", "ip", "bp"])
def test_a_system_builds_only_its_own_penalty(coarse_circle_mesh, monkeypatch, method, built):
    calls = count_penalty_builds(monkeypatch)
    mesh = coarse_circle_mesh
    scalars = ScalarMatrices(mesh)
    tbc = assemble_tbc(mesh, KAPPA, R, 15)
    load = incident_load(tbc, KAPPA, R, 0.3)
    for _ in range(2):  # a later system of the kind builds nothing more
        build_system(mesh, scalars, tbc, load, KAPPA, method)
    assert calls == built


@pytest.mark.parametrize("param, built", [
    ("gamma", {"kbar_j": 1, "kg": 0}),
    ("eta", {"kbar_j": 0, "kg": 1}),
])
def test_a_sweep_builds_its_penalty_once(tmp_path, monkeypatch, param, built):
    calls = count_penalty_builds(monkeypatch)
    cli.run_sweep(ScatterConfig(h_target=0.2), param, [1e-3, 1e-2, 1e-1], tmp_path)
    assert calls == built


def test_a_self_referenced_bp_study_builds_kbar_j_for_its_reference_alone(tmp_path,
                                                                          monkeypatch):
    # the IP reference reads KbarJ; the BP levels read KG and never KbarJ
    calls = count_penalty_builds(monkeypatch)
    config = ScatterConfig(shape=Kite(0.3, 0.2, 0.1), h_target=0.8, oracle="none",
                           method=Method.boundary_penalty(2.5 * KAPPA * 1e-3))
    cli.run_convergence(config, 3, tmp_path)
    assert calls == {"kbar_j": 1, "kg": 3}


def test_build_system_refuses_another_mesh(coarse_circle_mesh):
    # a renumbered copy has as many nodes, but its unknowns are not those of
    # the mesh the matrices and their patterns were built on
    mesh = coarse_circle_mesh
    scalars = ScalarMatrices(mesh)
    tbc = assemble_tbc(mesh, KAPPA, R, 15)
    load = incident_load(tbc, KAPPA, R, 0.3)
    build_system(mesh, scalars, tbc, load, KAPPA, Method.regular())
    other = shuffled_import(mesh, 2)[0]
    for method in (Method.regular(), Method.interior_penalty(0.01)):
        with pytest.raises(AssemblyError, match="another mesh"):
            build_system(other, scalars, tbc, load, KAPPA, method)


def test_build_system_dimension_mismatch(coarse_circle_mesh):
    mesh = coarse_circle_mesh
    scalars = ScalarMatrices(mesh)
    tbc = assemble_tbc(mesh, KAPPA, R, 15)
    with pytest.raises(AssemblyError):
        build_system(mesh, scalars, tbc, np.zeros(3, dtype=complex), KAPPA,
                     Method.regular())


@pytest.mark.parametrize("method", [Method.regular(),
                                    Method.interior_penalty(KAPPA * 1e-3),
                                    Method.boundary_penalty(2.5 * KAPPA * 1e-3)],
                         ids=["regular", "ip", "bp"])
@pytest.mark.parametrize("mesh_case", ["coarse", "kite"])
def test_imaginary_part_is_low_rank_on_the_p_truncation_block(coarse_circle_mesh, method,
                                                              mesh_case):
    # every block but -T_p is real, and Im T_p has the closed low-rank form
    # that the real solve corrects with
    mesh = (coarse_circle_mesh if mesh_case == "coarse"
            else generate_mesh_for_h(Kite(0.3, 0.2, 0.1), R, 0.2))
    tbc = assemble_tbc(mesh, KAPPA, R, 15)
    assert tbc.q_block.dtype == np.float64
    system = build_system(mesh, ScalarMatrices(mesh), tbc, incident_load(tbc, KAPPA, R, 0.3),
                          KAPPA, method)
    dof = system.dof_map
    p_t = dof.p_dof[mesh.t_nodes]
    imag = system.A.imag.toarray()
    block = imag[np.ix_(p_t, p_t)]
    imag[np.ix_(p_t, p_t)] = 0.0
    assert not imag.any()
    u, s = tbc.p_imag_factors()
    assert u.dtype == np.float64 and u.shape == (len(p_t), len(s)) and len(s) <= 31
    assert u.shape[1] == 2 * 15 + 1  # every mode n >= 0, however light
    assert np.abs((u * s) @ u.T + block).max() <= 1e-15 * np.abs(block).max()
