"""Direct solver behavior and recovery of the physical fields."""

import dataclasses
import math
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from flexscat import (Circle, Ellipse, IncidentField, Kite, Method, ScalarMatrices,
                      ScatterConfig, build_system, cli, generate_mesh_for_h, solve)
from flexscat.solve import (FACTORIZATIONS, KEEP_WEIGHT, PERMUTED, RESIDUAL_BOUND,
                            SolverError, recover_fields, solve_system)
from conftest import ALPHA, KAPPA, R, RHAT, count_threads, shuffled_import, solve_direct


def cold(system):
    """`system` with its pattern's kept ordering dropped, so that its next
    solve orders afresh: an already-solved system would reuse it."""
    system.pattern.ordering = None
    return system


def record_splu(monkeypatch, symmetric=None, replaced=FACTORIZATIONS[0]):
    """Log each splu call's settings; `symmetric` stands in for the `replaced` one."""
    calls = []
    original = solve.splu

    def splu(a, **settings):
        calls.append(settings)
        if symmetric is not None and settings == replaced:
            return symmetric(a)
        return original(a, **settings)

    monkeypatch.setattr(solve, "splu", splu)
    return calls


def test_solution_satisfies_linear_system(coarse_regular_solution,
                                          coarse_circle_mesh):
    field, system = coarse_regular_solution
    assert field.residual <= RESIDUAL_BOUND
    dof = system.dof_map
    w_vec = np.empty(dof.size, dtype=complex)
    w_vec[dof.p_dof] = field.p
    w_vec[dof.q_dof] = field.q
    r = np.linalg.norm(system.A @ w_vec - system.F)
    scale = np.abs(system.A).sum(axis=0).max() * np.linalg.norm(w_vec)
    assert r <= RESIDUAL_BOUND * (scale + np.linalg.norm(system.F))


def test_recovered_field_identities(coarse_regular_solution, coarse_circle_mesh):
    field, _ = coarse_regular_solution
    mesh = coarse_circle_mesh
    uinc = IncidentField(KAPPA, ALPHA)(mesh.nodes)
    assert np.allclose(field.p_scat, field.p + uinc)
    assert np.allclose(field.v, field.q - field.p_scat)
    assert np.allclose(field.w, field.p_scat + field.q)
    # clamped cavity: the total displacement q - p vanishes on the cavity nodes
    assert np.abs((field.q - field.p)[mesh.d_nodes]).max() == 0.0


@pytest.mark.parametrize("method", [Method.regular(), Method.interior_penalty(KAPPA * 1e-3),
                                    Method.boundary_penalty(2.5 * KAPPA * 1e-3)],
                         ids=["regular", "ip", "bp"])
def test_renumbered_mesh_solves_to_the_same_field(method):
    # shuffled ids permute A symmetrically: the field moves only by rounding
    mesh = generate_mesh_for_h(Kite(0.3, 0.2, 0.1), R, 0.2)
    back, new_id = shuffled_import(mesh, 11)
    field, _ = solve_direct(mesh, method)
    moved, _ = solve_direct(back, method)
    for a, b in ((field.p, moved.p[new_id]), (field.q, moved.q[new_id])):
        assert np.abs(b - a).max() <= 1e-10 * np.abs(a).max()


def test_penalties_change_the_solution(coarse_circle_mesh):
    f_reg, _ = solve_direct(coarse_circle_mesh, Method.regular())
    f_ip, _ = solve_direct(coarse_circle_mesh,
                           Method.interior_penalty(KAPPA * 1e-3))
    f_bp, _ = solve_direct(coarse_circle_mesh,
                           Method.boundary_penalty(2.5 * KAPPA * 1e-3))
    assert np.abs(f_ip.w - f_reg.w).max() > 0
    assert np.abs(f_bp.w - f_reg.w).max() > 0
    assert np.abs(f_ip.w - f_bp.w).max() > 0


def test_singular_system_raises(coarse_regular_solution):
    _, system = coarse_regular_solution
    a = system.A.tolil()
    a[0, :] = 0.0
    a[:, 0] = 0.0
    broken = dataclasses.replace(system, A=a.tocsr())
    with pytest.raises(SolverError):
        solve_system(broken)


def test_dimension_mismatch_raises(coarse_regular_solution, coarse_circle_mesh):
    field, system = coarse_regular_solution
    with pytest.raises(SolverError):
        recover_fields(np.zeros(3, dtype=complex), system, coarse_circle_mesh,
                       IncidentField(KAPPA, ALPHA))


def test_iterative_refinement_reaches_backward_error_bound():
    # an ill-conditioned but solvable diagonal system: one splu solve is
    # accurate here, the point is that the residual reported is the
    # normwise backward error, which stays tiny despite the conditioning
    n = 50
    diag = np.logspace(0, -12, n).astype(complex)
    a = sp.diags(diag).tocsr()
    f = np.ones(n, dtype=complex)
    from flexscat.assembly import BlockSystem, DofMap

    dof = DofMap(np.arange(n), np.arange(n), n // 2, 0, 0)
    system = BlockSystem(A=a, F=f, dof_map=dof)
    w, residual = solve_system(system)
    assert residual <= RESIDUAL_BOUND
    assert np.allclose(w * diag, f)


@pytest.mark.parametrize("method", [Method.regular(), Method.interior_penalty(KAPPA * 1e-3)],
                         ids=["regular", "ip"])
def test_backward_error_takes_the_one_norm_of_a(method):
    # the gate's residual equals one recomputed with the 1-norm of an abs(A) copy
    _, system = solve_direct(generate_mesh_for_h(Kite(0.3, 0.2, 0.1), R, 0.2), method)
    w, residual = solve_system(system)
    a_norm = abs(system.A).sum(axis=0).max()
    r = np.linalg.norm(system.A @ w - system.F)
    expected = r / (a_norm * np.linalg.norm(w) + np.linalg.norm(system.F))
    assert abs(residual - expected) <= 1e-15 * expected


@pytest.mark.parametrize("real", [False, True], ids=["plain", "real"])
def test_both_sweeps_take_three_products_of_a(coarse_regular_solution, monkeypatch, real):
    # one residual per sweep serves its gate and the next sweep's correction:
    # the first solution's, then one after each of the two sweeps
    _, system = coarse_regular_solution
    products = []
    original = sp.csr_matrix.__matmul__

    def matmul(a, b):
        products.append(a is system.A)
        return original(a, b)

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", matmul)
    monkeypatch.setattr(solve, "RESIDUAL_BOUND", 0.0)  # no sweep passes the gate
    monkeypatch.setattr(solve, "REAL_MIN_DOFS", 0 if real else math.inf)
    monkeypatch.setattr(solve, "FACTORIZATIONS", () if real else FACTORIZATIONS[:1])
    with pytest.raises(SolverError, match="exceeds 0.0"):
        solve_system(cold(system))
    assert products == [True] * 3


class _WrongFactors:
    def __init__(self, value):
        self.value = value

    def solve(self, b):
        return np.full_like(b, self.value)


def _raise(a):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize("symmetric", [
    _raise,
    lambda a: _WrongFactors(np.nan),  # non-finite solution
    lambda a: _WrongFactors(1.0),  # finite, misses the gate after refinement
], ids=["raises", "non-finite", "inaccurate"])
def test_symmetric_failure_falls_back_to_colamd(coarse_regular_solution,
                                                 monkeypatch, symmetric):
    _, system = coarse_regular_solution
    calls = record_splu(monkeypatch, symmetric)
    w, residual = solve_system(cold(system))
    assert calls == [FACTORIZATIONS[0], {}]
    assert residual <= RESIDUAL_BOUND
    r = np.linalg.norm(system.A @ w - system.F) / np.linalg.norm(system.F)
    assert r <= 1e-10


def test_circle_solve_factors_once(coarse_circle_mesh, monkeypatch):
    calls = record_splu(monkeypatch)
    field, _ = solve_direct(coarse_circle_mesh, Method.interior_penalty(KAPPA * 1e-3))
    assert calls == [FACTORIZATIONS[0]]
    assert field.residual <= RESIDUAL_BOUND


def test_plain_attempt_factors_the_arrays_of_a(coarse_regular_solution, coarse_circle_mesh,
                                               monkeypatch):
    # A = A^T exactly, so its CSR arrays read as CSC are A: no copy is made,
    # not even for IP, whose cavity clique is in A's own pattern
    _, ip = solve_direct(coarse_circle_mesh, Method.interior_penalty(KAPPA * 1e-3))
    seen = []
    original = solve.splu

    def splu(a, **settings):
        seen.append(a)
        return original(a, **settings)

    monkeypatch.setattr(solve, "splu", splu)
    for system in (coarse_regular_solution[1], ip):
        seen.clear()
        solve_system(cold(system))
        (a,) = seen
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(a, name), getattr(system.A, name))


def test_ip_symmetric_attempt_orders_cavity_unknowns_last(medium_circle_mesh,
                                                           monkeypatch):
    _, system = solve_direct(medium_circle_mesh, Method.interior_penalty(KAPPA * 1e-3))
    seen = []
    original = solve.splu

    def splu(a, **settings):
        lu = original(a, **settings)
        seen.append((a, lu))
        if settings == FACTORIZATIONS[0]:
            raise RuntimeError("record, then fall back")
        return lu

    monkeypatch.setattr(solve, "splu", splu)
    solve_system(cold(system))
    (_, sym), (colamd_a, _) = seen
    first = 2 * system.dof_map.n_interior + 2 * system.dof_map.n_trunc  # P_D
    # column j of A is column perm_c[j] of the factored matrix
    assert sym.perm_c[first:].min() == first
    # plain minimum degree on this system keeps 231,204 entries in L + U
    assert sym.L.nnz + sym.U.nnz < 231_204
    A = system.A.tocsc()
    assert np.array_equal(colamd_a.indptr, A.indptr)
    assert np.array_equal(colamd_a.indices, A.indices)
    assert np.array_equal(colamd_a.data, A.data)


@pytest.mark.parametrize("shape, h, method", [
    (Circle(RHAT), 0.05, Method.interior_penalty(KAPPA * 1e-3)),
    (Kite(0.3, 0.2, 0.1), 0.1, Method.boundary_penalty(2.5 * KAPPA * 1e-3)),
    (Ellipse(0.4, 0.2), 0.04, Method.regular()),
], ids=["circle-ip", "kite-bp", "ellipse-regular"])
def test_symmetric_and_colamd_paths_agree(monkeypatch, shape, h, method):
    # each path forced in turn: the real attempt, the complex symmetric
    # attempt (no real attempt at any size), then COLAMD alone
    _, system = solve_direct(generate_mesh_for_h(shape, R, h), method)
    calls = record_splu(monkeypatch)
    monkeypatch.setattr(solve, "REAL_MIN_DOFS", 0)
    w_real, _ = solve_system(cold(system))
    monkeypatch.setattr(solve, "REAL_MIN_DOFS", math.inf)
    w_sym, _ = solve_system(cold(system))
    monkeypatch.setattr(solve, "FACTORIZATIONS", FACTORIZATIONS[1:])
    w_colamd, _ = solve_system(system)
    assert calls == [FACTORIZATIONS[0], FACTORIZATIONS[0], {}]
    for w in (w_real, w_sym):
        assert np.linalg.norm(w - w_colamd) <= 1e-12 * np.linalg.norm(w_colamd)


def test_real_attempt_factors_real_values(medium_circle_mesh, monkeypatch):
    _, system = solve_direct(medium_circle_mesh, Method.interior_penalty(KAPPA * 1e-3))
    monkeypatch.setattr(solve, "REAL_MIN_DOFS", 0)
    seen = []
    original = solve.splu

    def splu(a, **settings):
        seen.append((settings, a, original(a, **settings)))
        return seen[-1][2]

    monkeypatch.setattr(solve, "splu", splu)
    _, residual = solve_system(cold(system))
    ((settings, a, lu),) = seen
    assert settings == FACTORIZATIONS[0]
    assert a.dtype == lu.L.dtype == lu.U.dtype == np.float64
    assert (a != system.A.real).nnz == 0  # Re A
    assert residual <= RESIDUAL_BOUND


def test_small_system_factors_as_before(medium_circle_mesh, monkeypatch):
    # below REAL_MIN_DOFS the low-rank form is not even built
    _, system = solve_direct(medium_circle_mesh, Method.interior_penalty(KAPPA * 1e-3))
    assert system.dof_map.size < solve.REAL_MIN_DOFS
    monkeypatch.setattr(type(system.tbc), "p_imag_factors",
                        lambda tbc: pytest.fail("built the low-rank form"))
    calls = record_splu(monkeypatch)
    _, residual = solve_system(cold(system))
    assert calls == [FACTORIZATIONS[0]]
    assert residual <= RESIDUAL_BOUND


@pytest.mark.parametrize("complex_too", [False, True], ids=["to-symmetric", "to-colamd"])
@pytest.mark.parametrize("failing", [
    _raise,
    lambda a: _WrongFactors(np.nan),  # non-finite solution
    lambda a: _WrongFactors(1.0),  # finite, misses the gate after refinement
], ids=["raises", "non-finite", "inaccurate"])
def test_real_failure_falls_back(coarse_regular_solution, monkeypatch, failing, complex_too):
    _, system = coarse_regular_solution
    monkeypatch.setattr(solve, "REAL_MIN_DOFS", 0)
    original = solve.splu

    def symmetric(a):
        if a.dtype == np.float64 or complex_too:
            return failing(a)
        return original(a, **FACTORIZATIONS[0])

    calls = record_splu(monkeypatch, symmetric)
    w, residual = solve_system(cold(system))
    assert calls == [FACTORIZATIONS[0]] * 2 + [{}] * complex_too
    assert residual <= RESIDUAL_BOUND
    r = np.linalg.norm(system.A @ w - system.F) / np.linalg.norm(system.F)
    assert r <= 1e-10


def test_real_attempt_passes_over_kappa(monkeypatch):
    # Re A is a real Helmholtz operator with a Robin-like DtN term, which
    # could be near-singular at some kappa; the gate must hold at each
    mesh = generate_mesh_for_h(Circle(RHAT), R, 0.035)
    scalars = ScalarMatrices(mesh)
    method = Method.interior_penalty(KAPPA * 1e-3)
    for kappa in np.linspace(1.0, 8.0, 20):
        cfg = ScatterConfig(kappa=kappa)
        system = build_system(mesh, scalars, *cli.tbc_and_load(cfg, mesh), kappa, method)
        monkeypatch.setattr(solve, "REAL_MIN_DOFS", 0)
        w, residual = solve_system(system)
        monkeypatch.setattr(solve, "REAL_MIN_DOFS", math.inf)
        w_complex, _ = solve_system(system)
        assert residual <= RESIDUAL_BOUND
        assert np.linalg.norm(w - w_complex) <= 1e-10 * np.linalg.norm(w_complex)


@pytest.mark.parametrize("param, values, real", [
    ("gamma", list(np.logspace(-4, -1, 9)), False),
    ("eta", list(np.logspace(-3, -1, 3)), False),
    ("kappa", [2.0, 3.0, 4.0], False),
    ("gamma", list(np.logspace(-4, -1, 9)), True),
], ids=["gamma", "eta", "kappa", "gamma-real"])
def test_sweep_orders_each_kind_once_and_matches_fresh_solves(tmp_path, monkeypatch,
                                                              param, values, real):
    solved = []
    original = cli.solve_system
    monkeypatch.setattr(cli, "solve_system",
                        lambda system: solved.append((system, original(system))) or solved[-1][1])
    corrected = []
    if real:  # every value passes the real attempt, on the kept ordering after the first
        monkeypatch.setattr(solve, "REAL_MIN_DOFS", 0)
        woodbury = solve._Woodbury
        monkeypatch.setattr(solve, "_Woodbury",
                            lambda *args: corrected.append(woodbury(*args)) or corrected[-1])
    calls = record_splu(monkeypatch)
    config = ScatterConfig(h_target=0.1, method=Method.interior_penalty(KAPPA * 1e-3))
    cli.run_sweep(config, param, values, tmp_path)
    # one minimum-degree ordering for the mesh and kind; each later value
    # factors the same pattern pre-permuted
    assert [c["permc_spec"] for c in calls] == (["MMD_AT_PLUS_A"]
                                                + ["NATURAL"] * (len(values) - 1))
    assert len(solved) == len(values)
    assert len(corrected) == len(values) * real
    monkeypatch.undo()
    # the sweep's mesh again: generation is deterministic.  Values after the
    # first are solved on two threads, so each solved system is found by its
    # A's values, not by the order of the calls
    mesh = generate_mesh_for_h(config.shape, config.R, config.h_target)
    method = {"gamma": Method.interior_penalty, "eta": Method.boundary_penalty,
              "kappa": lambda kappa: config.method}[param]
    by_data = {system.A.data.tobytes(): (system, result) for system, result in solved}
    assert len(by_data) == len(values)
    for value in values:
        cfg = dataclasses.replace(config, kappa=value) if param == "kappa" else config
        tbc, load = cli.tbc_and_load(cfg, mesh)
        fresh = build_system(mesh, ScalarMatrices(mesh), tbc, load, cfg.kappa, method(value))
        system, (w, residual) = by_data[fresh.A.data.tobytes()]
        for name in ("indptr", "indices"):
            assert getattr(system.A, name).tobytes() == getattr(fresh.A, name).tobytes()
        w_fresh, _ = solve_system(fresh)
        assert residual <= RESIDUAL_BOUND
        assert np.linalg.norm(w - w_fresh) <= 1e-12 * np.linalg.norm(w_fresh)


def test_every_system_of_a_kind_holds_its_pattern_arrays(coarse_circle_mesh):
    mesh = coarse_circle_mesh
    scalars = ScalarMatrices(mesh)
    tbc, load = cli.tbc_and_load(ScatterConfig(), mesh)
    first = build_system(mesh, scalars, tbc, load, KAPPA, Method.boundary_penalty(0.01))
    pattern = first.pattern
    assert first.A.indptr is pattern.indptr and first.A.indices is pattern.indices
    later = build_system(mesh, scalars, tbc, load, KAPPA, Method.boundary_penalty(0.02))
    assert later.pattern is pattern
    assert later.A.indptr is pattern.indptr and later.A.indices is pattern.indices
    # the DtN blocks are kept as one run start per T row, not a slot per entry;
    # the slots kept are copies, so the blocks' are freed
    nt = pattern.dof.n_trunc
    assert [len(starts) for starts in pattern.runs] == [nt, nt]
    assert sum(len(at) for at in pattern.slots) == 2 * pattern.n_pairs
    assert all(at.base is None for at in pattern.slots + pattern.runs)
    # another kind on the same scalars gets its own pattern
    other = build_system(mesh, scalars, tbc, load, KAPPA, Method.regular())
    assert other.pattern is not pattern
    assert other.A.indptr is other.pattern.indptr and other.A.indices is other.pattern.indices


@pytest.mark.parametrize("permuted", [
    _raise,
    lambda a: _WrongFactors(1.0),  # finite, misses the gate after refinement
], ids=["raises", "inaccurate"])
def test_permuted_failure_falls_back_to_colamd(medium_circle_mesh, monkeypatch, permuted):
    mesh = medium_circle_mesh
    scalars = ScalarMatrices(mesh)
    tbc, load = cli.tbc_and_load(ScatterConfig(), mesh)
    systems = [build_system(mesh, scalars, tbc, load, KAPPA, Method.interior_penalty(g))
               for g in (1e-3, 1e-2)]
    solve_system(systems[0])  # keeps its ordering
    calls = record_splu(monkeypatch, permuted, replaced=PERMUTED)
    w, residual = solve_system(systems[1])
    assert calls == [PERMUTED, {}]
    assert residual <= RESIDUAL_BOUND
    A, F = systems[1].A, systems[1].F
    assert np.linalg.norm(A @ w - F) / np.linalg.norm(F) <= 1e-10


def in_turn(solve_, first, second):
    """solve._both without the second thread."""
    return solve_(first), solve_(second)


def record_woodbury(monkeypatch):
    """A list that logs every _Woodbury built from now on."""
    corrected = []
    woodbury = solve._Woodbury
    monkeypatch.setattr(solve, "_Woodbury",
                        lambda *args: corrected.append(woodbury(*args)) or corrected[-1])
    return corrected


@pytest.mark.parametrize("method", [Method.interior_penalty(KAPPA * 1e-3),
                                    Method.boundary_penalty(2.5 * KAPPA * 1e-3)],
                         ids=["ip", "bp"])
def test_threaded_halves_give_the_bits_of_halves_in_turn(monkeypatch, method):
    _, system = solve_direct(generate_mesh_for_h(Kite(0.3, 0.2, 0.1), R, 0.1), method)
    assert system.dof_map.size >= solve.REAL_MIN_DOFS
    started = count_threads(monkeypatch)
    calls = record_splu(monkeypatch)
    w_threaded, residual_threaded = solve_system(cold(system))
    assert len(started) == 3  # one each for Z, the right-hand side and one refinement sweep
    monkeypatch.setattr(solve, "_both", in_turn)
    w_in_turn, residual_in_turn = solve_system(cold(system))
    assert len(started) == 3
    assert calls == [FACTORIZATIONS[0]] * 2  # both passed the real attempt
    assert w_threaded.tobytes() == w_in_turn.tobytes()
    assert residual_threaded == residual_in_turn <= RESIDUAL_BOUND


def test_woodbury_keeps_the_columns_of_weight_at_least_sqrt_eps(medium_circle_mesh,
                                                                 monkeypatch):
    _, system = solve_direct(medium_circle_mesh, Method.interior_penalty(KAPPA * 1e-3))
    u, s = system.tbc.p_imag_factors()
    # the last two columns sit on the cut and just below it; the rest keep
    # their weights, whose smallest lie below it too
    s = s.copy()
    s[-2:] = KEEP_WEIGHT * s.max() * np.array([1.0, 1.0 - 2.0**-52])
    keep = s >= KEEP_WEIGHT * s.max()
    assert keep[-2] and not keep[-1] and 1 < keep.sum() < len(s) - 1
    monkeypatch.setattr(type(system.tbc), "p_imag_factors", lambda tbc: (u, s))
    monkeypatch.setattr(solve, "REAL_MIN_DOFS", 0)
    corrected = record_woodbury(monkeypatch)
    _, residual = solve_system(cold(system))
    (kept,) = corrected
    assert kept.u.tobytes() == u[:, keep].tobytes()
    assert kept.z.shape == (system.dof_map.size, keep.sum())
    assert residual <= RESIDUAL_BOUND


@pytest.mark.parametrize("call", [1, 2], ids=["z-half", "right-hand-side"])
def test_failure_in_the_second_thread_falls_back(coarse_regular_solution, monkeypatch, call):
    # the `call`-th solve on the second thread with the real factors raises:
    # a half of Z, or the imaginary part of the first right-hand side
    _, system = coarse_regular_solution
    monkeypatch.setattr(solve, "REAL_MIN_DOFS", 0)
    original = solve.splu
    off_main = []

    class FailsOnTheSecondThread:
        def __init__(self, lu):
            self.lu, self.perm_c = lu, lu.perm_c

        def solve(self, b):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(b.ndim)
                if len(off_main) == call:
                    raise RuntimeError("solve failed on the second thread")
            return self.lu.solve(b)

    def symmetric(a):
        lu = original(a, **FACTORIZATIONS[0])
        return FailsOnTheSecondThread(lu) if a.dtype == np.float64 else lu

    calls = record_splu(monkeypatch, symmetric)
    w, residual = solve_system(cold(system))
    assert off_main == [2, 1][:call]
    assert calls == [FACTORIZATIONS[0]] * 2
    assert residual <= RESIDUAL_BOUND
    r = np.linalg.norm(system.A @ w - system.F) / np.linalg.norm(system.F)
    assert r <= 1e-10


def test_converge_on_the_real_path_writes_the_same_bytes_twice(tmp_path, monkeypatch):
    monkeypatch.setattr(solve, "REAL_MIN_DOFS", 0)
    corrected = record_woodbury(monkeypatch)
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli.main(["converge", "--shape", "kite:0.3,0.2,0.1", "--method", "bp:0.0079",
                         "--oracle", "none", "--levels", "3", "--h", "0.8",
                         "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("convergence.csv", "orders.json")])
    assert len(corrected) == 8  # the reference and three levels, twice
    assert outputs[0] == outputs[1]
