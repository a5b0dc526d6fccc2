"""Error norms, point location, boundary traces, and file exports."""

import math

import numpy as np
import pytest

from flexscat import Method, SeriesSolution
from flexscat.geometry import Circle, generate_mesh
from flexscat.postproc import (BoundaryTrace, ErrorReport, PointLocator,
                               PostprocError, boundary_trace, compute_errors,
                               error_csv, evaluate_at_points, exact_samples,
                               fe_evaluator, field_csv, read_field_csv, trace_csv,
                               vtk_field)
from conftest import KAPPA, RHAT, R, solve_direct


def test_zero_error_against_own_fe_evaluator(coarse_regular_solution,
                                             coarse_circle_mesh):
    field, _ = coarse_regular_solution
    exact = fe_evaluator(field, coarse_circle_mesh)
    rep = compute_errors(field, coarse_circle_mesh,
                         exact_samples(coarse_circle_mesh, exact), Method.regular(),
                         KAPPA, 15)
    for e in (rep.e_l2_v, rep.e_h1_v, rep.e_l2_w, rep.e_h1_w):
        assert e <= 1e-10


def test_error_report_fields(coarse_regular_solution, coarse_circle_mesh):
    field, _ = coarse_regular_solution
    sol = SeriesSolution.build(KAPPA, RHAT, math.pi / 3, 25)
    rep = compute_errors(field, coarse_circle_mesh,
                         exact_samples(coarse_circle_mesh, sol.evaluator()),
                         Method.regular(), KAPPA, 15)
    assert rep.method == "regular"
    assert rep.h == coarse_circle_mesh.h
    assert rep.dofs == coarse_circle_mesh.n_dofs
    for e in (rep.e_l2_v, rep.e_h1_v, rep.e_l2_w, rep.e_h1_w):
        assert 0 < e < 1.5


def test_quadrature_rules_agree(coarse_regular_solution, coarse_circle_mesh):
    field, _ = coarse_regular_solution
    sol = SeriesSolution.build(KAPPA, RHAT, math.pi / 3, 25)
    r4, r7 = (compute_errors(field, coarse_circle_mesh,
                             exact_samples(coarse_circle_mesh, sol.evaluator(), rule),
                             Method.regular(), KAPPA, 15) for rule in ("deg4", "deg7"))
    assert r4.e_l2_v == pytest.approx(r7.e_l2_v, rel=2e-2)
    assert r4.e_h1_v == pytest.approx(r7.e_h1_v, rel=2e-2)


def test_point_evaluation_reproduces_linear_fields(coarse_circle_mesh):
    # interpolation is exact for fields linear in x, y
    import dataclasses

    from flexscat.solve import SolutionField

    mesh = coarse_circle_mesh
    lin = (0.3 * mesh.nodes[:, 0] - 0.8 * mesh.nodes[:, 1] + 0.1).astype(complex)
    field = SolutionField(p=0.5 * lin, q=1.5 * lin, u_inc=0 * lin, residual=0.0)
    rng = np.random.default_rng(5)
    r = rng.uniform(RHAT * 1.02, R * 0.98, 200)
    th = rng.uniform(0, 2 * math.pi, 200)
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    v, w = evaluate_at_points(field, mesh, pts)
    exact = 0.3 * pts[:, 0] - 0.8 * pts[:, 1] + 0.1
    keep = r > RHAT * 1.05  # clear of the polygonal cavity chords
    assert np.allclose(v[keep], exact[keep], atol=1e-12)
    assert np.allclose(w[keep], 2 * exact[keep], atol=1e-12)


def test_locator_rejects_far_points(coarse_circle_mesh):
    loc = PointLocator(coarse_circle_mesh)
    with pytest.raises(PostprocError):
        loc.locate(np.array([[10.0, 10.0]]))
    with pytest.raises(PostprocError):
        loc.locate(np.array([[0.0, 0.0]]))  # deep inside the cavity


def test_locator_clamps_points_in_boundary_slivers(coarse_circle_mesh):
    # a point between a cavity chord and the exact circle lies outside the
    # polygonal mesh; it must be clamped onto the nearest element
    mesh = coarse_circle_mesh
    loop = mesh.cavity_loop
    a, b = mesh.nodes[loop[0]], mesh.nodes[loop[1]]
    mid_angle = 0.5 * (math.atan2(*a[::-1]) + math.atan2(*b[::-1]))
    pt = (RHAT * 0.9999) * np.array([math.cos(mid_angle), math.sin(mid_angle)])
    loc = PointLocator(mesh)
    tri, bary = loc.locate(pt.reshape(1, 2))
    assert tri[0] >= 0
    assert bary.min() >= 0.0
    assert bary.sum() == pytest.approx(1.0)


def test_boundary_trace_ordering(coarse_regular_solution, coarse_circle_mesh):
    field, _ = coarse_regular_solution
    trace = boundary_trace(field, coarse_circle_mesh)
    assert len(trace.params) == len(coarse_circle_mesh.d_nodes)
    assert np.all(np.diff(trace.params) > 0)
    assert trace.total_variation > 0


def test_total_variation_definition():
    tr = BoundaryTrace(np.array([0.0, 1.0, 2.0]),
                       np.array([1.0, -1.0, 0.5], dtype=complex))
    # |(-1) - 1| + |0.5 - (-1)| + |1 - 0.5| = 4.0 cyclically
    assert tr.total_variation == pytest.approx(4.0)


def test_csv_exports(coarse_regular_solution, coarse_circle_mesh):
    field, _ = coarse_regular_solution
    mesh = coarse_circle_mesh
    text = field_csv(field, mesh)
    lines = text.strip().splitlines()
    assert lines[0] == "node_id,x,y,class,Re_p,Im_p,Re_q,Im_q,Re_v,Im_v,Re_w,Im_w"
    assert len(lines) == mesh.n_nodes + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert first[3] in ("I", "T", "D")

    trace = boundary_trace(field, mesh)
    tlines = trace_csv(trace).strip().splitlines()
    assert tlines[0] == "param,Re_w,Im_w,abs_w"
    assert len(tlines) == len(trace.params) + 1

    sol = SeriesSolution.build(KAPPA, RHAT, math.pi / 3, 25)
    rep = compute_errors(field, mesh, exact_samples(mesh, sol.evaluator()),
                         Method.regular(), KAPPA, 15)
    elines = error_csv([rep]).strip().splitlines()
    assert elines[0] == ErrorReport.CSV_HEADER
    parsed = elines[1].split(",")
    assert parsed[0] == "regular"
    assert float(parsed[7]) == rep.e_l2_v


def test_field_csv_round_trip_is_bit_exact(coarse_regular_solution, coarse_circle_mesh):
    field, _ = coarse_regular_solution
    back = read_field_csv(field_csv(field, coarse_circle_mesh), coarse_circle_mesh)
    for name in ("p", "q"):
        assert getattr(back, name).tobytes() == getattr(field, name).tobytes()
    assert np.allclose(back.v, field.v, rtol=0, atol=1e-14)


def test_vtk_export_structure(coarse_regular_solution, coarse_circle_mesh):
    field, _ = coarse_regular_solution
    mesh = coarse_circle_mesh
    text = vtk_field(field, mesh)
    assert text.startswith("# vtk DataFile Version 3.0")
    assert f"POINTS {mesh.n_nodes} double" in text
    assert f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}" in text
    assert "SCALARS Re_v double 1" in text
