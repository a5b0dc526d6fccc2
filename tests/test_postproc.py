"""Error norms, point location, boundary traces, and file exports."""

import math
from functools import cached_property

import numpy as np
import pytest

from flexscat import Method, SeriesSolution
from flexscat.geometry import (Circle, Kite, Mesh, export_mesh, generate_mesh,
                               generate_mesh_for_h, import_mesh)
from flexscat.postproc import (DEG4, BoundaryTrace, ErrorReport, PointLocator,
                               PostprocError, boundary_trace, compute_errors,
                               error_csv, exact_samples, fe_evaluator, field_csv,
                               read_field_csv, trace_csv, vtk_field)
from flexscat.solve import SolutionField
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


# Dunavant degree-7 (13 points, one negative weight), as (barycentric points,
# weights): a quadrature-refinement check on the library's degree-4 rule.
_DEG7_PTS = np.array(
    [[1 / 3, 1 / 3, 1 / 3]]
    + [[0.479308067841923, 0.260345966079038, 0.260345966079038][i:] +
       [0.479308067841923, 0.260345966079038, 0.260345966079038][:i] for i in range(3)]
    + [[0.869739794195568, 0.065130102902216, 0.065130102902216][i:] +
       [0.869739794195568, 0.065130102902216, 0.065130102902216][:i] for i in range(3)]
    + [[0.638444188569809, 0.312865496004875, 0.048690315425316],
       [0.048690315425316, 0.638444188569809, 0.312865496004875],
       [0.312865496004875, 0.048690315425316, 0.638444188569809],
       [0.638444188569809, 0.048690315425316, 0.312865496004875],
       [0.312865496004875, 0.638444188569809, 0.048690315425316],
       [0.048690315425316, 0.312865496004875, 0.638444188569809]])
_DEG7_WTS = np.array([-0.149570044467670]
                     + [0.175615257433204] * 3
                     + [0.053347235608839] * 3
                     + [0.077113760890257] * 6)


def test_quadrature_rules_agree(coarse_regular_solution, coarse_circle_mesh):
    field, _ = coarse_regular_solution
    sol = SeriesSolution.build(KAPPA, RHAT, math.pi / 3, 25)
    r4, r7 = (compute_errors(field, coarse_circle_mesh,
                             exact_samples(coarse_circle_mesh, sol.evaluator(), rule),
                             Method.regular(), KAPPA, 15)
              for rule in (DEG4, (_DEG7_PTS, _DEG7_WTS)))
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
    v, w, gv, gw = fe_evaluator(field, mesh)(pts)
    exact = 0.3 * pts[:, 0] - 0.8 * pts[:, 1] + 0.1
    keep = r > RHAT * 1.05  # clear of the polygonal cavity chords
    assert np.allclose(v[keep], exact[keep], atol=1e-12)
    assert np.allclose(w[keep], 2 * exact[keep], atol=1e-12)
    # the element gradients are exact everywhere, clamped points included
    assert np.allclose(gv, [0.3, -0.8], atol=1e-12)
    assert np.allclose(gw, [0.6, -1.6], atol=1e-12)
    # the narrow-then-wide candidate query finds what one scan of the 32
    # nearest centroids finds, bit for bit; some points need the wide query
    loc = PointLocator(mesh)
    tri, bary = loc.locate(pts)
    cand = loc.tree.query(pts, k=32)[1]
    b = loc._bary(cand, pts[:, None, :])
    first = np.argmax(b.min(axis=2) >= -1e-10, axis=1)
    assert first.max() >= 4
    rows = np.arange(len(pts))
    assert np.array_equal(tri, cand[rows, first])
    assert bary.tobytes() == b[rows, first].tobytes()


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
    loop = mesh.d_nodes
    a, b = mesh.nodes[loop[0]], mesh.nodes[loop[1]]
    mid_angle = 0.5 * (math.atan2(*a[::-1]) + math.atan2(*b[::-1]))
    pt = (RHAT * 0.9999) * np.array([math.cos(mid_angle), math.sin(mid_angle)])
    loc = PointLocator(mesh)
    tri, bary = loc.locate(pt.reshape(1, 2))
    assert tri[0] >= 0
    assert bary.min() >= 0.0
    assert bary.sum() == pytest.approx(1.0)


def full_scan(loc, pt):
    """Reference: the lowest-index element containing pt, else the nearest clamp."""
    b = loc._bary(np.arange(len(loc.verts)), pt)
    ok = np.flatnonzero(b.min(axis=1) >= -1e-10)
    if len(ok):
        return ok[0], b[ok[0]]
    clamped = np.clip(b, 0.0, None)
    clamped /= clamped.sum(axis=1, keepdims=True)
    dist = np.linalg.norm(np.einsum("tb,tbx->tx", clamped, loc.verts) - pt, axis=1)
    best = int(np.argmin(dist))
    assert dist[best] <= loc.clamp_dist
    return best, clamped[best]


@pytest.mark.parametrize("mesh", [generate_mesh(Circle(RHAT), R, 4, 24),
                                  generate_mesh_for_h(Kite(0.3, 0.2, 0.1), R, 0.2)],
                         ids=["circle", "kite"])
def test_locator_fallback_matches_a_scan_of_every_element(mesh):
    # points in the slivers just outside the cavity and truncation chords lie
    # in no element: each takes the fallback, which scans only nearby elements
    pts = []
    for loop, side in ((mesh.d_nodes, -1.0), (mesh.t_nodes, 1.0)):
        a, b = mesh.nodes[loop], mesh.nodes[np.roll(loop, -1)]
        normal = np.stack([b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]], axis=1)
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        mid = 0.5 * (a + b)
        # outward from the mesh: toward the origin on the cavity, away on the ring
        normal *= np.sign(np.einsum("ex,ex->e", normal, mid))[:, None] * side
        for t, depth in ((0.5, 1e-4), (0.2, 1e-3), (0.9, 1e-5)):
            pts.append(a + t * (b - a) + depth * np.linalg.norm(b - a, axis=1)[:, None] * normal)
        # radially off a vertex, several elements clamp the point onto that
        # vertex at equal distance: the lowest index must win
        pts.append(a * (1.0 + side * 1e-4))
    pts = np.concatenate(pts)
    loc = PointLocator(mesh)
    tri, bary = loc.locate(pts)
    for k, pt in enumerate(pts):
        ref_tri, ref_bary = full_scan(loc, pt)
        assert tri[k] == ref_tri
        assert bary[k].tobytes() == ref_bary.tobytes()
    # the scan saw a small share of the elements
    assert max(map(len, loc.tree.query_ball_point(pts, loc.scan_radius))) < 0.5 * mesh.n_triangles


def test_boundary_trace_ordering(coarse_regular_solution, coarse_circle_mesh):
    field, _ = coarse_regular_solution
    trace = boundary_trace(field, coarse_circle_mesh)
    assert len(trace.params) == len(coarse_circle_mesh.d_nodes)
    assert np.all(np.diff(trace.params) > 0)
    assert trace.total_variation > 0


def test_total_variation_definition():
    tr = BoundaryTrace(np.array([0.0, 1.0, 2.0]),
                       np.array([1.0, -1.0, 0.5], dtype=complex),
                       (["1.0", "-1.0", "0.5"], ["0.0"] * 3))
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


# Reference writers: every value formatted by its own str call, row by row,
# as the artifacts were written before their text columns were shared.

def _str_rows(*columns, sep=","):
    return "".join(sep.join(map(str, row)) + "\n" for row in zip(*columns))


def _str_mesh(mesh):
    n, m = mesh.n_nodes, mesh.n_triangles
    return (f"nodes {n}\n"
            + _str_rows(range(1, n + 1), *mesh.nodes.T.tolist(), mesh.node_class.tolist(), sep=" ")
            + f"triangles {m}\n"
            + _str_rows(range(1, m + 1), *(mesh.triangles + 1).T.tolist(), sep=" "))


def _str_field_csv(field, mesh):
    values = np.column_stack([field.p, field.q, field.v, field.w]).view(float)
    return ("node_id,x,y,class,Re_p,Im_p,Re_q,Im_q,Re_v,Im_v,Re_w,Im_w\n" + _str_rows(
        range(1, mesh.n_nodes + 1), *mesh.nodes.T.tolist(), mesh.node_class.tolist(),
        *values.T.tolist()))


def _str_vtk(field, mesh):
    n, m = mesh.n_nodes, mesh.n_triangles
    parts = ["# vtk DataFile Version 3.0\nflexural scattering field\n"
             f"ASCII\nDATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n",
             _str_rows(*mesh.nodes.T.tolist(), [0.0] * n, sep=" "),
             f"CELLS {m} {4 * m}\n",
             _str_rows([3] * m, *mesh.triangles.T.tolist(), sep=" "),
             f"CELL_TYPES {m}\n", _str_rows([5] * m), f"POINT_DATA {n}\n"]
    v, w = field.v, field.w
    for name, data in (("Re_v", v.real), ("Im_v", v.imag), ("Re_w", w.real), ("Im_w", w.imag)):
        parts += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n", _str_rows(data.tolist())]
    return "".join(parts)


def _str_trace(trace):
    w = trace.w
    return "param,Re_w,Im_w,abs_w\n" + _str_rows(
        trace.params.tolist(), w.real.tolist(), w.imag.tolist(), map(abs, w.tolist()))


def _imported_circle():
    """The coarse circle mesh read back through import_mesh, with every other
    triangle written clockwise, so that import reorients it."""
    lines = export_mesh(generate_mesh(Circle(RHAT), R, 4, 24)).splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("triangles"))
    for k in range(start + 1, len(lines), 2):
        tid, a, b, c = lines[k].split()
        lines[k] = f"{tid} {a} {c} {b}"
    mesh = import_mesh("\n".join(lines) + "\n")
    assert mesh.warnings
    return mesh, Method.regular()


ARTIFACT_CASES = {
    "circle-ip-h0.05": lambda: (generate_mesh_for_h(Circle(RHAT), R, 0.05),
                                Method.interior_penalty(KAPPA * 1e-3)),
    "kite-bp-h0.2": lambda: (generate_mesh_for_h(Kite(0.3, 0.2, 0.1), R, 0.2),
                             Method.boundary_penalty(2.5 * KAPPA * 1e-3)),
    "imported": _imported_circle,
}


@pytest.mark.parametrize("case", ARTIFACT_CASES)
def test_artifacts_match_per_value_str_writers(case):
    mesh, method = ARTIFACT_CASES[case]()
    field, _ = solve_direct(mesh, method)
    trace = boundary_trace(field, mesh)
    assert export_mesh(mesh) == _str_mesh(mesh)
    assert field_csv(field, mesh) == _str_field_csv(field, mesh)
    assert vtk_field(field, mesh) == _str_vtk(field, mesh)
    assert trace_csv(trace) == _str_trace(trace)


def test_text_columns_are_built_once_and_shared(monkeypatch, coarse_regular_solution,
                                                coarse_circle_mesh):
    built = []
    for cls, name in ((Mesh, "node_text"), (SolutionField, "value_text")):
        build = cls.__dict__[name].func

        def counted(self, build=build, name=name):
            built.append(name)
            return build(self)

        prop = cached_property(counted)
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)
    # fresh objects: the session fixtures may already hold their columns
    base, (solved, _) = coarse_circle_mesh, coarse_regular_solution
    mesh = Mesh(base.nodes, base.triangles, base.node_class)
    field = SolutionField(solved.p, solved.q, solved.u_inc, solved.residual)
    first = [export_mesh(mesh), field_csv(field, mesh), vtk_field(field, mesh)]
    assert built == ["node_text", "value_text"]
    columns = mesh.node_text, field.value_text
    again = [vtk_field(field, mesh), field_csv(field, mesh), export_mesh(mesh)]
    assert again[::-1] == first
    assert built == ["node_text", "value_text"]
    assert mesh.node_text is columns[0] and field.value_text is columns[1]
