"""Mesh generation, refinement, classification, and ASCII round trips."""

import math

import numpy as np
import pytest

from flexscat.geometry import (Circle, Ellipse, Kite, Mesh, MeshError,
                               cavity_min_gap, cavity_point, export_mesh,
                               generate_mesh, generate_mesh_for_h, import_mesh,
                               refine, refine_nested, _radius_params)


def test_cavity_point_parametrizations():
    assert np.allclose(cavity_point(Circle(0.3), 0.0), [0.3, 0.0])
    assert np.allclose(cavity_point(Circle(0.3), math.pi / 2), [0.0, 0.3])
    assert np.allclose(cavity_point(Ellipse(0.4, 0.2), 0.0), [0.4, 0.0])
    assert np.allclose(cavity_point(Ellipse(0.4, 0.2), math.pi / 2), [0.0, 0.2])
    k = Kite(0.3, 0.2, 0.1)
    t = 1.234
    assert np.allclose(cavity_point(k, t),
                       [0.3 * math.cos(t) + 0.2 * math.cos(2 * t) - 0.1,
                        0.3 * math.sin(t)])
    # vectorized form and 2 pi wrap
    ts = np.array([0.0, t, t + 2.0 * math.pi])
    pts = cavity_point(k, ts)
    assert pts.shape == (3, 2)
    assert np.allclose(pts[1], pts[2])


def test_shape_validation():
    for bad in (lambda: Circle(0.0), lambda: Ellipse(-1.0, 0.2),
                lambda: Kite(0.3, 0.0, 0.1), lambda: Kite(0.3, 0.5, 0.1)):
        with pytest.raises(ValueError):
            bad()


def test_radius_params_hit_requested_angles():
    for shape in (Ellipse(0.4, 0.2), Kite(0.3, 0.2, 0.1)):
        angles = np.linspace(0.0, 2 * math.pi, 17, endpoint=False)
        t = _radius_params(shape, angles)
        pts = cavity_point(shape, t)
        got = np.arctan2(pts[:, 1], pts[:, 0]) % (2 * math.pi)
        diff = np.abs((got - angles + math.pi) % (2 * math.pi) - math.pi)
        assert np.max(diff) < 1e-9


def test_cavity_min_gap_circle_exact():
    assert cavity_min_gap(Circle(0.3), 0.6) == pytest.approx(0.3, rel=1e-6)


def test_structured_mesh_counts_and_classes():
    nr, na = 4, 24
    mesh = generate_mesh(Circle(0.3), 0.6, nr, na)
    assert mesh.n_nodes == (nr + 1) * na
    assert mesh.n_triangles == 2 * nr * na
    assert len(mesh.d_nodes) == na
    assert len(mesh.t_nodes) == na
    assert len(mesh.interior_nodes) == (nr - 1) * na
    assert mesh.n_dofs == 2 * (nr - 1) * na + 2 * na + na
    assert np.all(mesh.areas() > 0)
    assert np.allclose(np.linalg.norm(mesh.nodes[mesh.t_nodes], axis=1), 0.6)
    assert np.allclose(np.linalg.norm(mesh.nodes[mesh.d_nodes], axis=1), 0.3)


def test_mesh_area_approximates_annulus():
    mesh = generate_mesh(Circle(0.3), 0.6, 8, 96)
    exact = math.pi * (0.6 ** 2 - 0.3 ** 2)
    # polygonal boundaries undershoot by O(h^2)
    assert mesh.areas().sum() == pytest.approx(exact, rel=5e-3)


def test_boundary_loops_ordered_counterclockwise():
    mesh = generate_mesh(Kite(0.3, 0.2, 0.1), 0.6, 4, 32)
    for loop in (mesh.cavity_loop, mesh.truncation_loop):
        pts = mesh.nodes[loop]
        area2 = np.sum(pts[:, 0] * np.roll(pts[:, 1], -1)
                       - np.roll(pts[:, 0], -1) * pts[:, 1])
        assert area2 > 0
        ang = np.arctan2(pts[0, 1], pts[0, 0]) % (2 * math.pi)
        assert ang == pytest.approx(
            np.min(np.arctan2(pts[:, 1], pts[:, 0]) % (2 * math.pi)))


def test_refine_halves_h():
    mesh = generate_mesh(Circle(0.3), 0.6, 4, 24)
    fine = refine(mesh)
    assert fine.h == pytest.approx(mesh.h / 2, rel=0.1)
    assert fine.n_dofs > mesh.n_dofs


def test_refine_requires_generator(coarse_circle_mesh):
    bare = Mesh(coarse_circle_mesh.nodes.copy(),
                coarse_circle_mesh.triangles.copy(),
                coarse_circle_mesh.node_class.copy())
    with pytest.raises(MeshError):
        refine(bare)


def test_refine_nested_is_a_quadrisection():
    mesh = generate_mesh(Ellipse(0.4, 0.2), 0.6, 3, 24)
    fine = refine_nested(mesh)
    assert fine.n_triangles == 4 * mesh.n_triangles
    n_edges = len(mesh.interior_edges) + len(mesh.cavity_loop) + len(mesh.truncation_loop)
    assert fine.n_nodes == mesh.n_nodes + n_edges
    # parent nodes are kept verbatim with their classes
    assert np.array_equal(fine.nodes[:mesh.n_nodes], mesh.nodes)
    assert np.array_equal(fine.node_class[:mesh.n_nodes], mesh.node_class)
    # h roughly halves; projecting truncation midpoints onto the circle
    # makes child chords marginally longer than half the parent chord
    assert fine.h == pytest.approx(mesh.h / 2, rel=0.05)


def test_refine_nested_freezes_cavity_and_projects_circle():
    mesh = generate_mesh(Kite(0.3, 0.2, 0.1), 0.6, 3, 32)
    fine = refine_nested(mesh)
    # new cavity nodes are chord midpoints of the parent polygon
    loop = mesh.cavity_loop
    mids = {tuple(np.round(0.5 * (mesh.nodes[a] + mesh.nodes[b]), 12))
            for a, b in zip(loop, np.roll(loop, -1))}
    new_d = [i for i in fine.d_nodes if i >= mesh.n_nodes]
    assert len(new_d) == len(loop)
    for i in new_d:
        assert tuple(np.round(fine.nodes[i], 12)) in mids
    # new truncation nodes land exactly on the circle
    new_t = [i for i in fine.t_nodes if i >= mesh.n_nodes]
    r = np.linalg.norm(fine.nodes[new_t], axis=1)
    assert np.allclose(r, mesh.truncation_radius, rtol=1e-13)


def test_generate_mesh_for_h_meets_target():
    for shape in (Circle(0.3), Ellipse(0.4, 0.2), Kite(0.3, 0.2, 0.1)):
        mesh = generate_mesh_for_h(shape, 0.6, 0.12)
        assert mesh.h <= 0.12


def test_generate_mesh_for_h_unreachable_target():
    with pytest.raises(MeshError):
        generate_mesh_for_h(Circle(0.3), 0.6, 0.05, max_angular=16)


def test_cavity_must_fit_inside_truncation_circle():
    with pytest.raises(MeshError):
        generate_mesh(Circle(0.6), 0.6, 4, 24)
    # reported as such, not as an unreachable h target
    with pytest.raises(MeshError, match="cavity extends to radius"):
        generate_mesh_for_h(Circle(0.3), 0.25, 0.05)


def test_quad_split_matches_scalar_reference():
    # on a circle many quad diagonals tie; the split must break each tie as
    # the scalar loop below does, or the circle meshes change
    nr, na = 7, 64
    mesh = generate_mesh(Circle(0.3), 0.6, nr, na)
    nodes, ref = mesh.nodes, []
    for i in range(nr):
        for j in range(na):
            c00, c10 = i * na + j, (i + 1) * na + j
            c11, c01 = (i + 1) * na + (j + 1) % na, i * na + (j + 1) % na
            if np.linalg.norm(nodes[c00] - nodes[c11]) <= np.linalg.norm(nodes[c10] - nodes[c01]):
                ref += [(c00, c10, c11), (c00, c11, c01)]
            else:
                ref += [(c00, c10, c01), (c10, c11, c01)]
    assert np.array_equal(mesh.triangles, np.array(ref))


def test_topology_matches_edge_map_reference():
    for mesh in (generate_mesh(Kite(0.3, 0.2, 0.1), 0.6, 3, 24),
                 refine_nested(generate_mesh(Circle(0.3), 0.6, 2, 12))):
        edge_map = {}
        for k, tri in enumerate(mesh.triangles.tolist()):
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                edge_map.setdefault((min(a, b), max(a, b)), []).append(k)
        inner = sorted((e, t) for e, t in edge_map.items() if len(t) == 2)
        assert mesh.interior_edges.tolist() == [list(e) for e, _ in inner]
        assert mesh.edge_tris.tolist() == [t for _, t in inner]


def test_invalid_generation_parameters():
    with pytest.raises(ValueError):
        generate_mesh(Circle(0.3), 0.6, 1, 24)
    with pytest.raises(ValueError):
        generate_mesh(Circle(0.3), 0.6, 4, 4)
    with pytest.raises(ValueError):
        generate_mesh_for_h(Circle(0.3), 0.6, 0.0)


def test_export_import_round_trip():
    mesh = generate_mesh(Kite(0.3, 0.2, 0.1), 0.6, 3, 24)
    text = export_mesh(mesh)
    back = import_mesh(text)
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.node_class, mesh.node_class)
    assert export_mesh(back) == text


def test_import_rejects_broken_meshes():
    mesh = generate_mesh(Circle(0.3), 0.6, 2, 12)
    text = export_mesh(mesh)
    with pytest.raises(MeshError):
        import_mesh(text.replace(" T", " X", 1))
    with pytest.raises(MeshError):
        import_mesh("not a mesh\n")


def test_validation_catches_inverted_and_misclassified():
    mesh = generate_mesh(Circle(0.3), 0.6, 2, 12)
    tris = mesh.triangles.copy()
    tris[0] = tris[0][::-1]  # clockwise triangle
    with pytest.raises(MeshError):
        Mesh(mesh.nodes.copy(), tris, mesh.node_class.copy())
    cls = mesh.node_class.copy()
    cls[mesh.interior_nodes[0]] = "T"  # interior node claimed on the circle
    with pytest.raises(MeshError):
        Mesh(mesh.nodes.copy(), mesh.triangles.copy(), cls)


def test_graded_meshes_stay_valid_under_refinement():
    mesh = generate_mesh_for_h(Kite(0.3, 0.2, 0.1), 0.6, 0.2)
    fine = refine_nested(mesh)
    assert np.all(fine.areas() > 0)
    assert fine.n_dofs > mesh.n_dofs
