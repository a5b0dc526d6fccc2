"""Mesh generation, refinement, classification, and ASCII round trips."""

import math

import numpy as np
import pytest

from flexscat import geometry
from flexscat.geometry import (Circle, Ellipse, Kite, Mesh, MeshError,
                               cavity_min_gap, cavity_point, export_mesh,
                               generate_mesh, generate_mesh_for_h, import_mesh,
                               refine)
from conftest import shuffled_import


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


def test_node_columns_are_rays_through_cavity_nodes():
    nr, na = 5, 40
    for shape in (Circle(0.3), Ellipse(0.4, 0.2), Kite(0.3, 0.2, 0.1)):
        mesh = generate_mesh(shape, 0.6, nr, na)
        cols = mesh.nodes.reshape(nr + 1, na, 2)
        t_node = cols[-1]
        assert np.all(mesh.node_class.reshape(nr + 1, na)[-1] == "T")
        cross = cols[..., 0] * t_node[:, 1] - cols[..., 1] * t_node[:, 0]
        scale = np.linalg.norm(cols, axis=2) * np.linalg.norm(t_node, axis=1)
        assert np.all(np.abs(cross) <= 1e-12 * scale), shape
        assert np.all(np.sum(cols * t_node, axis=2) > 0), shape
        x, y = mesh.nodes[mesh.d_nodes].T
        if isinstance(shape, Circle):
            assert np.allclose(np.hypot(x, y), 0.3, rtol=1e-12, atol=0)
        elif isinstance(shape, Ellipse):
            assert np.allclose((x / 0.4) ** 2 + (y / 0.2) ** 2, 1.0, rtol=0, atol=1e-12)
        else:
            # y = a sin t fixes t up to t <-> pi - t; x must match one of them
            t = np.arcsin(np.clip(y / shape.a, -1.0, 1.0))
            miss = np.minimum(*(np.linalg.norm(cavity_point(shape, tt) - np.stack([x, y], 1),
                                               axis=1) for tt in (t, math.pi - t)))
            assert np.all(miss <= 1e-12), miss.max()


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
    assert np.all(mesh.areas > 0)
    assert np.allclose(np.linalg.norm(mesh.nodes[mesh.t_nodes], axis=1), 0.6)
    assert np.allclose(np.linalg.norm(mesh.nodes[mesh.d_nodes], axis=1), 0.3)


def test_mesh_area_approximates_annulus():
    mesh = generate_mesh(Circle(0.3), 0.6, 8, 96)
    exact = math.pi * (0.6 ** 2 - 0.3 ** 2)
    # polygonal boundaries undershoot by O(h^2)
    assert mesh.areas.sum() == pytest.approx(exact, rel=5e-3)


def test_boundary_loops_ordered_counterclockwise():
    mesh = generate_mesh(Kite(0.3, 0.2, 0.1), 0.6, 4, 32)
    for loop in (mesh.d_nodes, mesh.t_nodes):
        pts = mesh.nodes[loop]
        area2 = np.sum(pts[:, 0] * np.roll(pts[:, 1], -1)
                       - np.roll(pts[:, 0], -1) * pts[:, 1])
        assert area2 > 0
        ang = np.arctan2(pts[0, 1], pts[0, 0]) % (2 * math.pi)
        assert ang == pytest.approx(
            np.min(np.arctan2(pts[:, 1], pts[:, 0]) % (2 * math.pi)))


@pytest.mark.parametrize("shape", [Circle(0.3), Ellipse(0.4, 0.2), Kite(0.3, 0.2, 0.1)],
                         ids=["circle", "ellipse", "kite"])
def test_generated_rings_are_in_node_id_order(shape):
    # ring order equals ascending node id on a generated mesh, so the T and D
    # unknowns, and A, are those of numbering each class by node id
    meshes = [generate_mesh_for_h(shape, 0.6, h) for h in (0.8, 0.2, 0.1)]
    meshes.append(refine(meshes[-1]))
    for mesh in meshes:
        assert np.array_equal(mesh.t_nodes, np.flatnonzero(mesh.node_class == "T"))
        assert np.array_equal(mesh.d_nodes, np.flatnonzero(mesh.node_class == "D"))


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


def test_generate_mesh_for_h_meets_target():
    for shape in (Circle(0.3), Ellipse(0.4, 0.2), Kite(0.3, 0.2, 0.1)):
        mesh = generate_mesh_for_h(shape, 0.6, 0.12)
        assert mesh.h <= 0.12


def test_generate_mesh_for_h_builds_one_mesh(monkeypatch):
    built = []
    post_init = Mesh.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Mesh, "__post_init__", counted)
    for shape, h in ((Circle(0.3), 0.05), (Ellipse(0.4, 0.2), 0.1), (Kite(0.3, 0.2, 0.1), 0.2)):
        built.clear()
        mesh = generate_mesh_for_h(shape, 0.6, h)
        assert mesh.h <= h and len(built) == 1, shape


def test_generate_mesh_for_h_unreachable_target(monkeypatch):
    # ring chords bound h below by 2 R sin(pi / n_angular): rejected up front
    with pytest.raises(MeshError, match="cannot reach h <= 0.0001 with n_angular <= 8192"):
        generate_mesh_for_h(Circle(0.3), 0.6, 1e-4)
    # the bound admits n_angular >= 75.4, but doubling stops at 128 > 80
    monkeypatch.setattr(geometry, "MAX_ANGULAR", 80)
    with pytest.raises(MeshError, match="n_angular <= 80"):
        generate_mesh_for_h(Circle(0.3), 0.6, 0.05)


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
    # the second numbering does not come from the generator
    for mesh in (generate_mesh(Kite(0.3, 0.2, 0.1), 0.6, 3, 24),
                 shuffled_import(generate_mesh(Ellipse(0.4, 0.2), 0.6, 3, 16), 7)[0]):
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
    lines = text.splitlines()
    x = lines[1].split()[1]
    first_triangle = mesh.n_nodes + 2
    broken = {
        1: [text.replace(f"nodes {mesh.n_nodes}", "nodes -1"),
            text.replace(f"nodes {mesh.n_nodes}", "nodes 99999999999999")],
        2: [text.replace(f" {x} ", f" {bad} ", 1) for bad in ("nan", "inf", "-1e999")],
        first_triangle: [text.replace(lines[first_triangle - 1],
                                      f"1 1 2 {99999999999999999999999}")],
    }
    for line, texts in broken.items():
        for bad in texts:
            with pytest.raises(MeshError, match=f"^line {line}: "):
                import_mesh(bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validation_catches_inverted_and_misclassified():
    mesh = generate_mesh(Circle(0.3), 0.6, 2, 12)
    # areas past the float range are rejected without an overflow warning
    with pytest.raises(MeshError, match=r"^48 degenerate triangle\(s\): area outside "
                                        r"\(1e-14 L\^2, inf\) for longest side L, "
                                        r"the first inf with L = inf$"):
        Mesh(1e160 * mesh.nodes, mesh.triangles.copy(), mesh.node_class.copy())
    tris = mesh.triangles.copy()
    tris[0] = tris[0][::-1]  # clockwise triangle
    with pytest.raises(MeshError):
        Mesh(mesh.nodes.copy(), tris, mesh.node_class.copy())
    cls = mesh.node_class.copy()
    cls[mesh.interior_nodes[0]] = "T"  # interior node claimed on the circle
    with pytest.raises(MeshError):
        Mesh(mesh.nodes.copy(), mesh.triangles.copy(), cls)


def test_the_area_floor_is_scale_free():
    # the floor is relative to each triangle's longest side squared: a
    # collinear triangle fails at any scale, a well-shaped one passes at any
    mesh = generate_mesh(Circle(0.3), 0.6, 2, 12)
    i = mesh.interior_nodes[0]
    k = next(k for k, t in enumerate(mesh.triangles)
             if i in t and (mesh.node_class[t] == "T").sum() == 2)
    a, b = mesh.triangles[k][mesh.triangles[k] != i]
    nodes = mesh.nodes.copy()
    nodes[i] = 0.5 * (nodes[a] + nodes[b])
    for scale in (1.0, 1e-8, 1e8):
        scaled = Mesh(scale * mesh.nodes, mesh.triangles.copy(), mesh.node_class.copy())
        assert np.allclose(scaled.areas, scale ** 2 * mesh.areas, rtol=1e-12, atol=0.0)
        with pytest.raises(MeshError, match=r"^\d+ degenerate triangle\(s\): "):
            Mesh(scale * nodes, mesh.triangles.copy(), mesh.node_class.copy())


def test_graded_meshes_stay_valid_under_refinement():
    mesh = generate_mesh_for_h(Kite(0.3, 0.2, 0.1), 0.6, 0.2)
    fine = refine(mesh)
    assert np.all(fine.areas > 0)
    assert fine.n_dofs > mesh.n_dofs
