"""Shared fixtures: small meshes and solved fields reused across test files."""

import math
import threading

import numpy as np
import pytest

from flexscat import (Circle, IncidentField, Method, ScalarMatrices,
                      assemble_tbc, build_system, generate_mesh,
                      generate_mesh_for_h, import_mesh, incident_load,
                      recover_fields, solve_system)
from flexscat.series import _mode_ratios

KAPPA = math.pi
ALPHA = math.pi / 3.0
RHAT = 0.3
R = 0.6
N_TRUNC = 15


def solve_direct(mesh, method, kappa=KAPPA, alpha=ALPHA, radius=R, n=N_TRUNC):
    """Assemble and solve one configuration; returns (field, system)."""
    scalars = ScalarMatrices(mesh)
    tbc = assemble_tbc(mesh, kappa, radius, n)
    load = incident_load(tbc, kappa, radius, alpha)
    system = build_system(mesh, scalars, tbc, load, kappa, method)
    w_vec, residual = solve_system(system)
    field = recover_fields(w_vec, system, mesh, IncidentField(kappa, alpha),
                           residual)
    return field, system


def shuffled_import(mesh, seed):
    """The mesh exported with shuffled node and triangle ids, then imported,
    and each old node's index in it."""
    rng = np.random.default_rng(seed)
    node_id = rng.permutation(mesh.n_nodes) + 1
    tri_id = rng.permutation(mesh.n_triangles) + 1
    text = "\n".join(
        [f"nodes {mesh.n_nodes}"]
        + [f"{k} {x!r} {y!r} {c}" for k, (x, y), c in
           zip(node_id, mesh.nodes.tolist(), mesh.node_class)]
        + [f"triangles {mesh.n_triangles}"]
        + [f"{k} {a} {b} {c}" for k, (a, b, c) in zip(tri_id, node_id[mesh.triangles].tolist())])
    back = import_mesh(text)
    assert np.array_equal(back.nodes[node_id - 1], mesh.nodes)
    assert np.array_equal(back.triangles[tri_id - 1], node_id[mesh.triangles] - 1)
    return back, node_id - 1


def count_threads(monkeypatch):
    """A list that logs every thread started from now on."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    return started


def mode_determinant(n, kappa, r_cavity):
    """Determinant of the series oracle's per-mode 2x2 coefficient matrix."""
    rh, rk = _mode_ratios(n, kappa, r_cavity)
    return kappa * (rk - rh)


@pytest.fixture(scope="session")
def coarse_circle_mesh():
    """Small structured annulus mesh for structural and smoke tests."""
    return generate_mesh(Circle(RHAT), R, 4, 24)


@pytest.fixture(scope="session")
def medium_circle_mesh():
    """Circle mesh around h = 0.05, enough for qualitative accuracy."""
    return generate_mesh_for_h(Circle(RHAT), R, 0.05)


@pytest.fixture(scope="session")
def coarse_regular_solution(coarse_circle_mesh):
    return solve_direct(coarse_circle_mesh, Method.regular())
