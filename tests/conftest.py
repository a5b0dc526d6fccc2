"""Shared fixtures: small meshes and solved fields reused across test files."""

import math

import pytest

from flexscat import (Circle, IncidentField, Method, assemble_all,
                      assemble_tbc, build_system, generate_mesh,
                      generate_mesh_for_h, incident_load, recover_fields,
                      solve_system)

KAPPA = math.pi
ALPHA = math.pi / 3.0
RHAT = 0.3
R = 0.6
N_TRUNC = 15


def solve_direct(mesh, method, kappa=KAPPA, alpha=ALPHA, radius=R, n=N_TRUNC):
    """Assemble and solve one configuration; returns (field, system)."""
    scalars = assemble_all(mesh)
    tbc = assemble_tbc(mesh, kappa, radius, n)
    load = incident_load(tbc, kappa, radius, alpha)
    system = build_system(mesh, scalars, tbc, load, kappa, method)
    w_vec, residual = solve_system(system)
    field = recover_fields(w_vec, system, mesh, IncidentField(kappa, alpha),
                           residual)
    return field, system


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
