"""Transparent boundary condition: Fourier hat integrals, DtN blocks, loads."""

import math

import numpy as np
import pytest

from flexscat.dtn import (IncidentField, assemble_tbc, hat_fourier,
                          incident_load, incident_mode_coeff)
from flexscat.geometry import Kite, generate_mesh_for_h
from flexscat.specfun import dtn_symbol_h, dtn_symbol_k
from conftest import shuffled_import

KAPPA = math.pi
R = 0.6
ALPHA = math.pi / 3.0


def quad_hat_fourier(angles, n, order=24):
    """Gauss-Legendre per-segment quadrature oracle for the hat integrals."""
    th = np.asarray(angles, dtype=float)
    m = len(th)
    ext = np.concatenate([th, [th[0] + 2 * math.pi]])
    x, w = np.polynomial.legendre.leggauss(order)
    out = np.zeros(m, dtype=complex)
    for j in range(m):
        lo, hi = ext[j], ext[j + 1]
        # rising part of hat j+1 and falling part of hat j on [lo, hi]
        t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        scale = 0.5 * (hi - lo)
        rise = (t - lo) / (hi - lo)
        phase = np.exp(1j * n * t)
        out[(j + 1) % m] += scale * np.sum(w * rise * phase)
        out[j] += scale * np.sum(w * (1.0 - rise) * phase)
    return out


@pytest.mark.parametrize("n", [0, 1, -1, 3, 7, -12, 15])
def test_hat_fourier_matches_quadrature_uniform(n):
    angles = 2 * math.pi * np.arange(40) / 40
    got = hat_fourier(angles, n)
    ref = quad_hat_fourier(angles, n)
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("n", [0, 2, -5, 9, (0, 2, -5, 9)])
def test_hat_fourier_matches_quadrature_nonuniform(n):
    # a tuple of orders is one stacked call, one row per order
    rng = np.random.default_rng(3)
    angles = np.sort(rng.uniform(0.0, 2 * math.pi, 23))
    got = np.atleast_2d(hat_fourier(angles, n))
    assert got.shape == (np.size(n), len(angles))
    for m, row in zip(np.atleast_1d(n), got):
        single = hat_fourier(angles, int(m))
        ref = quad_hat_fourier(angles, m)
        bound = 1e-12 * max(1.0, np.max(np.abs(ref)))
        assert single.shape == angles.shape
        assert np.max(np.abs(row - single)) <= bound
        assert np.max(np.abs(row - ref)) <= bound


def test_hat_fourier_zero_mode_is_support_measure():
    angles = np.array([0.0, 1.0, 2.5, 4.0, 5.5])
    c0 = hat_fourier(angles, 0)
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
    assert np.allclose(c0, 0.5 * (gaps + np.roll(gaps, 1)))
    assert c0.sum() == pytest.approx(2 * math.pi)


def test_hat_fourier_input_validation():
    with pytest.raises(ValueError):
        hat_fourier(np.array([0.0, 1.0]), 1)
    with pytest.raises(ValueError):
        hat_fourier(np.array([0.0, 2.0, 1.0]), 1)


def test_incident_field_values_and_gradient():
    inc = IncidentField(KAPPA, ALPHA)
    pts = np.array([[0.2, -0.1], [0.0, 0.0], [-0.5, 0.4]])
    d = np.array([math.cos(ALPHA), math.sin(ALPHA)])
    assert np.allclose(inc(pts), np.exp(1j * KAPPA * pts @ d))
    eps = 1e-7
    for axis in (0, 1):
        dp = np.zeros(2)
        dp[axis] = eps
        fd = (inc(pts + dp) - inc(pts - dp)) / (2 * eps)
        assert np.allclose(inc.gradient(pts)[:, axis], fd, rtol=1e-6)


def test_incident_mode_coeff_matches_fft_of_boundary_data():
    # g1 = d_r u_inc - T1 u_inc on the circle; T1 acts diagonally on the
    # Fourier side with symbol h_n / R, so both terms can be built from the
    # FFT of the plane-wave trace.
    inc = IncidentField(KAPPA, ALPHA)
    m = 2048
    theta = 2 * math.pi * np.arange(m) / m
    nrm = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts = R * nrm
    u_hat = np.fft.fft(inc(pts)) / m
    du_hat = np.fft.fft(np.einsum("px,px->p", inc.gradient(pts), nrm)) / m
    for n in (-15, -6, -1, 0, 1, 4, 10, 15):
        ref = du_hat[n % m] - dtn_symbol_h(n, KAPPA * R) / R * u_hat[n % m]
        got = incident_mode_coeff(n, KAPPA, R, ALPHA)
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_tbc_blocks_complex_symmetric_not_hermitian(coarse_circle_mesh):
    tbc = assemble_tbc(coarse_circle_mesh, KAPPA, R, 15)
    for block in (tbc.p_block, tbc.q_block):
        assert np.max(np.abs(block - block.T)) <= 1e-13 * np.max(np.abs(block))
    assert np.max(np.abs(tbc.p_block - tbc.p_block.conj().T)) > 1e-6


def test_tbc_low_rank_form_reproduces_blocks(coarse_circle_mesh):
    tbc = assemble_tbc(coarse_circle_mesh, KAPPA, R, 8)
    assert tbc.mode_orders.tolist() == list(range(-8, 9))
    p = np.zeros_like(tbc.p_block)
    q = np.zeros_like(tbc.p_block)  # complex terms; their sum is the real q_block
    for n, c in zip(tbc.mode_orders, tbc.mode_vectors):
        outer = np.outer(c, np.conj(c)) / (2 * math.pi)
        p += dtn_symbol_h(int(n), KAPPA * R) * outer
        q += dtn_symbol_k(int(n), KAPPA * R) * outer
    assert np.allclose(p, tbc.p_block)
    assert np.allclose(q, tbc.q_block)


def test_tbc_constant_mode_pairing(coarse_circle_mesh):
    # For phi = psi = 1 on the circle, <T1 phi, psi> = 2 pi h_0 / (2 pi)
    # * |c_0 . 1|^2 / (2 pi) ... collapses to h_0(z) * 2 pi since the hat
    # functions partition unity: sum_j c_0[j] = 2 pi.
    tbc = assemble_tbc(coarse_circle_mesh, KAPPA, R, 15)
    ones = np.ones(len(coarse_circle_mesh.t_nodes))
    got = ones @ tbc.p_block @ ones
    assert got == pytest.approx(2 * math.pi * dtn_symbol_h(0, KAPPA * R), rel=1e-10)


def test_incident_load_matches_direct_quadrature(coarse_circle_mesh):
    # F_j = -R * int g1(theta) beta_j(theta) d theta with g1 summed from the
    # closed-form mode coefficients.
    mesh = coarse_circle_mesh
    n_modes = 15
    angles = mesh.polar_angles(mesh.t_nodes)
    order = np.argsort(angles)
    inv = np.argsort(order)
    ref = np.zeros(len(angles), dtype=complex)
    for n in range(-n_modes, n_modes + 1):
        g_n = incident_mode_coeff(n, KAPPA, R, ALPHA)
        ref += g_n * quad_hat_fourier(angles[order], n)[inv]
    ref *= -R
    got = incident_load(assemble_tbc(mesh, KAPPA, R, n_modes), KAPPA, R, ALPHA)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_tbc_on_renumbered_mesh_follows_the_ring():
    # imported node ids need not follow the ring; the T unknowns, the DtN
    # blocks and the load follow it under any numbering
    mesh = generate_mesh_for_h(Kite(0.3, 0.2, 0.1), R, 0.2)
    back, new_id = shuffled_import(mesh, 11)
    assert np.array_equal(back.t_nodes, new_id[mesh.t_nodes])
    assert np.array_equal(back.d_nodes, new_id[mesh.d_nodes])
    assert not np.array_equal(back.t_nodes, np.sort(back.t_nodes))
    tbc, moved = (assemble_tbc(m, KAPPA, R, 15) for m in (mesh, back))
    for a, b in ((tbc.p_block, moved.p_block), (tbc.q_block, moved.q_block),
                 (incident_load(tbc, KAPPA, R, ALPHA), incident_load(moved, KAPPA, R, ALPHA))):
        assert np.abs(b - a).max() <= 1e-14 * np.abs(a).max()


def test_tbc_input_validation(coarse_circle_mesh):
    with pytest.raises(ValueError):
        assemble_tbc(coarse_circle_mesh, KAPPA, R, -1)


def test_hat_fourier_coefficients_decay():
    # for fixed hats, the coefficients decay like O(n^-2) in the mode order
    angles = 2 * math.pi * np.arange(8) / 8
    c10 = np.abs(hat_fourier(angles, 10)).max()
    c81 = np.abs(hat_fourier(angles, 81)).max()
    assert c81 < c10 / 16
