"""Analytic circular-cavity series: per-mode algebra and boundary residuals."""

import math

import mpmath
import numpy as np
import pytest

from flexscat.series import (RADIAL_SLACK, SeriesSolution, boundary_data_coeffs,
                             mode_determinant, solve_mode, solve_mode_cramer)
from flexscat.specfun import MAX_ORDER, hankel1
from flexscat.dtn import IncidentField

KAPPA = math.pi
RHAT = 0.3
ALPHA = math.pi / 3.0


def test_boundary_data_matches_plane_wave_expansion():
    # Jacobi-Anger: exp(i z cos phi) = sum_n i^n J_n(z) exp(i n phi); the
    # coefficients of -u_inc on the cavity circle follow with phi = theta - alpha.
    inc = IncidentField(KAPPA, ALPHA)
    theta = 2.0 * math.pi * np.arange(4096) / 4096
    pts = RHAT * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    vals = -inc(pts)
    fft = np.fft.fft(vals) / len(vals)
    for n in (-9, -3, -1, 0, 1, 2, 6, 10):
        f_n, _ = boundary_data_coeffs(n, KAPPA, RHAT, ALPHA)
        assert fft[n % len(vals)] == pytest.approx(f_n, rel=1e-10, abs=1e-12)


def test_normal_data_matches_radial_derivative():
    inc = IncidentField(KAPPA, ALPHA)
    theta = 2.0 * math.pi * np.arange(4096) / 4096
    nrm = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts = RHAT * nrm
    d_r = -np.einsum("px,px->p", inc.gradient(pts), nrm)
    fft = np.fft.fft(d_r) / len(d_r)
    for n in (-5, 0, 4, 11):
        _, g_n = boundary_data_coeffs(n, KAPPA, RHAT, ALPHA)
        assert fft[n % len(d_r)] == pytest.approx(g_n, rel=1e-10, abs=1e-12)


def test_mode_solution_satisfies_2x2_system():
    from flexscat.series import _mode_ratios

    for n in range(-20, 21):
        f_n, g_n = boundary_data_coeffs(n, KAPPA, RHAT, ALPHA)
        v_h, v_m = solve_mode(n, KAPPA, RHAT, f_n, g_n)
        rh, rk = _mode_ratios(n, KAPPA, RHAT)
        scale = max(abs(f_n), abs(g_n), 1e-30)
        assert abs((v_h + v_m) - f_n) <= 1e-12 * scale
        assert abs(KAPPA * (rh * v_h + rk * v_m) - g_n) <= 1e-12 * scale


def test_elimination_and_cramer_paths_agree():
    sol = SeriesSolution.build(KAPPA, RHAT, ALPHA, 15)
    for n in range(-15, 16):
        f_n, g_n = boundary_data_coeffs(n, KAPPA, RHAT, ALPHA)
        a = solve_mode(n, KAPPA, RHAT, f_n, g_n)
        b = solve_mode_cramer(n, KAPPA, RHAT, f_n, g_n)
        for x, y in zip(a, b):
            assert x == pytest.approx(y, rel=1e-11, abs=1e-16)
        # build runs the same elimination once over the order array
        built = (sol.coeff_h[n + 15], sol.coeff_m[n + 15])
        for x, y in zip(a, built):
            assert x == pytest.approx(y, rel=1e-15, abs=0.0)


def test_determinant_imaginary_part_identity():
    # Im det_n = -2 / (pi Rhat |H_n(kappa Rhat)|^2), so the determinant
    # never vanishes and every mode is solvable.
    for n in range(0, 26):
        det = mode_determinant(n, KAPPA, RHAT)
        habs2 = abs(hankel1(n, KAPPA * RHAT).value) ** 2
        expect = -2.0 / (math.pi * RHAT * habs2)
        assert det.imag == pytest.approx(expect, rel=1e-10)
        assert abs(det) > 0


def test_boundary_residual_of_total_field():
    sol = SeriesSolution.build(KAPPA, RHAT, ALPHA, 25)
    inc = IncidentField(KAPPA, ALPHA)
    theta = 2.0 * math.pi * np.arange(720) / 720
    nrm = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts = RHAT * nrm
    out = sol.eval_polar(np.full(720, RHAT), theta)
    assert np.max(np.abs(out["v"] + inc(pts))) <= 1e-8
    dr_v = np.einsum("px,px->p", out["grad_v"], nrm)
    dr_inc = np.einsum("px,px->p", inc.gradient(pts), nrm)
    assert np.max(np.abs(dr_v + dr_inc)) <= 1e-7


def test_gradients_match_finite_differences():
    sol = SeriesSolution.build(KAPPA, RHAT, ALPHA, 20)
    ev = sol.evaluator()
    rng = np.random.default_rng(7)
    r = rng.uniform(0.35, 0.58, 40)
    th = rng.uniform(0.0, 2.0 * math.pi, 40)
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    v0, w0, gv, gw = ev(pts)
    eps = 1e-6
    for axis in (0, 1):
        dp = np.zeros(2)
        dp[axis] = eps
        vp, wp, _, _ = ev(pts + dp)
        vm, wm, _, _ = ev(pts - dp)
        assert np.allclose((vp - vm) / (2 * eps), gv[:, axis], rtol=1e-5, atol=1e-6)
        assert np.allclose((wp - wm) / (2 * eps), gw[:, axis], rtol=1e-5, atol=1e-6)


def test_truncation_is_converged():
    ev25 = SeriesSolution.build(KAPPA, RHAT, ALPHA, 25).evaluator()
    ev35 = SeriesSolution.build(KAPPA, RHAT, ALPHA, 35).evaluator()
    th = np.linspace(0.0, 2 * math.pi, 100, endpoint=False)
    pts = 0.45 * np.stack([np.cos(th), np.sin(th)], axis=1)
    for a, b in zip(ev25(pts), ev35(pts)):
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


# ids name kappa, and N where it is not the oracle's 25
RADIAL_CASES = [(k, n) for n in (25, MAX_ORDER) for k in (math.pi, 30.0)]


@pytest.mark.parametrize("kappa, n_modes", RADIAL_CASES,
                         ids=[repr(k) + ("" if n == 25 else f"-N{n}")
                              for k, n in RADIAL_CASES])
def test_radial_factors_match_mpmath(kappa, n_modes):
    # H'_n = (H_{n-1} - H_{n+1}) / 2 and K'_n = -(K_{n-1} + K_{n+1}) / 2 at
    # 40 digits: an independent route to the recurrence-built tables and
    # the derivatives taken from them
    sol = SeriesSolution.build(kappa, RHAT, ALPHA, n_modes)
    r = np.array([0.99 * RHAT, RHAT, 0.41, 0.6])
    got = sol._radial_factors(r)  # (orders 0..N, points)
    with mpmath.workdps(40):
        for n in range(n_modes + 1):
            h_ref = mpmath.hankel1(n, kappa * RHAT)
            k_ref = mpmath.besselk(n, kappa * RHAT)
            for i, ri in enumerate(r):
                z = kappa * ri
                hd = kappa * (mpmath.hankel1(n - 1, z) - mpmath.hankel1(n + 1, z)) / 2
                kd = -kappa * (mpmath.besselk(n - 1, z) + mpmath.besselk(n + 1, z)) / 2
                refs = (mpmath.hankel1(n, z) / h_ref, hd / h_ref,
                        mpmath.besselk(n, z) / k_ref, kd / k_ref)
                for g, ref in zip(got, refs):
                    ref = complex(ref)
                    assert abs(g[n, i] - ref) <= 1e-12 * abs(ref)


def test_folded_sum_matches_unfolded_sum():
    # reference: the sum over n = -N..N, each radial factor taken at |n|
    sol = SeriesSolution.build(KAPPA, RHAT, ALPHA, 25)
    rng = np.random.default_rng(3)
    r, theta = rng.uniform(RHAT, 0.6, 200), rng.uniform(-math.pi, math.pi, 200)
    orders = np.arange(-25, 26)
    hv, hd, kv, kd = (f[np.abs(orders)] for f in sol._radial_factors(r))
    ang = np.exp(1j * np.outer(orders, theta))

    def modal(radial, coeff):
        return (radial * coeff[:, None] * ang).sum(axis=0)

    ch, cm = sol.coeff_h, sol.coeff_m
    v_h, v_m = modal(hv, ch), modal(kv, cm)
    dr_h, dr_m = modal(hd, ch), modal(kd, cm)
    dt_h, dt_m = modal(hv, 1j * orders * ch), modal(kv, 1j * orders * cm)

    def gradient(d_r, d_t):
        return np.stack([d_r * np.cos(theta) - d_t * np.sin(theta) / r,
                         d_r * np.sin(theta) + d_t * np.cos(theta) / r], axis=-1)

    want = {"v": v_m + v_h, "w": v_m - v_h,
            "grad_v": gradient(dr_m + dr_h, dt_m + dt_h),
            "grad_w": gradient(dr_m - dr_h, dt_m - dt_h)}
    got = sol.eval_polar(r, theta)
    for key, ref in want.items():
        assert np.max(np.abs(got[key] - ref)) <= 1e-14 * np.max(np.abs(ref)), key


def test_eval_polar_makes_one_call_per_bessel_family(monkeypatch):
    from flexscat import series

    calls = {"hankel1": 0, "kve": 0}
    for name in calls:
        original = getattr(series.special, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(series.special, name, counted)
    sol = SeriesSolution.build(KAPPA, RHAT, ALPHA, 25)
    sol.eval_polar(np.linspace(0.3, 0.6, 50), np.linspace(0.0, 6.0, 50))
    assert calls == {"hankel1": 1, "kve": 1}


def test_points_inside_cavity_rejected():
    sol = SeriesSolution.build(KAPPA, RHAT, ALPHA, 10)
    with pytest.raises(ValueError):
        sol.eval_polar(np.array([RHAT * (1 - 2 * RADIAL_SLACK)]), np.array([0.0]))
    # a point within the slack band (polygonal-cavity quadrature) is allowed
    out = sol.eval_polar(np.array([RHAT * (1 - 0.5 * RADIAL_SLACK)]), np.array([0.0]))
    assert np.isfinite(out["v"]).all()


def test_coefficients_csv_shape():
    sol = SeriesSolution.build(KAPPA, RHAT, ALPHA, 5)
    lines = sol.coefficients_csv().strip().splitlines()
    assert lines[0] == "n,Re_vH,Im_vH,Re_vM,Im_vM"
    assert len(lines) == 12
