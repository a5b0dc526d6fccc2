"""Analytic series solution for scattering by a circular cavity.

Outside a clamped circular cavity of radius Rhat the scattered
displacement splits into a Helmholtz part and a modified-Helmholtz part,

    v = v_H + v_M,    w = v_M - v_H,

with radial factors H_n^(1)(kappa r) / H_n^(1)(kappa Rhat) and
K_n(kappa r) / K_n(kappa Rhat) per angular mode.  The per-mode
coefficients solve the 2x2 system enforcing v = -u_inc and
d_r v = -d_r u_inc on the cavity circle; its determinant is nonzero for
every n (its imaginary part is -2 / (pi Rhat |H_n^(1)(kappa Rhat)|^2)).

This module is the exactness oracle for the finite element solver, so its
truncation default (25 modes) sits well below discretization error.
The factors are even in n, so the modal sums run over n = 0..N with the
+-n angular terms combined, in one streamed pass: each mode advances the
radial recurrences and e^{in theta} and adds into six running sums (field,
d_r and d_theta of each part), so memory is O(P) in the P points and no
per-mode table is built.

Radial factors are ratios, to dodge K_n overflow, with the reference
argument kappa * Rhat as column 0 of each recurrence array; each mode's
reference value enters as one scalar factor.  scipy's Cephes kernels give
the orders 0 and 1 (one call each of ``j0``, ``j1``, ``y0``, ``y1`` and the
exp-scaled ``k0e``, ``k1e``); forward recurrence, stable for these dominant
solutions (Gautschi, SIAM Rev. 9, 1967), the rest:
H_{n+1} = (2n/z) H_n - H_{n-1} (DLMF 10.6.1), K_{n+1} = K_{n-1} + (2n/z) K_n
(DLMF 10.29.1).  Derivatives follow from H_n' = (n/z) H_n - H_{n+1} (DLMF
10.6.2) and K_n' = (n/z) K_n - K_{n+1} (DLMF 10.29.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .specfun import bessel_j, dtn_symbol_h, dtn_symbol_k
from .table import format_rows

#: Points closer to the cavity than (1 - RADIAL_SLACK) * Rhat are rejected.
#: The slack admits quadrature points of meshes whose polygonal cavity
#: boundary dips slightly inside the exact circle (an O(h^2) effect).
RADIAL_SLACK = 0.01


class CavityPointError(ValueError):
    """An evaluation point lies inside the cavity, beyond RADIAL_SLACK."""


def boundary_data_coeffs(n: int | np.ndarray, kappa: float, r_cavity: float,
                         alpha: float) -> tuple[complex, complex]:
    """Fourier coefficients (f_n, g_n) of -u_inc and -d_r u_inc on the cavity."""
    if kappa <= 0 or r_cavity <= 0:
        raise ValueError("kappa and cavity radius must be positive")
    z = kappa * r_cavity
    j = bessel_j(n, z)
    phase = np.array([1, 1j, -1, -1j])[np.asarray(n) % 4] * np.exp(-1j * n * alpha)
    return -phase * j.value, -kappa * phase * j.derivative


def _mode_ratios(n: int | np.ndarray, kappa: float, r_cavity: float):
    """(H_n'/H_n, K_n'/K_n) at kappa * Rhat.

    Derived from the ratio symbols so the exponentially small imaginary
    part of H_n'/H_n survives at high order (it carries the determinant's
    sign structure).
    """
    z = kappa * r_cavity
    return dtn_symbol_h(n, z) / z, dtn_symbol_k(n, z) / z


def solve_mode(n: int | np.ndarray, kappa: float, r_cavity: float, f_n: complex,
               g_n: complex) -> tuple[complex, complex]:
    """Per-mode coefficients (v_H^(n), v_M^(n)) by direct 2x2 elimination."""
    rh, rk = _mode_ratios(n, kappa, r_cavity)
    det = kappa * (rk - rh)
    # second row minus rh * first row eliminates v_H
    v_m = (g_n - kappa * rh * f_n) / det
    v_h = f_n - v_m
    return v_h, v_m


@dataclass
class SeriesSolution:
    """Evaluable analytic solution; valid for r >= Rhat (small slack below)."""

    kappa: float
    r_cavity: float
    alpha: float
    n_modes: int
    coeff_h: np.ndarray  # index n + n_modes, n in [-n_modes, n_modes]
    coeff_m: np.ndarray

    @classmethod
    def build(cls, kappa: float, r_cavity: float, alpha: float,
              n_modes: int = 25) -> "SeriesSolution":
        orders = np.arange(-n_modes, n_modes + 1)
        f, g = boundary_data_coeffs(orders, kappa, r_cavity, alpha)
        ch, cm = solve_mode(orders, kappa, r_cavity, f, g)
        return cls(kappa, r_cavity, alpha, n_modes, ch, cm)

    def _radial_factors(self, r: np.ndarray):
        """Yield each mode's ratio radial factors and r-derivatives, n = 0..N.

        Each item is (hv, hd, kv, kd), arrays shaped like the flat ``r``.
        """
        z0 = self.kappa * self.r_cavity
        # column 0 is the reference argument kappa * Rhat, columns 1.. the points
        z = np.concatenate([[z0], self.kappa * np.asarray(r, dtype=float)])
        inv_z = 1.0 / z
        # K_n(z) exp(z0) from the exp-scaled kernels dodges overflow; the
        # scale is one factor per column, so the ratios and recurrences keep it
        scale = np.exp(z0 - z)
        h, h_next = special.j0(z) + 1j * special.y0(z), special.j1(z) + 1j * special.y1(z)
        k, k_next = special.k0e(z) * scale, special.k1e(z) * scale
        for n in range(self.n_modes + 1):
            if n:
                two_n_z = (2 * n) * inv_z
                h, h_next = h_next, two_n_z * h_next - h
                k, k_next = k_next, k + two_n_z * k_next
            # Z_n / Z_n(z0) and kappa ((n/z) Z_n - Z_{n+1}) / Z_n(z0)
            n_z = n * inv_z[1:]
            hv, kv = h[1:] * (1.0 / h[0]), k[1:] * (1.0 / k[0])
            hd = (n_z * h[1:] - h_next[1:]) * (self.kappa / h[0])
            kd = (n_z * k[1:] - k_next[1:]) * (self.kappa / k[0])
            yield hv, hd, kv, kd

    def eval_polar(self, r: np.ndarray, theta: np.ndarray):
        """Fields and Cartesian gradients at polar points: (v, w, grad_v,
        grad_w), v and w complex and shaped like r, the gradients (..., 2).
        """
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if np.any(r < (1.0 - RADIAL_SLACK) * self.r_cavity):
            raise CavityPointError("evaluation point inside the cavity")
        th = theta.ravel()
        step = np.exp(1j * th)
        ang = np.ones_like(step)  # e^{in theta}, advanced one mode at a time
        # c_n and c_{-n} for n = 0..N; the n = 0 term is counted once
        parts = [(c[self.n_modes:], np.r_[0, c[:self.n_modes][::-1]])
                 for c in (self.coeff_h, self.coeff_m)]
        # running (field, d_r, d_theta) of the H part, then of the M part
        sums = np.zeros((2, 3, th.size), dtype=complex)
        for n, (hv, hd, kv, kd) in enumerate(self._radial_factors(r.ravel())):
            if n:
                ang *= step
            ang_bar = ang.conj()
            for (plus, minus), (value, deriv), (s_v, s_r, s_t) in zip(
                    parts, ((hv, hd), (kv, kd)), sums):
                # c_n e^{in theta} +- c_{-n} e^{-in theta}
                pos, neg = plus[n] * ang, minus[n] * ang_bar
                even = pos + neg
                s_v += value * even
                s_r += deriv * even
                s_t += value * ((1j * n) * (pos - neg))
        (vh, dr_h, dt_h), (vm, dr_m, dt_m) = sums
        ct, st = step.real, step.imag
        inv_r = 1.0 / r.ravel()

        def gradient(d_r, d_t):
            return np.stack([d_r * ct - d_t * st * inv_r,
                             d_r * st + d_t * ct * inv_r], axis=-1)

        # v = v_H + v_M, w = v_M - v_H
        grad_v = gradient(dr_m + dr_h, dt_m + dt_h)
        grad_w = gradient(dr_m - dr_h, dt_m - dt_h)
        shape = r.shape
        return ((vm + vh).reshape(shape), (vm - vh).reshape(shape),
                grad_v.reshape(shape + (2,)), grad_w.reshape(shape + (2,)))

    def evaluator(self):
        """Callable(points_xy) -> (v, w, grad_v, grad_w) for error norms."""

        def evaluate(points: np.ndarray):
            pts = np.asarray(points, dtype=float)
            r = np.hypot(pts[..., 0], pts[..., 1])
            return self.eval_polar(r, np.arctan2(pts[..., 1], pts[..., 0]))

        return evaluate

    def coefficients_csv(self) -> str:
        """Per-mode coefficients as CSV text: analytic's modes.csv artifact."""
        h, m = self.coeff_h, self.coeff_m
        return "n,Re_vH,Im_vH,Re_vM,Im_vM\n" + format_rows(
            range(-self.n_modes, self.n_modes + 1),
            h.real.tolist(), h.imag.tolist(), m.real.tolist(), m.imag.tolist())
