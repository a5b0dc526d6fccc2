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
Radial factors are ratios, to dodge K_n overflow, with the reference
argument kappa * Rhat as column 0 of each table.  scipy gives the orders 0
and 1 (one ``hankel1``, one exp-scaled ``kve`` call); forward recurrence,
stable for these dominant solutions (Gautschi, SIAM Rev. 9, 1967), the rest:
H_{n+1} = (2n/z) H_n - H_{n-1} (DLMF 10.6.1), K_{n+1} = K_{n-1} + (2n/z) K_n
(DLMF 10.29.1).  Derivatives follow from H_n' = (n/z) H_n - H_{n+1} (DLMF
10.6.2) and K_n' = (n/z) K_n - K_{n+1} (DLMF 10.29.2).  The factors are even
in n, so the modal sums run over n = 0..N with the +-n angular terms combined.
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


def solve_mode_cramer(n: int, kappa: float, r_cavity: float, f_n: complex,
                      g_n: complex) -> tuple[complex, complex]:
    """Cross-check path: the explicit Cramer's-rule formulas."""
    rh, rk = _mode_ratios(n, kappa, r_cavity)
    det_n = rh - rk
    v_h = (g_n / kappa - rk * f_n) / det_n
    v_m = (rh * f_n - g_n / kappa) / det_n
    return v_h, v_m


def mode_determinant(n: int, kappa: float, r_cavity: float) -> complex:
    """Determinant of the per-mode 2x2 coefficient matrix."""
    rh, rk = _mode_ratios(n, kappa, r_cavity)
    return kappa * (rk - rh)


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
        """Ratio radial factors and their r-derivatives, shape (n_modes+1, len(r))."""
        z0 = self.kappa * self.r_cavity
        # column 0 is the reference argument kappa * Rhat, columns 1.. the points
        z = np.concatenate([[z0], self.kappa * np.asarray(r, dtype=float)])
        orders = np.arange(self.n_modes + 2)[:, None]
        # K_n(z) exp(z0) from the exp-scaled kve dodges overflow; the scale
        # is one factor per column, so the ratios and the recurrences keep it
        h = list(special.hankel1(orders[:2], z))
        k = list(special.kve(orders[:2], z) * np.exp(z0 - z))
        for n in range(1, self.n_modes + 1):
            h.append((2 * n / z) * h[n] - h[n - 1])
            k.append(k[n - 1] + (2 * n / z) * k[n])
        factors = []
        for t in (np.array(h), np.array(k)):
            deriv = orders[:-1] / z * t[:-1] - t[1:]  # (n/z) Z_n - Z_{n+1}
            factors += [t[:-1, 1:] / t[:-1, :1], self.kappa * deriv[:, 1:] / t[:-1, :1]]
        return tuple(factors)

    def eval_polar(self, r: np.ndarray, theta: np.ndarray):
        """Fields and Cartesian gradients at polar points.

        Returns dict with v, w (complex, shape like r) and grad_v, grad_w
        (..., 2).
        """
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if np.any(r < (1.0 - RADIAL_SLACK) * self.r_cavity):
            raise CavityPointError("evaluation point inside the cavity")
        hv, hd, kv, kd = self._radial_factors(r.ravel())
        n = np.arange(self.n_modes + 1)[:, None]
        ang = np.exp(1j * n * theta.ravel())

        def modal(value, deriv, coeff):
            # (field, d_r, d_theta) from c_n e^{in theta} +- c_{-n} e^{-in theta}
            plus = coeff[self.n_modes:, None] * ang
            minus = np.r_[0, coeff[:self.n_modes][::-1]][:, None] * ang.conj()
            even, odd = plus + minus, 1j * n * (plus - minus)
            return [np.einsum("np,np->p", f, a)
                    for f, a in ((value, even), (deriv, even), (value, odd))]

        vh, dr_h, dt_h = modal(hv, hd, self.coeff_h)
        vm, dr_m, dt_m = modal(kv, kd, self.coeff_m)
        ct, st = np.cos(theta.ravel()), np.sin(theta.ravel())
        inv_r = 1.0 / r.ravel()

        def gradient(d_r, d_t):
            return np.stack([d_r * ct - d_t * st * inv_r,
                             d_r * st + d_t * ct * inv_r], axis=-1)

        # v = v_H + v_M, w = v_M - v_H
        grad_v = gradient(dr_m + dr_h, dt_m + dt_h)
        grad_w = gradient(dr_m - dr_h, dt_m - dt_h)
        shape = r.shape
        return {
            "v": (vm + vh).reshape(shape),
            "w": (vm - vh).reshape(shape),
            "grad_v": grad_v.reshape(shape + (2,)),
            "grad_w": grad_w.reshape(shape + (2,)),
        }

    def evaluator(self):
        """Callable(points_xy) -> (v, w, grad_v, grad_w) for error norms."""

        def evaluate(points: np.ndarray):
            pts = np.asarray(points, dtype=float)
            r = np.hypot(pts[..., 0], pts[..., 1])
            theta = np.arctan2(pts[..., 1], pts[..., 0])
            out = self.eval_polar(r, theta)
            return out["v"], out["w"], out["grad_v"], out["grad_w"]

        return evaluate

    def coefficients_csv(self) -> str:
        """Per-mode coefficient dump (debugging aid)."""
        h, m = self.coeff_h, self.coeff_m
        return "n,Re_vH,Im_vH,Re_vM,Im_vM\n" + format_rows(
            range(-self.n_modes, self.n_modes + 1),
            h.real.tolist(), h.imag.tolist(), m.real.tolist(), m.imag.tolist())
