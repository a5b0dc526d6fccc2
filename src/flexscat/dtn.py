"""Discrete transparent boundary condition on the truncation circle.

The traces of the two fields on Gamma_R are expanded in angular Fourier
modes; mode n couples through the ratio symbols h_n(kappa R) (Helmholtz
field) and k_n(kappa R) (modified-Helmholtz field).  With hat functions
that are piecewise linear in the polar angle theta, the pairing

    <T1 phi, psi>_Gamma_R = sum_n (h_n / 2 pi) (psi^H c_n) (c_n^H phi),

where c_n[j] = int beta_j(theta) e^{i n theta} d theta has a closed form
per mesh segment; the explicit 1/R in the operator cancels the ds = R
d(theta) measure.  The sum is truncated at |n| <= N and assembled into
dense blocks over the T nodes as one product V^T diag(coeff) conj(V),
where row n of V is c_n, computed for all orders in one call.  The hats
are real, so c_{-n} = conj(c_n), and the symbols are even in n: each block
is sum_n coeff_n Re(c_n conj(c_n)^T).  k_n is real, so the q block is a
real product; only Im h_n = 2/(pi |H_n|^2) makes the p block complex, and
its imaginary part has the closed low-rank form of p_imag_factors.

Also here: the incident plane wave and its load vector -<g1, beta_j>,
with g1 = d_r u_inc - T1 u_inc expanded through the Jacobi-Anger series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Mesh
from .specfun import bessel_j, dtn_symbol_h, dtn_symbol_k


@dataclass(frozen=True)
class IncidentField:
    """Unit plane wave exp(i kappa x . d), d = (cos alpha, sin alpha)."""

    kappa: float
    alpha: float

    @property
    def direction(self) -> np.ndarray:
        return np.array([math.cos(self.alpha), math.sin(self.alpha)])

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.exp(1j * self.kappa * (pts @ self.direction))

    def gradient(self, points: np.ndarray) -> np.ndarray:
        return (1j * self.kappa * self.direction) * self(points)[..., None]

    def mode_phase(self, n: int | np.ndarray) -> complex | np.ndarray:
        """i^n e^{-i n alpha}: the wave is sum_n mode_phase(n) J_n(kappa r) e^{i n theta}."""
        return np.array([1, 1j, -1, -1j])[np.asarray(n) % 4] * np.exp(-1j * n * self.alpha)


@dataclass
class TbcMatrix:
    """Assembled DtN blocks over the T nodes (ring order, Mesh.t_nodes).

    Each block sums coeff_n * outer(c_n, conj(c_n)) over mode_orders, c_n
    the mode_vectors rows; coeff_p holds the p block's h_n / 2 pi.  The q
    block's k_n / 2 pi are real, and so is q_block.
    """

    p_block: np.ndarray
    q_block: np.ndarray
    mode_orders: np.ndarray
    mode_vectors: np.ndarray  # (n_modes, N_T)
    coeff_p: np.ndarray

    def p_imag_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(U, s) with Im p_block = U diag(s) U^T, in closed form.

        The hats are real, so c_{-n} = conj(c_n), and h_{-n} = h_n: the +n
        and -n terms add to 2 Im(coeff_n) (a a^T + b b^T), where a and b are
        the real and imaginary parts of c_n; the real c_0 enters once.
        Every mode n >= 0 enters: U is (N_T, 2 N + 1) and real, and the
        Woodbury solve cuts the columns of negligible weight.
        """
        keep = self.mode_orders >= 0
        pair = self.mode_orders[keep] > 0
        vectors, weight = self.mode_vectors[keep], self.coeff_p.imag[keep]
        u = np.concatenate([vectors.real, vectors[pair].imag]).T
        s = np.concatenate([np.where(pair, 2.0, 1.0) * weight, 2.0 * weight[pair]])
        return u, s


def hat_fourier(angles: np.ndarray, n: int | np.ndarray) -> np.ndarray:
    """c_n[j] = int beta_j(theta) e^{i n theta} d theta, closed form.

    ``angles`` must be strictly increasing modulo 2 pi (one loop); beta_j is
    the hat that is 1 at angles[j], piecewise linear in theta between
    neighboring entries.  An int ``n`` gives shape (len(angles),); an array
    of orders gives one row per order.
    """
    th = np.asarray(angles, dtype=float)
    if len(th) < 3:
        raise ValueError("need at least 3 angles on the loop")
    gaps = np.diff(np.concatenate([th, [th[0] + 2.0 * math.pi]]))
    if np.any(gaps <= 0) or not math.isclose(gaps.sum(), 2.0 * math.pi):
        raise ValueError("angles must be strictly increasing over one loop")
    d_next = gaps                # angles[j] -> angles[j+1]
    d_prev = np.roll(gaps, 1)    # angles[j-1] -> angles[j]
    n = np.asarray(n)[..., None]
    # the n = 0 row is the support measure; a dummy order 1 keeps the
    # general formula free of division by zero there
    i_n = 1j * np.where(n == 0, 1, n)
    # rising ramp on [theta_j - d_prev, theta_j], falling on [theta_j, theta_j + d_next]
    rise = 1.0 / i_n - (1.0 - np.exp(-i_n * d_prev)) / (i_n ** 2 * d_prev)
    fall = -1.0 / i_n + (np.exp(i_n * d_next) - 1.0) / (i_n ** 2 * d_next)
    return np.where(n == 0, 0.5 * (d_prev + d_next), np.exp(i_n * th) * (rise + fall))


def assemble_tbc(mesh: Mesh, kappa: float, R: float, N: int) -> TbcMatrix:
    """Dense DtN blocks sum over modes |n| <= N, T nodes in ring order."""
    if N < 0:
        raise ValueError("truncation order N must be >= 0")
    z = kappa * R
    orders = np.arange(-N, N + 1)
    coeff_p = dtn_symbol_h(orders, z) / (2.0 * math.pi)
    coeff_q = dtn_symbol_k(orders, z) / (2.0 * math.pi)
    # the products round by memory layout: Fortran order fixes their last bits
    vectors = np.asfortranarray(hat_fourier(mesh.polar_angles(mesh.t_nodes), orders))
    p_block = (vectors.T * coeff_p) @ vectors.conj()
    # coeff_q is real: Re(c_n conj(c_n)^T) = a a^T + b b^T in one real product
    parts = np.concatenate([vectors.real, vectors.imag])
    q_block = (parts.T * np.tile(coeff_q, 2)) @ parts
    # the +n / -n mode pair makes each block symmetric analytically; enforce
    # it exactly so the global system is complex symmetric to the last bit
    p_block = 0.5 * (p_block + p_block.T)
    q_block = 0.5 * (q_block + q_block.T)
    return TbcMatrix(p_block, q_block, orders, vectors, coeff_p)


def incident_mode_coeff(n: int | np.ndarray, kappa: float, R: float,
                        alpha: float) -> complex | np.ndarray:
    """Fourier coefficient G_n of g1 = d_r u_inc - T1 u_inc on Gamma_R."""
    z = kappa * R
    j = bessel_j(n, z)
    phase = IncidentField(kappa, alpha).mode_phase(n)
    return phase * (kappa * j.derivative - dtn_symbol_h(n, z) * j.value / R)


def incident_load(tbc: TbcMatrix, kappa: float, R: float,
                  alpha: float) -> np.ndarray:
    """Load vector F_j = -<g1, beta_j>_Gamma_R over T nodes (ring order).

    Pairs the incident coefficients with the hat-Fourier rows of ``tbc``,
    so the modes and the T nodes are those the DtN blocks were built on.
    """
    g = incident_mode_coeff(tbc.mode_orders, kappa, R, alpha)
    return -R * (g @ tbc.mode_vectors)
