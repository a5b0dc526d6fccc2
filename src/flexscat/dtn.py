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
where row n of V is c_n, computed for all orders in one call.

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


@dataclass
class TbcMatrix:
    """Assembled DtN blocks over the T nodes (mesh node order).

    mode_orders, mode_coeff_p/q, and mode_vectors retain the low-rank
    per-mode form: block = sum_n coeff_n * outer(c_n, conj(c_n)).
    """

    p_block: np.ndarray
    q_block: np.ndarray
    mode_orders: np.ndarray
    mode_coeff_p: np.ndarray
    mode_coeff_q: np.ndarray
    mode_vectors: np.ndarray  # (n_modes, N_T)


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
    """Dense DtN blocks sum over modes |n| <= N, T nodes in mesh order."""
    if N < 0:
        raise ValueError("truncation order N must be >= 0")
    t_nodes = mesh.t_nodes
    if len(t_nodes) < 3:
        raise ValueError("mesh needs at least 3 T nodes")
    angles = mesh.t_angles()
    order = np.argsort(angles)
    inv = np.argsort(order)

    z = kappa * R
    orders = np.arange(-N, N + 1)
    coeff_p = dtn_symbol_h(orders, z) / (2.0 * math.pi)
    coeff_q = (dtn_symbol_k(orders, z) / (2.0 * math.pi)).astype(complex)
    vectors = hat_fourier(angles[order], orders)[:, inv]
    p_block = (vectors.T * coeff_p) @ vectors.conj()
    q_block = (vectors.T * coeff_q) @ vectors.conj()
    # the +n / -n mode pair makes each block symmetric analytically; enforce
    # it exactly so the global system is complex symmetric to the last bit
    p_block = 0.5 * (p_block + p_block.T)
    q_block = 0.5 * (q_block + q_block.T)
    return TbcMatrix(p_block, q_block, orders, coeff_p, coeff_q, vectors)


def incident_mode_coeff(n: int | np.ndarray, kappa: float, R: float,
                        alpha: float) -> complex | np.ndarray:
    """Fourier coefficient G_n of g1 = d_r u_inc - T1 u_inc on Gamma_R."""
    z = kappa * R
    j = bessel_j(n, z)
    phase = np.array([1, 1j, -1, -1j])[np.asarray(n) % 4] * np.exp(-1j * n * alpha)
    return phase * (kappa * j.derivative - dtn_symbol_h(n, z) * j.value / R)


def incident_load(tbc: TbcMatrix, kappa: float, R: float,
                  alpha: float) -> np.ndarray:
    """Load vector F_j = -<g1, beta_j>_Gamma_R over T nodes (mesh order).

    Pairs the incident coefficients with the hat-Fourier rows of ``tbc``,
    so the modes and the T nodes are those the DtN blocks were built on.
    """
    g = incident_mode_coeff(tbc.mode_orders, kappa, R, alpha)
    return -R * (g @ tbc.mode_vectors)
