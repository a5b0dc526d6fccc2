"""Real-argument Bessel-family functions and the DtN ratio symbols.

Provides J_n, Y_n and K_n together with their first derivatives, plus the
two ratio symbols of the Hankel function H_n^(1) = J_n + i Y_n and of K_n

    h_n(z) = z * H_n^(1)'(z) / H_n^(1)(z),
    k_n(z) = z * K_n'(z) / K_n(z),

which drive the transparent boundary condition on the truncation circle.
For z > 0 these satisfy Re h_n < 0, Im h_n = 2 / (pi |H_n^(1)(z)|^2) > 0,
and k_n < 0.

Orders are integers with |n| <= MAX_ORDER: an int gives scalars, an integer
array gives arrays.  scipy applies the reflection identities J_{-n} =
(-1)^n J_n, Y_{-n} = (-1)^n Y_n, K_{-n} = K_n (DLMF 10.4.1, 10.27.1) to
negative integer orders.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

#: Largest supported |n|.  Kept moderate: the DtN truncation orders used by
#: the solver stay far below this, and it bounds the loss of accuracy in the
#: derivative recurrences.
MAX_ORDER = 64


@dataclass(frozen=True)
class ValueWithDerivative:
    """A function value paired with its derivative in the argument."""

    value: complex | np.ndarray
    derivative: complex | np.ndarray


def _checked_order(n: int | np.ndarray) -> np.ndarray:
    """The order(s) as an int array; integral with |n| <= MAX_ORDER."""
    m = np.asarray(n)
    if np.any(np.rint(m) != m):
        raise ValueError(f"order must be an integer, got {n!r}")
    if np.any(np.abs(m) > MAX_ORDER):
        raise ValueError(f"order |n| > {MAX_ORDER} is not supported, got {n!r}")
    return m.astype(int)


def bessel_j(n: int | np.ndarray, x: float) -> ValueWithDerivative:
    """J_n(x) and J_n'(x) for x >= 0."""
    n = _checked_order(n)
    if x < 0:
        raise ValueError(f"bessel_j requires x >= 0, got x = {x}")
    return ValueWithDerivative(special.jv(n, x), special.jvp(n, x))


def bessel_y(n: int | np.ndarray, x: float) -> ValueWithDerivative:
    """Y_n(x) and Y_n'(x) for x > 0."""
    n = _checked_order(n)
    if x <= 0:
        raise ValueError(f"bessel_y requires x > 0, got x = {x}")
    return ValueWithDerivative(special.yv(n, x), special.yvp(n, x))


def bessel_k(n: int | np.ndarray, x: float) -> ValueWithDerivative:
    """K_n(x) and K_n'(x) for x > 0.

    The derivative uses K_n' = -(K_{n-1} + K_{n+1}) / 2.  Raises
    OverflowError instead of returning infinities when K_n exceeds the
    double range (small x combined with large n).
    """
    n = _checked_order(n)
    if x <= 0:
        raise ValueError(f"bessel_k requires x > 0, got x = {x}")
    value = special.kv(n, x)
    derivative = special.kvp(n, x)
    if not (np.all(np.isfinite(value)) and np.all(np.isfinite(derivative))):
        raise OverflowError(f"K_n({x}) overflows the representable range")
    return ValueWithDerivative(value, derivative)


def dtn_symbol_h(n: int | np.ndarray, z: float) -> complex | np.ndarray:
    """h_n(z) = z H_n^(1)'(z) / H_n^(1)(z); even in n.

    Expanded through the conjugate, the imaginary part collapses via the
    Wronskian J_n Y_n' - J_n' Y_n = 2 / (pi z) to 2 / (pi |H_n^(1)|^2).
    Using that form keeps the tiny imaginary part (the radiated flux) at
    full relative accuracy even where |H_n^(1)| is huge, instead of losing
    it to cancellation inside a complex division.
    """
    if z <= 0:
        raise ValueError(f"dtn_symbol_h requires z > 0, got z = {z}")
    j = bessel_j(n, z)
    y = bessel_y(n, z)
    denom = j.value * j.value + y.value * y.value
    re = z * (j.derivative * j.value + y.derivative * y.value) / denom
    return re + 1j * (2.0 / (math.pi * denom))


def dtn_symbol_k(n: int | np.ndarray, z: float) -> float | np.ndarray:
    """k_n(z) = z K_n'(z) / K_n(z); real, negative, even in n."""
    if z <= 0:
        raise ValueError(f"dtn_symbol_k requires z > 0, got z = {z}")
    k = bessel_k(n, z)
    return z * k.derivative / k.value
