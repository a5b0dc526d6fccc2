"""Special-function layer against independent high-precision oracles."""

import math

import mpmath
import numpy as np
import pytest

from flexscat.specfun import (MAX_ORDER, bessel_j, bessel_k, bessel_y,
                              dtn_symbol_h, dtn_symbol_k, hankel1)

mpmath.mp.dps = 40

ORDERS = [0, 1, 2, 3, 5, 8, 13, 20]
ARGS = [0.1, 0.37, 1.0, 2.5, math.pi, 7.3, 15.0, 31.0, 50.0]


def mp_derivative(f, x):
    return float(mpmath.diff(f, x))


@pytest.mark.parametrize("n", ORDERS)
def test_bessel_j_matches_mpmath(n):
    for x in ARGS:
        got = bessel_j(n, x)
        ref = float(mpmath.besselj(n, x))
        refd = mp_derivative(lambda t: mpmath.besselj(n, t), x)
        assert got.value == pytest.approx(ref, rel=1e-12, abs=1e-13)
        assert got.derivative == pytest.approx(refd, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("n", ORDERS)
def test_bessel_y_matches_mpmath(n):
    for x in ARGS:
        got = bessel_y(n, x)
        ref = float(mpmath.bessely(n, x))
        refd = mp_derivative(lambda t: mpmath.bessely(n, t), x)
        assert got.value == pytest.approx(ref, rel=1e-11, abs=1e-12)
        assert got.derivative == pytest.approx(refd, rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("n", ORDERS)
def test_bessel_k_matches_mpmath(n):
    for x in ARGS:
        got = bessel_k(n, x)
        ref = float(mpmath.besselk(n, x))
        refd = mp_derivative(lambda t: mpmath.besselk(n, t), x)
        assert got.value == pytest.approx(ref, rel=1e-11, abs=1e-300)
        assert got.derivative == pytest.approx(refd, rel=1e-11, abs=1e-300)


def test_hankel_combines_j_and_y():
    for n in ORDERS:
        for x in ARGS:
            h = hankel1(n, x)
            j, y = bessel_j(n, x), bessel_y(n, x)
            assert h.value == pytest.approx(j.value + 1j * y.value, rel=1e-14)
            assert h.derivative == pytest.approx(
                j.derivative + 1j * y.derivative, rel=1e-14)


def test_wronskian_identity():
    # J_n(x) Y_n'(x) - J_n'(x) Y_n(x) = 2 / (pi x)
    for n in range(0, 21):
        for x in np.linspace(0.1, 50.0, 37):
            j, y = bessel_j(n, x), bessel_y(n, x)
            w = j.value * y.derivative - j.derivative * y.value
            assert abs(w - 2.0 / (math.pi * x)) <= 1e-10 * abs(2.0 / (math.pi * x))


def test_negative_order_reflection():
    for n in (1, 2, 3, 7):
        for x in (0.5, 3.0, 12.0):
            s = (-1.0) ** n
            assert bessel_j(-n, x).value == pytest.approx(s * bessel_j(n, x).value, rel=1e-14)
            assert bessel_y(-n, x).value == pytest.approx(s * bessel_y(n, x).value, rel=1e-14)
            assert bessel_k(-n, x).value == pytest.approx(bessel_k(n, x).value, rel=1e-14)
            assert hankel1(-n, x).value == pytest.approx(s * hankel1(n, x).value, rel=1e-14)


def test_dtn_symbol_h_sign_structure():
    for n in range(0, 21):
        for z in np.linspace(0.1, 50.0, 23):
            h = dtn_symbol_h(n, z)
            assert h.real < 0
            habs2 = abs(hankel1(n, z).value) ** 2
            assert h.imag == pytest.approx(2.0 / (math.pi * habs2), rel=1e-10)


def test_dtn_symbol_k_negative_real():
    for n in range(0, 21):
        for z in np.linspace(0.1, 50.0, 23):
            k = dtn_symbol_k(n, z)
            assert isinstance(k, float)
            assert k < 0


def test_symbols_even_in_order():
    orders = np.arange(-9, 10)
    for z in (0.7, 2.0, 11.0):
        for n in (1, 4, 9):
            assert dtn_symbol_h(-n, z) == dtn_symbol_h(n, z)
            assert dtn_symbol_k(-n, z) == dtn_symbol_k(n, z)
        # an order array reproduces the scalar calls bit for bit
        for f in (dtn_symbol_h, dtn_symbol_k):
            got = f(orders, z)
            assert list(got) == [f(int(n), z) for n in orders]
            assert np.array_equal(got, got[::-1])


def test_bessel_order_arrays_match_scalar_calls():
    orders = np.arange(-20, 21)
    for z in (0.7, 2.0, 11.0):
        for f in (bessel_j, bessel_y, bessel_k, hankel1):
            got = f(orders, z)
            for n, value, derivative in zip(orders, got.value, got.derivative):
                one = f(int(n), z)
                assert (value, derivative) == (one.value, one.derivative)


def test_domain_validation():
    with pytest.raises(ValueError):
        bessel_j(1, -0.5)
    with pytest.raises(ValueError):
        bessel_y(0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(0, 0.0)
    with pytest.raises(ValueError):
        hankel1(0, -1.0)
    with pytest.raises(ValueError):
        dtn_symbol_h(0, 0.0)
    with pytest.raises(ValueError):
        bessel_j(MAX_ORDER + 1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(1.5, 1.0)
    with pytest.raises(ValueError):
        dtn_symbol_h(np.array([0.0, 1.5, 2.0]), 1.0)
    with pytest.raises(ValueError):
        dtn_symbol_k(np.array([0, MAX_ORDER + 1]), 1.0)


def test_bessel_k_overflow_raises():
    with pytest.raises(OverflowError):
        bessel_k(MAX_ORDER, 1e-8)
    with pytest.raises(OverflowError):
        bessel_k(np.array([0, MAX_ORDER]), 1e-8)
