"""Exact polynomial arithmetic underlying the expectation formulas."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from emdkit import RationalPolynomial

P = RationalPolynomial

coeff_lists = st.lists(
    st.one_of(st.integers(-50, 50), st.fractions()), min_size=0, max_size=6
)


def test_trailing_zeros_trimmed():
    assert P((1, 2, 0, 0)).coeffs == (1, 2)
    assert P((0, 0)).is_zero
    assert P().degree == -1


def test_floats_rejected():
    with pytest.raises(TypeError):
        P((1.0, 2))


def test_arithmetic_small():
    p = P((1, 1))          # 1 + z
    q = P((F(-1), 0, 1))   # z^2 - 1
    assert (p * p).coeffs == (1, 2, 1)
    assert (p + q).coeffs == (0, 1, 1)
    assert (q - p).coeffs == (-2, -1, 1)
    assert (p * p * p).coeffs == (1, 3, 3, 1)
    assert (3 * p).coeffs == (3, 3)


def test_derivative_and_integral():
    p = P((0, 2, -2))  # 2z - 2z^2
    assert p.derivative().coeffs == (2, -4)
    assert p.integral_01() == F(1, 3)
    assert P().integral_01() == 0


def test_evaluate_exact_and_float():
    p = P((1, -3, 2))  # (1-z)(1-2z)
    assert p.evaluate(F(1, 2)) == 0
    assert p.evaluate(1) == 0
    assert p.evaluate(0.25) == pytest.approx(0.375)


def test_compose():
    outer = P((0, 0, 1))   # z^2
    inner = P((1, 1))      # 1 + z
    assert outer.compose(inner).coeffs == (1, 2, 1)
    assert inner.compose(outer).coeffs == (1, 0, 1)


@given(coeff_lists, coeff_lists)
def test_ring_identities(a, b):
    p, q = P(a), P(b)
    assert (p + q).coeffs == (q + p).coeffs
    assert (p * q).coeffs == (q * p).coeffs
    assert (p - p).is_zero
    z = F(3, 7)
    assert (p * q).evaluate(z) == p.evaluate(z) * q.evaluate(z)
    assert (p + q).evaluate(z) == p.evaluate(z) + q.evaluate(z)


@given(coeff_lists, coeff_lists)
def test_compose_evaluates_pointwise(a, b):
    p, q = P(a), P(b)
    z = F(-2, 5)
    assert p.compose(q).evaluate(z) == p.evaluate(q.evaluate(z))


@given(coeff_lists)
def test_integral_matches_antiderivative_difference(a):
    p = P(a)
    terms = [F(c) / (k + 1) for k, c in enumerate(p.coeffs)]
    assert p.integral_01() == sum(terms, start=F(0))
