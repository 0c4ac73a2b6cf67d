"""Exact truncated power series algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lacunary import (
    DomainError,
    FormalPowerSeries,
    fps_exp,
    fps_geometric,
    fps_one,
    fps_x,
    laguerre,
    rgamma_exact,
)

F = Fraction


# -- Fraction oracle ---------------------------------------------------------
# The series algebra as it stood over lists of Fractions, kept as a reference
# for the integer kernels.


def _o_mul(a, b):
    n = min(len(a), len(b)) - 1
    out = [F(0)] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        for j in range(n + 1 - i):
            out[i + j] += x * b[j]
    return out


def _o_reciprocal(a):
    n = len(a) - 1
    inv0 = 1 / a[0]
    out = [inv0] + [F(0)] * n
    for k in range(1, n + 1):
        out[k] = -inv0 * sum((a[j] * out[k - j] for j in range(1, k + 1)), F(0))
    return out


def _o_pow(a, exponent):
    if exponent < 0:
        return _o_pow(_o_reciprocal(a), -exponent)
    out = [F(1)] + [F(0)] * (len(a) - 1)
    for _ in range(exponent):
        out = _o_mul(out, a)
    return out


def _o_exp(a):
    n = len(a) - 1
    out = [F(1)] + [F(0)] * n
    for k in range(1, n + 1):
        out[k] = sum((j * a[j] * out[k - j] for j in range(1, k + 1)), F(0)) / k
    return out


def _o_compose(outer, inner):
    n = min(len(outer), len(inner)) - 1
    acc = [F(0)] * (n + 1)
    for k in range(n, -1, -1):
        acc = _o_mul(acc, inner)
        acc[0] += outer[k]
    return acc


def test_geometric_series_coefficients():
    assert fps_geometric(3).coeffs == (1, 1, 1, 1)
    assert fps_geometric(3, F(-2, 3)).coeffs == (1, F(-2, 3), F(4, 9), F(-8, 27))


def test_exp_times_geometric_coefficient():
    series = fps_exp(4, -1) * fps_geometric(4)
    assert series[2] == Fraction(1, 2)


def test_compose_with_zero_constant_inner():
    # inner = t^2/(1-t) has no constant term, so exp(inner)(0) = 1.
    inner = fps_geometric(6).shift(2)
    assert inner[0] == 0
    composed = fps_exp(6).compose(inner)
    assert composed[0] == 1


def test_classical_generating_function_reproduces_laguerre():
    # [t^n] exp(-t x / (1 - t)) / (1 - t) at x = 2/3.
    x = Fraction(2, 3)
    order = 10
    geom = fps_geometric(order)
    series = (geom * fps_x(order, -x)).exp() * geom
    for n in range(order + 1):
        assert series[n] == laguerre(n, x, 1)


def test_reciprocal_round_trip():
    s = FormalPowerSeries([1, 2, 3, 4, 5])
    prod = s * s.reciprocal()
    assert prod.coeffs == (1, 0, 0, 0, 0)


def test_power_negative_exponent_uses_reciprocal():
    geom = fps_geometric(5)
    inv = geom.pow(-1)
    assert inv.coeffs == (1, -1, 0, 0, 0, 0)


@pytest.mark.parametrize("bad", [0.5, True])
def test_inexact_coefficient_is_rejected(bad):
    # One exactness check, shared with the umbral engine: bool is not exact.
    with pytest.raises(TypeError, match="exact coefficient required"):
        FormalPowerSeries([bad, 2])
    with pytest.raises(TypeError):
        fps_one(3).scale(bad)


def test_exp_requires_zero_constant_term():
    with pytest.raises(DomainError):
        FormalPowerSeries([1, 1]).exp()


def test_malformed_constructions_raise_domain_error():
    with pytest.raises(DomainError, match="constant coefficient"):
        FormalPowerSeries([])
    with pytest.raises(DomainError, match="shift"):
        fps_one(3).shift(-1)
    with pytest.raises(DomainError, match="linear term"):
        fps_x(0)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def series16(draw):
    return FormalPowerSeries([draw(small_fractions) for _ in range(17)])


@settings(max_examples=25, deadline=None)
@given(series16(), series16())
def test_mul_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=15, deadline=None)
@given(series16(), series16(), series16())
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(small_fractions)
def test_exp_coefficients_are_rate_powers(a):
    import math

    series = fps_exp(16, a)
    for n in range(17):
        assert series[n] == Fraction(a) ** n / math.factorial(n)


def test_one_is_multiplicative_identity():
    s = FormalPowerSeries([3, 1, 4, 1, 5])
    assert fps_one(4) * s == s


# -- integer kernels against the Fraction oracle -------------------------------

dense = st.lists(small_fractions, min_size=1, max_size=12)
orders_0_to_12 = st.lists(small_fractions, min_size=1, max_size=13)


@settings(max_examples=60, deadline=None)
@given(dense, dense, small_fractions)
def test_kernels_match_oracle(a, b, factor):
    sa, sb = FormalPowerSeries(a), FormalPowerSeries(b)
    n = min(len(a), len(b))
    assert sa.coeffs == tuple(a)
    assert (sa + sb).coeffs == tuple(x + y for x, y in zip(a, b))
    assert (sa - sb).coeffs == tuple(x - y for x, y in zip(a, b))
    assert (sa * sb).coeffs == tuple(_o_mul(a, b))
    assert (sa * sb)[n - 1] == _o_mul(a, b)[n - 1]
    assert sa.scale(factor).coeffs == tuple(factor * x for x in a)


@settings(max_examples=60, deadline=None)
@given(orders_0_to_12, orders_0_to_12)
def test_exp_and_compose_match_oracle(a, b):
    zero_const = [F(0)] + b[1:]
    inner = FormalPowerSeries(zero_const)
    assert inner.exp().coeffs == tuple(_o_exp(zero_const))
    composed = FormalPowerSeries(a).compose(inner)
    assert composed.coeffs == tuple(_o_compose(a, zero_const))


@settings(max_examples=60, deadline=None)
@given(dense, st.integers(min_value=-4, max_value=4))
def test_reciprocal_and_pow_match_oracle(a, exponent):
    if a[0] == 0:
        a = [F(-3, 2)] + a[1:]
    series = FormalPowerSeries(a)
    assert series.reciprocal().coeffs == tuple(_o_reciprocal(a))
    assert series.reciprocal() == FormalPowerSeries(_o_reciprocal(a))
    assert series.pow(exponent) == FormalPowerSeries(_o_pow(a, exponent))


@settings(max_examples=40, deadline=None)
@given(dense, dense)
def test_equal_values_are_equal_series(a, b):
    # Value semantics: equality and hashing follow the coefficients only.
    sa, sb = FormalPowerSeries(a), FormalPowerSeries(b)
    assert (sa == sb) == (tuple(a) == tuple(b))
    doubled = sa.scale(2).scale(F(1, 2))
    assert doubled == sa and hash(doubled) == hash(sa)


@pytest.mark.parametrize(
    "alpha, beta, x, y", [(0, 1, F(1), F(1)), (1, 2, F(1, 2), F(1)), (2, 3, F(2, 3), F(-1, 2))]
)
def test_compose_matches_the_full_order_horner_on_eq1_9(alpha, beta, x, y):
    # EQ1.9's exact right side at order 30: sum_r t^r / Gamma(beta r + alpha
    # + 1) composed with -x t / (1 - y t).  compose stops level k of its
    # Horner at order 30 - k; _o_compose carries every level to order 30.
    order = 30
    outer = [rgamma_exact(beta * r + alpha + 1) for r in range(order + 1)]
    inner = fps_geometric(order, y) * fps_x(order, -x)
    composed = FormalPowerSeries(outer).compose(inner)
    assert composed.coeffs == tuple(_o_compose(outer, list(inner.coeffs)))
