"""Exact truncated power series algebra."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lacunary import (
    DomainError,
    FormalPowerSeries,
    ModeMismatch,
    fps_binomial,
    fps_exp,
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
    assert fps_binomial(3, 1, 1).coeffs == (1, 1, 1, 1)
    assert fps_binomial(3, F(-2, 3), 1).coeffs == (1, F(-2, 3), F(4, 9), F(-8, 27))


def test_exp_times_geometric_coefficient():
    series = fps_exp(4, -1) * fps_binomial(4, 1, 1)
    assert series[2] == Fraction(1, 2)


def test_compose_with_zero_constant_inner():
    # inner = t^2/(1-t) has no constant term, so exp(inner)(0) = 1.
    inner = fps_x(6) * fps_x(6) * fps_binomial(6, 1, 1)
    assert inner.coeffs == (0, 0, 1, 1, 1, 1, 1)
    composed = fps_exp(6).compose(inner)
    assert composed[0] == 1


def test_classical_generating_function_reproduces_laguerre():
    # [t^n] exp(-t x / (1 - t)) / (1 - t) at x = 2/3.
    x = Fraction(2, 3)
    order = 10
    geom = fps_binomial(order, 1, 1)
    series = (geom * fps_x(order, -x)).exp() * geom
    for n in range(order + 1):
        assert series[n] == laguerre(n, x, 1)


def test_reciprocal_round_trip():
    # (1 - 2t/3)^(-5/2) times its reciprocal (1 - 2t/3)^(5/2).
    prod = fps_binomial(6, F(2, 3), F(5, 2)) * fps_binomial(6, F(2, 3), F(-5, 2))
    assert prod.coeffs == (1, 0, 0, 0, 0, 0, 0)


def test_negative_power_is_the_polynomial():
    assert fps_binomial(5, 1, -1).coeffs == (1, -1, 0, 0, 0, 0)
    assert fps_binomial(4, F(1, 2), -2).coeffs == (1, -1, F(1, 4), 0, 0)


@pytest.mark.parametrize("bad", [0.5, True])
def test_inexact_coefficient_is_rejected(bad):
    # One exactness check, shared with the umbral engine: bool is not exact.
    with pytest.raises(ModeMismatch, match="exact coefficient required"):
        FormalPowerSeries([bad, 2])
    with pytest.raises(ModeMismatch):
        fps_x(3, bad)


def test_exp_requires_zero_constant_term():
    with pytest.raises(DomainError):
        FormalPowerSeries([1, 1]).exp()


def test_malformed_constructions_raise_domain_error():
    with pytest.raises(DomainError, match="constant coefficient"):
        FormalPowerSeries([])
    with pytest.raises(DomainError, match="order must be an int >= 1"):
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
    series = fps_exp(16, a)
    for n in range(17):
        assert series[n] == Fraction(a) ** n / math.factorial(n)


def test_one_is_multiplicative_identity():
    s = FormalPowerSeries([3, 1, 4, 1, 5])
    assert FormalPowerSeries([1, 0, 0, 0, 0]) * s == s


# -- integer kernels against the Fraction oracle -------------------------------

dense = st.lists(small_fractions, min_size=1, max_size=12)
orders_0_to_12 = st.lists(small_fractions, min_size=1, max_size=13)


@settings(max_examples=60, deadline=None)
@given(dense, dense)
def test_kernels_match_oracle(a, b):
    sa, sb = FormalPowerSeries(a), FormalPowerSeries(b)
    n = min(len(a), len(b))
    assert sa.coeffs == tuple(a)
    # A product with 1 + t adds neighbouring coefficients over one denominator.
    one_plus_t = FormalPowerSeries([1, 1, *[0] * (len(a) - 2)])
    assert (sa * one_plus_t).coeffs == tuple(x + y for x, y in zip(a, [0, *a]))
    assert (sa * sb).coeffs == tuple(_o_mul(a, b))
    assert (sa * sb)[n - 1] == _o_mul(a, b)[n - 1]


@settings(max_examples=60, deadline=None)
@given(orders_0_to_12, orders_0_to_12)
def test_exp_and_compose_match_oracle(a, b):
    zero_const = [F(0)] + b[1:]
    inner = FormalPowerSeries(zero_const)
    assert inner.exp().coeffs == tuple(_o_exp(zero_const))
    composed = FormalPowerSeries(a).compose(inner)
    assert composed.coeffs == tuple(_o_compose(a, zero_const))


@settings(max_examples=60, deadline=None)
@given(small_fractions, st.integers(min_value=-4, max_value=4), st.integers(0, 12))
def test_reciprocal_and_pow_match_oracle(ratio, exponent, order):
    # (1 - ratio t)^(-exponent) by the oracle's reciprocal and repeated products.
    one_minus = [F(1), -ratio] + [F(0)] * (order - 1)
    want = _o_pow(one_minus[: order + 1], -exponent)
    assert fps_binomial(order, ratio, exponent) == FormalPowerSeries(want)


@settings(max_examples=40, deadline=None)
@given(dense, dense)
def test_equal_values_are_equal_series(a, b):
    # Value semantics: equality and hashing follow the coefficients only.
    sa, sb = FormalPowerSeries(a), FormalPowerSeries(b)
    assert (sa == sb) == (tuple(a) == tuple(b))
    zeros = [0] * sa.order
    doubled = sa * FormalPowerSeries([2, *zeros]) * FormalPowerSeries([F(1, 2), *zeros])
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
    inner = fps_binomial(order, y, 1) * fps_x(order, -x)
    composed = FormalPowerSeries(outer).compose(inner)
    assert composed.coeffs == tuple(_o_compose(outer, list(inner.coeffs)))


# -- fps_binomial against a Fraction oracle ------------------------------------


def _o_binomial(order, ratio, power):
    """[t^k] (1 - ratio t)^(-power) = C(power + k - 1, k) ratio^k, as Fractions."""
    out, c = [], F(1)
    for k in range(order + 1):
        out.append(c * F(ratio) ** k)
        c = c * (power + k) / (k + 1)
    return out


@pytest.mark.parametrize(
    "power", [*range(7), F(1, 2), F(3, 2), F(-1, 2), F(-5, 2), F(2, 3)]
)
@pytest.mark.parametrize("ratio", [F(0), F(1), F(-1), F(3, 5), F(-7, 2), F(-1, 3)])
def test_binomial_matches_the_oracle(ratio, power):
    assert fps_binomial(12, ratio, power).coeffs == tuple(_o_binomial(12, ratio, power))


def test_binomial_named_coefficients():
    # C(3/2 + 2, 3) / 27 = (3/2)(5/2)(7/2) / (6 * 27).
    assert fps_binomial(5, F(1, 3), F(3, 2))[3] == F(35, 432)
    # (1 - t/3)^(3/2), the power -3/2: (-3/2)(-1/2)(1/2) / (6 * 27).
    assert fps_binomial(5, F(1, 3), F(-3, 2))[3] == F(1, 432)
    assert fps_binomial(0, 5, 7).coeffs == (1,)
    assert fps_binomial(4, 0, F(1, 2)).coeffs == (1, 0, 0, 0, 0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=14),
    small_fractions,
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)
def test_binomial_product_rule(order, ratio, a, b):
    product = fps_binomial(order, ratio, a) * fps_binomial(order, ratio, b)
    assert product == fps_binomial(order, ratio, a + b)


# -- constructor inputs --------------------------------------------------------

constructors = {
    "fps_x": lambda order: fps_x(order),
    "fps_exp": lambda order: fps_exp(order, F(1, 2)),
    "fps_binomial": lambda order: fps_binomial(order, F(1, 2), 3),
}


@pytest.mark.parametrize("order", [True, False, -1, 2.5, F(3), "3", None])
@pytest.mark.parametrize("name", sorted(constructors))
def test_constructor_order_must_be_an_int(name, order):
    # fps_exp(-1) raised ValueError and fps_x(True) built an order-1 series.
    with pytest.raises(DomainError, match="order must be an int"):
        constructors[name](order)


@pytest.mark.parametrize(
    "build",
    [
        lambda bad: fps_exp(3, bad),
        lambda bad: fps_binomial(3, bad, 1),
        lambda bad: fps_binomial(3, 1, bad),
        lambda bad: fps_x(3, bad),
    ],
)
@pytest.mark.parametrize("bad", [0.5, 1.0, True, complex(1, 0)])
def test_constructor_inexact_input_is_a_mode_mismatch(build, bad):
    with pytest.raises(ModeMismatch):
        build(bad)
