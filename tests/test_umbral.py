"""Two-symbol umbral engine: algebra, reduction, dilation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lacunary import (
    DomainError,
    MissingDegreeMetadata,
    ModeMismatch,
    TermBudgetExceeded,
    UmbralSeries,
    assoc_laguerre,
    laguerre,
    lambda_poly,
    rgamma_exact,
    umb_exp,
)
from lacunary import umbral as umbral_mod

F = Fraction


def _linear(y, x, beta=1):
    """y - c^beta x as a series (the generating binomial)."""
    return UmbralSeries.scalar(F(y)) + UmbralSeries.monomial(-F(x), beta)


def test_linear_series_terms():
    s = _linear(3, 2)
    assert s.terms == {
        (F(0), F(0), 0): F(3),
        (F(1), F(0), 0): F(-2),
    }


def test_square_is_binomial_expansion():
    y, x = F(3), F(2)
    sq = _linear(y, x).pow(2)
    by_exponent = {k[0]: c for k, c in sq.terms.items()}
    assert by_exponent == {F(0): y * y, F(1): -2 * x * y, F(2): x * x}


def test_two_symbol_product_keeps_exponents_independent():
    a = UmbralSeries.scalar(F(1)) + UmbralSeries.monomial(-F(2), 1, which=2)
    b = UmbralSeries.scalar(F(3)) + UmbralSeries.monomial(-F(5), 1, which=1)
    prod = a * b
    assert len(prod.terms) == 4
    assert prod.terms[(F(1), F(1), 0)] == F(10)


def test_umb_exp_small_order():
    arg = UmbralSeries.monomial(F(-2), 1, x_degree=1)
    e = umb_exp(arg, 2)
    assert e.terms == {
        (F(0), F(0), 0): F(1),
        (F(1), F(0), 1): F(-2),
        (F(2), F(0), 2): F(2),
    }


def test_term_cap_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(umbral_mod, "DEFAULT_TERM_CAP", 3)
    three = UmbralSeries({(F(k), F(0), 0): F(1) for k in range(3)})
    with pytest.raises(TermBudgetExceeded, match="product"):
        three * three  # five exponents; the product loop stops at the fourth
    with pytest.raises(TermBudgetExceeded, match="exceed the cap of 3"):
        UmbralSeries({(F(k), F(0), 0): F(1) for k in range(4)})
    with pytest.raises(TermBudgetExceeded, match="exceed the cap of 3"):
        umb_exp(UmbralSeries.monomial(F(1), 1, x_degree=1), 5)


def test_umb_exp_zero_argument():
    zero = UmbralSeries.scalar(F(0))
    e = umb_exp(zero, 5)
    assert e.terms == {(F(0), F(0), 0): F(1)}


def test_umb_exp_rejects_scalar_term():
    with pytest.raises(DomainError):
        umb_exp(UmbralSeries.scalar(F(1)), 3)


def test_reduce_examples():
    assert UmbralSeries.symbol(3).reduce() == F(1, 6)
    assert UmbralSeries.symbol(-2).scale(F(5)).reduce() == 0
    got = _linear(F(1), F(1)).pow(2).reduce()
    assert got == laguerre(2, 1, 1)


def test_reduce_poly_keeps_degrees():
    # Keep x symbolic: (1 - c x)^2 reduced per degree gives the L_2(x, 1)
    # coefficient list 1 - 2x + x^2/2.
    lin = UmbralSeries.scalar(F(1)) + UmbralSeries.monomial(F(-1), 1, x_degree=1)
    poly = lin.pow(2).reduce_poly()
    assert poly == {0: F(1), 1: F(-2), 2: F(1, 2)}


def test_dilate_identity_and_bookkeeping():
    term = UmbralSeries.monomial(F(1), 1, x_degree=2)
    assert term.dilate(0).terms == term.terms
    shifted = term.dilate(F(1, 2))
    assert shifted.terms == {(F(2), F(0), 2): F(1)}


def test_dilate_needs_metadata():
    with pytest.raises(MissingDegreeMetadata):
        UmbralSeries.symbol(1).dilate(F(1, 2))


def test_float_coefficient_is_rejected():
    with pytest.raises(ModeMismatch):
        UmbralSeries.scalar(0.5)
    with pytest.raises(ModeMismatch):
        UmbralSeries.monomial(0.5, 1, x_degree=1)
    with pytest.raises(ModeMismatch):
        UmbralSeries.symbol(1).scale(0.5)


def test_dilated_pseudo_gaussian_reduces_to_gaussian():
    # c-linear representation of the oscillatory kernel: sum (-c)^k (x/2)^{2k} / k!.
    order = 12
    rep = umb_exp(UmbralSeries.monomial(F(-1, 4), 1, x_degree=2), order)
    flattened = rep.dilate(F(-1, 2)).reduce_poly()
    for k in range(order + 1):
        assert flattened[2 * k] == F((-1) ** k, 4**k * math.factorial(k))


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=20, deadline=None)
@given(small, small, st.integers(min_value=0, max_value=12))
def test_oracle_matches_closed_laguerre(x, y, n):
    assert _linear(y, x).pow(n).reduce() == laguerre(n, x, y)


@settings(max_examples=20, deadline=None)
@given(
    small,
    small,
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=3),
)
def test_oracle_matches_two_index_family(x, y, n, alpha, beta):
    series = UmbralSeries.symbol(alpha) * _linear(y, x, beta).pow(n)
    want = lambda_poly(n, alpha, beta, x, y)
    assert series.reduce() == want


@settings(max_examples=20, deadline=None)
@given(small, small, st.integers(min_value=0, max_value=8))
def test_two_symbol_reduction_factorizes(x, y, n):
    s1 = _linear(F(1), x).pow(n)
    s2 = (
        UmbralSeries.scalar(F(1)) + UmbralSeries.monomial(-F(y), 1, which=2)
    ).pow(n)
    assert (s1 * s2).reduce() == s1.reduce() * s2.reduce()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=8), small)
def test_inverse_symbol_block_gives_binomial_power(alpha, b):
    # c^alpha e^{b/c} reduces to (1+b)^alpha / alpha! once truncation passes alpha.
    series = UmbralSeries.symbol(alpha) * umb_exp(
        UmbralSeries.monomial(F(b), -1), alpha + 5
    )
    assert series.reduce() == (1 + F(b)) ** alpha * rgamma_exact(alpha + 1)


def test_alpha_zero_associated_matches_plain():
    for n in range(6):
        assert assoc_laguerre(n, 0, F(1, 2), F(2, 3)) == laguerre(n, F(1, 2), F(2, 3))
