"""Two-symbol umbral engine: algebra, reduction, dilation."""

import math
from fractions import Fraction
from unittest import mock

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
    reduce_exp,
    rgamma_exact,
    umb_exp,
)
from lacunary import ExactnessViolation
from lacunary import umbral as umbral_mod

F = Fraction


# -- Fraction oracle ---------------------------------------------------------
# The umbral algebra as it stood over Fraction keys and coefficients, kept as
# a reference for the integer kernels: series are {(e1, e2, d): Fraction}.


def _oracle(terms):
    return {(F(e1), F(e2), d): F(c) for (e1, e2, d), c in terms.items() if c != 0}


def _o_add(a, b):
    out = dict(a)
    for key, coeff in b.items():
        out[key] = out.get(key, F(0)) + coeff
    return _oracle(out)


def _o_mul(a, b):
    out = {}
    for (a1, a2, da), ca in a.items():
        for (b1, b2, db), cb in b.items():
            key = (a1 + b1, a2 + b2, da + db)
            out[key] = out.get(key, F(0)) + ca * cb
    return _oracle(out)


def _o_umb_exp(argument, order):
    acc = {(F(0), F(0), 0): F(1)}
    power = acc
    for k in range(1, order + 1):
        power = _o_mul(power, argument)
        acc = _o_add(acc, {key: c / math.factorial(k) for key, c in power.items()})
    return acc


def _o_reduce_poly(series):
    out = {}
    for (e1, e2, d), coeff in series.items():
        if e1.denominator != 1 or e2.denominator != 1:
            raise ExactnessViolation(f"non-integer exponents ({e1}, {e2})")
        w = coeff * rgamma_exact(int(e1) + 1) * rgamma_exact(int(e2) + 1)
        out[d] = out.get(d, F(0)) + w
    return {d: c for d, c in sorted(out.items()) if c != 0}


def _assert_reduces_like_oracle(series, oracle):
    try:
        want = _o_reduce_poly(oracle)
    except ExactnessViolation:
        with pytest.raises(ExactnessViolation):
            series.reduce_poly()
    else:
        assert series.reduce_poly() == want


def _o_dilate(series, sigma):
    out = {}
    for (e1, e2, d), coeff in series.items():
        key = (e1 + sigma * d, e2, d)
        out[key] = out.get(key, F(0)) + coeff
    return _oracle(out)


def _linear(y, x, beta=1):
    """y - c^beta x as a series (the generating binomial)."""
    return UmbralSeries.scalar(F(y)) + UmbralSeries.monomial(-F(x), beta)


def _power(series, n):
    """series^n by repeated products."""
    out = UmbralSeries.scalar(F(1))
    for _ in range(n):
        out = out * series
    return out


def _negated(series):
    return series * UmbralSeries.scalar(F(-1))


def test_linear_series_terms():
    s = _linear(3, 2)
    assert s.terms == {
        (F(0), F(0), 0): F(3),
        (F(1), F(0), 0): F(-2),
    }


def test_square_is_binomial_expansion():
    y, x = F(3), F(2)
    sq = _linear(y, x) * _linear(y, x)
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
    # Dependent keys: the partial terms of c1 + c1^2 + c1^3 pass the cap
    # after the first monomial, before any of them merge.
    with pytest.raises(TermBudgetExceeded, match="exceed the cap of 3"):
        umb_exp(UmbralSeries({(F(k), F(0), 0): F(1) for k in range(1, 4)}), 5)


def test_umb_exp_zero_argument():
    zero = UmbralSeries.scalar(F(0))
    e = umb_exp(zero, 5)
    assert e.terms == {(F(0), F(0), 0): F(1)}


def test_umb_exp_rejects_scalar_term():
    with pytest.raises(DomainError):
        umb_exp(UmbralSeries.scalar(F(1)), 3)
    with pytest.raises(DomainError):
        reduce_exp(UmbralSeries.scalar(F(1)), 3)


@pytest.mark.parametrize("order", [True, False, 2.5, F(3), -1, "3", None])
@pytest.mark.parametrize("terms", [{(1, 0, 1): F(-2)}, {}])
def test_order_must_be_a_non_negative_int(terms, order):
    # True once expanded to order 1, and 2.5 or Fraction(3) raised TypeError.
    arg = UmbralSeries(terms)
    with pytest.raises(DomainError):
        umb_exp(arg, order)
    with pytest.raises(DomainError):
        reduce_exp(arg, order)
    with pytest.raises(DomainError):
        reduce_exp(arg, order, F(1, 2))  # the two-step path checks it too


def test_reduce_examples():
    assert UmbralSeries.symbol(3).reduce() == F(1, 6)
    assert UmbralSeries.monomial(F(5), -2).reduce() == 0
    got = _power(_linear(F(1), F(1)), 2).reduce()
    assert got == laguerre(2, 1, 1)


def test_reduce_poly_keeps_degrees():
    # Keep x symbolic: (1 - c x)^2 reduced per degree gives the L_2(x, 1)
    # coefficient list 1 - 2x + x^2/2.
    lin = UmbralSeries.scalar(F(1)) + UmbralSeries.monomial(F(-1), 1, x_degree=1)
    poly = (lin * lin).reduce_poly()
    assert poly == {0: F(1), 1: F(-2), 2: F(1, 2)}


def test_dilate_identity_and_bookkeeping():
    term = UmbralSeries.monomial(F(1), 1, x_degree=2)
    assert term.dilate(0).terms == term.terms
    shifted = term.dilate(F(1, 2))
    assert shifted.terms == {(F(2), F(0), 2): F(1)}


def test_dilate_needs_metadata():
    with pytest.raises(MissingDegreeMetadata):
        UmbralSeries.symbol(1).dilate(F(1, 2))


def test_symbol_index_outside_one_and_two_is_rejected():
    for which in (0, 3):
        with pytest.raises(DomainError, match="symbol index must be 1 or 2"):
            UmbralSeries.symbol(1, which=which)
        with pytest.raises(DomainError, match="symbol index must be 1 or 2"):
            UmbralSeries.monomial(F(1), 1, x_degree=1, which=which)


def test_float_coefficient_is_rejected():
    with pytest.raises(ModeMismatch):
        UmbralSeries.scalar(0.5)
    with pytest.raises(ModeMismatch):
        UmbralSeries.monomial(0.5, 1, x_degree=1)
    with pytest.raises(ModeMismatch):
        UmbralSeries({(1, 0, 0): 0.5})


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
    assert _power(_linear(y, x), n).reduce() == laguerre(n, x, y)


@settings(max_examples=20, deadline=None)
@given(
    small,
    small,
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=3),
)
def test_oracle_matches_two_index_family(x, y, n, alpha, beta):
    series = UmbralSeries.symbol(alpha) * _power(_linear(y, x, beta), n)
    want = lambda_poly(n, alpha, beta, x, y)
    assert series.reduce() == want


@settings(max_examples=20, deadline=None)
@given(small, small, st.integers(min_value=0, max_value=8))
def test_two_symbol_reduction_factorizes(x, y, n):
    s1 = _power(_linear(F(1), x), n)
    s2 = _power(UmbralSeries.scalar(F(1)) + UmbralSeries.monomial(-F(y), 1, which=2), n)
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


# -- integer kernels against the Fraction oracle -------------------------------

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
exponents = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-7, max_value=7).map(lambda k: F(k, 2)),
)
series_terms = st.dictionaries(
    st.tuples(exponents, exponents, st.integers(min_value=0, max_value=3)),
    coeffs,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(series_terms, series_terms, coeffs)
def test_algebra_matches_oracle(a, b, factor):
    sa, sb = UmbralSeries(a), UmbralSeries(b)
    oa, ob = _oracle(a), _oracle(b)
    assert sa.terms == oa
    assert (sa + sb).terms == _o_add(oa, ob)
    assert (sa + _negated(sb)).terms == _o_add(oa, {k: -c for k, c in ob.items()})
    assert (sa * sb).terms == _o_mul(oa, ob)
    _assert_reduces_like_oracle(sa * sb, _o_mul(oa, ob))
    scaled = sa * UmbralSeries.scalar(factor)
    assert scaled.terms == _oracle({k: c * factor for k, c in oa.items()})
    assert _power(sa, 2).terms == _o_mul(oa, oa)


@settings(max_examples=30, deadline=None)
@given(coeffs, coeffs, coeffs, coeffs, st.integers(min_value=0, max_value=8))
def test_two_symbols_with_cross_term_match_oracle(x, y, z, u, order):
    # EQ3.8's argument: -x u c1 t - y z c2 t + x z c1 c2 t.
    terms = {(1, 0, 1): -x * u, (0, 1, 1): -y * z, (1, 1, 1): x * z}
    got = umb_exp(UmbralSeries(terms), order)
    want = _o_umb_exp(_oracle(terms), order)
    assert got.terms == want
    assert got.reduce_poly() == _o_reduce_poly(want)


def _per_power_exp(series, order):
    """(numerators, denominator, exponent denominator) of sum_k series^k / k!.

    The reference forms every power by one dict product and adds it into
    one accumulator over D^order order!, then cancels the common factor.
    """
    arg, den = series._num, series._den
    scale = den**order * math.factorial(order)
    acc = {(0, 0, 0): scale}
    power = {(0, 0, 0): 1}
    weight = scale
    for k in range(1, order + 1):
        product = {}
        for (a1, a2, da), ca in power.items():
            for (b1, b2, db), cb in arg.items():
                key = (a1 + b1, a2 + b2, da + db)
                product[key] = product.get(key, 0) + ca * cb
        power = product
        weight //= den * k
        for key, c in power.items():
            acc[key] = acc.get(key, 0) + c * weight
    acc = {key: c for key, c in acc.items() if c}
    g = math.gcd(scale, *acc.values())
    return {key: c // g for key, c in acc.items()}, scale // g, series._eden


def _assert_exp_matches_per_power(terms, order):
    series = UmbralSeries(terms)
    got = umb_exp(series, order)
    assert (got._num, got._den, got._eden) == _per_power_exp(series, order)


# Few exponents and degrees, so that keys often coincide or depend linearly.
exp_keys = st.tuples(
    st.sampled_from([-1, 0, 1, 2, F(1, 2), F(-3, 2)]),
    st.sampled_from([-1, 0, 1, 2]),
    st.integers(min_value=0, max_value=2),
).filter(lambda key: key != (0, 0, 0))
exp_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)


@settings(max_examples=120, deadline=None)
@given(
    st.dictionaries(exp_keys, exp_coeffs, max_size=6),
    st.integers(min_value=0, max_value=8),
)
def test_umb_exp_matches_per_power_reference(terms, order):
    _assert_exp_matches_per_power(terms, order)


@pytest.mark.parametrize(
    "terms, order",
    [
        ({}, 6),  # the zero argument
        ({(1, 0, 1): F(-2)}, 0),
        ({(1, 0, 0): F(1), (2, 0, 0): F(1)}, 20),  # c1 + c1^2
        ({(k, 0, 1): F(k, 7) for k in range(1, 7)}, 12),  # dependent keys
        ({(2, 0, 1): F(9, 25), (1, 0, 1): F(12, 35)}, 20),  # EQ2.7's argument
        ({(1, 0, 1): F(-3, 4), (0, 1, 1): F(5, 6), (1, 1, 1): F(-7, 8)}, 12),  # EQ3.8's
        ({(-1, 0, 1): F(2, 3), (F(1, 2), 1, 0): F(-1, 2), (0, 2, 2): F(3)}, 9),
        ({(1, 0, 0): F(1), (0, 1, 0): F(1), (1, 1, 0): F(1), (2, 1, 1): F(-1)}, 7),
        # Key sets with and without repeats among their (key, count) sums:
        ({(1, 0, 1): F(2), (0, 1, 1): F(-3), (1, 1, 1): F(1, 2)}, 10),
        ({(1, 0, 0): F(1, 2), (2, 0, 0): F(-1, 3)}, 10),
        ({(k, 0, 1): F(1, k) for k in range(1, 7)}, 10),
        ({(1, 0, 0): F(1), (2, 0, 0): F(-2), (3, 0, 0): F(1, 3)}, 10),
        ({(1, 0, 0): F(1), (0, 1, 0): F(2), (0, 0, 1): F(-1), (1, 1, 1): F(3)}, 6),
        (
            {
                (1, 0, 0): F(1),
                (0, 1, 0): F(2),
                (0, 0, 1): F(-1),
                (1, 1, 1): F(3),
                (2, 0, 1): F(-1, 2),
            },
            6,
        ),
        ({(k, 0, 1): F(k, 7) for k in range(1, 7)}, 30),  # c1^k x, k = 1..6
        ({(1, 0, 0): F(1), (2, 0, 0): F(1), (3, 0, 0): F(1)}, 30),  # c1 + c1^2 + c1^3
        ({}, 0),  # the zero argument at order 0
        ({(1, 0, 1): F(-2, 3)}, 0),  # one monomial
        ({(1, 0, 1): F(-2, 3)}, 1),
    ],
)
def test_umb_exp_matches_per_power_reference_on_named_arguments(terms, order):
    _assert_exp_matches_per_power(terms, order)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=6),
    coeffs,
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=8),
)
def test_negative_exponents_match_oracle(alpha, b, degree, order):
    # EQ2.13 (degree 1) and the EQ2.12 block (degree 0): c^alpha e^{b t / c}.
    arg = {(-1, 0, degree): b}
    got = UmbralSeries.symbol(alpha) * umb_exp(UmbralSeries(arg), order)
    want = _o_mul({(F(alpha), F(0), 0): F(1)}, _o_umb_exp(_oracle(arg), order))
    assert got.terms == want
    assert got.reduce_poly() == _o_reduce_poly(want)
    if degree == 0:
        assert got.reduce() == _o_reduce_poly(want).get(0, 0)


@settings(max_examples=30, deadline=None)
@given(st.lists(coeffs, min_size=1, max_size=8))
def test_half_integer_exponents_match_oracle(cs):
    # EQ3.21: sum_k a_k c^{(2k+1)/2} x^{2k+1}, times c^{-1/2}.
    terms = {(F(2 * k + 1, 2), 0, 2 * k + 1): c for k, c in enumerate(cs)}
    series = UmbralSeries(terms)
    got = UmbralSeries.symbol(F(-1, 2)) * series
    want = _o_mul({(F(-1, 2), F(0), 0): F(1)}, _oracle(terms))
    assert got.terms == want
    assert got.reduce_poly() == _o_reduce_poly(want)
    if any(cs):
        with pytest.raises(ExactnessViolation):
            series.reduce_poly()


@settings(max_examples=40, deadline=None)
@given(series_terms, st.sampled_from([F(-1, 2), F(3, 2), -2, 0, 1, 3]))
def test_dilate_matches_oracle(terms, sigma):
    # EQ3.18 dilates by -1/2; integer dilations keep integer exponents.
    oracle = _oracle(terms)
    series = UmbralSeries(terms)
    if oracle and not any(d for (_, _, d) in oracle):
        with pytest.raises(MissingDegreeMetadata):
            series.dilate(sigma)
        return
    got = series.dilate(sigma)
    want = _o_dilate(oracle, F(sigma))
    assert got.terms == want
    _assert_reduces_like_oracle(got, want)


@settings(max_examples=40, deadline=None)
@given(coeffs, coeffs, exponents, st.integers(min_value=0, max_value=3))
def test_cancelled_terms_are_dropped_as_in_oracle(s, m, e, d):
    # (s + m c^e x^d)(s - m c^e x^d): the cross terms cancel exactly.
    plus = UmbralSeries({(0, 0, 0): s, (e, 0, d): m})
    minus = UmbralSeries({(0, 0, 0): s, (e, 0, d): -m})
    got = plus * minus
    want = _o_mul(
        _oracle({(0, 0, 0): s, (e, 0, d): m}), _oracle({(0, 0, 0): s, (e, 0, d): -m})
    )
    assert got.terms == want
    assert set(got.terms) == set(want)
    assert not (plus + _negated(plus)).terms
    assert not (plus * UmbralSeries.scalar(F(0))).terms


# -- reduce_exp against the two-step path ----------------------------------------


def _two_step(series, order, alpha):
    return (UmbralSeries.symbol(alpha) * umb_exp(series, order)).reduce_poly()


def _assert_reduce_exp_matches(terms, order, alpha):
    series = UmbralSeries(terms)
    try:
        want = _two_step(series, order, alpha)
    except ExactnessViolation:
        with pytest.raises(ExactnessViolation):
            reduce_exp(series, order, alpha)
        return
    got = reduce_exp(series, order, alpha)
    assert got == want
    assert list(got) == sorted(got)
    assert all(type(c) is Fraction for c in got.values())


# Integer exponents on both symbols, negative ones (poles) included.
int_keys = st.tuples(
    st.integers(min_value=-2, max_value=3),
    st.integers(min_value=-2, max_value=3),
    st.integers(min_value=0, max_value=3),
).filter(lambda key: key != (0, 0, 0))
alphas = st.integers(min_value=-3, max_value=6)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(int_keys, exp_coeffs, max_size=4),
    st.integers(min_value=0, max_value=9),
    alphas,
)
def test_reduce_exp_equals_the_two_step_path(terms, order, alpha):
    _assert_reduce_exp_matches(terms, order, alpha)


@pytest.mark.parametrize(
    "terms, order, alpha",
    [
        ({}, 5, 0),  # the zero argument
        ({}, 5, 3),
        ({}, 5, -2),
        ({(1, 0, 1): F(-2, 3)}, 0, 2),
        ({(3, 0, 1): F(-5, 7)}, 25, 2),  # EQ1.7 at beta = 3
        ({(2, 0, 1): F(9, 25), (1, 0, 1): F(12, 35)}, 25, 0),  # EQ2.7
        ({(-1, 0, 1): F(7, 3)}, 25, 4),  # EQ2.13: poles past j = alpha
        ({(-1, 0, 0): F(-2, 5)}, 12, 8),  # the EQ2.12 block, all at degree 0
        ({(1, 0, 1): F(-3, 4), (0, 1, 1): F(5, 6), (1, 1, 1): F(-7, 8)}, 20, 0),  # EQ3.8
        ({(1, 0, 2): F(-1, 4)}, 30, 0),  # EQ3.17
        ({(1, 1, 1): F(2)}, 8, 1),  # no monomial carries one symbol only
        ({(1, 1, 1): F(2), (0, -1, 2): F(-1, 3)}, 8, -1),
        ({(0, 0, 1): F(1, 2), (0, 2, 1): F(3)}, 8, 2),  # a symbol-free monomial
        ({(0, 1, 1): F(1), (-2, 0, 0): F(1, 2)}, 9, 5),  # c2 moves last
        ({(k, 0, 1): F(k, 7) for k in range(1, 7)}, 12, 1),  # dependent keys
        ({(-2, 1, 2): F(1, 3), (2, -1, 1): F(-4, 5)}, 10, 3),
        ({(1, 0, 1): F(1, 2), (F(1, 2), 0, 1): F(1)}, 4, 0),  # half-integer
        ({(F(1, 2), 0, 1): F(1)}, 0, 0),  # order 0 keeps no half-integer
        ({(1, 0, 1): F(1)}, 3, F(1, 2)),  # half-integer alpha
        ({(F(1, 2), 0, 1): F(1)}, 3, F(-1, 2)),
        # EQ3.8-shaped: the both-symbol monomial first, groups of many states.
        ({(1, 0, 1): F(2), (0, 1, 1): F(-1, 3), (1, 1, 1): F(5, 4)}, 14, 2),
        ({(1, 1, 2): F(2, 3), (1, 0, 1): F(1, 2), (0, 1, 1): F(-3)}, 10, 1),
        ({(0, 1, 1): F(1, 5), (2, 0, 1): F(-1, 3), (1, 1, 1): F(4)}, 12, 0),  # c1 moves
        ({(2, 0, 1): F(1, 2), (0, 3, 2): F(-2, 7)}, 11, 3),  # c2 moves
        ({(0, 2, 1): F(-1, 2), (-1, 0, 1): F(3, 4)}, 11, 4),  # c1 moves down
        ({(2, 0, 1): F(1, 3), (0, 0, 1): F(-2)}, 9, 1),  # no symbol moves
        ({(1, 1, 1): F(2), (0, 0, 2): F(-1, 2)}, 9, 0),
        ({(0, 0, 2): F(3, 5)}, 7, 3),
        ({(1, 0, 1): F(1, 2), (0, 1, 0): F(-2, 3)}, 10, 0),  # vd = 0, c2 moves
        ({(0, 1, 2): F(1), (2, 0, 0): F(3)}, 8, 2),  # vd = 0, c1 moves
        ({(1, 0, 1): F(1), (0, 0, 1): F(1, 2), (0, 1, 0): F(-1)}, 8, 1),
        ({(1, 0, 1): F(-3, 4), (0, 1, 1): F(5, 6), (1, 1, 1): F(-7, 8)}, 12, -2),
        ({(2, 0, 1): F(1, 2)}, 10, -3),  # negative alpha: poles of c1
        ({(1, 0, 1): F(1, 2), (1, 1, 0): F(-1)}, 9, -1),
    ],
)
def test_reduce_exp_equals_the_two_step_path_on_named_arguments(terms, order, alpha):
    _assert_reduce_exp_matches(terms, order, alpha)


def test_reduce_exp_keeps_the_exactness_check():
    half = UmbralSeries.monomial(F(1), F(1, 2), x_degree=1)
    with pytest.raises(ExactnessViolation):
        reduce_exp(half, 3)
    with pytest.raises(ExactnessViolation):
        reduce_exp(UmbralSeries.monomial(F(1), 1, x_degree=1), 3, F(1, 2))
    # A half-integer key that cancels leaves integer exponents over 2.
    whole = half + UmbralSeries.monomial(F(2), 1, x_degree=1) + _negated(half)
    assert reduce_exp(whole, 6, 1) == _two_step(whole, 6, 1)
    assert reduce_exp(half, 0) == {0: 1}


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(int_keys, exp_coeffs, max_size=4),
    st.integers(min_value=0, max_value=6),
    alphas,
    st.integers(min_value=0, max_value=90),
)
def test_reduce_exp_meets_the_term_cap_wherever_the_two_step_path_does(
    terms, order, alpha, cap
):
    series = UmbralSeries(terms)
    with mock.patch.object(umbral_mod, "DEFAULT_TERM_CAP", cap):
        try:
            want = _two_step(series, order, alpha)
        except TermBudgetExceeded:
            with pytest.raises(TermBudgetExceeded):
                reduce_exp(series, order, alpha)
            return
        try:
            got = reduce_exp(series, order, alpha)
        except TermBudgetExceeded:
            return  # the kernel may count more terms than survive merging
    assert got == want


def test_reduce_exp_counts_every_term_it_folds(monkeypatch):
    # EQ3.8's argument: 28 partial terms after two passes, C(9, 3) = 84 folded.
    arg = UmbralSeries({(1, 0, 1): F(-3, 4), (0, 1, 1): F(5, 6), (1, 1, 1): F(-7, 8)})
    monkeypatch.setattr(umbral_mod, "DEFAULT_TERM_CAP", 83)
    with pytest.raises(TermBudgetExceeded, match="84 terms exceed the cap of 83"):
        reduce_exp(arg, 6)
    with pytest.raises(TermBudgetExceeded):
        umb_exp(arg, 6)
    monkeypatch.setattr(umbral_mod, "DEFAULT_TERM_CAP", 84)
    assert reduce_exp(arg, 6) == _two_step(arg, 6, 0)
    monkeypatch.setattr(umbral_mod, "DEFAULT_TERM_CAP", 0)
    with pytest.raises(TermBudgetExceeded):
        reduce_exp(UmbralSeries({}), 3)
