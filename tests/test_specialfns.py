"""Special-function series against frozen references and the umbral oracle."""

import math
from fractions import Fraction

import pytest

from lacunary import (
    DomainError,
    LacunaryError,
    NumericError,
    SumControl,
    UmbralSeries,
    bessel_i,
    bessel_j0,
    h_bessel_j,
    h_tricomi,
    h_tricomi_bilateral,
    h_wright,
    lambda_poly,
    mittag_leffler,
    rgamma,
    sum_series,
    tricomi,
    umb_exp,
    wright,
)

F = Fraction

# Frozen references, computed once from the defining series at tight
# tolerance and cross-checked against the classical special values.
I0_AT_2 = 2.2795853023360673
I1_AT_2 = 1.5906368546373291
J0_AT_2 = 0.22389077914123567
COSH_2 = math.cosh(2.0)


def test_wright_values():
    assert wright(2.0, 1.5, 0.0) == pytest.approx(rgamma(1.5), rel=1e-13)
    assert wright(1.0, 1.0, 1.0) == pytest.approx(I0_AT_2, rel=1e-11)
    assert wright(1.0, 2.0, 1.0) == pytest.approx(I1_AT_2, rel=1e-11)


def test_mittag_leffler_values():
    assert mittag_leffler(2.0, 3.0, 0.0) == pytest.approx(0.5, rel=1e-13)
    assert mittag_leffler(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-12)
    assert mittag_leffler(2.0, 1.0, 4.0) == pytest.approx(COSH_2, rel=1e-12)


def test_mittag_leffler_exp_grid():
    for x in range(-5, 6):
        assert mittag_leffler(1.0, 1.0, float(x)) == pytest.approx(
            math.exp(x), rel=1e-12
        )


def test_tricomi_values():
    assert tricomi(1.5, 0.0) == pytest.approx(rgamma(2.5), rel=1e-13)
    assert tricomi(1.0, 0.0) == pytest.approx(1.0, rel=1e-13)
    assert tricomi(0.0, 1.0) == pytest.approx(J0_AT_2, rel=1e-11)


def test_bessel_values():
    assert bessel_i(0, 0.0) == pytest.approx(1.0)
    assert bessel_i(1, 0.0) == 0.0
    assert bessel_i(0, 2.0) == pytest.approx(I0_AT_2, rel=1e-12)
    assert bessel_j0(0.0) == pytest.approx(1.0)
    assert bessel_j0(2.0) == pytest.approx(J0_AT_2, rel=1e-12)


@pytest.mark.parametrize("m, z", [(142, 299.0), (200, 300.0), (200, 1.0)])
def test_bessel_i_past_the_first_term_range_matches_mpmath(m, z):
    # (z/2)^m (142, 299) or m! (m = 200) leaves the float range, the value
    # does not: I_142(299) ~ 6.4e113, I_200(300) ~ 4.1e100, and I_200(1) ~
    # 7.9e-436 underflows to 0.0.
    import mpmath

    want = float(mpmath.besseli(m, z))
    if want == 0.0:
        assert bessel_i(m, z) == 0.0
    else:
        assert bessel_i(m, z) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m, z", [(0, 700.0), (122, -700.0)])
def test_bessel_i_term_budget_follows_the_argument(m, z):
    # The terms peak near k = |z|/2, past the default 400-term budget:
    # I_0(700) ~ 1.5296e302 and I_122(-700) ~ 3.7647e297 need about 720.
    import mpmath

    want = float(mpmath.besseli(m, z))
    assert bessel_i(m, z) == pytest.approx(want, rel=1e-13)
    assert bessel_i(m, z, SumControl(max_terms=10)) == bessel_i(m, z)


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
def test_bessel_i_non_finite_argument_is_a_numeric_error(z):
    with pytest.raises(NumericError, match="bessel_i argument must be finite"):
        bessel_i(0, z)


def test_bessel_i_value_past_the_float_range_is_a_numeric_error():
    # I_200(760) ~ 7.1e316: every term is scaled down by the first one, and
    # the value overflows only when the scale comes back.
    with pytest.raises(NumericError, match="bessel_i value outside the float range"):
        bessel_i(200, 760.0, SumControl(max_terms=2000))


HUGE = 10**400


@pytest.mark.parametrize(
    "call",
    [
        lambda: wright(0.5, 1.0, HUGE),
        lambda: wright(HUGE, 1.0, 1.0),
        lambda: mittag_leffler(0.5, 1.0, HUGE),
        lambda: tricomi(1, HUGE),
        lambda: bessel_i(3, HUGE),
        lambda: bessel_j0(HUGE),
        lambda: h_tricomi(2, 0.0, [HUGE, 0.0]),
        lambda: sum_series([HUGE]),
    ],
    ids=["wright:x", "wright:beta", "mittag_leffler:x", "tricomi:x", "bessel_i:z",
         "bessel_j0:x", "h_tricomi:args", "sum_series:term"],
)
def test_an_int_beyond_the_float_range_is_a_typed_error(call):
    with pytest.raises(LacunaryError, match="outside the float range"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: bessel_i(0, 1j),
        lambda: bessel_j0(1j),
        lambda: h_tricomi(2, 0.0, [1j, 0.0]),
        lambda: h_wright(1.0, 1.0, 1j, 0.0),
        lambda: h_bessel_j(0, 1j, 0.0),
    ],
    ids=["bessel_i", "bessel_j0", "h_tricomi", "h_wright", "h_bessel_j"],
)
def test_a_complex_argument_is_a_domain_error(call):
    with pytest.raises(DomainError, match="must be real"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: h_tricomi(2, 0.0, ["0.5", "0.25"]),
        lambda: h_tricomi(2, "0", [0.5, 0.25]),
        lambda: bessel_i(0, "abc"),
        lambda: bessel_j0("1.5"),
        lambda: wright(0.5, 1.0, "x"),
        lambda: wright("0.5", 1.0, 1.0),
        lambda: mittag_leffler(0.5, b"1", 1.0),
        lambda: tricomi(1, bytearray(b"1")),
        lambda: h_wright(1.0, 1.0, "0.4", 0.0),
        lambda: h_bessel_j(0, 1.0, "0"),
        lambda: h_tricomi_bilateral(0.1, 0.2, "0.3"),
    ],
    ids=["h_tricomi:args", "h_tricomi:s", "bessel_i", "bessel_j0", "wright:x",
         "wright:beta", "mittag_leffler:alpha", "tricomi:x", "h_wright",
         "h_bessel_j", "h_tricomi_bilateral"],
)
def test_a_string_argument_is_a_domain_error(call):
    # float() would parse "0.5"; every evaluator converts through to_float first.
    with pytest.raises(DomainError, match="must be real"):
        call()


def test_exact_arguments_give_the_float_arguments_values():
    # Every real argument becomes a float before any arithmetic reads it, so
    # an int or Fraction argument gives the value of its float.
    third = F(1, 3)
    assert wright(1, 2, third) == wright(1.0, 2.0, float(third))
    assert mittag_leffler(2, 1, -3) == mittag_leffler(2.0, 1.0, -3.0)
    assert bessel_j0(third) == bessel_j0(float(third))
    assert h_tricomi_bilateral(3, 1, 2) == h_tricomi_bilateral(3.0, 1.0, 2.0)
    assert h_tricomi(2, 1, [third, 1]) == h_tricomi(2, 1.0, [float(third), 1.0])


def test_wright_is_bessel_i_on_the_diagonal():
    for x in (0.25, 1.0, 4.0):
        assert wright(1.0, 1.0, x) == pytest.approx(
            bessel_i(0, 2.0 * math.sqrt(x)), rel=1e-11
        )


def test_bessel_j0_three_ways():
    for x in (0.5, 1.0, 2.0, 3.0):
        via_tricomi = tricomi(0.0, (x / 2.0) ** 2)
        via_h = h_bessel_j(0, x, 0.0)
        assert via_tricomi == pytest.approx(bessel_j0(x), rel=1e-11)
        assert via_h == pytest.approx(bessel_j0(x), rel=1e-11)


def test_h_bessel_j_parity_and_origin():
    assert h_bessel_j(0, 0.0, 0.0) == pytest.approx(1.0)
    assert h_bessel_j(1, 0.0, 0.7) == pytest.approx(0.0, abs=1e-15)


def test_h_tricomi_zero_slots():
    assert h_tricomi(2, 0.0, [0.0, 0.0]) == pytest.approx(1.0)


def test_h_tricomi_slot_collapse():
    # With the second slot zero the two-variable sum is the one-variable one.
    for s in (0.0, 1.0):
        for a in (0.3, 1.2):
            assert h_tricomi(2, s, [a, 0.0]) == pytest.approx(
                tricomi(s, a), rel=1e-12
            )


def test_h_tricomi_against_umbral_oracle():
    # The sign convention is pinned by the oracle: the exponential of
    # c^2 x^2 t - 2 c x y t reduces to the slot arguments (2xyt, x^2 t).
    x, y, t = F(1), F(1), F(1, 10)
    arg = UmbralSeries.monomial(x * x * t, 2) + UmbralSeries.monomial(
        -2 * x * y * t, 1
    )
    reduced = umb_exp(arg, 60).reduce()
    assert h_tricomi(2, 0.0, [0.2, 0.1]) == pytest.approx(float(reduced), abs=1e-10)


def test_h_wright_slot_collapse():
    # Zero second slot: the weights degenerate to plain powers, no signs.
    val = h_wright(1.0, 1.0, 0.4, 0.0)
    want, _ = sum_series(
        (0.4**r / math.factorial(r) ** 2 for r in range(80)), SumControl()
    )
    assert val == pytest.approx(want, rel=1e-12)


def test_h_wright_matches_series_oracle():
    # Even-index two-index family at small t: e^{y^2 t} H-Wright vs the sum.
    alpha, beta, x, y, t = 0, 1.0, 1.0, 1.0, 0.05
    lhs = 0.0
    for n in range(25):
        lhs += t**n / math.factorial(n) * float(
            lambda_poly(2 * n, alpha, int(beta), F(x), F(y))
        )
    rhs = math.exp(y * y * t) * h_wright(beta, alpha + 1.0, -2 * x * y * t, x * x * t)
    assert rhs == pytest.approx(lhs, abs=1e-10)


@pytest.mark.parametrize(
    "fn, args",
    [
        (h_tricomi, (2, 0.0, [math.inf, 1.0])),
        (h_tricomi, (2, 0.0, [math.nan, 1.0])),
        (h_wright, (1.0, 1.0, math.inf, 1.0)),
        (h_bessel_j, (0, math.inf, 1.0)),
    ],
)
def test_hermite_evaluators_raise_on_non_finite_input(fn, args):
    with pytest.raises(NumericError, match="non-finite"):
        fn(*args)


def test_h_wright_converges_where_the_far_coefficients_overflow():
    # sum_r 1000^r / (r!)^2 = I0(2 sqrt(1000)) stops after 70 terms; the
    # coefficient 1000^r / r! overflows from r = 341 on, which is never read.
    # Reference: mpmath besseli(0, 2 sqrt(1000)) at 40 digits.
    want = 1.47385608710016483969330449e26
    assert h_wright(1.0, 1.0, 1e3, 0.0) == pytest.approx(want, rel=1e-14)


def test_h_tricomi_bilateral_values():
    assert h_tricomi_bilateral(0.0, 0.0, 0.0) == pytest.approx(1.0)
    # Two zero slots collapse the triple sum to sum x^r / (r!)^2, which is
    # I0 of 2 sqrt(x) for positive x and J0 of 2 sqrt(x) after negation.
    for x in (0.3, 1.1):
        assert h_tricomi_bilateral(x, 0.0, 0.0) == pytest.approx(
            bessel_i(0, 2.0 * math.sqrt(x)), rel=1e-11
        )
        assert h_tricomi_bilateral(-x, 0.0, 0.0) == pytest.approx(
            bessel_j0(2.0 * math.sqrt(x)), rel=1e-11
        )


def test_h_tricomi_bilateral_symmetry():
    assert h_tricomi_bilateral(-0.2, -0.3, 0.06) == pytest.approx(
        h_tricomi_bilateral(-0.3, -0.2, 0.06), rel=1e-13
    )


def test_h_tricomi_bilateral_against_two_symbol_oracle():
    a, b, c = -0.2, -0.3, 0.06
    fa, fb, fc = (F(v).limit_denominator(10**6) for v in (a, b, c))
    arg = (
        UmbralSeries.monomial(fa, 1, which=1)
        + UmbralSeries.monomial(fb, 1, which=2)
        + UmbralSeries.monomial(fc, 1, which=1) * UmbralSeries.symbol(1, which=2)
    )
    reduced = float(umb_exp(arg, 40).reduce())
    assert h_tricomi_bilateral(a, b, c) == pytest.approx(reduced, abs=1e-11)
