"""Scalar helpers: reciprocal Gamma, realness guards."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lacunary import (
    DomainError,
    ImaginaryResidue,
    NumericError,
    UmbralSeries,
    as_real,
    assoc_laguerre,
    assoc_laguerre_sequence,
    assoc_laguerre_xpoly,
    bessel_i,
    h_bessel_j,
    h_tricomi,
    hermite_coeff_sequence,
    hermite_coeffs,
    hermite_h_sequence,
    is_exact,
    laguerre,
    laguerre_sequence,
    laguerre_xpoly,
    lambda_poly,
    rgamma,
    rgamma_exact,
)
from lacunary.polys import assoc_laguerre_diagonal, lambda_sequence
from lacunary.scalars import to_float

INV_SQRT_PI = 0.5641895835477563


def test_rgamma_exact_small_integers():
    assert rgamma_exact(3) == Fraction(1, 2)
    assert rgamma_exact(1) == 1
    assert rgamma_exact(0) == 0
    assert rgamma_exact(-1) == 0


def test_rgamma_float_matches_poles_and_half_integer():
    assert rgamma(3) == 0.5
    assert rgamma(0) == 0.0
    assert rgamma(-1) == 0.0
    assert rgamma(-3.0) == 0.0
    assert math.isclose(rgamma(0.5), INV_SQRT_PI, rel_tol=1e-12)


def test_rgamma_exact_times_factorial_is_one():
    for n in range(1, 31):
        assert rgamma_exact(n) * math.factorial(n - 1) == 1


def test_rgamma_int_and_fraction_take_the_float_path():
    for k in range(-5, 401):
        assert rgamma(k) == rgamma(Fraction(k)) == rgamma(float(k))
    for huge in (10**400, -(10**400), Fraction(10**400, 3)):
        with pytest.raises(NumericError):
            rgamma(huge)


def test_rgamma_large_argument_underflows_to_zero():
    assert rgamma(400.0) == 0.0
    assert rgamma(171) > 0.0
    # lgamma itself overflows past about 2.5e305; 1/Gamma is still 0.0.
    assert rgamma(1e300) == rgamma(3e305) == rgamma(1.7e308) == 0.0


def test_rgamma_beyond_the_float_range_is_a_numeric_error():
    # |1/Gamma| of a negative half-integer passes 1.8e308 between -171
    # and -172; the last finite values stay what the reflection gives.
    for z in (-171.5, -200.5, -1e10 + 0.5):
        with pytest.raises(NumericError):
            rgamma(z)
    for z in (-170.5, -169.25):
        sin_term = math.sin(math.pi * (z - math.floor(z))) * (-1.0) ** math.floor(z)
        magnitude = math.exp(math.lgamma(1.0 - z) + math.log(abs(sin_term) / math.pi))
        assert rgamma(z) == math.copysign(magnitude, sin_term)
    assert rgamma(-170.5) < -1e307


def test_series_over_rgamma_fail_typed_past_the_float_range():
    from lacunary import mittag_leffler, wright

    for series in (wright, mittag_leffler):
        with pytest.raises(NumericError):
            series(1.0, -200.5, 0.5)


@given(
    st.floats(min_value=-10.0, max_value=10.0).filter(
        lambda z: z > 0.1 or abs(z - round(z)) > 0.05
    )
)
def test_rgamma_functional_equation(z):
    lhs = rgamma(z)
    rhs = z * rgamma(z + 1.0)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_rgamma_rejects_complex_argument():
    with pytest.raises(DomainError):
        rgamma(complex(3.0, 0.0))


@pytest.mark.parametrize("text", ["1.5", b"1.5", bytearray(b"1.5"), "inf"])
def test_to_float_rejects_what_float_would_parse(text):
    with pytest.raises(DomainError, match="must be real"):
        to_float(text, "x")
    with pytest.raises(DomainError, match="must be real"):
        rgamma(text)


def test_as_real_accepts_tiny_imaginary_part():
    assert as_real(complex(2.0, 1e-14)) == 2.0
    assert as_real(1.5) == 1.5


def test_as_real_rejects_large_imaginary_part():
    with pytest.raises(ImaginaryResidue):
        as_real(complex(1.0, 1e-3))


# The last input has a NaN imaginary part: |nan| > bound is False, so it
# must be caught by an explicit test rather than by the residue bound.
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_as_real_rejects_non_finite_values(bad):
    with pytest.raises(NumericError):
        as_real(bad)
    with pytest.raises(NumericError):
        as_real(complex(bad, 0.0))

def test_is_exact_classification():
    assert is_exact(Fraction(1, 3))
    assert is_exact(7)
    assert not is_exact(0.5)
    assert not is_exact(complex(1, 0))


#: "function:argument" -> (a call passing v as that argument, the least v it takes).
ORDER_ARGUMENTS = {
    "laguerre:n": (lambda v: laguerre(v, 0.5), 0),
    "lambda_poly:n": (lambda v: lambda_poly(v, 1, 1, 0.5), 0),
    "lambda_sequence:nmax": (lambda v: lambda_sequence(v, 1, 1, 0.5), 0),
    "lambda_sequence:step": (lambda v: lambda_sequence(4, 1, 1, 0.5, step=v), 1),
    "assoc_laguerre:n": (lambda v: assoc_laguerre(v, 1, 0.5), 0),
    "assoc_laguerre_diagonal:kmax": (lambda v: assoc_laguerre_diagonal(v, 0.5, 0.5), 0),
    "assoc_laguerre_diagonal:step": (
        lambda v: assoc_laguerre_diagonal(4, 0.5, 0.5, step=v), 1
    ),
    "assoc_laguerre_sequence:nmax": (lambda v: assoc_laguerre_sequence(v, 1, 0.5), 0),
    "laguerre_sequence:nmax": (lambda v: laguerre_sequence(v, 1.0), 0),
    "hermite_coeffs:m": (lambda v: next(hermite_coeffs(v, [1.0, 2.0])), 1),
    "hermite_coeff_sequence:m": (lambda v: hermite_coeff_sequence(v, 3, [1.0, 2.0]), 1),
    "hermite_coeff_sequence:nmax": (lambda v: hermite_coeff_sequence(2, v, [1.0, 2.0]), 0),
    "hermite_h_sequence:nmax": (lambda v: hermite_h_sequence(v, 1.0), 0),
    "laguerre_xpoly:n": (lambda v: laguerre_xpoly(v), 0),
    "assoc_laguerre_xpoly:n": (lambda v: assoc_laguerre_xpoly(v, 1), 0),
    "bessel_i:m": (lambda v: bessel_i(v, 1.0), 0),
    "h_tricomi:m": (lambda v: h_tricomi(v, 0.5, [0.1, 0.2]), 1),
    "h_bessel_j:n": (lambda v: h_bessel_j(v, 0.5, 0.25), 0),
    "UmbralSeries.monomial:x_degree": (
        lambda v: UmbralSeries.monomial(Fraction(1), 1, x_degree=v).reduce_poly(), 0
    ),
}


@pytest.mark.parametrize("bad", ["float", "bool", "below"])
@pytest.mark.parametrize("argument", sorted(ORDER_ARGUMENTS))
def test_every_order_argument_is_checked_by_check_order(argument, bad):
    # Before one rule owned these checks, 2.5 escaped as a bare TypeError or
    # ValueError from 15 of them, the monomial kept it as its x-degree, and
    # 16 ran True as 1.
    call, least = ORDER_ARGUMENTS[argument]
    value = {"float": 2.5, "bool": True, "below": least - 1}[bad]
    with pytest.raises(DomainError, match="order must be an int"):
        call(value)
