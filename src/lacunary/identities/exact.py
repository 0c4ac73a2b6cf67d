"""Zero-tolerance coefficient engines.

Every function here compares rational numbers for equality; a single
mismatch fails the case.  Each engine yields (label, lhs, rhs) triples so
the caller can count comparisons and collect mismatches uniformly.

The six generating-function engines are row builders rows(nmax, **binding)
-> (lhs_row, rhs_row) for one rational tuple; the _tupled driver walks the
base and drawn tuples and labels each entry n <= nmax.

Three recurring strategies:
  * reduce a truncated umbral exponential to its t-coefficients, then
    convolve with the exponential prefactor.  `umbral.reduce_exp` folds the
    expansion straight into the reduction, so only EQ3.18, which dilates
    its exponential first, builds the series;
  * build both sides as formal power series and compare term by term;
  * run a recurrence on int numerators over one known denominator and make
    one Fraction per compared value: EQ1.9's Horner step through the
    rational inner series -x t/(1 - y t), O(nmax^2) with no binomial, and
    the derivative powers of EQ3.14 and EQ3.15.

This module loads when the registry runs its first exact report, and
`umbral` and `fps` load only when the first engine needs them (`_stack`),
so neither a numeric-only run nor `list` compiles any of the three.  The
engines read every name off those modules at call time, so a wrapper
rebound on a module global sees each call.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from ..polys import (
    assoc_laguerre_diagonal,
    assoc_laguerre_sequence,
    lambda_sequence,
    laguerre_sequence,
)
from ..scalars import rgamma_exact

if TYPE_CHECKING:
    import random

    from ..fps import FormalPowerSeries
    from ..umbral import UmbralSeries

Check = tuple[str, Fraction, Fraction]
Runner = Callable[[int, "random.Random"], Iterator[Check]]
Rows = Callable[..., tuple[Sequence[Fraction], Sequence[Fraction]]]


def _stack():
    """(umbral, fps), imported when the first exact engine runs."""
    from .. import fps, umbral

    return umbral, fps


# The x-degree slot of UmbralSeries doubles as a t-degree tracker in the
# generating-function engines below: each factor of t tags one unit.


def _exp_conv(
    poly: dict[int, Fraction], rate: Fraction, nmax: int
) -> FormalPowerSeries:
    """(sum_k poly[k] t^k) * exp(rate * t) through t^nmax.

    The weights rate^j / j! are built once, as the series exp(rate * t).
    """
    _, fps = _stack()
    dense = fps.FormalPowerSeries([poly.get(k, 0) for k in range(nmax + 1)])
    return dense * fps.fps_exp(nmax, rate)


def _rat(rng: random.Random, zero_ok: bool) -> Fraction:
    while True:
        v = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        if zero_ok or v != 0:
            return v


#: A draw spec maps each key, in draw order, to an int range (lo, hi) or to
#: a rational in [-4, 4] with denominator at most 4, nonzero or zero allowed.
_NONZERO, _ZERO_OK = False, True


def _draw(spec: dict, rng: random.Random) -> dict:
    return {
        key: rng.randint(*rule) if isinstance(rule, tuple) else _rat(rng, rule)
        for key, rule in spec.items()
    }


def _tupled(case_id: str, base: Sequence[dict], spec: dict) -> Callable[[Rows], Runner]:
    """Turn a row builder into a Runner over `base` and two draws from `spec`,
    labelled `case_id[key=value, ...; n=N]`; the runner keeps the builder as
    `__wrapped__` and the tuples as `base`."""

    def wrap(rows: Rows) -> Runner:
        @functools.wraps(rows)
        def run(nmax: int, rng: random.Random) -> Iterator[Check]:
            for binding in (*base, _draw(spec, rng), _draw(spec, rng)):
                lhs, rhs = rows(nmax, **binding)
                head = ", ".join(f"{k}={v}" for k, v in binding.items())
                for n in range(nmax + 1):
                    yield f"{case_id}[{head}; n={n}]", lhs[n], rhs[n]

        run.base = base
        return run

    return wrap


# -- generating functions over t -----------------------------------------

_AB_BASE = (
    {"alpha": 0, "beta": 1, "x": Fraction(1), "y": Fraction(1)},
    {"alpha": 1, "beta": 2, "x": Fraction(1, 2), "y": Fraction(1)},
    {"alpha": 2, "beta": 3, "x": Fraction(2, 3), "y": Fraction(-1, 2)},
)
_AB_DRAW = {"alpha": (0, 3), "beta": (1, 3), "x": _NONZERO, "y": _ZERO_OK}


@_tupled("EQ1.7", _AB_BASE, _AB_DRAW)
def eq1_7(nmax, alpha, beta, x, y):
    """Exponential generating function of the two-index family.

    RHS built as c^alpha exp(-c^beta x t) reduced termwise, times e^{y t}.
    """
    umbral, _ = _stack()
    arg = umbral.UmbralSeries.monomial(-x, beta, x_degree=1)
    rhs = _exp_conv(umbral.reduce_exp(arg, nmax, alpha), y, nmax)
    seq = lambda_sequence(nmax, alpha, beta, x, y)
    return [seq[n] * rgamma_exact(n + 1) for n in range(nmax + 1)], rhs


@_tupled("EQ1.9", _AB_BASE, _AB_DRAW)
def eq1_9(nmax, alpha, beta, x, y):
    """Ordinary generating function against its closed form
    sum_r g_r s^r / (1 - y t), with g_r = 1/(beta r + alpha)! and
    s = -x t / (1 - y t).

    Horner from g_nmax down: A <- g_k + s A, then A / (1 - y t).  With
    x = px/qx and y = py/qy, the t^m numerator over L (qx qy)^m, where
    L = (beta nmax + alpha)!, is an int: s A shifts by one order and scales
    by -px qy, and 1/(1 - y t) is the running sum B_m = C_m + py qx B_(m-1).
    The A of level k meets s k more times, so it stops at order nmax - k.
    """
    top = beta * nmax + alpha
    shift, ratio = -x.numerator * y.denominator, y.numerator * x.denominator
    acc: list[int] = []
    for k in range(nmax, -1, -1):
        row, b = [math.perm(top, beta * (nmax - k))], 0  # L g_k, then s A
        for a in acc:
            b = shift * a + ratio * b
            row.append(b)
        acc = row
    rhs, b, den = [], 0, math.factorial(top)
    for a in acc:
        b = a + ratio * b
        rhs.append(Fraction(b, den))
        den *= x.denominator * y.denominator
    return lambda_sequence(nmax, alpha, beta, x, y), rhs


@_tupled("EQ1.11", (
    {"alpha": 0, "x": Fraction(2, 3), "y": Fraction(1)},
    {"alpha": 2, "x": Fraction(1, 2), "y": Fraction(3, 4)},
    {"alpha": 4, "x": Fraction(1), "y": Fraction(-1, 3)},
), {"alpha": (0, 4), "x": _NONZERO, "y": _NONZERO})
def eq1_11(nmax, alpha, x, y):
    """Classical associated generating function e^(-xt/(1-yt)) (1-yt)^(-1-alpha)."""
    _, fps = _stack()
    inner = fps.fps_binomial(nmax, y, 1) * fps.fps_x(nmax, -x)
    rhs = inner.exp() * fps.fps_binomial(nmax, y, 1 + alpha)
    return assoc_laguerre_sequence(nmax, alpha, x, y), rhs


@_tupled("EQ2.7", (
    {"x": Fraction(1), "y": Fraction(1)},
    {"x": Fraction(1, 2), "y": Fraction(2, 3)},
    {"x": Fraction(3, 2), "y": Fraction(-1)},
), {"x": _NONZERO, "y": _NONZERO})
def eq2_7(nmax, x, y):
    """Double-lacunary exponential generating function, oracle double sum.

    The quadratic umbral exponent reduces to the double sum directly; its
    t-coefficients times the e^{y^2 t} convolution must match the lacunary
    polynomials exactly.
    """
    umbral, _ = _stack()
    arg = (
        umbral.UmbralSeries.monomial(x * x, 2, x_degree=1)
        + umbral.UmbralSeries.monomial(-2 * x * y, 1, x_degree=1)
    )
    rhs = _exp_conv(umbral.reduce_exp(arg, nmax), y * y, nmax)
    seq = laguerre_sequence(2 * nmax, x, y)
    return [seq[2 * n] * rgamma_exact(n + 1) for n in range(nmax + 1)], rhs


@_tupled("EQ2.13", (
    {"alpha": 3, "x": Fraction(1), "y": Fraction(1)},
    {"alpha": 1, "x": Fraction(1, 2), "y": Fraction(2)},
    {"alpha": 5, "x": Fraction(2, 3), "y": Fraction(-1, 2)},
), {"alpha": (0, 5), "x": _NONZERO, "y": _ZERO_OK})
def eq2_13(nmax, alpha, x, y):
    """Negative-offset family summed against (1 + y t)^alpha e^{-t x}.

    The inverse-symbol exponential block supplies the binomial factor:
    Gamma(1+alpha) c^alpha e^{y t / c} reduces to sum_k C(alpha,k) (y t)^k.
    """
    umbral, _ = _stack()
    arg = umbral.UmbralSeries.monomial(y, -1, x_degree=1)
    reduced = umbral.reduce_exp(arg, nmax, alpha)
    gamma_alpha = Fraction(math.factorial(alpha))
    binom = {k: gamma_alpha * c for k, c in reduced.items()}
    return assoc_laguerre_diagonal(nmax, alpha, x, y), _exp_conv(binom, -x, nmax)


def eq2_12_block(alphas: Sequence[int], b: Fraction, nmax: int) -> Iterator[Check]:
    """Building block: c^alpha e^{b/c} reduces to (1+b)^alpha / alpha!.

    Exact for integer alpha once the truncation passes alpha (the series
    terminates there because negative-integer weights vanish).
    """
    umbral, _ = _stack()
    for alpha in alphas:
        arg = umbral.UmbralSeries.monomial(b, -1, x_degree=0)
        got = umbral.reduce_exp(arg, max(nmax, alpha + 1), alpha).get(0, Fraction(0))
        want = (1 + b) ** alpha * rgamma_exact(alpha + 1)
        yield f"EQ2.12[alpha={alpha}, b={b}]", got, want


@_tupled("EQ3.8", (
    {"x": Fraction(1), "y": Fraction(1), "z": Fraction(1, 2), "u": Fraction(1)},
    {"x": Fraction(1, 2), "y": Fraction(2, 3), "z": Fraction(1), "u": Fraction(3, 4)},
    {"x": Fraction(2), "y": Fraction(-1, 2), "z": Fraction(1, 3), "u": Fraction(1)},
), dict.fromkeys("xyzu", _NONZERO))
def eq3_8(nmax, x, y, z, u):
    """Bilateral generating function via two commuting symbols."""
    umbral, _ = _stack()
    arg = (
        umbral.UmbralSeries.monomial(-x * u, 1, x_degree=1, which=1)
        + umbral.UmbralSeries.monomial(-y * z, 1, x_degree=1, which=2)
        + umbral.UmbralSeries.monomial(x * z, 1, x_degree=1, which=1)
        * umbral.UmbralSeries.symbol(1, which=2)
    )
    rhs = _exp_conv(umbral.reduce_exp(arg, nmax), u * y, nmax)
    seq_a, seq_b = laguerre_sequence(nmax, x, y), laguerre_sequence(nmax, z, u)
    return [seq_a[n] * seq_b[n] * rgamma_exact(n + 1) for n in range(nmax + 1)], rhs


# -- Laguerre derivative ---------------------------------------------------


def laguerre_derivative(coeffs: list) -> list:
    """Apply -d/dx x d/dx to a polynomial given by its x-coefficients (ints
    or Fractions; a numerator list over a fixed denominator stays one)."""
    return [-k * k * coeffs[k] for k in range(1, len(coeffs))]


def eq3_14(total_order: int) -> Iterator[Check]:
    """Exponentiated derivative on e^{-x}, as a bivariate coefficient identity.

    [y^a x^b] of both sides for a+b <= total_order; the closed form gives
    (-1)^b C(a+b, a) / b!.  Pointwise evaluation at fixed y is an infinite
    sum, so the finitely exact statement is this double-Taylor identity.
    The x-coefficients run as int numerators over N! (N = total_order).
    """
    top = math.factorial(total_order)
    current = [(-1) ** b * top // math.factorial(b) for b in range(total_order + 1)]
    den = top  # a! N!
    for a in range(total_order + 1):
        if a:
            current = laguerre_derivative(current)
            den *= a
        for b in range(total_order + 1 - a):
            rhs = Fraction((-1) ** b * math.comb(a + b, a), math.factorial(b))
            yield f"EQ3.14[y^{a} x^{b}]", Fraction(current[b], den), rhs


def eq3_15(order: int, depth: int = 10) -> Iterator[Check]:
    """Eigenfunction check: repeated derivative applications fix the series.

    C_0's x-coefficients are reproduced exactly by every power of the
    derivative, which is the coefficient-level content of the exponential
    identity (the e^y factor is the a-index normalization).  The
    x-coefficients run as int numerators over (M!)^2 (M = order + depth).
    """
    top = order + depth
    den = math.factorial(top) ** 2
    start = [(-1) ** k * den // math.factorial(k) ** 2 for k in range(top + 1)]
    want = [Fraction(c, den) for c in start[: order + 1]]
    current = start
    for a in range(1, depth + 1):
        current = laguerre_derivative(current)
        for b in range(order + 1):
            yield f"EQ3.15[a={a}, x^{b}]", Fraction(current[b], den), want[b]


# -- pseudo-Gaussian family -------------------------------------------------


def _pseudo_gaussian_exponent() -> UmbralSeries:
    """-c (x/2)^2, exponentiated by EQ3.17 and EQ3.18; x-degree metadata
    carries the monomials."""
    umbral, _ = _stack()
    return umbral.UmbralSeries.monomial(Fraction(-1, 4), 1, x_degree=2)


def eq3_17(order: int) -> Iterator[Check]:
    """Bessel J0 as a pseudo-Gaussian: reduction vs Taylor coefficients."""
    umbral, _ = _stack()
    reduced = umbral.reduce_exp(_pseudo_gaussian_exponent(), order)
    for k in range(order + 1):
        want = Fraction((-1) ** k, 4**k * math.factorial(k) ** 2)
        yield f"EQ3.17[x^{2 * k}]", reduced.get(2 * k, Fraction(0)), want


def eq3_18_exact(order: int) -> Iterator[Check]:
    """Dilation by sigma = -1/2 turns the pseudo-Gaussian into a Gaussian."""
    umbral, _ = _stack()
    dilated = umbral.umb_exp(_pseudo_gaussian_exponent(), order).dilate(Fraction(-1, 2))
    reduced = dilated.reduce_poly()
    for k in range(order + 1):
        want = Fraction((-1) ** k, 4**k * math.factorial(k))
        yield f"EQ3.18[x^{2 * k}]", reduced.get(2 * k, Fraction(0)), want


def eq3_20(order: int) -> Iterator[Check]:
    """Gaussian as an umbral Lorentzian: geometric series in -c x^2."""
    umbral, _ = _stack()
    acc = umbral.UmbralSeries.scalar(Fraction(0))
    for k in range(order + 1):
        acc = acc + umbral.UmbralSeries.monomial(Fraction((-1) ** k), k, x_degree=2 * k)
    reduced = acc.reduce_poly()
    for k in range(order + 1):
        want = Fraction((-1) ** k, math.factorial(k))
        yield f"EQ3.20[x^{2 * k}]", reduced.get(2 * k, Fraction(0)), want


def eq3_21(order: int) -> Iterator[Check]:
    """Error-function integral via the arctan umbral series.

    Half-integer symbol powers cancel in the product, so the reduction stays
    exact; term k carries x^{2k+1}/(2k+1) and weight 1/k!.
    """
    umbral, _ = _stack()
    acc = umbral.UmbralSeries.scalar(Fraction(0))
    for k in range(order + 1):
        acc = acc + umbral.UmbralSeries.monomial(
            Fraction((-1) ** k, 2 * k + 1), Fraction(2 * k + 1, 2), x_degree=2 * k + 1
        )
    reduced = (umbral.UmbralSeries.symbol(Fraction(-1, 2)) * acc).reduce_poly()
    for k in range(order + 1):
        want = Fraction((-1) ** k, (2 * k + 1) * math.factorial(k))
        yield f"EQ3.21[x^{2 * k + 1}]", reduced.get(2 * k + 1, Fraction(0)), want
