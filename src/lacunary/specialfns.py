"""Entire special functions used as closed forms for the identity checks.

Everything here is a floating-point series evaluator built on sum_series, so
each value carries the same stop rule and tail accounting.  The Hermite-based
hybrids follow one sign convention throughout: slot p of h_tricomi receives
an extra (-1)^p, which is the reading that the umbral oracle confirms.
"""

from __future__ import annotations

import math
from itertools import count, islice
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainError, NumericError
from .scalars import check_order, rgamma, to_float
from .summation import SumControl, sum_series
from .polys import hermite_coeffs


def _rgamma_series(
    coeffs: Iterable[float], beta: float, alpha: float, ctrl: SumControl | None
) -> float:
    """sum_r a_r / Gamma(beta r + alpha), the kernel of the Wright family;
    DomainError unless beta > 0, NumericError where an int argument drives a
    term or a Gamma argument beyond the float range."""
    if beta <= 0:
        raise DomainError("the Wright family needs beta > 0")
    try:
        value, _ = sum_series(
            (a * rgamma(beta * r + alpha) for r, a in enumerate(coeffs)), ctrl
        )
    except OverflowError:
        raise NumericError("Wright-family term outside the float range") from None
    return value


def _ratio_sequence(ratio: Callable[[int], float], a: float = 1.0) -> Iterator[float]:
    """a_0 = a, a_(r+1) = a_r * ratio(r), generated lazily."""
    for r in count():
        yield a
        a *= ratio(r)


def wright(beta: float, alpha: float, x: float, control: SumControl | None = None) -> float:
    """Bessel-Wright W^(beta,alpha)(x) = sum_r x^r / (r! Gamma(beta r + alpha))."""
    powers = _ratio_sequence(lambda r: x / (r + 1))
    return _rgamma_series(powers, beta, alpha, control)


def mittag_leffler(beta: float, alpha: float, x: float, control: SumControl | None = None) -> float:
    """E_(beta,alpha)(x) = sum_r x^r / Gamma(beta r + alpha)."""
    return _rgamma_series(_ratio_sequence(lambda r: x), beta, alpha, control)


def tricomi(alpha: float, x: float, control: SumControl | None = None) -> float:
    """Tricomi C_alpha(x) = sum_r (-x)^r / (r! Gamma(1 + alpha + r))."""
    powers = _ratio_sequence(lambda r: -x / (r + 1))
    return _rgamma_series(powers, 1.0, 1.0 + alpha, control)


def bessel_i(m: int, z: float, control: SumControl | None = None) -> float:
    """Modified Bessel I_m(z) = sum_k (z/2)^(m+2k) / (k! (m+k)!); NumericError
    when the value leaves the float range, 0.0 where it underflows."""
    check_order(m)
    half = to_float(z, "bessel_i argument") / 2.0

    def ratio(k: int) -> float:
        return half * half / ((k + 1.0) * (m + k + 1.0))

    try:
        # 171! already leaves the float range, so a larger m! is never built.
        first = half**m / math.factorial(min(m, 171))
    except OverflowError:
        # (z/2)^m or m! (every m >= 171) leaves the float range: sum the
        # series over its first term, then scale by that term's logarithm.
        # The scaled sum is at most exp((z/2)^2 / (m + 1)), and exp(-746)
        # already rounds to 0.0.
        if half == 0.0:
            return 0.0
        try:
            log_first = m * math.log(abs(half)) - math.lgamma(m + 1)
            if log_first + half * half / (m + 1) < -746.0:
                return 0.0
            scaled, _ = sum_series(_ratio_sequence(ratio), control)
            magnitude = math.exp(log_first + math.log(scaled))
        except OverflowError:
            raise NumericError("bessel_i value outside the float range") from None
        return -magnitude if half < 0.0 and m % 2 else magnitude
    value, _ = sum_series(_ratio_sequence(ratio, first), control)
    return value


def bessel_j0(x: float, control: SumControl | None = None) -> float:
    """J_0(x) by its Taylor series (adequate for moderate |x|)."""
    ctrl = control or SumControl(max_terms=600, rel_tol=1e-15)
    q = -to_float(x * x, "bessel_j0 argument") / 4.0
    value, _ = sum_series(_ratio_sequence(lambda k: q / ((k + 1.0) * (k + 1.0))), ctrl)
    return value


def _signed(args: Sequence[float]) -> list[float]:
    # Slot p (1-based) picks up (-1)^p.
    return [(-1) ** p * a for p, a in enumerate(args, start=1)]


def h_tricomi(
    m: int,
    s: float,
    args: Sequence[float],
    control: SumControl | None = None,
) -> float:
    """Hermite-based Tricomi: sum_r H_r^(m)(-a1, a2, ..., (-1)^m am) / (r! Gamma(1+s+r)).

    For m = 2 this is the two-variable hybrid; general m shows up in the
    order-m lacunary closed forms.  hermite_coeffs checks m and the
    number of slots when the sum reads its first value.
    """
    coeffs = hermite_coeffs(m, _signed([to_float(a, "h_tricomi argument") for a in args]))
    return _rgamma_series(coeffs, 1.0, 1.0 + s, control)


def h_wright(
    beta: float,
    alpha: float,
    x: float,
    y: float,
    control: SumControl | None = None,
) -> float:
    """Hermite-based Wright: sum_r H_r^(2)(x, y) / (r! Gamma(beta r + alpha)).

    The first superscript multiplies r inside the Gamma, exactly as in the
    scalar Bessel-Wright function; no slot sign flips here.
    """
    coeffs = hermite_coeffs(2, [to_float(v, "h_wright argument") for v in (x, y)])
    return _rgamma_series(coeffs, beta, alpha, control)


def h_bessel_j(n: int, x: float, y: float, control: SumControl | None = None) -> float:
    """Hermite-based Bessel: sum_r (-1)^r H_(n+2r)^(2)(x, y) / (2^(n+2r) r! (n+r)!)."""
    check_order(n)
    xs = [to_float(v, "h_bessel_j argument") for v in (x, y)]
    coeffs = islice(hermite_coeffs(2, xs), n, None, 2)
    # factor_r = (n+2r)! / (2^(n+2r) r! (n+r)!), tracked by its ratio.
    factors = _ratio_sequence(
        lambda r: (n + 2 * r + 1.0) * (n + 2 * r + 2.0) / (4.0 * (r + 1.0) * (n + r + 1.0)),
        0.5**n,
    )
    terms = ((-1) ** r * c * f for r, (c, f) in enumerate(zip(coeffs, factors)))
    value, _ = sum_series(terms, control)
    return value


def h_tricomi_bilateral(
    x: float,
    y: float,
    tau: float,
    control: SumControl | None = None,
) -> float:
    """Two-index hybrid sum_{r,s,k} x^r y^s tau^k / (r! s! k! (r+k)! (s+k)!).

    Summed by total-order shells r+s+k = N so the stop rule sees monotone
    shell totals rather than an arbitrary interleaving.
    """
    fact = math.factorial

    def shell(total: int) -> float:
        acc = 0.0
        for k in range(total + 1):
            tk = tau**k / fact(k)
            for r in range(total - k + 1):
                s = total - k - r
                acc += (
                    tk
                    * x**r
                    / fact(r)
                    * y**s
                    / fact(s)
                    / fact(r + k)
                    / fact(s + k)
                )
        return acc

    value, _ = sum_series(map(shell, count()), control)
    return value
