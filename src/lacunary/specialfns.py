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
from .scalars import check_order, rgamma
from .summation import SumControl, sum_series
from .polys import hermite_coeffs


def _rgamma_series(
    coeffs: Iterable[float], beta: float, alpha: float, ctrl: SumControl | None
) -> float:
    """sum_r a_r / Gamma(beta r + alpha), the kernel of the Wright family;
    DomainError unless beta > 0."""
    if beta <= 0:
        raise DomainError("the Wright family needs beta > 0")
    value, _ = sum_series(
        (a * rgamma(beta * r + alpha) for r, a in enumerate(coeffs)), ctrl
    )
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
    when the first term's m! (from m = 171) or (z/2)^m leaves the float range."""
    check_order(m)
    half = z / 2.0
    try:
        first = half**m / math.factorial(m)
    except OverflowError as exc:
        raise NumericError(f"bessel_i overflows at m={m}: {exc}") from exc
    terms = _ratio_sequence(lambda k: half * half / ((k + 1.0) * (m + k + 1.0)), first)
    value, _ = sum_series(terms, control)
    return value


def bessel_j0(x: float, control: SumControl | None = None) -> float:
    """J_0(x) by its Taylor series (adequate for moderate |x|)."""
    ctrl = control or SumControl(max_terms=600, rel_tol=1e-15)
    q = -(x * x) / 4.0
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
    coeffs = hermite_coeffs(m, _signed([float(a) for a in args]))
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
    coeffs = hermite_coeffs(2, [float(x), float(y)])
    return _rgamma_series(coeffs, beta, alpha, control)


def h_bessel_j(n: int, x: float, y: float, control: SumControl | None = None) -> float:
    """Hermite-based Bessel: sum_r (-1)^r H_(n+2r)^(2)(x, y) / (2^(n+2r) r! (n+r)!)."""
    check_order(n)
    coeffs = islice(hermite_coeffs(2, [float(x), float(y)]), n, None, 2)
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
