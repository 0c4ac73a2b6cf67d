"""Floating-point verification engines.

Each engine walks its registered grid and yields one PointOutcome per grid
point: truncated LHS series, closed-form RHS, a tail estimate (largest of
the last three LHS terms), and the drift when the truncation is pushed ten
terms further.  The caller applies the pass rule; engines only measure.

Every left side is a lacunary sum sum_n w_n seq[m n + l], so an engine is
written as point(top, ctrl, **params) -> (weights, row, rhs), where params
are one grid point's keys with its t scaled: the weights w_n, the strided
row seq[l::m] and the closed-form value.  The _engine driver supplies the
grid walk, forms the terms weights[n] * row[n] for n < top, sums them and
builds the label from the same params.

Grids are chosen so the LHS tail at the default truncation sits well below
1e-9 and every RHS series is inside its numerically observed convergence
region.  A grid scale in (0, 1] shrinks every t toward zero, which can only
tighten those margins.
"""

from __future__ import annotations

import cmath
import functools
import math
from itertools import count
from typing import Callable, Iterator, NamedTuple, Sequence

from ..errors import NumericError, QuadratureFailure
from ..polys import (
    assoc_laguerre,
    assoc_laguerre_diagonal,
    assoc_laguerre_sequence,
    hermite_coeffs,
    hermite_h_values,
    laguerre_sequence,
    lambda_poly,  # noqa: F401  perfbench's tracer test reaches it through this module
    lambda_sequence,
)
from ..scalars import as_real, rgamma
from ..specialfns import (
    bessel_i,
    bessel_j0,
    h_tricomi,
    h_tricomi_bilateral,
    h_wright,
    mittag_leffler,
    wright,
)
from ..summation import SumControl, sum_series

STABILITY_EXTRA = 10
COMPLEX_SLACK = 1e-10


class PointOutcome(NamedTuple):
    label: str
    lhs: float
    rhs: float
    tail: float
    drift: float


Engine = Callable[[int, float, SumControl], Iterator[PointOutcome]]


def _sum_with_stability(terms: list[float], n_terms: int) -> tuple[float, float, float]:
    """(S_N, tail estimate, |S_{N+10} - S_N|) from the N + 10 terms of a real series."""
    total = 0.0
    recent = [0.0] * 3
    for n, t in enumerate(terms[:n_terms]):
        total += t
        recent[n % 3] = abs(t)
    pushed = total
    for t in terms[n_terms:]:
        pushed += t
    return total, max(recent), abs(pushed - total)


def _egf_factors(t: float, top: int) -> list[float]:
    """[t^n / n!] for n < top."""
    out = [1.0]
    for n in range(1, top):
        out.append(out[-1] * t / n)
    return out


def _fmt(v: float) -> str:
    return format(v, "g")


Point = Callable[..., tuple[Sequence, Sequence, float]]


def _engine(case_id: str, grid: Sequence[dict]) -> Callable[[Point], Engine]:
    """Turn a per-point (weights, row, rhs) builder into an Engine over `grid`.

    `top` is the LHS term count including the stability extension, so the
    builder can size its tables once per point; a shorter weight list or
    row raises IndexError.
    """

    def wrap(point: Point) -> Engine:
        @functools.wraps(point)
        def engine(n_terms: int, scale: float, ctrl: SumControl) -> Iterator[PointOutcome]:
            top = n_terms + STABILITY_EXTRA
            for g in grid:
                params = {**g, "t": g["t"] * scale}
                weights, row, rhs = point(top, ctrl, **params)
                terms = [weights[n] * row[n] for n in range(top)]
                lhs, tail, drift = _sum_with_stability(terms, n_terms)
                label = ", ".join(f"{k}={_fmt(v)}" for k, v in params.items())
                yield PointOutcome(f"{case_id}[{label}]", lhs, rhs, tail, drift)

        return engine

    return wrap


def __getattr__(name: str):
    """`derive_aux_polynomial`, read from auxpoly on access (PEP 562)."""
    if name != "derive_aux_polynomial":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .auxpoly import derive_aux_polynomial

    return derive_aux_polynomial


def _bridge_sum(family: str, m: int, x, y, t, coeffs, ctrl: SumControl) -> float:
    """sum_r p(r; x, y, t) c_r / (r + shift)! for the printed bridge polynomial
    p of (family, m) and the c_r read from `coeffs`; loads `bridges` on first use."""
    from .bridges import printed

    p = printed(family, m)
    shift = p.factorial_shift
    terms = (
        float(p.evaluate(r, x, y, t)) * c * rgamma(r + shift + 1.0)
        for r, c in enumerate(coeffs)
    )
    return sum_series(terms, ctrl)[0]


def _diagonal_sum(x: float, t: float, c: float, alpha: int, ctrl: SumControl) -> float:
    """sum_r z^r / (c)_r L_r^(r + alpha)(x / 2) at z = -t x / (2 (1 - t))."""
    z = -t * x / (2.0 * (1.0 - t))

    def terms() -> Iterator[float]:
        factor = 1.0  # z^r / (c)_r, tracked by ratio
        for r in count():
            yield factor * float(assoc_laguerre(r, r + alpha, x / 2.0))
            factor *= z / (c + r)

    return sum_series(terms(), ctrl)[0]


def _laguerre_rows(xi: float) -> Callable[[int], list[float]]:
    """a -> [L_s^(a)(xi) for s <= a // 2], one assoc_laguerre_sequence row
    per Laguerre parameter a, built on first use.  The right sides of EQ2.11
    and EQ3.11 read L_s^(s + r + alpha) for s <= r: rows serve their double
    sums in O(R^2) for R terms, where per-index values take O(R^3)."""
    return functools.cache(lambda a: assoc_laguerre_sequence(a // 2, a, xi))


def _half_pochhammer_weights(t: float, b: float, top: int) -> list[float]:
    """[(1/2)_n / (b)_n t^n] for n <= top."""
    w = [1.0]
    for n in range(top):
        w.append(w[-1] * t * (0.5 + n) / (b + n))
    return w


# -- two-index family generating functions ----------------------------------


@functools.lru_cache(maxsize=8, typed=True)
def _lambda_rows(top: int, alpha, beta, x: float, y: float) -> tuple[float, ...]:
    """lambda_sequence(top, alpha, beta, x, y), built once for the grid points
    EQ1.7 and EQ1.9 share.  Typed keys: an int and a float alpha or beta take
    different weight paths."""
    return tuple(lambda_sequence(top, alpha, beta, x, y))


@_engine("EQ1.7", (
    {"alpha": 0.5, "beta": 1, "x": 1.0, "y": 1.0, "t": 0.3},
    {"alpha": 1, "beta": 2, "x": 2.0, "y": 0.5, "t": -0.4},
    {"alpha": 2, "beta": 3, "x": 0.7, "y": -1.0, "t": 0.25},
    {"alpha": 1.5, "beta": 2, "x": 1.2, "y": 0.8, "t": 0.35},
))
def eq1_7(top, ctrl, alpha, beta, x, y, t):
    seq = _lambda_rows(top, alpha, beta, x, y)
    fac = _egf_factors(t, top)
    rhs = math.exp(y * t) * wright(beta, alpha + 1.0, -t * x, ctrl)
    return fac, seq, rhs


@_engine("EQ1.9", (
    {"alpha": 0.5, "beta": 1, "x": 1.0, "y": 1.0, "t": 0.3},
    {"alpha": 1, "beta": 2, "x": 2.0, "y": 0.5, "t": 0.15},
    {"alpha": 2, "beta": 1, "x": 0.5, "y": -1.0, "t": 0.25},
    {"alpha": 0, "beta": 3, "x": 1.5, "y": 0.5, "t": 0.2},
))
def eq1_9(top, ctrl, alpha, beta, x, y, t):
    seq = _lambda_rows(top, alpha, beta, x, y)
    rhs = mittag_leffler(beta, alpha + 1.0, -t * x / (1.0 - t * y), ctrl) / (
        1.0 - t * y
    )
    return [t**n for n in range(top)], seq, rhs


@_engine("EQ1.12", (
    {"m": 1, "x": 1.0, "y": 1.0, "t": 0.3},
    {"m": 2, "x": 0.5, "y": 1.5, "t": 0.2},
    {"m": 3, "x": 2.0, "y": 0.8, "t": 0.15},
    {"m": 2, "x": 1.0, "y": -0.5, "t": 0.25},
))
def eq1_12(top, ctrl, m, x, y, t):
    seq = assoc_laguerre_sequence(top, m, x, y)
    fac = _egf_factors(t, top)
    rhs = 0.0
    for r in range(m + 1):
        outer = math.comb(m, r) * math.factorial(m) / math.factorial(r)
        for s in range(r + 1):
            rhs += (
                outer
                * math.comb(r, s)
                * (t * y) ** (r - s)
                * (-x * t) ** s
                * wright(1.0, m + s + 1.0, -t * x, ctrl)
            )
    rhs *= math.exp(t * y)
    return fac, seq, rhs


# -- double-stride and negative-offset families ------------------------------


@_engine("EQ2.7", (
    {"x": 1.0, "t": 0.1},
    {"x": 0.5, "t": 0.25},
    {"x": 2.0, "t": 0.09},
    {"x": 1.5, "t": 0.16},
))
def eq2_7(top, ctrl, x, t):
    seq = laguerre_sequence(2 * top, x)
    fac = _egf_factors(t, top)
    st = math.sqrt(t)
    u = 1j * x * st

    def rhs_terms() -> Iterator[complex]:
        p = 1.0 + 0.0j
        for r, h in enumerate(hermite_h_values(1j * st)):
            yield p * h
            p *= u / ((r + 1) * (r + 1))

    total, _ = sum_series(rhs_terms(), ctrl)
    rhs = math.exp(t) * as_real(total, "EQ2.7 rhs", COMPLEX_SLACK)
    return fac, seq[::2], rhs


@_engine("EQ2.8", (
    {"m": 1, "x": 1.0, "y": 1.0, "t": 0.1},
    {"m": 1, "x": 0.6, "y": 0.8, "t": 0.2},
    {"m": 2, "x": 1.0, "y": 1.0, "t": 0.1},
    {"m": 2, "x": 1.5, "y": 0.5, "t": 0.12},
))
def eq2_8(top, ctrl, m, x, y, t):
    seq = assoc_laguerre_sequence(2 * top, m, x, y)
    fac = _egf_factors(t, top)
    c2 = hermite_coeffs(2, (-2.0 * x * y * t, t * x * x))
    rhs = math.exp(t * y * y) * _bridge_sum("p", m, x, y, t, c2, ctrl)
    return fac, seq[::2], rhs


@_engine("EQ2.9", (
    {"alpha": 0, "beta": 1, "x": 1.0, "y": 1.0, "t": 0.2},
    {"alpha": 1, "beta": 1, "x": 0.5, "y": 1.2, "t": 0.15},
    {"alpha": 1, "beta": 2, "x": 1.0, "y": 0.8, "t": 0.1},
    {"alpha": 2, "beta": 2, "x": 0.7, "y": 1.0, "t": 0.12},
))
def eq2_9(top, ctrl, alpha, beta, x, y, t):
    seq = lambda_sequence(2 * top, alpha, beta, x, y, step=2)
    fac = _egf_factors(t, top)
    rhs = math.exp(y * y * t) * h_wright(
        float(beta), alpha + 1.0, -2.0 * x * y * t, x * x * t, ctrl
    )
    return fac, seq, rhs


@_engine("EQ2.10", (
    {"x": 0.5, "t": 0.3},
    {"x": 1.0, "t": 0.2},
    {"x": 2.0, "t": 0.1},
    {"x": 1.5, "t": 0.12},
))
def eq2_10(top, ctrl, x, t):
    seq = laguerre_sequence(2 * top, x)
    rhs = _diagonal_sum(x, t, 0.5, 0, ctrl) / (1.0 - t)
    return [t**n for n in range(top)], seq[::2], rhs


@_engine("EQ2.11", (
    {"x": 0.5, "t": 0.15},
    {"x": 1.0, "t": 0.3},
    {"x": 2.0, "t": 0.15},
))
def eq2_11(top, ctrl, x, t):
    seq = laguerre_sequence(3 * top, x)
    w = -3.0 * t * x / (1.0 - t)
    lag = _laguerre_rows(x / 3.0)

    def rhs_terms() -> Iterator[float]:
        for r in range(ctrl.max_terms + 1):
            inner = 0.0
            for s in range(r + 1):
                inner += (
                    (-x) ** s
                    * lag(s + r)[s]
                    * math.factorial(r)
                    / (math.factorial(r - s) * math.factorial(r + 2 * s))
                )
            yield w**r * inner

    try:
        total, _ = sum_series(rhs_terms(), ctrl)
    except OverflowError as exc:
        # r! leaves the float range at r = 171.
        raise NumericError(f"EQ2.11 rhs overflows: {exc}") from exc
    rhs = total / (1.0 - t)
    return [t**n for n in range(top)], seq[::3], rhs


@_engine("EQ2.13", (
    {"alpha": 0.5, "x": 1.0, "y": 1.0, "t": 0.3},
    {"alpha": 2.5, "x": 0.5, "y": 2.0, "t": 0.2},
    {"alpha": 1.5, "x": 2.0, "y": 0.5, "t": 0.4},
    {"alpha": 3.0, "x": 1.0, "y": -0.8, "t": 0.3},
))
def eq2_13(top, ctrl, alpha, x, y, t):
    diag = assoc_laguerre_diagonal(top, alpha, x, y)
    rhs = (1.0 + y * t) ** alpha * math.exp(-t * x)
    return [t**n for n in range(top)], diag, rhs


@_engine("EQ2.14", (
    {"alpha": 0.5, "x": 1.0, "y": 1.0, "t": 0.3},
    {"alpha": 1.0, "x": 2.0, "y": 1.0, "t": 0.45},
    {"alpha": 2.5, "x": 0.5, "y": 1.2, "t": 0.3},
    {"alpha": 1.5, "x": 0.0, "y": 1.0, "t": 0.4},
))
def eq2_14(top, ctrl, alpha, x, y, t):
    diag = assoc_laguerre_diagonal(2 * top, alpha, x, y, step=2)
    st = cmath.sqrt(t)
    big_t = alpha * cmath.asin(st * y / cmath.sqrt(t * y * y - 1.0))
    val = (1.0 - t * y * y) ** (alpha / 2.0) * cmath.cosh(st * x - 1j * big_t)
    rhs = as_real(val, "EQ2.14 rhs", COMPLEX_SLACK)
    return [t**n for n in range(top)], diag, rhs


# -- shifted, weighted, and bilateral forms ----------------------------------


@_engine("EQ3.1", (
    {"l": 1, "x": 1.0, "t": 0.09},
    {"l": 2, "x": 0.5, "t": 0.25},
    {"l": 3, "x": 2.0, "t": 0.09},
    {"l": 1, "x": 1.5, "t": 0.16},
))
def eq3_1(top, ctrl, l, x, t):
    seq = laguerre_sequence(2 * top + l, x)
    fac = _egf_factors(t, top)
    st = math.sqrt(t)
    u = 1j * x * st

    def rhs_terms() -> Iterator[complex]:
        p = 1.0 + 0.0j
        for r, h in enumerate(hermite_h_values(1j * st)):
            yield p * float(assoc_laguerre(l, r, x)) * h / math.factorial(l + r)
            p *= u / (r + 1)

    total, _ = sum_series(rhs_terms(), ctrl)
    rhs = math.exp(t) * math.factorial(l) * as_real(total, "EQ3.1 rhs", COMPLEX_SLACK)
    return fac, seq[l::2], rhs


@_engine("EQ3.3", (
    {"l": 0, "x": 1.0, "t": 0.1},
    {"l": 1, "x": 0.5, "t": 0.15},
    {"l": 2, "x": 1.5, "t": 0.08},
))
def eq3_3(top, ctrl, l, x, t):
    seq = laguerre_sequence(3 * top + l, x)
    fac = _egf_factors(t, top)
    s3t = math.sqrt(3.0 * t)
    u = 1j * x * s3t

    def rhs_terms() -> Iterator[complex]:
        # The term of index n reads hs[k] and upow[k] = u^k / k! for k <= n
        # and b[r] = (-t x^3)^r / r! for r <= n // 3: each table grows as n does.
        hs, upow, b = [], [1.0 + 0.0j], [1.0]
        for n, h in zip(range(ctrl.max_terms + 1), hermite_h_values(1j * s3t / 2.0)):
            hs.append(h)
            if n:
                upow.append(upow[-1] * u / n)
            if n // 3 == len(b):
                b.append(b[-1] * (-t * x**3) / len(b))
            inner = 0.0 + 0.0j
            for r in range(n // 3 + 1):
                inner += b[r] * upow[n - 3 * r] * hs[n - 3 * r]
            yield float(assoc_laguerre(l, n, x)) * rgamma(n + l + 1.0) * inner

    total, _ = sum_series(rhs_terms(), ctrl)
    rhs = math.exp(t) * math.factorial(l) * as_real(total, "EQ3.3 rhs", COMPLEX_SLACK)
    return fac, seq[l::3], rhs


@_engine("EQ3.4", (
    {"x": 1.0, "t": 0.1},
    {"x": 0.5, "t": 0.2},
    {"x": 2.0, "t": 0.08},
))
def eq3_4(top, ctrl, x, t):
    seq = assoc_laguerre_sequence(3 * top, 1, x)
    fac = _egf_factors(t, top)
    c3 = hermite_coeffs(3, (-3.0 * t * x, 3.0 * t * x * x, -t * x**3))
    rhs = math.exp(t) * _bridge_sum("q", 1, x, 1.0, t, c3, ctrl)
    return fac, seq[::3], rhs


@_engine("EQ3.5", (
    {"m": 2, "l": 0, "x": 1.0, "y": 1.0, "t": 0.15},
    {"m": 2, "l": 1, "x": 0.7, "y": 0.9, "t": 0.1},
    {"m": 3, "l": 0, "x": 1.0, "y": 1.0, "t": 0.08},
    {"m": 3, "l": 1, "x": 0.6, "y": 1.1, "t": 0.08},
    {"m": 4, "l": 0, "x": 0.8, "y": 1.0, "t": 0.05},
    {"m": 4, "l": 1, "x": 1.0, "y": 0.9, "t": 0.05},
))
def eq3_5(top, ctrl, m, l, x, y, t):
    seq = laguerre_sequence(m * top + l, x, y)
    fac = _egf_factors(t, top)
    args = [math.comb(m, p) * x**p * y ** (m - p) * t for p in range(1, m + 1)]
    rhs = 0.0
    for s in range(l + 1):
        rhs += (
            math.comb(l, s)
            * y ** (l - s)
            * (-x) ** s
            * h_tricomi(m, float(s), args, ctrl)
        )
    rhs *= math.exp(t * y**m)
    return fac, seq[l::m], rhs


@_engine("EQ3.8", (
    {"x": 1.0, "y": 1.0, "z": 0.5, "u": 1.0, "t": 0.2},
    {"x": 0.6, "y": 0.8, "z": 1.0, "u": 1.2, "t": 0.15},
    {"x": 1.5, "y": 0.5, "z": 0.7, "u": 1.0, "t": 0.1},
))
def eq3_8(top, ctrl, x, y, z, u, t):
    seq_a = laguerre_sequence(top, x, y)
    seq_b = laguerre_sequence(top, z, u)
    fac = _egf_factors(t, top)
    rhs = math.exp(t * u * y) * h_tricomi_bilateral(
        -x * u * t, -y * z * t, x * z * t, ctrl
    )
    return [f * a for f, a in zip(fac, seq_a)], seq_b, rhs


@_engine("EQ3.9", (
    {"alpha": 0, "x": 1.0, "t": 0.2},
    {"alpha": 1, "x": 0.5, "t": 0.3},
    {"alpha": 2, "x": 2.0, "t": 0.1},
    {"alpha": 1, "x": 1.5, "t": 0.15},
))
def eq3_9(top, ctrl, alpha, x, t):
    seq = assoc_laguerre_sequence(2 * top, alpha, x)
    b = 1.0 + alpha / 2.0
    rhs = (1.0 - t) ** (-(1.0 + alpha) / 2.0) * _diagonal_sum(x, t, b, alpha, ctrl)
    return _half_pochhammer_weights(t, b, top), seq[::2], rhs


@_engine("EQ3.10", (
    {"m": 0, "x": 0.0, "t": 0.1},
    {"m": 0, "x": 0.0, "t": 0.25},
    {"m": 0, "x": 0.0, "t": 0.5},
    {"m": 0, "x": 1.0, "t": 0.09},
    {"m": 1, "x": 1.0, "t": 0.09},
    {"m": 1, "x": 0.6, "t": 0.15},
    {"m": 2, "x": 1.0, "t": 0.09},
    {"m": 2, "x": 0.8, "t": 0.12},
))
def eq3_10(top, ctrl, m, x, t):
    seq = assoc_laguerre_sequence(2 * top, 2 * m, x)
    # The t -> 0 limit forces an m! normalization that the source display
    # omits: the left side starts at 1, the Bessel side at 1/m!.  Invisible
    # for m <= 1, a clean factor of 2 at m = 2.  At x = 0 (registered for
    # m = 0 only) every x-dependent factor is exactly 1.0.
    arg = x * math.sqrt(t)
    rhs = (
        math.factorial(m)
        * (1.0 / math.sqrt(1.0 - t))
        * (arg / 2.0) ** (-m)
        * math.exp(-t * x / (1.0 - t))
        * bessel_i(m, arg / (1.0 - t), ctrl)
    )
    return _half_pochhammer_weights(t, 1.0 + m, top), seq[::2], rhs


@_engine("EQ3.11", (
    {"alpha": 0, "x": 1.0, "t": 0.08},
    {"alpha": 0, "x": 2.0, "t": 0.05},
    {"alpha": 1, "x": 1.0, "t": 0.08},
    {"alpha": 1, "x": 0.5, "t": 0.1},
))
def eq3_11(top, ctrl, alpha, x, t):
    seq = assoc_laguerre_sequence(3 * top, alpha, x)
    w = [1.0]  # (1/3)_n (2/3)_n / ((1+a/3)_n ((2+a)/3)_n) * t^n
    a3 = alpha / 3.0
    for n in range(top):
        w.append(
            w[-1]
            * t
            * (n + 1.0 / 3.0)
            * (n + 2.0 / 3.0)
            / ((n + 1.0 + a3) * (n + (2.0 + alpha) / 3.0))
        )
    wz = -t * x / (9.0 * (1.0 - t))
    lag = _laguerre_rows(x / 3.0)

    def rhs_terms() -> Iterator[float]:
        # prefactor_r = Gamma(3r+a+1) / ((1+a/3)_r ((2+a)/3)_r) * wz^r
        prefactor = math.gamma(alpha + 1.0)
        for r in count():
            inner = 0.0
            for s in range(r + 1):
                inner += (
                    (-x) ** s
                    * lag(s + alpha + r)[s]
                    / math.factorial(r - s)
                    * rgamma(2.0 * s + alpha + r + 1.0)
                )
            yield prefactor * inner
            prefactor *= (
                wz
                * (3.0 * r + alpha + 1.0)
                * (3.0 * r + alpha + 2.0)
                * (3.0 * r + alpha + 3.0)
                / ((r + 1.0 + a3) * (r + (2.0 + alpha) / 3.0))
            )

    total, _ = sum_series(rhs_terms(), ctrl)
    rhs = (1.0 - t) ** (-(1.0 + alpha) / 3.0) * total
    return w, seq[::3], rhs


# -- Borel-transform quadrature ---------------------------------------------

_BOREL_XS = (0.0, 1.0, 2.0, 3.0)
_BOREL_CTRL = SumControl(max_terms=100, rel_tol=1e-15)
_U = 2.0**-53  # unit roundoff

#: Newton steps allowed per node; at n <= 100 every node takes at most 9.
_NEWTON_STEPS = 16


def _remainder(n: int, x: float) -> float:
    """(n!)^2 (x^2/4)^(2n) / ((2n)!)^2, the n-node rule's proven error at x."""
    return (math.factorial(n) / math.factorial(2 * n) * (x * x / 4.0) ** n) ** 2


#: The smallest rule whose proven remainder at the largest grid x is at most u.
_RULE_NODES = next(n for n in count(1) if _remainder(n, max(_BOREL_XS)) <= _U)


@functools.lru_cache(maxsize=None)
def _laggauss(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(nodes, weights) of the n-point Gauss-Laguerre rule for e^-x on [0, inf).

    Each node is Newton's method on L_n, using L_n' = n (L_n - L_{n-1}) / z,
    from the Stroud-Secrest starting guess (Numerical Recipes' gaulag at
    alpha = 0); each step reads the row laguerre_sequence(n, z).  It stops
    one step after |dz| <= 1e-13 z, and a node that has not stopped within
    _NEWTON_STEPS raises QuadratureFailure.  The weight comes from the row
    that last step read, as the Christoffel number 1 / sum_{k<n} L_k(x)^2
    (the L_k are orthonormal for e^-x): the step moved the node by rounding
    only, and unlike x / ((n+1) L_{n+1}(x))^2 this form does not amplify the
    rounding of the nodes near the origin.  The weights are then divided by
    their sum, as numpy's laggauss does.
    """
    nodes: list[float] = []
    weights: list[float] = []
    z = 0.0
    for i in range(n):
        if i == 0:
            z = 3.0 / (1.0 + 2.4 * n)
        elif i == 1:
            z += 15.0 / (1.0 + 2.5 * n)
        else:
            z += (1.0 + 2.55 * (i - 1)) / (1.9 * (i - 1)) * (z - nodes[i - 2])
        converged = False
        for _ in range(_NEWTON_STEPS):
            seq = laguerre_sequence(n, z)
            dz = z * seq[n] / (n * (seq[n] - seq[n - 1]))
            z -= dz
            if converged:
                break
            converged = abs(dz) <= 1e-13 * z
        else:
            raise QuadratureFailure(
                f"Gauss-Laguerre node {i} of {n} did not converge in "
                f"{_NEWTON_STEPS} Newton steps"
            )
        nodes.append(z)
        weights.append(1.0 / math.fsum(v * v for v in seq[:n]))
    total = math.fsum(weights)
    return tuple(nodes), tuple(w / total for w in weights)


def borel_points(tol: float = 1e-8) -> Iterator[PointOutcome]:
    """EQ3.19: the transform integral against the Gaussian closed form, by
    one _RULE_NODES-node Gauss-Laguerre rule for every x.

    The rule's error is (n!)^2 / (2n)! f^(2n)(xi), xi > 0 (Abramowitz and
    Stegun 25.4.45); for f(s) = J0(x sqrt s), f^(m)(s) = (-x^2/2)^m z^-m
    J_m(z) at z = x sqrt s (DLMF 10.6.6) and |J_m(z)| <= (z/2)^m / m! for
    z >= 0 (DLMF 10.14.4), hence _remainder.  Each estimate charges it,
    plus rel_tol for the tail a J0 sum drops (while I0(z) < 1 / rel_tol it
    stops past the peak of its terms, which then alternate and fall), plus
    8 (K + n) u e^(x^2/4) for rounding, K = _BOREL_CTRL.max_terms: term k
    carries 7k roundings and the running sum K, so a sum is off by at most
    8 K u I0(z) to first order, I0 being its Sigma |term|; nodes, weights
    and the outer sum add n u each; and the rule's sum of I0(x sqrt s)
    stays below its integral e^(x^2/4), as every s-derivative is positive.
    An estimate above tol (a NaN one included) trips QuadratureFailure.
    """
    n = _RULE_NODES
    rule = list(zip(*_laggauss(n)))
    for x in _BOREL_XS:
        value = sum(w * bessel_j0(math.sqrt(s) * x, _BOREL_CTRL) for s, w in rule)
        rounding = 8 * (_BOREL_CTRL.max_terms + n) * _U * math.exp(x * x / 4.0)
        bound = _remainder(n, x)
        charged = bound + _BOREL_CTRL.rel_tol + rounding
        if not charged <= tol:
            raise QuadratureFailure(
                f"charged error {charged:.3e} (proven remainder {bound:.3e}) "
                f"exceeds {tol:.1e} at x={x}"
            )
        rhs = math.exp(-((x / 2.0) ** 2))
        yield PointOutcome(f"EQ3.19[x={_fmt(x)}]", value, rhs, charged, charged)
