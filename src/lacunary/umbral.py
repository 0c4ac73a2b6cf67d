"""Umbral symbol algebra with vacuum reduction.

A series is a finite sum of terms  coeff * c1^e1 * c2^e2 * x^d  where c1, c2
are commuting umbral symbols and x is an ordinary indeterminate tracked only
through its degree d.  Exponents add under multiplication; the vacuum rule is

    c^a |0>  ->  1 / Gamma(1 + a)

applied independently per symbol, so negative-integer exponents annihilate a
term exactly.  Reduction demands integer exponents, so every reduced value is
rational.

Storage is integer: each series keeps its exponents as int numerators over
one exponent denominator (1 unless a half-integer symbol or a non-integer
dilation brought one in) and its coefficients as int numerators over one
common denominator.  The kernels work on those ints; `Fraction` appears only
at the public boundary, in the constructor's input, the `terms` view and the
reduced values.

`umb_exp` expands exp(argument) to order N by multinomial weights, one
pass per argument monomial, merging partial terms that share a key and a
factor count.  `reduce_exp` runs the same passes (`_expand`) but folds the
last one straight into the vacuum reduction, one int per x-degree, so an
engine that only reduces the exponential never builds the series.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, itemgetter, mul
from types import MappingProxyType
from typing import Mapping

from .errors import (
    DomainError,
    ExactnessViolation,
    MissingDegreeMetadata,
    ModeMismatch,
    TermBudgetExceeded,
)
from .scalars import check_order, is_exact

#: (c1 exponent numerator, c2 exponent numerator, x-degree).
Key = tuple[int, int, int]

#: Hard cap on stored terms; expansions beyond this raise TermBudgetExceeded.
#: Read at each check, so a caller may lower it for one computation.
DEFAULT_TERM_CAP = 200_000

_ONE: Key = (0, 0, 0)


def _as_exponent(e) -> Fraction:
    if isinstance(e, Fraction):
        return e
    if isinstance(e, int):
        return Fraction(e)
    raise TypeError("umbral exponents must be int or Fraction")


def _check_cap(n_terms: int) -> None:
    if n_terms > DEFAULT_TERM_CAP:
        raise TermBudgetExceeded(
            f"{n_terms} terms exceed the cap of {DEFAULT_TERM_CAP}"
        )


def _make(num: dict[Key, int], den: int, eden: int) -> "UmbralSeries":
    """Series from int numerators; drops zeros and cancels the common factor."""
    num = {k: c for k, c in num.items() if c}
    _check_cap(len(num))
    g = math.gcd(den, *num.values())
    if g > 1:
        num = {k: c // g for k, c in num.items()}
        den //= g
    series = object.__new__(UmbralSeries)
    series._num, series._den, series._eden = num, den, eden
    return series


def _over(series: "UmbralSeries", eden: int) -> dict[Key, int]:
    """The series' numerators with exponents over the multiple `eden`."""
    f = eden // series._eden
    if f == 1:
        return series._num
    return {(a * f, b * f, d): c for (a, b, d), c in series._num.items()}


class UmbralSeries:
    """Immutable finite umbral sum; construct via the module helpers."""

    __slots__ = ("_num", "_den", "_eden")

    def __init__(self, terms: Mapping[tuple, Fraction]):
        _check_cap(len(terms))
        rows = []
        for (e1, e2, d), coeff in terms.items():
            if not is_exact(coeff):
                raise ModeMismatch("umbral series require Fraction coefficients")
            if coeff:
                rows.append((_as_exponent(e1), _as_exponent(e2), d, Fraction(coeff)))
        eden = math.lcm(*(e.denominator for row in rows for e in row[:2]))
        den = math.lcm(*(row[3].denominator for row in rows))
        self._num: dict[Key, int] = {
            (
                e1.numerator * (eden // e1.denominator),
                e2.numerator * (eden // e2.denominator),
                d,
            ): c.numerator * (den // c.denominator)
            for e1, e2, d, c in rows
        }
        self._den, self._eden = den, eden

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """Read-only {(e1, e2, d): coefficient} view with Fraction values.

        Exponents are ints when the exponent denominator is 1; an int equals
        and hashes like the same Fraction, so lookups work either way.
        """
        den, eden = self._den, self._eden
        if eden == 1:
            view = {key: Fraction(c, den) for key, c in self._num.items()}
        else:
            view = {
                (Fraction(a, eden), Fraction(b, eden), d): Fraction(c, den)
                for (a, b, d), c in self._num.items()
            }
        return MappingProxyType(view)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def scalar(value: Fraction) -> "UmbralSeries":
        return UmbralSeries({(0, 0, 0): value})

    @staticmethod
    def symbol(exponent, which: int = 1) -> "UmbralSeries":
        return UmbralSeries.monomial(1, exponent, which=which)

    @staticmethod
    def monomial(
        coeff: Fraction, exponent, x_degree: int = 0, which: int = 1
    ) -> "UmbralSeries":
        """coeff * c^exponent * x^x_degree with degree metadata."""
        check_order(x_degree)
        e = _as_exponent(exponent)
        if which not in (1, 2):
            raise DomainError("symbol index must be 1 or 2")
        key = (e, 0, x_degree) if which == 1 else (0, e, x_degree)
        return UmbralSeries({key: coeff})

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "UmbralSeries") -> "UmbralSeries":
        eden = math.lcm(self._eden, other._eden)
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        out = {k: c * fa for k, c in _over(self, eden).items()}
        for key, c in _over(other, eden).items():
            out[key] = out.get(key, 0) + c * fb
        return _make(out, den, eden)

    def __mul__(self, other: "UmbralSeries") -> "UmbralSeries":
        """The cap is checked per left term; zeros drop out in `_make`."""
        eden = math.lcm(self._eden, other._eden)
        right = list(_over(other, eden).items())
        out: dict[Key, int] = {}
        for (a1, a2, da), ca in _over(self, eden).items():
            for (b1, b2, db), cb in right:
                key = (a1 + b1, a2 + b2, da + db)
                if key in out:
                    out[key] += ca * cb
                else:
                    out[key] = ca * cb
            if len(out) > DEFAULT_TERM_CAP:
                raise TermBudgetExceeded(
                    f"product exceeded the {DEFAULT_TERM_CAP}-term cap"
                )
        return _make(out, self._den * other._den, eden)

    # -- reduction ---------------------------------------------------------

    def _reduce_by_degree(self, scalar_only: bool) -> dict[int, Fraction]:
        """{degree: reduced coefficient}, zeros dropped, degrees ascending.

        Each term weighs 1/(e1! e2!) = (top1!/e1!)(top2!/e2!) / (top1! top2!),
        so the sums stay integer and each degree divides once.  Keys over an
        exponent denominator of 1 are the exponents and are read in place.
        """
        eden, num = self._eden, self._num
        if scalar_only or eden != 1:
            for n1, n2, d in num:
                if scalar_only and d != 0:
                    raise DomainError("series carries x-degree terms; use reduce_poly()")
                if n1 % eden or n2 % eden:
                    raise ExactnessViolation(
                        "exact reduction needs integer exponents, got "
                        f"({Fraction(n1, eden)}, {Fraction(n2, eden)})"
                    )
        if eden != 1:
            num = {(n1 // eden, n2 // eden, d): c for (n1, n2, d), c in num.items()}
        f1, w1 = _vacuum_weights(max(map(itemgetter(0), num), default=0), 0)
        f2, w2 = _vacuum_weights(max(map(itemgetter(1), num), default=0), 0)
        sums: dict[int, int] = {}
        for (e1, e2, d), c in num.items():
            if e1 >= 0 and e2 >= 0:  # 1/Gamma vanishes at the poles
                sums[d] = sums.get(d, 0) + c * w1[e1] * w2[e2]
        scale = self._den * f1 * f2
        return {d: Fraction(s, scale) for d, s in sorted(sums.items()) if s}

    def reduce(self) -> Fraction:
        """Vacuum-reduce a series with no x-dependence to a scalar."""
        return self._reduce_by_degree(scalar_only=True).get(0, Fraction(0))

    def reduce_poly(self) -> dict[int, Fraction]:
        """Vacuum-reduce, keeping x-degrees: returns {degree: coefficient}."""
        return self._reduce_by_degree(scalar_only=False)

    def dilate(self, sigma) -> "UmbralSeries":
        """Apply c^(sigma * x d/dx): shift each c1-exponent by sigma * x-degree.

        Meaningful only for series whose x-dependence is carried as degree
        metadata; a series with no metadata at all (built purely from scalars
        and bare symbols that were never tagged) is rejected.
        """
        s = _as_exponent(sigma)
        if self._num and all(d == 0 for (_, _, d) in self._num):
            raise MissingDegreeMetadata(
                "dilation needs x-degree metadata on at least one term"
            )
        eden = math.lcm(self._eden, s.denominator)
        step = s.numerator * (eden // s.denominator)
        out: dict[Key, int] = {}
        for (n1, n2, d), c in _over(self, eden).items():
            key = (n1 + step * d, n2, d)
            out[key] = out.get(key, 0) + c
        return _make(out, self._den, eden)


def _expand(argument: UmbralSeries, order: int):
    """Check the inputs of exp(argument) and run every pass but the last.

    Returns (states, last, rows): the partial terms {(e1, e2, d, used):
    multinomial * prod n^a} over every monomial but the last, that last
    monomial's key, and rows[used][j] = C(N-u, j) n^j (N-u-j)! D^(N-u-j),
    the weight of j more of its factors with the tail (N-u)! D^(N-u) folded
    in.  A zero argument gives last = None.  A monomial that carries at
    most one symbol, if there is one, goes last, so `reduce_exp` moves at
    most one symbol in its fold.
    """
    check_order(order)
    if _ONE in argument._num:
        raise DomainError("umb_exp needs the pure-scalar term split off first")
    states = {(0, 0, 0, 0): 1}  # (e1, e2, d, used): multinomial * prod n^a
    if not argument._num:
        return states, None, None
    # A stable sort: the monomials that carry both symbols go first.
    *inner, (last, n) = sorted(argument._num.items(), key=lambda kv: not all(kv[0][:2]))
    den = argument._den
    used = 0  # the largest count in states
    for (b1, b2, bd), m in inner:
        powers = [m**j for j in range(order + 1)]
        rows = [  # C(N-u, j) m^j
            [math.comb(order - u, j) * powers[j] for j in range(order - u + 1)]
            for u in range(used + 1)
        ]
        shifts = [(j * b1, j * b2, j * bd, j) for j in range(order + 1)]
        out: dict[tuple[int, int, int, int], int] = {}
        for (a1, a2, d, u), c in states.items():
            for (s1, s2, sd, j), w in zip(shifts, rows[u]):
                key = (a1 + s1, a2 + s2, d + sd, u + j)
                if key in out:
                    out[key] += c * w
                else:
                    out[key] = c * w
        _check_cap(len(out))
        states, used = out, order
    # The last pass folds in the tail: C(N-u, j) n^j (N-u-j)! D^(N-u-j),
    # from (N-u)! D^(N-u) at j = 0 by exact steps of n / (j D).
    tails = list(itertools.accumulate(range(1, order + 1), lambda t, k: t * k * den, initial=1))
    rows = []
    for u in range(used + 1):
        row = [tails[order - u]]
        for j in range(1, order - u + 1):
            row.append(row[-1] * n // (j * den))
        rows.append(row)
    return states, last, rows


def umb_exp(argument: UmbralSeries, order: int) -> UmbralSeries:
    """sum_{k<=order} argument^k / k!; argument must have no pure-scalar term.

    With the argument sum_i (n_i / D) M_i over m monomials and N = order,
    the result's numerators over D^N N! are

        sum_{|a|<=N} (N! / prod_i a_i!) prod_i n_i^(a_i) D^(N-|a|) M^a.

    One pass per monomial extends each partial term (key, |a|) by j more
    factors at weight C(N - |a|, j) n_i^j; the last pass also folds in
    (N - |a|)! D^(N-|a|).  Every later weight depends only on |a|, so
    partial terms that land on the same (key, |a|) are merged exactly.
    Independent keys merge nothing: EQ3.18's one monomial makes N + 1
    terms, EQ3.8's three would make C(N+3, 3).  A non-int or negative
    order raises DomainError.
    """
    states, last, rows = _expand(argument, order)
    if last is None:  # exp(0) = 1
        return _make({_ONE: 1}, 1, argument._eden)
    v1, v2, vd = last
    shifts = [(j * v1, j * v2, j * vd) for j in range(order + 1)]
    acc: dict[Key, int] = {}
    for (a1, a2, d, u), c in states.items():
        for (s1, s2, sd), w in zip(shifts, rows[u]):
            key = (a1 + s1, a2 + s2, d + sd)
            if key in acc:
                acc[key] += c * w
            else:
                acc[key] = c * w
        _check_cap(len(acc))
    return _make(acc, argument._den**order * math.factorial(order), argument._eden)


def _vacuum_weights(top: int, pad: int) -> tuple[int, list[int]]:
    """(t!, w) with t = max(top, 0): w[pad + e] = t!/e! for 0 <= e <= t, and
    0, the weight at a pole, for the pad exponents -pad <= e < 0."""
    t = max(top, 0)
    f = math.factorial(t)
    return f, [0] * pad + [f // math.factorial(e) for e in range(t + 1)]


def reduce_exp(argument: UmbralSeries, order: int, alpha=0) -> dict[int, Fraction]:
    """(UmbralSeries.symbol(alpha) * umb_exp(argument, order)).reduce_poly().

    The series is never built.  `umb_exp`'s passes run with a monomial that
    carries at most one symbol last, so the other symbol's 1/e! is fixed for
    each partial term.  The last pass sums the partial terms that share a
    factor count and a degree, each times the 1/e! of the symbol that
    moves, weighs each such group by its row once, and adds it into one int
    per degree; each degree makes one Fraction.  The cap counts each pass's
    partial terms, then every term the last pass folds.  That count is at
    least the series' term count and each of `umb_exp`'s pass counts, so
    this raises TermBudgetExceeded wherever the two-step path does.  A
    non-integer alpha or argument exponent takes the two-step path, whose
    reduction raises ExactnessViolation unless the truncation or a
    cancellation removes every such term.
    """
    a = _as_exponent(alpha)
    if a.denominator != 1 or argument._eden != 1:
        return (UmbralSeries.symbol(alpha) * umb_exp(argument, order)).reduce_poly()
    alpha = a.numerator
    states, last, rows = _expand(argument, order)
    if last is None:  # exp(0) = 1
        _check_cap(1)
        return {0: Fraction(1, math.factorial(alpha))} if alpha >= 0 else {}
    _check_cap(sum(order - u + 1 for (_, _, _, u) in states))
    v1, v2, vd = last
    # Exponents stay within alpha + N [min(0, b1), max(0, b1)] and
    # N [min(0, b2), max(0, b2)]; |v| more zeros below the lowest keep a
    # falling slice's end at or above 0.
    e1s, e2s, ds = zip(*argument._num)
    lo1, lo2 = alpha + order * min(0, *e1s), order * min(0, *e2s)
    p1, p2 = abs(v1) - min(lo1, 0), abs(v2) - lo2
    f1, w1 = _vacuum_weights(alpha + order * max(0, *e1s), p1)
    f2, w2 = _vacuum_weights(order * max(0, *e2s), p2)
    # Partial terms that share (used, degree) share their row and their
    # slice of sums, so the row weighs each group's sum once.
    groups: dict[tuple[int, int], list[int]] = {}
    for (a1, a2, d, u), c in states.items():
        size = order - u + 1
        i1, i2 = a1 + alpha + p1, a2 + p2
        if not v1:
            c *= w1[i1]
        if not v2:
            c *= w2[i2]
        if not c:  # a pole of the fixed symbol
            continue
        part = [c] * size
        if v1:
            part = map(mul, part, w1[i1 : i1 + v1 * size : v1])
        if v2:
            part = map(mul, part, w2[i2 : i2 + v2 * size : v2])
        old = groups.get((u, d))
        groups[u, d] = list(part) if old is None else list(map(add, old, part))
    sums = [0] * (order * max(ds) + 1)
    for (u, d), part in groups.items():
        terms = map(mul, rows[u], part)
        if vd:
            end = d + vd * len(part)
            sums[d:end:vd] = map(add, sums[d:end:vd], terms)
        else:
            sums[d] += sum(terms)
    scale = argument._den**order * math.factorial(order) * f1 * f2
    return {d: Fraction(s, scale) for d, s in enumerate(sums) if s}
