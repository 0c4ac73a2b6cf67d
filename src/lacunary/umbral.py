"""Umbral symbol algebra with vacuum reduction.

A series is a finite sum of terms  coeff * c1^e1 * c2^e2 * x^d  where c1, c2
are commuting umbral symbols and x is an ordinary indeterminate tracked only
through its degree d.  Exponents add under multiplication; the vacuum rule is

    c^a |0>  ->  1 / Gamma(1 + a)

applied independently per symbol, so negative-integer exponents annihilate a
term exactly.  Coefficients are exact (Fraction) and reduction demands
integer exponents, so every reduced value is rational.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import (
    DomainError,
    ExactnessViolation,
    MissingDegreeMetadata,
    ModeMismatch,
    TermBudgetExceeded,
)
from .scalars import is_exact, rgamma_exact

Key = tuple[Fraction, Fraction, int]

#: Hard cap on stored terms; expansions beyond this raise TermBudgetExceeded.
#: Read at each check, so a caller may lower it for one computation.
DEFAULT_TERM_CAP = 200_000


def _as_exponent(e) -> Fraction:
    if isinstance(e, Fraction):
        return e
    if isinstance(e, int):
        return Fraction(e)
    raise TypeError("umbral exponents must be int or Fraction")


class UmbralSeries:
    """Immutable finite umbral sum; construct via the module helpers."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, Fraction]):
        if len(terms) > DEFAULT_TERM_CAP:
            raise TermBudgetExceeded(
                f"{len(terms)} terms exceed the cap of {DEFAULT_TERM_CAP}"
            )
        clean: dict[Key, Fraction] = {}
        for key, coeff in terms.items():
            if not is_exact(coeff):
                raise ModeMismatch("umbral series require Fraction coefficients")
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            clean[key] = coeff
        self.terms: dict[Key, Fraction] = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def scalar(value: Fraction) -> "UmbralSeries":
        return UmbralSeries({(Fraction(0), Fraction(0), 0): value})

    @staticmethod
    def symbol(exponent, which: int = 1) -> "UmbralSeries":
        e = _as_exponent(exponent)
        if which == 1:
            key = (e, Fraction(0), 0)
        elif which == 2:
            key = (Fraction(0), e, 0)
        else:
            raise DomainError("symbol index must be 1 or 2")
        return UmbralSeries({key: Fraction(1)})

    @staticmethod
    def monomial(
        coeff: Fraction, exponent, x_degree: int = 0, which: int = 1
    ) -> "UmbralSeries":
        """coeff * c^exponent * x^x_degree with degree metadata."""
        if x_degree < 0:
            raise DomainError("x_degree must be >= 0")
        e = _as_exponent(exponent)
        key = (
            (e, Fraction(0), x_degree) if which == 1 else (Fraction(0), e, x_degree)
        )
        return UmbralSeries({key: coeff})

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "UmbralSeries") -> "UmbralSeries":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + coeff
        return UmbralSeries(out)

    def __sub__(self, other: "UmbralSeries") -> "UmbralSeries":
        return self + (-other)

    def __neg__(self) -> "UmbralSeries":
        return UmbralSeries({k: -c for k, c in self.terms.items()})

    def scale(self, factor: Fraction) -> "UmbralSeries":
        if not is_exact(factor):
            raise ModeMismatch("cannot scale an umbral series by a float")
        return UmbralSeries({k: c * factor for k, c in self.terms.items()})

    def __mul__(self, other: "UmbralSeries") -> "UmbralSeries":
        out: dict[Key, Fraction] = {}
        for (a1, a2, da), ca in self.terms.items():
            for (b1, b2, db), cb in other.terms.items():
                key = (a1 + b1, a2 + b2, da + db)
                prod = ca * cb
                if key in out:
                    out[key] += prod
                else:
                    out[key] = prod
            if len(out) > DEFAULT_TERM_CAP:
                raise TermBudgetExceeded(
                    f"product exceeded the {DEFAULT_TERM_CAP}-term cap"
                )
        return UmbralSeries(out)

    def pow(self, exponent: int) -> "UmbralSeries":
        if exponent < 0:
            raise DomainError("umbral pow needs an integer exponent >= 0")
        out = UmbralSeries.scalar(Fraction(1))
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # -- reduction ---------------------------------------------------------

    def _weight(self, e1: Fraction, e2: Fraction) -> Fraction:
        if e1.denominator != 1 or e2.denominator != 1:
            raise ExactnessViolation(
                f"exact reduction needs integer exponents, got ({e1}, {e2})"
            )
        return rgamma_exact(int(e1) + 1) * rgamma_exact(int(e2) + 1)

    def reduce(self) -> Fraction:
        """Vacuum-reduce a series with no x-dependence to a scalar."""
        total = Fraction(0)
        for (e1, e2, d), coeff in self.terms.items():
            if d != 0:
                raise DomainError(
                    "series carries x-degree terms; use reduce_poly()"
                )
            total += coeff * self._weight(e1, e2)
        return total

    def reduce_poly(self) -> dict[int, Fraction]:
        """Vacuum-reduce, keeping x-degrees: returns {degree: coefficient}."""
        out: dict[int, Fraction] = {}
        for (e1, e2, d), coeff in self.terms.items():
            w = coeff * self._weight(e1, e2)
            if d in out:
                out[d] += w
            else:
                out[d] = w
        return {d: c for d, c in sorted(out.items()) if c != 0}

    def dilate(self, sigma) -> "UmbralSeries":
        """Apply c^(sigma * x d/dx): shift each c1-exponent by sigma * x-degree.

        Meaningful only for series whose x-dependence is carried as degree
        metadata; a series with no metadata at all (built purely from scalars
        and bare symbols that were never tagged) is rejected.
        """
        s = _as_exponent(sigma)
        if self.terms and all(d == 0 for (_, _, d) in self.terms):
            raise MissingDegreeMetadata(
                "dilation needs x-degree metadata on at least one term"
            )
        out: dict[Key, Fraction] = {}
        for (e1, e2, d), coeff in self.terms.items():
            key = (e1 + s * d, e2, d)
            out[key] = out.get(key, Fraction(0)) + coeff
        return UmbralSeries(out)


def umb_exp(argument: UmbralSeries, order: int) -> UmbralSeries:
    """sum_{k<=order} argument^k / k!; argument must have no pure-scalar term."""
    if order < 0:
        raise DomainError("order must be >= 0")
    if (Fraction(0), Fraction(0), 0) in argument.terms:
        raise DomainError("umb_exp needs the pure-scalar term split off first")
    acc = UmbralSeries.scalar(Fraction(1))
    power = acc
    kfact = 1
    for k in range(1, order + 1):
        power = power * argument
        kfact *= k
        acc = acc + power.scale(Fraction(1, kfact))
    return acc
