"""Truncated formal power series with exact rational coefficients.

A series is a dense list of Fractions c[0..order]; all arithmetic is exact.
The order of a binary result is the minimum of the operand orders, so
truncation never manufactures spurious high-order coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import DomainError

__all__ = ["FormalPowerSeries", "fps_exp", "fps_geometric", "fps_one", "fps_x"]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact coefficient required, got {type(value).__name__}")


class FormalPowerSeries:
    """Exact truncated power series sum_k c[k] t^k, k <= order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]):
        cs = [_as_fraction(c) for c in coeffs]
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        if k < 0:
            raise IndexError("negative coefficient index")
        if k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FormalPowerSeries) and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:5])
        tail = ", ..." if self.order >= 5 else ""
        return f"FormalPowerSeries([{head}{tail}], order={self.order})"

    def __add__(self, other: "FormalPowerSeries") -> "FormalPowerSeries":
        n = min(self.order, other.order)
        return FormalPowerSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)]
        )

    def __sub__(self, other: "FormalPowerSeries") -> "FormalPowerSeries":
        n = min(self.order, other.order)
        return FormalPowerSeries(
            [self.coeffs[k] - other.coeffs[k] for k in range(n + 1)]
        )

    def __neg__(self) -> "FormalPowerSeries":
        return FormalPowerSeries([-c for c in self.coeffs])

    def scale(self, factor: Fraction | int) -> "FormalPowerSeries":
        f = _as_fraction(factor)
        return FormalPowerSeries([f * c for c in self.coeffs])

    def __mul__(self, other: "FormalPowerSeries") -> "FormalPowerSeries":
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return FormalPowerSeries(out)

    def shift(self, k: int) -> "FormalPowerSeries":
        """Multiply by t^k (keeps the truncation order)."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        n = self.order
        return FormalPowerSeries(
            [Fraction(0)] * min(k, n + 1) + list(self.coeffs[: max(0, n + 1 - k)])
        )

    def pow(self, exponent: int) -> "FormalPowerSeries":
        if exponent < 0:
            return self.reciprocal().pow(-exponent)
        out = fps_one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def reciprocal(self) -> "FormalPowerSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        if self.coeffs[0] == 0:
            raise DomainError("reciprocal needs a nonzero constant term")
        n = self.order
        inv0 = 1 / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * n
        for k in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                if j <= self.order and self.coeffs[j]:
                    acc += self.coeffs[j] * out[k - j]
            out[k] = -inv0 * acc
        return FormalPowerSeries(out)

    def exp(self) -> "FormalPowerSeries":
        """exp of a series with zero constant term (h' = f' h recursion)."""
        if self.coeffs[0] != 0:
            raise DomainError("exp needs a zero constant term")
        n = self.order
        out = [Fraction(1)] + [Fraction(0)] * n
        for k in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                if self.coeffs[j]:
                    acc += j * self.coeffs[j] * out[k - j]
            out[k] = acc / k
        return FormalPowerSeries(out)

    def compose(self, inner: "FormalPowerSeries") -> "FormalPowerSeries":
        """self(inner(t)); requires inner(0) = 0."""
        if inner.coeffs[0] != 0:
            raise DomainError("compose needs inner constant term zero")
        n = min(self.order, inner.order)
        # Horner from the top coefficient down.
        acc = FormalPowerSeries([Fraction(0)] * (n + 1))
        for k in range(n, -1, -1):
            acc = acc * inner
            acc = acc + FormalPowerSeries([self.coeffs[k]] + [Fraction(0)] * n)
        return acc

    def evaluate(self, t):
        """Horner evaluation at a numeric point (exact for exact input)."""
        acc = self.coeffs[self.order] * 1
        for k in range(self.order - 1, -1, -1):
            acc = acc * t + self.coeffs[k]
        return acc


def fps_one(order: int) -> FormalPowerSeries:
    return FormalPowerSeries([Fraction(1)] + [Fraction(0)] * order)


def fps_x(order: int, coefficient: Fraction | int = 1) -> FormalPowerSeries:
    if order < 1:
        raise ValueError("order must be >= 1 to hold a linear term")
    out = [Fraction(0)] * (order + 1)
    out[1] = _as_fraction(coefficient)
    return FormalPowerSeries(out)


def fps_exp(order: int, rate: Fraction | int = 1) -> FormalPowerSeries:
    """Series of exp(rate * t) through `order`."""
    r = _as_fraction(rate)
    out = [Fraction(1)]
    for k in range(1, order + 1):
        out.append(out[-1] * r / k)
    return FormalPowerSeries(out)


def fps_geometric(order: int, ratio: Fraction | int = 1) -> FormalPowerSeries:
    """Series of 1/(1 - ratio * t) through `order`."""
    r = _as_fraction(ratio)
    out = [Fraction(1)]
    for _ in range(order):
        out.append(out[-1] * r)
    return FormalPowerSeries(out)
