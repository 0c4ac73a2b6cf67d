"""Truncated formal power series with exact rational coefficients.

A series c[0..order] is stored as int numerators over one common
denominator, kept in lowest terms, so every kernel runs on ints and two
equal series have equal storage.  `coeffs` and indexing hand out Fractions.
The order of a binary result is the minimum of the operand orders, so
truncation never manufactures spurious high-order coefficients.

The algebra is what the exact engines run: sums, products, `exp`, `compose`
and the constructors `fps_x`, `fps_exp` and `fps_binomial`.  A bad order
raises DomainError (`check_order`), an inexact input ModeMismatch.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import DomainError, ModeMismatch
from .scalars import check_order, is_exact

__all__ = ["FormalPowerSeries", "fps_binomial", "fps_exp", "fps_x"]


def _as_fraction(value) -> Fraction:
    if not is_exact(value):
        raise ModeMismatch(f"exact coefficient required, got {type(value).__name__}")
    return Fraction(value)


def _make(num: Sequence[int], den: int) -> "FormalPowerSeries":
    """Series num[k]/den, brought to lowest terms with a positive denominator."""
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    series = object.__new__(FormalPowerSeries)
    series._num = tuple(c // g for c in num) if g != 1 else tuple(num)
    series._den = den // g
    return series


class FormalPowerSeries:
    """Exact truncated power series sum_k c[k] t^k, k <= order."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Fraction | int]):
        cs = [_as_fraction(c) for c in coeffs]
        if not cs:
            raise DomainError("a series needs at least the constant coefficient")
        # The lcm of reduced denominators leaves the numerators coprime to it.
        den = math.lcm(*(c.denominator for c in cs))
        self._num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self._den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def order(self) -> int:
        return len(self._num) - 1

    def __getitem__(self, k: int) -> Fraction:
        if k < 0:
            raise IndexError("negative coefficient index")
        if k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return Fraction(self._num[k], self._den)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FormalPowerSeries)
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:5])
        tail = ", ..." if self.order >= 5 else ""
        return f"FormalPowerSeries([{head}{tail}], order={self.order})"

    def __add__(self, other: "FormalPowerSeries") -> "FormalPowerSeries":
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        return _make([a * fa + b * fb for a, b in zip(self._num, other._num)], den)

    def __mul__(self, other: "FormalPowerSeries") -> "FormalPowerSeries":
        n = min(self.order, other.order)
        a, b = self._num, other._num
        out = [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(n + 1)]
        return _make(out, self._den * other._den)

    def exp(self) -> "FormalPowerSeries":
        """exp of a series with zero constant term (h' = f' h recursion).

        Over L = order! D^order the numerators C of exp(N/D) are integers with
        k D C_k = sum_{j>=1} j N_j C_{k-j}, so each step divides exactly.
        """
        num, n, den = self._num, self.order, self._den
        if num[0] != 0:
            raise DomainError("exp needs a zero constant term")
        weighted = [j * c for j, c in enumerate(num)]
        out = [math.factorial(n) * den**n]
        for k in range(1, n + 1):
            out.append(sum(map(mul, weighted[1 : k + 1], out[::-1])) // (k * den))
        return _make(out, out[0])

    def compose(self, inner: "FormalPowerSeries") -> "FormalPowerSeries":
        """self(inner(t)); requires inner(0) = 0.

        Horner on numerators: with inner = I/Di, A <- A*I + S_k Di^(n-k)
        from the top coefficient down leaves self(inner) = A / (Ds Di^n).
        The A of level k is multiplied by I k more times, and I_0 = 0, so
        only its orders <= n - k reach the result: each level stops there.
        """
        if inner._num[0] != 0:
            raise DomainError("compose needs inner constant term zero")
        n = min(self.order, inner.order)
        rest = inner._num[1 : n + 1]  # I_1..I_n; I_0 = 0 drops from A*I
        acc: list[int] = []
        for k in range(n, -1, -1):
            # [t^m] of A*I is sum_{i<m} A_i I_{m-i}.
            acc = [self._num[k] * inner._den ** (n - k)] + [
                sum(map(mul, acc[:m], rest[m - 1 :: -1])) for m in range(1, n - k + 1)
            ]
        return _make(acc, self._den * inner._den**n)


def fps_x(order: int, coefficient: Fraction | int = 1) -> FormalPowerSeries:
    check_order(order, 1)
    c = _as_fraction(coefficient)
    return _make([0, c.numerator] + [0] * (order - 1), c.denominator)


def fps_exp(order: int, rate: Fraction | int = 1) -> FormalPowerSeries:
    """Series of exp(rate * t) through `order`.

    With rate = p/q, [t^k] is p^k q^(order-k) order!/k! over q^order order!.
    """
    check_order(order)
    r = _as_fraction(rate)
    p, q = r.numerator, r.denominator
    out = [q**order * math.factorial(order)]
    for k in range(1, order + 1):
        out.append(out[-1] * p // (q * k))
    return _make(out, out[0])


def fps_binomial(order: int, ratio: Fraction | int, power: Fraction | int) -> FormalPowerSeries:
    """Series of (1 - ratio * t)^(-power) through `order`.

    [t^k] is ratio^k power (power + 1) ... (power + k - 1) / k!.  With
    ratio = p/q and power = a/b, the numerators over (q b)^order order!
    step by (a + (k-1) b) p / (k q b), and every step divides exactly.
    """
    check_order(order)
    r, s = _as_fraction(ratio), _as_fraction(power)
    p, q = r.numerator, r.denominator
    a, b = s.numerator, s.denominator
    out = [(q * b) ** order * math.factorial(order)]
    for k in range(1, order + 1):
        out.append(out[-1] * (a + (k - 1) * b) * p // (k * q * b))
    return _make(out, out[0])
