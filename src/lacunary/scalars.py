"""Scalar primitives: exact and real floating reciprocal Gamma, input guards.

The reciprocal Gamma function is the basic vacuum expectation of the umbral
symbol: c^n applied to the vacuum evaluates to rgamma(n + 1).  It is entire,
which is why it (and not Gamma itself) is the primitive here: negative-integer
arguments are exact zeros instead of poles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import DomainError, ImaginaryResidue, NumericError

Scalar = Union[int, Fraction, float, complex]

#: |imag| <= IMAG_SLACK * (1 + |real|) is treated as roundoff residue.
IMAG_SLACK = 1e-12


def is_exact(value: Scalar) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def check_order(order, least: int = 0) -> None:
    """Raise DomainError unless `order` is an int >= least; a bool is none."""
    if isinstance(order, bool) or not isinstance(order, int) or order < least:
        raise DomainError(f"order must be an int >= {least}, got {order!r}")


def ensure_finite(value: float, where: str = "computation") -> float:
    """Reject NaN/inf floats so they never propagate silently."""
    if isinstance(value, float) and not math.isfinite(value):
        raise NumericError(f"non-finite value in {where}: {value!r}")
    return value


def to_float(value: Scalar, where: str = "argument") -> float:
    """float(value); NumericError for an int or Fraction beyond the float
    range, DomainError for a complex value."""
    try:
        return float(value)
    except OverflowError:
        raise NumericError(f"{where} outside the float range") from None
    except TypeError:
        raise DomainError(f"{where} must be real, got {value!r}") from None


def as_real(value: Scalar, where: str = "result", slack: float = IMAG_SLACK) -> float:
    """Collapse a numerically-real scalar to float.

    Raises ImaginaryResidue when the imaginary part exceeds
    slack * (1 + |real part|).
    """
    if isinstance(value, complex):
        real = ensure_finite(value.real, where)
        bound = slack * (1.0 + abs(real))
        if not abs(value.imag) <= bound:  # a NaN imaginary part fails too
            raise ImaginaryResidue(
                f"{where}: imaginary residue {value.imag!r} exceeds {bound!r}"
            )
        return real
    if isinstance(value, Fraction):
        return float(value)
    return float(ensure_finite(value, where))


def rgamma_exact(n: int) -> Fraction:
    """Exact 1/Gamma(n) for integer n: Fraction(1, (n-1)!) or 0 at the poles."""
    if n <= 0:
        return Fraction(0)
    return Fraction(1, math.factorial(n - 1))


def rgamma(z: Scalar) -> float:
    """Floating 1/Gamma(z) for real z; exact zeros at non-positive integers.

    Every real input, int and Fraction included, is evaluated as float(z).
    Uses the libm Gamma (relative error well under 1e-13 for |z| <= 170);
    a complex argument raises DomainError.  Past the float range the value
    underflows to 0.0 for a large z and raises NumericError for a negative
    z whose |1/Gamma| overflows.
    """
    if isinstance(z, complex):
        raise DomainError(f"rgamma takes real arguments, got {z!r}")
    z = to_float(z, "rgamma argument")
    if not math.isfinite(z):
        raise NumericError(f"non-finite rgamma argument: {z!r}")
    if z <= 0.0 and z == math.floor(z):
        return 0.0
    if z > 170.0:
        # lgamma avoids overflow past Gamma's range; past its own, 1/Gamma
        # is far below the smallest float.
        try:
            return math.exp(-math.lgamma(z))
        except OverflowError:
            return 0.0
    if z >= 0.5:
        return 1.0 / math.gamma(z)
    # Reflection keeps the negative real axis accurate between poles.
    n = math.floor(z)
    frac = z - n
    sin_term = math.sin(math.pi * frac) * (1.0 if n % 2 == 0 else -1.0)
    # 1/Gamma(z) = sin(pi z)/pi * Gamma(1 - z)
    one_minus = 1.0 - z
    if one_minus > 170.0:
        try:
            magnitude = math.exp(math.lgamma(one_minus) + math.log(abs(sin_term) / math.pi))
        except OverflowError:
            raise NumericError(f"|1/Gamma({z!r})| exceeds the float range") from None
        return math.copysign(magnitude, sin_term)
    return sin_term / math.pi * math.gamma(one_minus)
