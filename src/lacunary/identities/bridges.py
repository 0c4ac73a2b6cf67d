"""The bridge polynomials p2, p4 (Eq. 2.8, m = 1, 2) and q3 (Eq. 3.4) as
printed in the source displays.  The numeric engines evaluate them;
`auxpoly` fits the same polynomials and compares each fit with its display.
Each table lists its keys in sorted order, the order the fit inserts them
in, so `evaluate` sums a table that equals its fit in the same float order.
"""

from fractions import Fraction
from typing import NamedTuple

from ..errors import DomainError

Key = tuple[int, int, int]  # (r-power d, t-power j, x-power a); y-power = step*j - a


class AuxPolynomial(NamedTuple):
    """Polynomial in r with (t, x, y)-monomial coefficients.

    null_basis spans the directions the fitting window leaves free: adding
    any combination of them to coeffs satisfies the same fitted equations.
    """

    family: str
    m: int
    step: int
    factorial_shift: int
    coeffs: dict[Key, Fraction]
    notes: tuple[str, ...] = ()
    null_basis: tuple[dict[Key, Fraction], ...] = ()

    @property
    def degree(self) -> int:
        return max((d for (d, _, _) in self.coeffs), default=0)

    def evaluate(self, r, x, y, t):
        """Sum of c r^d t^j x^a y^(step j - a); an int r with a float t
        rounds c r^d once, by int true division, as its Fraction would."""
        fast = isinstance(r, int) and isinstance(t, float)
        total = 0
        for (d, j, a), c in self.coeffs.items():
            w = (c.numerator * r**d) / c.denominator if fast else c * r**d
            total = total + w * t**j * x**a * y ** (self.step * j - a)
        return total


PRINTED_P2: dict[Key, Fraction] = {
    (0, 0, 0): Fraction(6),
    (0, 1, 0): Fraction(12),
    (0, 1, 1): Fraction(-12),
    (0, 1, 2): Fraction(2),
    (1, 0, 0): Fraction(5),
    (1, 1, 0): Fraction(10),
    (1, 1, 1): Fraction(-4),
    (2, 0, 0): Fraction(1),
    (2, 1, 0): Fraction(2),
}

PRINTED_P4: dict[Key, Fraction] = {
    (0, 0, 0): Fraction(720),
    (0, 1, 0): Fraction(3600),
    (0, 1, 1): Fraction(-2400),
    (0, 1, 2): Fraction(300),
    (0, 2, 0): Fraction(1440),
    (0, 2, 1): Fraction(-1920),
    (0, 2, 2): Fraction(720),
    (0, 2, 3): Fraction(-96),
    (0, 2, 4): Fraction(4),
    (1, 0, 0): Fraction(684),
    (1, 1, 0): Fraction(3420),
    (1, 1, 1): Fraction(-1480),
    (1, 1, 2): Fraction(110),
    (1, 2, 0): Fraction(1368),
    (1, 2, 1): Fraction(-1184),
    (1, 2, 2): Fraction(264),
    (1, 2, 3): Fraction(-16),
    (2, 0, 0): Fraction(238),
    (2, 1, 0): Fraction(1190),
    (2, 1, 1): Fraction(-300),
    (2, 1, 2): Fraction(10),
    (2, 2, 0): Fraction(476),
    (2, 2, 1): Fraction(-240),
    (2, 2, 2): Fraction(24),
    (3, 0, 0): Fraction(36),
    (3, 1, 0): Fraction(180),
    (3, 1, 1): Fraction(-20),
    (3, 2, 0): Fraction(72),
    (3, 2, 1): Fraction(-16),
    (4, 0, 0): Fraction(2),
    (4, 1, 0): Fraction(10),
    (4, 2, 0): Fraction(4),
}

# The printed q3 display carries an apparent one-character slip: the third
# displayed group multiplies "t" where every consistent reading needs "r".
# This table is the r-reading.
PRINTED_Q3_R_READING: dict[Key, Fraction] = {
    (0, 0, 0): Fraction(24),
    (0, 1, 0): Fraction(72),
    (0, 1, 1): Fraction(-108),
    (0, 1, 2): Fraction(36),
    (0, 1, 3): Fraction(-3),
    (1, 0, 0): Fraction(26),
    (1, 1, 0): Fraction(78),
    (1, 1, 1): Fraction(-63),
    (1, 1, 2): Fraction(9),
    (2, 0, 0): Fraction(9),
    (2, 1, 0): Fraction(27),
    (2, 1, 1): Fraction(-9),
    (3, 0, 0): Fraction(1),
    (3, 1, 0): Fraction(3),
}

# Each at its template's step and its fit's factorial shift; the note names it.
_PRINTED = {
    ("p", 1): AuxPolynomial("p", 1, 2, 3, PRINTED_P2, ("printed p2",)),
    ("p", 2): AuxPolynomial("p", 2, 2, 6, PRINTED_P4, ("printed p4",)),
    ("q", 1): AuxPolynomial("q", 1, 3, 4, PRINTED_Q3_R_READING, ("printed q3 (r-reading)",)),
}


def printed(family: str, m: int) -> AuxPolynomial:
    """The printed bridge polynomial of `family` ("p" or "q") and m."""
    if (family, m) not in _PRINTED:
        raise DomainError(f"no printed display for {family}, m={m}")
    return _PRINTED[family, m]
