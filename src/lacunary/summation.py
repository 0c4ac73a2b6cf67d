"""Controlled summation of numeric series.

The stop rule is sign-agnostic: a run of CONSECUTIVE_SMALL terms each
satisfying |term| <= rel_tol * |partial sum| ends the sum, so alternating
series with interior zero terms (odd/even lacunary patterns) terminate only
once they are genuinely done.  A multi-index series is summed the same way,
as sum_series over its shells of equal total order.  A SumControl whose
max_terms is not an int >= 1 (a bool is none) or whose rel_tol is not a
real in (0, 1) raises DomainError.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable, NamedTuple

from .errors import DomainError, NonConvergence, NumericError
from .scalars import check_order

CONSECUTIVE_SMALL = 3


class _SumFields(NamedTuple):
    max_terms: int
    rel_tol: float


class SumControl(_SumFields):
    """Term budget and relative stop tolerance; DomainError outside their range."""

    __slots__ = ()

    def __new__(cls, max_terms: int = 400, rel_tol: float = 1e-14) -> SumControl:
        check_order(max_terms, 1)
        if not (isinstance(rel_tol, numbers.Real) and 0.0 < rel_tol < 1.0):
            raise DomainError(f"rel_tol must be a real in (0, 1), got {rel_tol!r}")
        return super().__new__(cls, max_terms, rel_tol)

    @classmethod
    def _make(cls, iterable: Iterable) -> SumControl:
        """Validated like the constructor; `_replace` builds through this."""
        return cls(*iterable)


def _term_magnitude(term: complex | float) -> float:
    mag = abs(term)
    try:
        if math.isfinite(mag):
            return mag
    except OverflowError:
        raise NumericError("series term outside the float range") from None
    raise NumericError(f"non-finite series term: {term!r}")


def sum_series(
    terms: Iterable[complex | float],
    control: SumControl | None = None,
) -> tuple[complex | float, float]:
    """Sum `terms` under `control`; return (value, tail_estimate).

    The tail estimate is the magnitude of the last consumed term.  Raises
    NonConvergence when max_terms is exhausted while the stop rule is unmet.
    """
    ctrl = control or SumControl()
    total: complex | float = 0.0
    last_mag = 0.0
    small_run = 0
    consumed = 0
    for term in terms:
        if consumed >= ctrl.max_terms:
            break
        consumed += 1
        last_mag = _term_magnitude(term)
        total = total + term
        if last_mag <= ctrl.rel_tol * abs(total):
            small_run += 1
            if small_run >= CONSECUTIVE_SMALL:
                return total, last_mag
        else:
            small_run = 0
    else:
        # Generator exhausted before the budget: a finite sum is converged.
        return total, 0.0
    raise NonConvergence(
        f"no convergence after {ctrl.max_terms} terms "
        f"(last |term| = {last_mag:.3e}, |sum| = {abs(total):.3e})"
    )
