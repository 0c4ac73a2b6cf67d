"""Guarded series summation."""

import math
from itertools import count, cycle

import pytest

from lacunary import DomainError, NonConvergence, SumControl, sum_series


def _exp_terms(x=1.0):
    term = 1.0
    k = 0
    while True:
        yield term
        k += 1
        term *= x / k


def test_exponential_series_converges():
    value, tail = sum_series(_exp_terms(), SumControl(rel_tol=1e-14))
    assert abs(value - math.e) <= 1e-13
    assert tail <= 1e-14 * math.e * 10


def test_all_zero_generator_is_exhausted_sum():
    value, tail = sum_series(iter([0.0, 0.0, 0.0]))
    assert value == 0.0
    assert tail == 0.0


def test_divergent_series_raises():
    def powers_of_two():
        v = 1.0
        while True:
            yield v
            v *= 2.0

    with pytest.raises(NonConvergence):
        sum_series(powers_of_two(), SumControl(max_terms=50))


def test_mittag_leffler_style_series_matches_exp():
    # E_{1,1}(1) is the plain exponential series.
    value, _ = sum_series(_exp_terms(1.0), SumControl(rel_tol=1e-15))
    assert abs(value - math.exp(1.0)) <= 1e-12


def test_stop_rule_needs_consecutive_small_terms():
    # A single small term among large ones must not stop the sum.
    terms = [1.0, 1e-20, 1.0, 1e-20, 1.0]
    value, tail = sum_series(iter(terms), SumControl(max_terms=10))
    assert value == pytest.approx(3.0)
    assert tail == 0.0


def test_spent_budget_raises_even_after_a_small_last_term():
    # One small term is not the stop rule's run of CONSECUTIVE_SMALL; the
    # partial sum 5.0 of a divergent series must not come back as converged.
    with pytest.raises(NonConvergence):
        sum_series(cycle([1.0, 0.0]), SumControl(max_terms=10))


def test_non_finite_term_is_rejected():
    from lacunary import NumericError

    with pytest.raises(NumericError):
        sum_series(iter([1.0, float("inf")]))


def test_sum_shells_groups_by_order():
    # sum over n of x^n/n! via shells reproduces exp.
    def shell(n: int) -> float:
        return 0.5**n / math.factorial(n)

    value, _ = sum_series(map(shell, count()))
    assert abs(value - math.exp(0.5)) <= 1e-13


def test_control_validation():
    for max_terms in (0, 2.5, True):
        with pytest.raises(DomainError):
            SumControl(max_terms=max_terms)
    with pytest.raises(DomainError):
        SumControl(rel_tol=2.0)
    with pytest.raises(DomainError):
        SumControl(rel_tol=math.nan)
    for rel_tol in ("a", None, True, False):
        with pytest.raises(DomainError, match="rel_tol must be a real in"):
            SumControl(rel_tol=rel_tol)
    # A changed copy is checked the same way.
    assert SumControl()._replace(max_terms=5) == SumControl(5)
    with pytest.raises(DomainError):
        SumControl()._replace(max_terms=0)
