"""Bridge polynomial fitting and comparison with the printed displays."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, strategies as st

from lacunary import DomainError, NoSolution
from lacunary.identities import (
    AuxPolynomial,
    compare_with_printed,
    derive_aux_polynomial,
    satisfies_template,
)
from lacunary.identities.auxpoly import _solve_exact

F = Fraction


@lru_cache(maxsize=None)
def _derived(family, m):
    # Each fit builds and eliminates up to 121 exact equations; share them.
    return derive_aux_polynomial(family, m)


def _gauss_jordan(rows, rhs):
    """Reference solver: Gauss-Jordan over Fraction, free coordinates zero."""
    n_unknowns = len(rows[0]) if rows else 0
    mat = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivot_cols = []
    row_at = 0
    for col in range(n_unknowns):
        pivot = next((r for r in range(row_at, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row_at], mat[pivot] = mat[pivot], mat[row_at]
        pv = mat[row_at][col]
        mat[row_at] = [v / pv for v in mat[row_at]]
        for r in range(len(mat)):
            if r != row_at and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [v - factor * w for v, w in zip(mat[r], mat[row_at])]
        pivot_cols.append(col)
        row_at += 1
        if row_at == len(mat):
            break
    for r in range(row_at, len(mat)):
        if mat[r][-1] != 0:
            raise NoSolution("inconsistent")
    solution = [F(0)] * n_unknowns
    for idx, col in enumerate(pivot_cols):
        solution[col] = mat[idx][-1]
    return solution, n_unknowns - len(pivot_cols)


def _dot(row, vector):
    return sum((a * b for a, b in zip(row, vector)), F(0))


_entries = st.builds(F, st.integers(-6, 6), st.integers(1, 7))
_nonzero = st.builds(F, st.integers(1, 6), st.integers(1, 7))


@st.composite
def _systems(draw):
    """(rows, x0): up to 7 x 5 rows of rank <= min(shape), some zeroed.

    A product of a tall and a wide random factor gives rank deficiency.
    Zeroing the top-left entry makes the first pivot a row swap whenever
    another row is nonzero in that column.
    """
    n_rows = draw(st.integers(0, 7))
    if not n_rows:
        return [], []
    n_cols = draw(st.integers(1, 5))
    rank = draw(st.integers(0, min(n_rows, n_cols)))
    left = [[draw(_entries) for _ in range(rank)] for _ in range(n_rows)]
    right = [[draw(_entries) for _ in range(n_cols)] for _ in range(rank)]
    columns = [[f[c] for f in right] for c in range(n_cols)]
    rows = [[_dot(lrow, col) for col in columns] for lrow in left]
    for r in draw(st.sets(st.integers(0, n_rows - 1), max_size=2)):
        rows[r] = [F(0)] * n_cols
    for c in draw(st.sets(st.integers(0, n_cols - 1), max_size=2)):
        for row in rows:
            row[c] = F(0)
    if draw(st.booleans()):
        rows[0][0] = F(0)
    return rows, [draw(_entries) for _ in range(n_cols)]


_SWAP = ([[F(0), F(1)], [F(2), F(3)], [F(4), F(6)]], [F(1, 2), F(-3)])
_ZERO_COLUMN_AND_ROW = ([[F(0), F(1), F(2)], [F(0), F(0), F(0)]], [F(5), F(1), F(1)])


@given(_systems())
@example(([], []))
@example(_SWAP)
@example(_ZERO_COLUMN_AND_ROW)
def test_solve_exact_matches_gauss_jordan_on_consistent_systems(system):
    rows, x0 = system
    rhs = [_dot(row, x0) for row in rows]
    want = _gauss_jordan(rows, rhs)
    assert _solve_exact(rows, rhs) == want
    assert [_dot(row, want[0]) for row in rows] == rhs


@given(_systems(), st.integers(0, 6), _nonzero)
@example(_SWAP, 2, F(1))
@example(_ZERO_COLUMN_AND_ROW, 1, F(-1, 3))
def test_solve_exact_rejects_inconsistent_systems(system, at, delta):
    rows, x0 = system
    assume(rows)
    rhs = [_dot(row, x0) for row in rows]
    rhs[at % len(rows)] += delta
    try:
        _gauss_jordan(rows, rhs)
    except NoSolution:
        with pytest.raises(NoSolution):
            _solve_exact(rows, rhs)
    else:
        assume(False)


# Display for the double-lacunary m = 1 case, keyed (r-power, t-power,
# x-power) with y-power = 2 * t-power - x-power:
#   r^2 (1 + 2ty^2) + r (5 - 4xyt + 10ty^2) + (6 + 12ty^2 - 12xyt + 2tx^2)
P1_DISPLAY = {
    (2, 0, 0): F(1),
    (2, 1, 0): F(2),
    (1, 0, 0): F(5),
    (1, 1, 1): F(-4),
    (1, 1, 0): F(10),
    (0, 0, 0): F(6),
    (0, 1, 0): F(12),
    (0, 1, 1): F(-12),
    (0, 1, 2): F(2),
}


def test_p1_reproduces_display_term_by_term():
    poly = _derived("p", 1)
    assert poly.factorial_shift == 3
    assert poly.step == 2
    assert poly.degree == 2
    assert poly.coeffs == P1_DISPLAY
    verdict, detail = compare_with_printed(poly)
    assert verdict == "exact_match"
    assert "term by term" in detail


def test_p1_evaluate_matches_expanded_form():
    poly = _derived("p", 1)
    for r, x, y, t in [(0, F(1), F(1), F(1)), (3, F(2), F(-1), F(1, 2))]:
        want = (
            r * r * (1 + 2 * t * y * y)
            + r * (5 - 4 * x * y * t + 10 * t * y * y)
            + (6 + 12 * t * y * y - 12 * x * y * t + 2 * t * x * x)
        )
        assert poly.evaluate(r, x, y, t) == want


def test_p1_r_coefficient_slices():
    poly = _derived("p", 1)
    assert poly.r_coefficient(2) == {(0, 0): F(1), (1, 0): F(2)}
    assert poly.r_coefficient(3) == {}


def test_q1_matches_display_up_to_recorded_slip():
    poly = _derived("q", 1)
    assert poly.factorial_shift == 4
    assert poly.step == 3
    assert poly.degree == 3
    assert poly.coeffs[(3, 0, 0)] == F(1)
    assert poly.coeffs[(3, 1, 0)] == F(3)
    verdict, _ = compare_with_printed(poly)
    assert verdict == "exact_match"


def test_p2_differs_from_display_but_induces_same_sums():
    poly = _derived("p", 2)
    assert poly.factorial_shift == 6
    assert poly.degree == 4
    assert satisfies_template(poly)
    verdict, detail = compare_with_printed(poly)
    assert verdict == "same_weighted_sum"
    assert "null combination" in detail


def test_unprinted_case_reports_no_display():
    poly = _derived("p", 3)
    verdict, _ = compare_with_printed(poly)
    assert verdict == "no_printed_display"
    assert satisfies_template(poly, n_max=14)


def test_bad_family_and_order_are_rejected():
    with pytest.raises(DomainError):
        derive_aux_polynomial("z", 1)
    with pytest.raises(DomainError):
        derive_aux_polynomial("p", 0)
    with pytest.raises(DomainError):
        derive_aux_polynomial("q", 2)


def test_corrupted_candidate_fails_template():
    poly = _derived("p", 1)
    broken = dict(poly.coeffs)
    broken[(0, 0, 0)] += 1
    candidate = AuxPolynomial(
        family=poly.family,
        m=poly.m,
        step=poly.step,
        factorial_shift=poly.factorial_shift,
        coeffs=broken,
    )
    assert not satisfies_template(candidate, n_max=6)
