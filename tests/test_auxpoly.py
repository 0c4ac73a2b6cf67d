"""Bridge polynomial fitting and comparison with the printed displays."""

import itertools
import math
import operator
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lacunary import DomainError, NoSolution
from lacunary.identities import (
    AuxPolynomial,
    compare_with_printed,
    derive_aux_polynomial,
    satisfies_template,
)
from lacunary.identities import auxpoly, bridges
from lacunary.identities.auxpoly import (
    _TEMPLATES,
    _certified,
    _equations,
    _rref_mod,
    _solve_exact,
)
from lacunary.polys import assoc_laguerre_xpoly

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


def _bareiss(rows, rhs):
    """Reference solver: fraction-free Bareiss elimination of integer rows.

    Each step divides exactly by the previous pivot (Bareiss 1968); the last
    pivot clears every denominator of the back substitution.  Returns
    (solution, n_free) with the free coordinates zero.
    """
    n_unknowns = len(rows[0]) if rows else 0
    mat = [[*row, b] for row, b in zip(rows, rhs)]
    pivot_cols = []
    prev = 1
    for col in range(n_unknowns):
        row_at = len(pivot_cols)
        pivot = next((r for r in range(row_at, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row_at], mat[pivot] = mat[pivot], mat[row_at]
        top = mat[row_at][col:]
        pv = top[0]
        for r in range(row_at + 1, len(mat)):
            f = mat[r][col]
            mat[r][col:] = [
                (pv * v - f * w) // prev for v, w in zip(mat[r][col:], top)
            ]
        prev = pv
        pivot_cols.append(col)
    if any(row[-1] for row in mat[len(pivot_cols) :]):
        raise NoSolution("inconsistent")
    scaled = [0] * n_unknowns
    for row, col in reversed(list(zip(mat, pivot_cols))):
        known = sum(map(operator.mul, row[col + 1 : -1], scaled[col + 1 :]))
        scaled[col] = (prev * row[-1] - known) // row[col]
    return [F(y, prev) for y in scaled], n_unknowns - len(pivot_cols)


def _dot(row, vector):
    return sum((a * b for a, b in zip(row, vector)), F(0))


def _cleared(rows, rhs):
    """Integer rows and right sides: each equation times its denominators' lcm."""
    out_rows, out_rhs = [], []
    for row, b in zip(rows, rhs):
        scale = math.lcm(*(v.denominator for v in (*row, b)))
        out_rows.append([int(v * scale) for v in row])
        out_rhs.append(int(b * scale))
    return out_rows, out_rhs


def _solved(rows, rhs):
    """_solve_exact as (solution, n_free, null basis), in Fractions."""
    (nums, den), basis = _solve_exact(rows, rhs)
    vectors = [[F(v, d) for v in vec] for vec, d in basis]
    return [F(v, den) for v in nums], len(basis), vectors


def _check_null_basis(rows, solution, vectors):
    """Each vector is a kernel vector with 1 at its own free column and 0 at
    every other free column; the solution is 0 at every free column."""
    free = [max(i for i, v in enumerate(vec) if v) for vec in vectors]
    for vec, col in zip(vectors, free):
        assert all(_dot(row, vec) == 0 for row in rows)
        assert [vec[c] for c in free] == [int(c == col) for c in free]
    assert all(solution[c] == 0 for c in free)


_entries = st.builds(F, st.integers(-6, 6), st.integers(1, 7))
_nonzero = st.builds(F, st.integers(1, 6), st.integers(1, 7))


@st.composite
def _systems(draw, entries=_entries):
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
    left = [[draw(entries) for _ in range(rank)] for _ in range(n_rows)]
    right = [[draw(entries) for _ in range(n_cols)] for _ in range(rank)]
    columns = [[f[c] for f in right] for c in range(n_cols)]
    rows = [[_dot(lrow, col) for col in columns] for lrow in left]
    for r in draw(st.sets(st.integers(0, n_rows - 1), max_size=2)):
        rows[r] = [F(0)] * n_cols
    for c in draw(st.sets(st.integers(0, n_cols - 1), max_size=2)):
        for row in rows:
            row[c] = F(0)
    if draw(st.booleans()):
        rows[0][0] = F(0)
    return rows, [draw(entries) for _ in range(n_cols)]


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
    solution, n_free, vectors = _solved(*_cleared(rows, rhs))
    assert (solution, n_free) == want
    assert [_dot(row, want[0]) for row in rows] == rhs
    _check_null_basis(rows, solution, vectors)


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
            _solve_exact(*_cleared(rows, rhs))
    else:
        assume(False)


# Integer entries of up to 80 bits: minors and solutions outgrow one prime.
_big = st.integers(-(2**80), 2**80)


@settings(max_examples=60, deadline=None)
@given(_systems(entries=_big), st.booleans(), st.integers(0, 6), _big)
def test_solve_exact_agrees_with_bareiss(system, perturb, at, delta):
    rows, x0 = system
    rows, x0 = [[int(v) for v in row] for row in rows], [int(v) for v in x0]
    rhs = [sum(map(operator.mul, row, x0)) for row in rows]
    if perturb and rows:
        rhs[at % len(rows)] += delta
    try:
        want = _bareiss(rows, rhs)
    except NoSolution:
        with pytest.raises(NoSolution):
            _solve_exact(rows, rhs)
        return
    solution, n_free, vectors = _solved(rows, rhs)
    assert (solution, n_free) == want
    _check_null_basis(rows, solution, vectors)


@pytest.mark.parametrize("family, m", [("p", 1), ("p", 2), ("q", 1), ("p", 3)])
def test_fit_systems_agree_with_bareiss(family, m):
    tpl = _TEMPLATES[family]
    unknowns = [
        (d, j, a)
        for d in range(tpl.step * m + 1)
        for j in range(m + 1)
        for a in range(tpl.step * j + 1)
    ]
    eqs = list(_equations(m, tpl, tpl.shifts(m)[0], unknowns, range(tpl.step * m + 5)))
    rows, rhs = [e[2] for e in eqs], [e[3] for e in eqs]
    solution, n_free, _ = _solved(rows, rhs)
    assert (solution, n_free) == _bareiss(rows, rhs)
    assert [c for c in solution if c] == list(_derived(family, m).coeffs.values())


def _counting_primes(monkeypatch, first=()):
    """Make _solve_exact draw `first`, then the usual primes; count the draws."""
    drawn = []
    usual = auxpoly._primes

    def primes():
        for p in itertools.chain(first, usual()):
            drawn.append(p)
            yield p

    monkeypatch.setattr(auxpoly, "_primes", primes)
    return drawn


def test_large_solutions_combine_several_primes(monkeypatch):
    drawn = _counting_primes(monkeypatch)
    rows = [
        [3**50 + 1, 2**70, 5**20],
        [7**30, -(2**65) + 3, 11],
        [13**15, 17**12, -(19**10) + 1],
    ]
    x0 = [F(2**100 + 1, 3**40), F(-7, 5**30), F(11**20)]
    rows, rhs = _cleared(rows, [_dot(row, x0) for row in rows])
    want = _bareiss(rows, rhs)
    assert want == (x0, 0)
    assert _solved(rows, rhs)[:2] == want
    assert len(drawn) >= 3


def test_rank_deficient_and_inconsistent_systems():
    rows = [[2, 4, 6, 1], [1, 2, 3, 0], [3, 6, 9, 1], [0, 0, 0, 0]]
    rhs = [3, 1, 4, 0]
    solution, n_free, vectors = _solved(rows, rhs)
    assert (solution, n_free) == _bareiss(rows, rhs)
    assert n_free == 2
    _check_null_basis(rows, solution, vectors)
    rhs[2] += 1
    with pytest.raises(NoSolution):
        _bareiss(rows, rhs)
    with pytest.raises(NoSolution):
        _solve_exact(rows, rhs)


UNLUCKY = 1_000_003  # a prime


def test_unlucky_prime_is_rejected_by_the_certificate(monkeypatch):
    # det = UNLUCKY, so the system has rank 1 modulo UNLUCKY and rank 2 over Q.
    rows, rhs = [[1, 1], [1, 1 + UNLUCKY]], [2, 2 + UNLUCKY]
    pivots, reduced = _rref_mod([[*row, b] for row, b in zip(rows, rhs)], UNLUCKY)
    assert pivots == [0]
    table = [[row[c] for row in reduced] for c in (1, 2)]
    assert _certified([*zip(*rows), rhs], pivots, [1, 2], table, UNLUCKY) is None
    drawn = _counting_primes(monkeypatch, first=(UNLUCKY,))
    assert _solved(rows, rhs)[:2] == _bareiss(rows, rhs) == ([F(1), F(1)], 0)
    assert drawn[0] == UNLUCKY and len(drawn) == 2


def test_certificate_checks_the_solution_and_each_null_vector():
    # x0 + 2 x1 + x2 = 4, 2 x0 + 4 x1 + 3 x2 = 9: pivots 0 and 2, so column 1
    # is the one free direction and column 3 (the right side) the solution.
    rows, rhs = [[1, 2, 1], [2, 4, 3]], [4, 9]
    p = (1 << 61) - 1
    pivots, reduced = _rref_mod([[*row, b] for row, b in zip(rows, rhs)], p)
    assert pivots == [0, 2]
    free = [1, 3]
    table = [[row[c] for row in reduced] for c in free]
    columns = [*zip(*rows), rhs]
    assert _certified(columns, pivots, free, table, p) == (
        ([3, 0, 1], 1),
        [([-2, 1, 0], 1)],
    )
    for c in range(len(free)):  # the free column, then the right-hand column
        moved = [list(residues) for residues in table]
        moved[c][0] += 1
        assert _certified(columns, pivots, free, moved, p) is None
    assert _solve_exact([], []) == (([], 1), [])


@pytest.mark.parametrize(
    "rhs",
    [
        [0, UNLUCKY],  # inconsistent over Q, consistent modulo UNLUCKY
        [0, 1],  # consistent over Q, inconsistent modulo UNLUCKY
    ],
)
def test_unlucky_prime_cannot_decide_consistency(monkeypatch, rhs):
    rows = [[1, 1], [1, 1 + UNLUCKY * (rhs[1] == 1)]]
    drawn = _counting_primes(monkeypatch, first=(UNLUCKY,))
    try:
        want = _bareiss(rows, rhs)
    except NoSolution:
        with pytest.raises(NoSolution):
            _solve_exact(rows, rhs)
    else:
        assert _solved(rows, rhs)[:2] == want
    assert drawn[0] == UNLUCKY and len(drawn) == 2


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


def _evaluate_fraction_loop(poly, r, x, y, t):
    """AuxPolynomial.evaluate as it ran before the float path: Fraction
    products c r^d, rounded where the first float factor enters."""
    total = 0
    for (d, j, a), c in poly.coeffs.items():
        total = total + c * r**d * t**j * x**a * y ** (poly.step * j - a)
    return total


@pytest.mark.parametrize("family, m", [("p", 1), ("p", 2), ("q", 1)])
def test_evaluate_float_path_is_the_fraction_loop_bit_for_bit(family, m):
    # The EQ2.8 and EQ3.4 right sides pass an int r and float x, y, t.  The
    # fitted coefficients are integers; the copy over 7 rounds c r^d too.
    fitted = _derived(family, m)
    sevenths = fitted._replace(coeffs={k: c / 7 for k, c in fitted.coeffs.items()})
    xs, ys, ts = (1.0, 0.6, 1.5, -0.7), (1.0, 0.8, 0.5, -1.3), (0.1, 0.2, 0.12, 0.08)
    for poly in (fitted, sevenths):
        for x, y, t in itertools.product(xs, ys, ts):
            for r in range(0, 120, 7):
                value = poly.evaluate(r, x, y, t)
                want = _evaluate_fraction_loop(poly, r, x, y, t)
                assert type(value) is float and value.hex() == want.hex(), (r, x, y, t)
    poly = sevenths
    # Exact inputs keep the exact path.
    for r, x, y, t in [(4, F(1, 2), F(3), F(-1, 3)), (7, 2, 1, F(1, 5))]:
        value = poly.evaluate(r, x, y, t)
        assert value == _evaluate_fraction_loop(poly, r, x, y, t)
        assert type(value) is Fraction


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
    assert not satisfies_template(candidate._replace(coeffs={}), n_max=6)


def test_m_must_be_an_int():
    for m in (True, 1.0, "1", F(1)):
        with pytest.raises(DomainError):
            derive_aux_polynomial("p", m)


def _g_double_reference(r, u, shift):
    k = r - u
    if k < 0 or r - 2 * k < 0:
        return F(0)
    return F(
        (-2) ** (r - 2 * k),
        math.factorial(r - 2 * k) * math.factorial(k) * math.factorial(r + shift),
    )


def _g_triple_reference(r, u, shift):
    total = F(0)
    for k in range((r - u) // 2 + 1):
        j, i = r - u - 2 * k, 2 * u - r + k
        if j >= 0 and i >= 0:
            total += F(
                (-3) ** i * 3**j * (-1) ** k,
                math.factorial(i) * math.factorial(j) * math.factorial(k),
            )
    return total / math.factorial(r + shift)


@pytest.mark.parametrize(
    "family, m, g", [("p", 1, _g_double_reference), ("p", 2, _g_double_reference),
                     ("q", 1, _g_triple_reference)]
)
def test_integer_rows_are_the_rational_equations_times_n_factorial_w_shift_factorial(
    family, m, g
):
    """Row (n, w) is the rational equation sum r^d s(r, n-j) = [x^w] L / n!
    scaled by n! (w+shift)!, with s(r, k) = sum_u g(r, u) / (k-u)!."""
    tpl = _TEMPLATES[family]
    shift = tpl.shifts(m)[0]
    unknowns = sorted(_derived(family, m).coeffs)
    for n, w, row, rhs in _equations(m, tpl, shift, unknowns, range(9)):
        scale = math.factorial(n) * math.factorial(w + shift)
        poly = assoc_laguerre_xpoly(tpl.step * n, m)
        assert rhs == poly[w] / math.factorial(n) * scale
        for (d, j, a), entry in zip(unknowns, row):
            r, k = w - a, n - j
            s = sum((g(r, u, shift) / math.factorial(k - u) for u in range(k + 1)), F(0))
            assert entry == (r**d * s * scale if r >= 0 else 0), (n, w, d, j, a)


def _free_dirs(poly):
    notes = " ".join(poly.notes)
    found = re.search(r"(\d+) free directions", notes)
    return int(found.group(1)) if found else 0


@pytest.mark.parametrize(
    "family, m, n_free", [("p", 1, 0), ("p", 2, 8), ("q", 1, 0), ("p", 3, 36)]
)
def test_null_basis_is_certified_and_holds_beyond_the_window(family, m, n_free):
    poly = _derived(family, m)
    assert _free_dirs(poly) == len(poly.null_basis) == n_free
    tpl = _TEMPLATES[family]
    n_fit = tpl.step * m + 4
    for vec in poly.null_basis:
        unknowns = sorted(vec)
        den = math.lcm(*(v.denominator for v in vec.values()))
        nums = [int(vec[key] * den) for key in unknowns]
        for n, w, row, _ in _equations(
            m, tpl, poly.factorial_shift, unknowns, range(2 * n_fit)
        ):
            assert sum(map(operator.mul, row, nums)) == 0, (vec, n, w)


def test_printed_p4_minus_derived_lies_in_the_null_span():
    poly = _derived("p", 2)
    diff = {
        key: bridges.PRINTED_P4.get(key, 0) - poly.coeffs.get(key, 0)
        for key in {*bridges.PRINTED_P4, *poly.coeffs}
    }
    assert any(diff.values())
    for vec in poly.null_basis:
        weight = diff.get(max(vec), 0)  # the free coordinate of vec is its last key
        for key, v in vec.items():
            diff[key] = diff.get(key, 0) - weight * v
    assert not any(diff.values())
