"""Fit the bridge polynomials appearing in the double/triple lacunary
closed forms for associated Laguerre sums.

The template being fitted (shown for the double case, at y = 1) is

    sum_n t^n/n! L_{2n}^{(m)}(x)  =  e^t sum_r p(r; x, t) H_r^{(2)}(-2xt, t x^2) / (r! (r+shift)!)

with p polynomial of degree 2m in r.  Scaling covariance under
(x, y, t) -> (lx, ly, t/l^step) forces every monomial of p to look like
r^d t^j x^a y^(step*j - a) with a <= step*j, so fitting at y = 1 and
re-homogenizing afterwards loses nothing.  The fit matches coefficients of
t^n x^w exactly: a small dense rational system, solved by integer Bareiss
elimination and a rational back substitution.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Iterator

from ..errors import DomainError, NoSolution
from ..polys import assoc_laguerre_xpoly

Key = tuple[int, int, int]  # (r-power d, t-power j, x-power a); y-power = step*j - a


@dataclass(frozen=True)
class AuxPolynomial:
    """Polynomial in r with (t, x, y)-monomial coefficients."""

    family: str
    m: int
    step: int
    factorial_shift: int
    coeffs: dict[Key, Fraction]
    notes: tuple[str, ...] = ()

    @property
    def degree(self) -> int:
        return max((d for (d, _, _) in self.coeffs), default=0)

    def evaluate(self, r, x, y, t):
        total = 0
        for (d, j, a), c in self.coeffs.items():
            total = total + c * r**d * t**j * x**a * y ** (self.step * j - a)
        return total

    def r_coefficient(self, d: int) -> dict[tuple[int, int], Fraction]:
        """{(t-power, x-power): coefficient} of r^d (y-power implied)."""
        return {(j, a): c for (dd, j, a), c in self.coeffs.items() if dd == d}


def _cleared(values: list[Fraction]) -> tuple[list[int], int]:
    """(values * scale, scale) with scale the lcm of their denominators."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _first_miss(
    equations: Iterable[tuple[int, int, list[Fraction], Fraction]],
    vector: list[Fraction],
) -> tuple[int, int] | None:
    """(n, w) of the first equation row . vector = rhs that fails, or None."""
    ints, scale = _cleared(vector)
    for n, w, row, b in equations:
        *coeffs, rhs = _cleared([*row, b])[0]
        if sum(map(operator.mul, coeffs, ints)) != rhs * scale:
            return n, w
    return None


def _solve_exact(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction], int]:
    """Particular solution of a consistent rational system.

    Bareiss elimination (Bareiss 1968) of the equations cleared to integers:
    each step divides exactly by the previous pivot, so no fractions arise
    before the back substitution.  Non-pivot coordinates are set to zero, as
    in the reduced row echelon form.  Returns (solution, n_free) where n_free
    counts the unpinned coordinates; inconsistency raises NoSolution.
    """
    n_unknowns = len(rows[0]) if rows else 0
    mat = [_cleared([*row, b])[0] for row, b in zip(rows, rhs)]
    pivot_cols: list[int] = []
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
        raise NoSolution("template cannot reproduce the series coefficients")
    # The last pivot, the determinant of the pivot block, clears every
    # denominator of the solution (Cramer), so back-substitute prev * x.
    scaled = [0] * n_unknowns
    for row, col in reversed(list(zip(mat, pivot_cols))):
        known = sum(map(operator.mul, row[col + 1 : -1], scaled[col + 1 :]))
        scaled[col] = (prev * row[-1] - known) // row[col]
    return [Fraction(y, prev) for y in scaled], n_unknowns - len(pivot_cols)


@cache
def _g_coeff_double(r: int, u: int, shift: int) -> Fraction:
    """[t^u x^r] of H_r^{(2)}(-2xt, t x^2) / (r! (r+shift)!) at y = 1."""
    k = r - u
    if k < 0 or r - 2 * k < 0:
        return Fraction(0)
    return Fraction(
        (-2) ** (r - 2 * k),
        math.factorial(r - 2 * k) * math.factorial(k) * math.factorial(r + shift),
    )


@cache
def _g_coeff_triple(r: int, u: int, shift: int) -> Fraction:
    """[t^u x^r] of H_r^{(3)}(-3tx, 3tx^2, -t x^3) / (r! (r+shift)!) at y = 1."""
    total = Fraction(0)
    for k in range((r - u) // 2 + 1):
        j = r - u - 2 * k
        i = 2 * u - r + k
        if j < 0 or i < 0:
            continue
        total += Fraction(
            (-3) ** i * 3**j * (-1) ** k,
            math.factorial(i) * math.factorial(j) * math.factorial(k),
        )
    return total / math.factorial(r + shift)


@dataclass(frozen=True)
class _Template:
    step: int
    lag_superscript: Callable[[int], int]  # m -> superscript of L in the sum
    r_degree: Callable[[int], int]
    t_degree: Callable[[int], int]
    shifts: Callable[[int], tuple[int, ...]]  # candidate factorial shifts
    g_coeff: Callable[[int, int, int], Fraction]


_TEMPLATES = {
    "p": _Template(
        step=2,
        lag_superscript=lambda m: m,
        r_degree=lambda m: 2 * m,
        t_degree=lambda m: m,
        shifts=lambda m: (3 * m, 2 * m),
        g_coeff=_g_coeff_double,
    ),
    "q": _Template(
        step=3,
        lag_superscript=lambda m: 1,
        r_degree=lambda m: 3,
        t_degree=lambda m: 1,
        shifts=lambda m: (3 * m + 1,),
        g_coeff=_g_coeff_triple,
    ),
}


def derive_aux_polynomial(family: str, m: int) -> AuxPolynomial:
    """Fit the degree-bounded bridge polynomial for the given family.

    family "p": double-lacunary template for L_{2n}^{(m)}, any m >= 1.
    family "q": triple-lacunary template for L_{3n}^{(1)}; m must be 1.

    The solved coefficients are re-verified on extra series orders beyond the
    fitting window; failure there means the template itself is wrong, not the
    solve, and is raised as NoSolution.
    """
    if family not in _TEMPLATES:
        raise DomainError("family must be 'p' or 'q'")
    if m < 1 or (family == "q" and m != 1):
        raise DomainError("m must be >= 1 ('q' supports only m = 1)")
    tpl = _TEMPLATES[family]
    degree = tpl.r_degree(m)
    t_deg = tpl.t_degree(m)
    step = tpl.step
    unknowns: list[Key] = [
        (d, j, a)
        for d in range(degree + 1)
        for j in range(t_deg + 1)
        for a in range(step * j + 1)
    ]
    notes: list[str] = []
    last_err: NoSolution | None = None
    for shift in tpl.shifts(m):
        try:
            coeffs, n_free = _fit(m, tpl, shift, unknowns)
        except NoSolution as err:
            last_err = err
            notes.append(f"factorial shift {shift} failed: {err}")
            continue
        if shift != tpl.shifts(m)[0]:
            notes.append(f"primary factorial shift failed; using (r+{shift})!")
        if n_free:
            notes.append(
                f"solution space has {n_free} free directions; "
                "representative with free coordinates zeroed"
            )
        return AuxPolynomial(
            family=family,
            m=m,
            step=step,
            factorial_shift=shift,
            coeffs=coeffs,
            notes=tuple(notes),
        )
    raise last_err if last_err is not None else NoSolution("no candidate shift")


def _equations(
    m: int,
    tpl: _Template,
    shift: int,
    unknowns: list[Key],
    n_values: Iterable[int],
) -> Iterator[tuple[int, int, list[Fraction], Fraction]]:
    """Yield (n, w, row, rhs): one equation per matched [t^n x^w] coefficient.

    The entry for unknown (d, j, a) is r^d * s(r, n - j) with r = w - a and
    s(r, k) = sum_u g(r, u, shift) / (k - u)!, summed once per (r, k).
    """
    step, g = tpl.step, tpl.g_coeff
    sup = tpl.lag_superscript(m)
    max_d = max((d for d, _, _ in unknowns), default=0)
    entries: dict[tuple[int, int], list[Fraction]] = {}

    def powers(r: int, k: int) -> list[Fraction]:
        if (r, k) not in entries:
            terms = (g(r, u, shift) / math.factorial(k - u) for u in range(k + 1))
            s = sum(terms, Fraction(0))
            entries[r, k] = [r**d * s for d in range(max_d + 1)]
        return entries[r, k]

    for n in n_values:
        poly = assoc_laguerre_xpoly(step * n, sup)
        n_fact = math.factorial(n)
        for w in range(step * n + 1):
            row = [
                powers(r, n - j)[d] if (r := w - a) >= 0 else Fraction(0)
                for (d, j, a) in unknowns
            ]
            yield n, w, row, Fraction(poly[w]) / n_fact


def _fit(
    m: int, tpl: _Template, shift: int, unknowns: list[Key]
) -> tuple[dict[Key, Fraction], int]:
    n_fit = tpl.r_degree(m) + 4
    eqs = list(_equations(m, tpl, shift, unknowns, range(n_fit + 1)))
    solution, n_free = _solve_exact([e[2] for e in eqs], [e[3] for e in eqs])
    coeffs = {key: val for key, val in zip(unknowns, solution) if val != 0}
    # Confirm on the n_fit - 1 orders after the fitting window.  A failure with
    # n_free > 0 would mean the window was too small to pin a genuine
    # null direction, so the message calls that out.
    extra_orders = range(n_fit + 1, 2 * n_fit)
    miss = _first_miss(_equations(m, tpl, shift, unknowns, extra_orders), solution)
    if miss is not None:
        n, w = miss
        hint = f" ({n_free} free directions left unpinned)" if n_free else ""
        raise NoSolution(
            f"fit breaks at series order {n} (coefficient of x^{w}){hint}"
        )
    return coeffs, n_free


# Bridge polynomials as printed in the source displays, in the same
# (r-power, t-power, x-power) key convention (y-power = step*j - a).

PRINTED_P2: dict[Key, Fraction] = {
    (2, 0, 0): Fraction(1),
    (2, 1, 0): Fraction(2),
    (1, 0, 0): Fraction(5),
    (1, 1, 1): Fraction(-4),
    (1, 1, 0): Fraction(10),
    (0, 0, 0): Fraction(6),
    (0, 1, 0): Fraction(12),
    (0, 1, 1): Fraction(-12),
    (0, 1, 2): Fraction(2),
}

PRINTED_P4: dict[Key, Fraction] = {
    (4, 0, 0): Fraction(2),
    (4, 1, 0): Fraction(10),
    (4, 2, 0): Fraction(4),
    (3, 0, 0): Fraction(36),
    (3, 1, 0): Fraction(180),
    (3, 1, 1): Fraction(-20),
    (3, 2, 0): Fraction(72),
    (3, 2, 1): Fraction(-16),
    (2, 0, 0): Fraction(238),
    (2, 1, 2): Fraction(10),
    (2, 1, 0): Fraction(1190),
    (2, 1, 1): Fraction(-300),
    (2, 2, 1): Fraction(-240),
    (2, 2, 2): Fraction(24),
    (2, 2, 0): Fraction(476),
    (1, 0, 0): Fraction(684),
    (1, 1, 2): Fraction(110),
    (1, 1, 1): Fraction(-1480),
    (1, 1, 0): Fraction(3420),
    (1, 2, 1): Fraction(-1184),
    (1, 2, 2): Fraction(264),
    (1, 2, 3): Fraction(-16),
    (1, 2, 0): Fraction(1368),
    (0, 0, 0): Fraction(720),
    (0, 1, 1): Fraction(-2400),
    (0, 1, 0): Fraction(3600),
    (0, 1, 2): Fraction(300),
    (0, 2, 1): Fraction(-1920),
    (0, 2, 3): Fraction(-96),
    (0, 2, 2): Fraction(720),
    (0, 2, 0): Fraction(1440),
    (0, 2, 4): Fraction(4),
}

# The printed q3 display carries an apparent one-character slip: the third
# displayed group multiplies "t" where every consistent reading needs "r".
# This table is the r-reading.
PRINTED_Q3_R_READING: dict[Key, Fraction] = {
    (3, 0, 0): Fraction(1),
    (3, 1, 0): Fraction(3),
    (2, 0, 0): Fraction(9),
    (2, 1, 0): Fraction(27),
    (2, 1, 1): Fraction(-9),
    (1, 0, 0): Fraction(26),
    (1, 1, 0): Fraction(78),
    (1, 1, 1): Fraction(-63),
    (1, 1, 2): Fraction(9),
    (0, 0, 0): Fraction(24),
    (0, 1, 0): Fraction(72),
    (0, 1, 1): Fraction(-108),
    (0, 1, 2): Fraction(36),
    (0, 1, 3): Fraction(-3),
}


def satisfies_template(candidate: AuxPolynomial, n_max: int | None = None) -> bool:
    """True when the candidate reproduces every matched series coefficient.

    Checks the same exact [t^n x^w] equations the fit uses, for all orders
    n <= n_max.  Two polynomials that both satisfy them differ by a null
    combination of the weight recurrences and induce identical sums.
    """
    tpl = _TEMPLATES[candidate.family]
    if n_max is None:
        n_max = 2 * tpl.r_degree(candidate.m) + 7
    unknowns = sorted(candidate.coeffs)
    vector = [candidate.coeffs[key] for key in unknowns]
    eqs = _equations(
        candidate.m, tpl, candidate.factorial_shift, unknowns, range(n_max + 1)
    )
    return _first_miss(eqs, vector) is None


def compare_with_printed(derived: AuxPolynomial) -> tuple[str, str]:
    """(verdict, detail) against the printed display for this family/m.

    "exact_match" means term-by-term equality.  "same_weighted_sum" means the
    displays differ as polynomials but both satisfy the defining equations,
    so they are interchangeable inside the closed form.  "deviation" means
    the printed display fails the equations the derived one satisfies.
    """
    printed: dict[Key, Fraction] | None
    label: str
    if derived.family == "p" and derived.m == 1:
        printed, label = PRINTED_P2, "printed p2"
    elif derived.family == "p" and derived.m == 2:
        printed, label = PRINTED_P4, "printed p4"
    elif derived.family == "q" and derived.m == 1:
        printed, label = PRINTED_Q3_R_READING, "printed q3 (r-reading)"
    else:
        return "no_printed_display", f"no display to compare for {derived.family}, m={derived.m}"
    if derived.coeffs == printed:
        return "exact_match", f"derived coefficients match {label} term by term"
    if satisfies_template(replace(derived, coeffs=printed)):
        return (
            "same_weighted_sum",
            f"derived differs from {label} by a null combination of the "
            "weight recurrences; both induce the same sums",
        )
    missing = sorted(set(printed) - set(derived.coeffs))
    extra = sorted(set(derived.coeffs) - set(printed))
    changed = sorted(
        k for k in set(printed) & set(derived.coeffs) if printed[k] != derived.coeffs[k]
    )
    return (
        "deviation",
        f"derived differs from {label}: missing={missing} extra={extra} changed={changed}",
    )
