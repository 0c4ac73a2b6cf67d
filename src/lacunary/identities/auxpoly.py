"""Fit the bridge polynomials appearing in the double/triple lacunary
closed forms for associated Laguerre sums.

The template being fitted (shown for the double case, at y = 1) is

    sum_n t^n/n! L_{2n}^{(m)}(x)  =  e^t sum_r p(r; x, t) H_r^{(2)}(-2xt, t x^2) / (r! (r+shift)!)

with p polynomial in r.  One rule sizes every template: the sum over
L_{step n}^{(m)} takes r-degree step*m, t-degree m and superscript m, so p
has 2m, m, m and q (triple, m = 1 only) has 3, 1, 1.  Scaling covariance
under (x, y, t) -> (lx, ly, t/l^step) forces every monomial of p to look
like r^d t^j x^a y^(step*j - a) with a <= step*j, so fitting at y = 1 and
re-homogenizing afterwards loses nothing.  The fit matches coefficients of
t^n x^w exactly, one integer equation each, whose entries are one base per
(t-power, x-power) pair times powers of r.  The system is solved modulo
word-size primes: forward elimination on packed rows that shrink as their
columns are done, then back-substitution on the free columns alone.  The
residues are lifted to rationals by Chinese remaindering and rational
reconstruction, and the lift is kept only once exact integer arithmetic
certifies it.  The re-check past the fitting window groups the coefficients
by pair into polynomials in r and builds no rows.  Only `derive-aux` fits;
`verify` evaluates the printed displays in `bridges` and never loads this
module.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from ..errors import DomainError, ExactnessViolation, NoSolution
from ..polys import assoc_laguerre_xpoly
from .bridges import _PRINTED, AuxPolynomial, Key

Vector = tuple[list[int], int]  # (numerators, common denominator)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases: exact for odd 37 < n < 3.3e24."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes() -> Iterator[int]:
    """The primes below 2**61 in descending order, from 2**61 - 1 on."""
    p = (1 << 61) - 1
    while True:
        if _is_prime(p):
            yield p
        p -= 2


def _rref_mod(mat: list[list[int]], p: int) -> tuple[list[int], list[list[int]]]:
    """(pivot columns, reduced rows at the non-pivot columns) of the reduced
    row echelon form over GF(p): the entries that are not 0 or 1 by position.

    Forward elimination in column order packs each row into one integer,
    entry i in bytes [i*size, (i+1)*size), so that a row operation is one
    big-integer multiply-add (Kronecker substitution); once a column is done,
    every row left drops its low slot, so a head is `row & mask` and an
    update touches only the columns to come.  Entries are reduced only when
    a row becomes a pivot: an update adds (p - f) * w < p**2 to an entry, a
    row takes at most one update per pivot, so len(mat) updates fit in the
    size.  A row that is zero modulo p never enters the elimination.
    Back-substitution runs on the free columns alone: reduced row i is pivot
    row i less its entry at each later pivot k times reduced row k, again
    one multiply-add of reduced entries per pivot.
    """
    if not mat:
        return [], []
    width = len(mat[0])
    size = (2 * p.bit_length() + len(mat).bit_length() + 8) // 8
    slot, mask = 8 * size, (1 << 8 * size) - 1
    cuts = [slice(i, i + size) for i in range(0, width * size, size)]
    little = itertools.repeat("little")

    def pack(values: list[int]) -> int:
        raw = b"".join(map(int.to_bytes, values, itertools.repeat(size), little))
        return int.from_bytes(raw, "little")

    def unpack(packed: int, count: int) -> list[int]:
        raw = packed.to_bytes(count * size, "little")
        chunks = map(raw.__getitem__, cuts[:count])
        return list(map(p.__rmod__, map(int.from_bytes, chunks, little)))

    live = [pack(row) for row in ([v % p for v in r] for r in mat) if any(row)]
    tops: list[tuple[int, list[int]]] = []  # (pivot column, pivot row from there on)
    for col in range(width):
        heads = [(row & mask) % p for row in live]
        at = next((i for i, f in enumerate(heads) if f), None)
        if at is not None:
            del heads[at]
            top = unpack(live.pop(at), width - col)
            inv = pow(top[0], -1, p)
            top = [v * inv % p for v in top]
            tops.append((col, top))
            rest = pack(top[1:])
        live = [(row >> slot) + (p - f) * rest if f else row >> slot for row, f in zip(live, heads)]
    free = sorted(set(range(width)).difference(col for col, _ in tops))
    done: list[tuple[int, int]] = []  # (pivot column, packed reduced row)
    reduced: list[list[int]] = []
    for col, top in reversed(tops):
        row = pack([top[c - col] if c > col else 0 for c in free])
        row += sum((p - f) * later for k, later in done if (f := top[k - col]))
        reduced.append(unpack(row, len(free)))
        done.append((col, pack(reduced[-1])))
    return [col for col, _ in tops], reduced[::-1]


def _lift(residues: list[int], modulus: int) -> Vector | None:
    """(nums, den) with nums[i] / den = residues[i] mod modulus, or None.

    Rational reconstruction (Wang 1981): every value is the unique fraction
    with numerator and denominator at most sqrt(modulus / 2) in its residue
    class, if there is one.  A residue is tried over the denominator found
    so far before the extended Euclidean algorithm runs on it.
    """
    half = modulus >> 1
    bound = math.isqrt(half)
    nums: list[int] = []
    den = 1
    for u in residues:
        v = u * den % modulus
        if v > half:
            v -= modulus
        if abs(v) > bound:
            r0, r1, s0, s1 = modulus, u, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if abs(s1) > bound:
                return None
            scale = abs(s1) // math.gcd(den, s1)
            nums = [x * scale for x in nums]
            den *= scale
            v = r1 * (den // s1)
        nums.append(v)
    return nums, den


def _certified(
    columns: list[Sequence[int]],
    pivots: list[int],
    free: list[int],
    table: list[list[int]],
    modulus: int,
) -> tuple[Vector, list[Vector]] | None:
    """The lifted solution and null basis if exact arithmetic confirms them.

    `columns` are those of the augmented rows [A | b].  Free column c, with
    lifted residues nums / den, gives the kernel vector with den at c, -nums
    at the pivots and 0 elsewhere; each must make every augmented row vanish.
    The vector at c = width (the right-hand column) is the solution, read off
    as -vec[:width] / den; the others are the null basis.
    """
    width = len(columns) - 1
    solution, basis = None, []
    for c, residues in zip(free, table):
        lifted = _lift(residues, modulus)
        if lifted is None:
            return None
        nums, den = lifted
        vec = [0] * (width + 1)
        for col, v in zip(pivots, nums):
            vec[col] = -v
        vec[c] = den
        residual = [0] * len(columns[0])
        for v, column in zip(vec, columns):
            if v:
                residual = [r + v * a for r, a in zip(residual, column)]
        if any(residual):
            return None
        if c == width:
            solution = ([-v for v in vec[:width]], den)
        else:
            basis.append((vec[:width], den))
    if solution is None:
        raise NoSolution("template cannot reproduce the series coefficients")
    return solution, basis


def _solve_exact(
    rows: list[list[int]], rhs: list[int]
) -> tuple[Vector, list[Vector]]:
    """(solution, null basis) of a consistent integer system.

    The augmented rows are reduced modulo word-size primes in turn.  A prime
    can only lose rank, so the pivots of a prime with more rank, or with the
    same rank on earlier columns, replace those of every prime before it;
    primes with the same pivots are combined by Chinese remaindering.  The
    non-pivot columns are lifted to rationals and kept only if exact integer
    arithmetic certifies them:

    - the solution, zero off the pivots, satisfies every row;
    - the null vector of each free column (1 there, 0 at every other free
      column) makes every row vanish.

    Pivot columns independent modulo p are independent over Q, and the null
    vectors put every free column in the span of the pivot columns before
    it.  So the pivots are those of exact elimination, the solution is its
    representative with the free coordinates zero, and the null vectors are
    a basis of the kernel.  An inconsistent system raises NoSolution once
    its null basis is certified and the prime put a pivot in the right-hand
    column: the augmented rows then have more rank over Q than the
    coefficients.

    Every minor of the augmented rows is below 2**bits (Hadamard).  A prime
    that loses rank divides one of them, so at most bits / 60 primes do; the
    others share the right pivots, and 2 * bits / 60 + 1 of them make a lift
    that certifies.  Past that many primes the solver gives up, not hangs.
    """
    width = len(rows[0]) if rows else 0
    mat = [[*row, b] for row, b in zip(rows, rhs)]
    columns = [*zip(*rows), rhs]
    bits = sum(max(map(abs, row)).bit_length() + len(row).bit_length() for row in mat)
    best, modulus, table = None, 1, []
    for p in itertools.islice(_primes(), (3 * bits + 2) // 60 + 2):
        pivots, reduced = _rref_mod(mat, p)
        key = (-len(pivots), pivots)
        free = sorted(set(range(width + 1)).difference(pivots))
        if pivots[-1:] == [width]:  # inconsistent modulo p
            pivots, reduced = pivots[:-1], reduced[:-1]
        residues = [[row[i] for row in reduced] for i in range(len(free))]
        if best is None or key < best:
            best, modulus, table = key, p, residues
        elif key == best:
            inv = pow(modulus, -1, p)
            table = [
                [a + modulus * ((b - a) * inv % p) for a, b in zip(old, new)]
                for old, new in zip(table, residues)
            ]
            modulus *= p
        else:
            continue
        found = _certified(columns, pivots, free, table, modulus)
        if found is not None:
            return found
    raise ArithmeticError("no certified solution within the Hadamard bound")


@cache
def _g_double(r: int, u: int) -> int:
    """u! (r+shift)! [t^u x^r] of H_r^{(2)}(-2xt, t x^2) / (r! (r+shift)!) at y = 1."""
    k = r - u
    return (-2) ** (u - k) * math.comb(u, k) if 0 <= k <= u else 0


@cache
def _g_triple(r: int, u: int) -> int:
    """u! (r+shift)! [t^u x^r] of H_r^{(3)}(-3tx, 3tx^2, -t x^3) / (r! (r+shift)!) at y = 1."""
    total = 0
    for k in range(max(0, r - 2 * u), (r - u) // 2 + 1):
        i, j = 2 * u - r + k, r - u - 2 * k
        total += (-3) ** i * 3**j * (-1) ** k * math.comb(u, i) * math.comb(u - i, j)
    return total


@cache
def _s(g: Callable[[int, int], int], r: int, k: int) -> int:
    """k! (r+shift)! s(r, k), where s(r, k) = sum_u [t^u x^r] G_r / (k - u)!."""
    return sum(g(r, u) * math.comb(k, u) for u in range(k + 1))


class _Template(NamedTuple):
    """A lacunary template; r-degree step*m, t-degree m and superscript m follow."""

    step: int
    shifts: Callable[[int], tuple[int, ...]]  # candidate factorial shifts
    g_coeff: Callable[[int, int], int]


_TEMPLATES = {
    "p": _Template(step=2, shifts=lambda m: (3 * m, 2 * m), g_coeff=_g_double),
    "q": _Template(step=3, shifts=lambda m: (3 * m + 1,), g_coeff=_g_triple),
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
    if isinstance(m, bool) or not isinstance(m, int):
        raise DomainError(f"m must be an int, not {type(m).__name__}")
    if m < 1 or (family == "q" and m != 1):
        raise DomainError("m must be >= 1 ('q' supports only m = 1)")
    tpl = _TEMPLATES[family]
    step = tpl.step
    unknowns: list[Key] = [
        (d, j, a)
        for d in range(step * m + 1)
        for j in range(m + 1)
        for a in range(step * j + 1)
    ]
    notes: list[str] = []
    last_err: NoSolution | None = None
    for shift in tpl.shifts(m):
        try:
            coeffs, null_basis = _fit(m, tpl, shift, unknowns)
        except NoSolution as err:
            last_err = err
            notes.append(f"factorial shift {shift} failed: {err}")
            continue
        if shift != tpl.shifts(m)[0]:
            notes.append(f"primary factorial shift failed; using (r+{shift})!")
        if null_basis:
            notes.append(
                f"solution space has {len(null_basis)} free directions; "
                "representative with free coordinates zeroed"
            )
        return AuxPolynomial(
            family=family,
            m=m,
            step=step,
            factorial_shift=shift,
            coeffs=coeffs,
            notes=tuple(notes),
            null_basis=null_basis,
        )
    raise last_err if last_err is not None else NoSolution("no candidate shift")


def _bases(
    m: int, tpl: _Template, shift: int, pairs: list[tuple[int, int]], n_values: Iterable[int]
) -> Iterator[tuple[int, int, list[int], int]]:
    """Yield (n, w, bases, rhs): one integer equation per matched [t^n x^w] coefficient.

    The matched coefficient reads sum over unknowns (d, j, a) of
    r^d s(r, n - j) = [x^w] L_{step n}^{(m)}(x) / n!, with r = w - a and
    s(r, k) = sum_u g(r, u, shift) / (k - u)!.  Times n! (w+shift)!, the
    unknown (d, j, a) takes r^d times the base S(r, k) n!/k! (w+shift)!/(r+shift)!
    of its pair (j, a), with S = k! (r+shift)! s from `_s`, an integer by
    construction, and 0 where a > w or j > n; bases[i] is that of pairs[i].
    The right side is checked to be an integer.
    """
    step, g = tpl.step, tpl.g_coeff
    max_j, max_a = map(max, zip((0, 0), *pairs))
    for n in n_values:
        poly = assoc_laguerre_xpoly(step * n, m)
        by_j = [math.perm(n, j) for j in range(max_j + 1)]  # n!/(n-j)!, 0 past n
        for w in range(step * n + 1):
            rhs, rem = divmod(
                poly[w].numerator * math.factorial(w + shift), poly[w].denominator
            )
            if rem:
                raise ExactnessViolation(
                    f"[x^{w}] L_{step * n}^({m}) times {w + shift}! is not an integer"
                )
            by_a = [math.perm(w + shift, a) for a in range(min(w, max_a) + 1)]
            bases = [
                _s(g, w - a, n - j) * by_j[j] * by_a[a] if a <= w and j <= n else 0
                for j, a in pairs
            ]
            yield n, w, bases, rhs


def _equations(
    m: int, tpl: _Template, shift: int, unknowns: list[Key], n_values: Iterable[int]
) -> Iterator[tuple[int, int, list[int], int]]:
    """Yield (n, w, row, rhs), the row holding the entry r^d base(j, a) of each
    unknown in turn, read off one table per (n, w): the bases times r^0, r^1, ..."""
    pairs = sorted({(j, a) for _, j, a in unknowns})
    index = {pair: i for i, pair in enumerate(pairs)}
    where = [d * len(pairs) + index[j, a] for d, j, a in unknowns]
    max_d = max((d for d, _, _ in unknowns), default=0)
    for n, w, bases, rhs in _bases(m, tpl, shift, pairs, n_values):
        rs = [w - a for _, a in pairs]
        table, level = list(bases), bases
        for _ in range(max_d):
            level = list(map(operator.mul, level, rs))
            table += level
        yield n, w, list(map(table.__getitem__, where)), rhs


def _first_miss(
    m: int, tpl: _Template, shift: int, coeffs: dict[Key, Fraction], orders: range
) -> tuple[int, int] | None:
    """(n, w) of the first [t^n x^w] equation over `orders` that coeffs fail, or None.

    The coefficients are grouped by (j, a) into integer polynomials in r,
    each tabulated once at every r the orders reach; an equation sums its
    bases times their polynomials at r = w - a, and no row is built.
    """
    den = math.lcm(*(v.denominator for v in coeffs.values()))
    grouped: dict[tuple[int, int], list[int]] = {}  # highest power of r first
    for (d, j, a), v in sorted(coeffs.items(), reverse=True):
        poly = grouped.setdefault((j, a), [0] * (d + 1))
        poly[-1 - d] += v.numerator * (den // v.denominator)
    pairs, rs = sorted(grouped), range(tpl.step * max(orders, default=0) + 1)
    at_r = []
    for pair in pairs:
        values = [0] * len(rs)
        for c in grouped[pair]:
            values = [v * r + c for v, r in zip(values, rs)]
        at_r.append(values)
    for n, w, bases, rhs in _bases(m, tpl, shift, pairs, orders):
        total = sum(b * values[w - a] for b, (_, a), values in zip(bases, pairs, at_r) if b)
        if total != rhs * den:
            return n, w
    return None


def _fit(
    m: int, tpl: _Template, shift: int, unknowns: list[Key]
) -> tuple[dict[Key, Fraction], tuple[dict[Key, Fraction], ...]]:
    n_fit = tpl.step * m + 4
    eqs = list(_equations(m, tpl, shift, unknowns, range(n_fit + 1)))
    (nums, den), basis = _solve_exact([e[2] for e in eqs], [e[3] for e in eqs])
    coeffs = {key: Fraction(v, den) for key, v in zip(unknowns, nums) if v}
    # Confirm on the n_fit - 1 orders after the fitting window, over the
    # nonzero coordinates only.  A failure with free directions would mean
    # the window was too small to pin a genuine null direction, so the
    # message calls that out.
    miss = _first_miss(m, tpl, shift, coeffs, range(n_fit + 1, 2 * n_fit))
    if miss is not None:
        n, w = miss
        hint = f" ({len(basis)} free directions left unpinned)" if basis else ""
        raise NoSolution(
            f"fit breaks at series order {n} (coefficient of x^{w}){hint}"
        )
    null_basis = tuple(
        {key: Fraction(v, d) for key, v in zip(unknowns, vec) if v} for vec, d in basis
    )
    return coeffs, null_basis


def satisfies_template(candidate: AuxPolynomial, n_max: int | None = None) -> bool:
    """True when the candidate reproduces every matched series coefficient.

    Checks the same exact [t^n x^w] equations the fit uses, for all orders
    n <= n_max.  Two polynomials that both satisfy them differ by a null
    combination of the weight recurrences and induce identical sums.
    """
    m, tpl = candidate.m, _TEMPLATES[candidate.family]
    orders = range((2 * tpl.step * m + 7 if n_max is None else n_max) + 1)
    return _first_miss(m, tpl, candidate.factorial_shift, candidate.coeffs, orders) is None


def compare_with_printed(derived: AuxPolynomial) -> tuple[str, str]:
    """(verdict, detail) against the printed display for this family/m.

    "exact_match" means term-by-term equality.  "same_weighted_sum" means the
    displays differ as polynomials but both satisfy the defining equations,
    so they are interchangeable inside the closed form.  "deviation" means
    the printed display fails the equations the derived one satisfies.
    """
    display = _PRINTED.get((derived.family, derived.m))
    if display is None:
        return "no_printed_display", f"no display to compare for {derived.family}, m={derived.m}"
    printed, label = display.coeffs, display.notes[0]
    if derived.coeffs == printed:
        return "exact_match", f"derived coefficients match {label} term by term"
    if satisfies_template(derived._replace(coeffs=printed)):
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
