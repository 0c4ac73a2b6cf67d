"""Polynomial families: two-variable Laguerre, Gamma-weighted variants and
higher-order Hermite.

The row kernels (`laguerre_sequence`, `assoc_laguerre_sequence`,
`lambda_sequence`, `assoc_laguerre_diagonal`) serve both verification modes
by one rule: exact when every input is exact, float otherwise; the last two
take the index step of a lacunary sum and return only the rows it reads.  Exact
rows run on int numerators over one known denominator per row (a factorial
times powers of the input denominators) and make one Fraction per value.  A
float weight of an int ratio is one int true division, correctly rounded and
so the float of the exact Fraction.  The per-index `lambda_poly` and
`assoc_laguerre` are the definitional reference (`laguerre` is the latter at
offset 0); `assoc_laguerre` also serves the right sides that expand over
L_s^(s+a).

The Hermite values come on demand: `hermite_coeffs` and `hermite_h_values`
are iterators, so a series that stops after a few terms builds only those,
and the list kernels `hermite_coeff_sequence` and `hermite_h_sequence` are
their prefixes.

The Laguerre-family and Hermite kernels never return or yield inf or NaN
from a float path: when such a value is not finite, from an infinite or NaN
input or from overflow, they raise NumericError instead.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import DomainError, ExactnessViolation, NumericError
from .scalars import Scalar, ensure_finite, is_exact, rgamma, rgamma_exact


def _gamma_weight(arg: Scalar):
    """rgamma dispatch: exact for integral arguments, floating otherwise."""
    if is_exact(arg) and arg.denominator == 1:
        return rgamma_exact(arg.numerator)
    return rgamma(arg)


def laguerre(n: int, x: Scalar, y: Scalar = 1):
    """Two-variable Laguerre L_n(x, y) = n! sum (-x)^r y^(n-r) / ((r!)^2 (n-r)!),
    the associated sum at offset 0."""
    return assoc_laguerre(n, 0, x, y)


def _integral(value: Scalar, name: str) -> int:
    """The int of an integral int or Fraction; ExactnessViolation otherwise."""
    if value.denominator != 1:
        raise ExactnessViolation(f"exact Gamma weights need an integer {name}, got {value}")
    return value.numerator


def lambda_poly(n: int, alpha: Scalar, beta: Scalar, x: Scalar, y: Scalar = 1):
    """Gamma-weighted companion polynomial

        n! sum_r (-x)^r y^(n-r) / (r! (n-r)! Gamma(beta r + 1 + alpha)).

    Equals the vacuum reduction of c^alpha (y - c^beta x)^n.  Exact when
    every input is exact; then alpha and beta must be integers, else
    ExactnessViolation.  A float sum that is not finite raises NumericError.
    """
    if n < 0:
        raise DomainError("degree must be >= 0")
    if all(map(is_exact, (alpha, beta, x, y))):
        alpha, beta = _integral(alpha, "alpha"), _integral(beta, "beta")
    total = 0
    try:
        for r in range(n + 1):
            w = Fraction(math.factorial(n), math.factorial(r) * math.factorial(n - r))
            g = _gamma_weight(beta * r + 1 + alpha)
            total = total + w * g * (-x) ** r * y ** (n - r)
    except OverflowError as exc:
        raise NumericError(f"float lambda_poly of degree {n} overflows: {exc}") from exc
    return ensure_finite(total, f"float lambda_poly of degree {n}")


def lambda_sequence(
    nmax: int, alpha: Scalar, beta: Scalar, x: Scalar, y: Scalar = 1, step: int = 1
) -> list:
    """[lambda_poly(n, alpha, beta, x, y) for n = 0, step, 2 step, ... <= nmax]:
    exact when every input is exact (integer alpha and beta), float otherwise.

    Every path computes one Gamma weight g_r per r.  With x = p/q, y = r/s
    and F = (max_r (beta r + alpha))!, an exact row is

        sum_r C(n,r) (F / (beta r + alpha)!) (-p s)^r (q r)^(n-r) / (F (q s)^n),

    summed on ints over Pascal's rows, a term with beta r + alpha < 0 being
    0; the factorials come from one running product.  A float row is the
    binomial transform of a_r = g_r (-x)^r: one table whose level n + 1 is
    b_j <- y b_j + b_(j+1) of level n, starting at b = a, gives row n as b_0
    at level n, and a lacunary sum reads every step-th level; past the last
    nonzero a_r every level stays zero, so the table stops there.  With int
    alpha and beta, g_r = 1/(beta r + alpha)! is one int true division,
    correctly rounded, and 0.0 at a pole; otherwise it is the float of
    _gamma_weight, exact for an integral Fraction argument.  Each term
    of a float row passes at most 2n + 3 roundings, so with u = 2^-53 and
    M_n = sum_r C(n,r) |g_r| |x|^r |y|^(n-r), a row is within (2n + 4) u M_n
    of the exact sum of its weights (outside underflow): a kept entry sees
    the same operations, and a dropped one is an exact zero (only the sign
    of a zero row can differ).  A float row that is not finite raises
    NumericError.
    """
    if nmax < 0:
        raise DomainError("degree must be >= 0")
    if step < 1:
        raise DomainError("step must be >= 1")
    nmax -= nmax % step
    if all(map(is_exact, (alpha, beta, x, y))):
        alpha, beta = _integral(alpha, "alpha"), _integral(beta, "beta")
        args = [beta * r + alpha for r in range(nmax + 1)]
        fact = _factorials(args)
        top = fact[max(0, *args)]
        weights = [top // fact[a] if a >= 0 else 0 for a in args]
        ps, qs = -x.numerator * y.denominator, x.denominator * y.denominator
        scaled = list(map(operator.mul, weights, _powers(ps, nmax)))
        powy = _powers(x.denominator * y.numerator, nmax)
        rows = _pascal_rows(nmax, step)
        return [Fraction(_row_dot(row, scaled, powy), top * qs**n) for n, row in rows]
    if isinstance(alpha, int) and isinstance(beta, int):
        args = [beta * r + alpha for r in range(nmax + 1)]
        fact = _factorials(args)
        weights = [1 / fact[a] if a >= 0 else 0.0 for a in args]
    else:
        weights = [float(_gamma_weight(beta * r + 1 + alpha)) for r in range(nmax + 1)]
    try:
        b = [g * (-x) ** r for r, g in enumerate(weights)]
        while len(b) > 1 and not b[-1]:
            b.pop()
        out = [b[0]]
        for n in range(1, nmax + 1):  # level n holds min(support, nmax + 1 - n) entries
            b = [y * u + v for u, v in zip(b[: nmax + 1 - n], [*b[1:], 0.0])]
            if n % step == 0:
                out.append(b[0])
        return _finite(out, f"float lambda rows to degree {nmax}")
    except OverflowError as exc:
        raise NumericError(f"float lambda rows to degree {nmax} overflow: {exc}") from exc


def _factorials(args: list[int]) -> dict[int, int]:
    """{a: a!} for every a >= 0 in args and for max(0, *args), read off one
    running product 0!, 1!, ... (one multiply per factorial)."""
    top = max(0, *args)
    wanted = {top, *args}
    prods = itertools.accumulate(range(1, top + 1), operator.mul, initial=1)
    return {k: f for k, f in enumerate(prods) if k in wanted}


def _pascal_rows(nmax: int, step: int):
    """(n, int row C(n, .)) for n = 0, step, 2 step, ... <= nmax, by Pascal's rule."""
    row = [1]
    for n in range(nmax + 1):
        if n:
            row = [1, *map(operator.add, row, row[1:]), 1]
        if n % step == 0:
            yield n, row


def _powers(base: int, nmax: int) -> list[int]:
    """[base^0, ..., base^nmax] (0^0 = 1)."""
    return [1, *itertools.accumulate(itertools.repeat(base, nmax), operator.mul)]


def _finite(values: list, what: str) -> list:
    """`values`, or NumericError when one of them is inf or NaN (v - v is 0
    exactly when v is finite, for a complex v too)."""
    if all(v - v == 0 for v in values):
        return values
    raise NumericError(f"non-finite value in {what}")


def _row_dot(row: list[int], left: list[int], right: list[int]) -> int:
    """sum_r row[r] left[r] right[n - r], for the Pascal row of index n."""
    return sum(map(operator.mul, map(operator.mul, row, left), reversed(right[: len(row)])))


def assoc_laguerre_diagonal(
    kmax: int, alpha: Scalar, x: Scalar, y: Scalar = 1, step: int = 1
) -> list:
    """[L_k^(alpha-k)(x, y) for k = 0, step, 2 step, ... <= kmax], the
    coefficients of (1 + y t)^alpha e^(-x t), as the Cauchy product of
    b_m = C(alpha, m) y^m and e_r = (-x)^r / r!, each by its ratio.  The
    factor tables run through every index; only the coefficients a
    lacunary sum reads (k a multiple of step) are summed, each over the
    support of both tables alone (a binomial that terminates at an integer
    alpha, an e_r that is zero at x = 0 or underflows): the products left
    out are exact zeros, which add nothing to the same float sum.

    This regroups assoc_laguerre(k, alpha - k, x, y): exact values when
    every input is exact, floats otherwise.  The per-k assoc_laguerre with
    a float alpha overflows its product and underflows its weights from
    k = 173 up; both factors here stay finite on finite inputs, and a float
    row that is not finite raises NumericError.  With x = p/q, y = r/s and
    alpha = u/v, exact inputs scale b_m m! (v s)^m = prod_{j<m} (u - j v) r^m
    and e_r r! q^r = (-p)^r to ints over the common k! q^k (v s)^k.
    """
    if kmax < 0:
        raise DomainError("degree must be >= 0")
    if step < 1:
        raise DomainError("step must be >= 1")
    kmax -= kmax % step
    if is_exact(alpha) and is_exact(x) and is_exact(y):
        u, v = alpha.numerator, alpha.denominator
        q, vs = x.denominator, v * y.denominator
        rq, falling = y.numerator * q, [1]
        for m in range(kmax):
            falling.append(falling[m] * (u - m * v) * rq)
        pows = _powers(-x.numerator * vs, kmax)
        return [
            Fraction(_row_dot(row, pows, falling), math.factorial(k) * (q * vs) ** k)
            for k, row in _pascal_rows(kmax, step)
        ]
    b, e = [1.0], [1.0]
    for m in range(kmax):
        b.append(b[m] * (alpha - m) / (m + 1) * y)
        e.append(e[m] * -x / (m + 1))
    nb, ne = (max(i for i, v in enumerate(t) if v) + 1 for t in (b, e))  # supports
    diagonal = []
    for k in range(0, kmax + 1, step):
        lo = max(0, k - nb + 1)
        diagonal.append(sum(map(operator.mul, e[lo : min(k + 1, ne)], b[k - lo :: -1]), 0.0))
    return _finite(diagonal, f"float diagonal Laguerre row to degree {kmax}")


def assoc_laguerre(n: int, alpha: Scalar, x: Scalar, y: Scalar = 1):
    """Associated Laguerre L_n^(alpha)(x, y) valid for any rational offset.

    The Gamma prefactor is distributed termwise as the finite product
    prods[r] = Gamma(1+alpha+n)/Gamma(1+alpha+r) = prod_{j=r+1..n} (alpha + j),
    which stays exact (and finite) for negative integer offsets such as
    alpha - n.  Each weight prods[r] / (r! (n-r)!) is an exact Fraction
    unless x is a float; then an int product takes one int true division,
    correctly rounded as the Fraction's float is, and a float product
    (float alpha) is scaled by the float 1 / (r! (n-r)!).  A float product
    or sum that is not finite raises NumericError.
    """
    if n < 0:
        raise DomainError("degree must be >= 0")
    prods = [1] * (n + 1)
    for r in range(n - 1, -1, -1):
        prods[r] = prods[r + 1] * (alpha + (r + 1))  # one rounding for a float alpha
    if isinstance(prods[0], float) and not math.isfinite(prods[0]):
        # A non-finite product stays so down to prods[0]; inf - inf would be NaN.
        raise NumericError(f"float associated Laguerre of degree {n} overflows its Gamma product")
    fact = [1, *itertools.accumulate(range(1, n + 1), operator.mul)]
    inexact = not is_exact(x)
    total = 0
    try:
        for r, p in enumerate(prods):
            d = fact[r] * fact[n - r]
            if isinstance(p, float):
                w = 1 / d * p
            else:
                w = p / d if inexact else Fraction(p, d)
            total = total + w * (-x) ** r * y ** (n - r)
    except OverflowError as exc:
        raise NumericError(f"float associated Laguerre of degree {n} overflows: {exc}") from exc
    return ensure_finite(total, f"float associated Laguerre of degree {n}")


def hermite_coeffs(m: int, xs: Sequence[Scalar]) -> Iterator:
    """[t^n] exp(sum_s x_s t^s) for n = 0, 1, 2, ..., i.e. H_n^(m)/n!, made
    on demand.

    Uses the derivative recurrence (n+1) c_{n+1} = sum_s s x_s c_{n+1-s};
    numerically tamer than the factorially-growing H_n themselves.  Exact
    when every x_s is exact; a float value that is not finite raises
    NumericError instead of being yielded.  m and xs are checked when the
    first value is read.
    """
    if m < 1:
        raise DomainError("order m must be >= 1")
    if len(xs) != m:
        raise DomainError(f"expected {m} variables, got {len(xs)}")
    coeffs: list = [Fraction(1) if all(map(is_exact, xs)) else 1.0]
    for n in itertools.count():
        c = coeffs[n]
        if c - c != 0:  # inf or NaN, as in _finite
            raise NumericError(f"non-finite value in Hermite coefficients at degree {n}")
        yield c
        acc = 0
        for s in range(1, min(m, n + 1) + 1):
            acc = acc + s * xs[s - 1] * coeffs[n + 1 - s]
        coeffs.append(acc / (n + 1))


def hermite_coeff_sequence(m: int, nmax: int, xs: Sequence[Scalar]) -> list:
    """[t^n] exp(sum_s x_s t^s) for n = 0..nmax: the first nmax + 1 values
    of hermite_coeffs."""
    if nmax < 0:
        raise DomainError("degree must be >= 0")
    return list(itertools.islice(hermite_coeffs(m, xs), nmax + 1))


def laguerre_sequence(nmax: int, x: Scalar, y: Scalar = 1) -> list:
    """[L_0, ..., L_nmax](x, y) by the three-term recurrence.

    (n+1) L_{n+1} = ((2n+1) y - x) L_n - n y^2 L_{n-1}.  Exact for exact
    inputs; for floats this is far cheaper than the explicit sums once the
    degree runs into the hundreds (lacunary series evaluate L_{mn+l}).
    It is the associated recurrence at offset 0.
    """
    return assoc_laguerre_sequence(nmax, 0, x, y)


def assoc_laguerre_sequence(nmax: int, alpha: Scalar, x: Scalar, y: Scalar = 1) -> list:
    """[L_0^(a), ..., L_nmax^(a)](x, y), fixed offset, by the recurrence

    (n+1) L_{n+1}^(a) = ((2n+1+a) y - x) L_n^(a) - (n+a) y^2 L_{n-1}^(a).

    Exact inputs x = p/q, y = r/s and a = u/v run it on the ints
    M_n = n! (v q s)^n L_n^(a):
    M_{n+1} = (((2n+1) v + u) q r - v p s) M_n - n (n v + u) v q^2 r^2 M_{n-1}.
    A float row that is not finite raises NumericError.
    """
    if nmax < 0:
        raise DomainError("degree must be >= 0")
    if is_exact(x) and is_exact(y) and is_exact(alpha):
        u, v = alpha.numerator, alpha.denominator
        qr, vps = x.denominator * y.numerator, v * x.numerator * y.denominator
        nums = [1, (v + u) * qr - vps]
        for n in range(1, nmax):
            nums.append(
                (((2 * n + 1) * v + u) * qr - vps) * nums[n]
                - n * (n * v + u) * v * qr * qr * nums[n - 1]
            )
        vqs = v * x.denominator * y.denominator
        dens = itertools.accumulate(range(1, nmax + 1), lambda d, n: d * n * vqs, initial=1)
        return list(map(Fraction, nums, dens))
    alpha, x, y = float(alpha), float(x), float(y)
    out = [1.0]
    if nmax >= 1:
        out.append((1 + alpha) * y - x)
    y2 = y * y
    for n in range(1, nmax):
        out.append(
            (((2 * n + 1 + alpha) * y - x) * out[n] - (n + alpha) * y2 * out[n - 1])
            / (n + 1)
        )
    # A non-finite value makes every later one so: the last one tells.
    ensure_finite(out[-1], f"float Laguerre recurrence to degree {nmax}")
    return out


def hermite_h_values(u: complex) -> Iterator[complex]:
    """Classical Hermite H_0(u), H_1(u), ... made on demand by the three-term
    recurrence H_{k+1} = 2 u H_k - 2 k H_{k-1} (complex-safe); a value that
    is not finite raises NumericError instead of being yielded."""
    prev, cur = 1.0 + 0.0j, 2.0 * u + 0.0j
    yield prev
    for k in itertools.count(1):
        if cur - cur != 0:  # inf or NaN, as in _finite
            raise NumericError(f"non-finite value in Hermite H at degree {k}")
        yield cur
        prev, cur = cur, 2.0 * u * cur - 2.0 * k * prev


def hermite_h_sequence(nmax: int, u: complex) -> list[complex]:
    """Classical Hermite [H_0(u), ..., H_nmax(u)]: the first nmax + 1 values
    of hermite_h_values."""
    if nmax < 0:
        raise DomainError("degree must be >= 0")
    return list(itertools.islice(hermite_h_values(u), nmax + 1))


def laguerre_xpoly(n: int, y: Scalar = 1) -> list:
    """Coefficients in x of L_n(x, y): [c_0, ..., c_n], exact for rational y."""
    try:
        coeffs = [c * y ** (n - r) for r, c in enumerate(assoc_laguerre_xpoly(n, 0))]
    except OverflowError as exc:
        raise NumericError(f"float Laguerre x-coefficients of degree {n} overflow: {exc}") from exc
    if is_exact(y):
        return coeffs
    return _finite(coeffs, f"float Laguerre x-coefficients of degree {n}")


def assoc_laguerre_xpoly(n: int, alpha: Scalar) -> list:
    """Coefficients in x of L_n^(alpha)(x) with the termwise Gamma product."""
    if n < 0:
        raise DomainError("degree must be >= 0")
    coeffs = []
    prods = [1] * (n + 1)  # prods[r] = prod_{j=r+1..n}(alpha+j)
    for r in range(n - 1, -1, -1):
        prods[r] = prods[r + 1] * (alpha + r + 1)
    for r in range(n + 1):
        w = Fraction((-1) ** r, math.factorial(r) * math.factorial(n - r))
        coeffs.append(w * prods[r])
    if is_exact(alpha):
        return coeffs
    return _finite(coeffs, f"float associated Laguerre x-coefficients of degree {n}")
