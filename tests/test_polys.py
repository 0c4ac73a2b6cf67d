"""Polynomial families: explicit sums, recurrences, decompositions."""

import cmath
import fractions
import itertools
import math
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lacunary import (
    DomainError,
    ExactnessViolation,
    FormalPowerSeries,
    NumericError,
    as_real,
    assoc_laguerre,
    assoc_laguerre_sequence,
    assoc_laguerre_xpoly,
    hermite_coeff_sequence,
    hermite_coeffs,
    hermite_h_sequence,
    hermite_h_values,
    laguerre,
    laguerre_sequence,
    laguerre_xpoly,
    lambda_poly,
    rgamma,
    rgamma_exact,
)
from lacunary.identities import check_pointwise, pointwise
from lacunary.polys import _gamma_weight, assoc_laguerre_diagonal, lambda_sequence

F = Fraction


def hermite(m, n, xs):
    """Higher-order Hermite H_n^(m)(x_1..x_m) = n! [t^n] exp(sum_s x_s t^s),
    by the nested-sum recursion over the top variable, grounded at
    H_n^(1)(x_1) = x_1^n: the reference for hermite_coeff_sequence."""
    memo = {}

    def h(mm, nn):
        if mm == 1:
            return xs[0] ** nn
        if (mm, nn) not in memo:
            total = 0
            for r in range(nn // mm + 1):
                w = Fraction(
                    math.factorial(nn), math.factorial(nn - mm * r) * math.factorial(r)
                )
                total = total + w * xs[mm - 1] ** r * h(mm - 1, nn - mm * r)
            memo[mm, nn] = total
        return memo[mm, nn]

    return h(m, n)


def hermite_h(n, u):
    """Classical Hermite H_n(u) by the three-term recurrence, one value at a
    time: the reference for hermite_h_sequence."""
    prev, cur = 1.0 + 0.0j, 2.0 * u
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, 2.0 * u * cur - 2.0 * k * prev
    return cur


def hermite2_from_classical(n, x, y):
    """H_n^(2)(x, y) via the scaling identity (-i sqrt(y))^n H_n(i x / (2 sqrt(y))),
    for y != 0."""
    sy = cmath.sqrt(complex(y))
    return as_real((-1j * sy) ** n * hermite_h(n, 1j * x / (2.0 * sy)), "hermite2")


def test_laguerre_base_values():
    assert laguerre(0, F(7), F(5)) == 1
    assert laguerre(2, 2, 1) == -1
    for n in range(6):
        assert laguerre(n, 0, F(3)) == F(3) ** n


def test_laguerre_rejects_negative_degree():
    with pytest.raises(DomainError):
        laguerre(-1, 1, 1)


def test_lambda_poly_small_orders():
    assert lambda_poly(0, 2, 1, F(5), F(3)) == rgamma_exact(3)
    alpha, beta, x, y = 2, 2, F(1, 2), F(3)
    want = y * rgamma_exact(1 + alpha) - x * rgamma_exact(beta + 1 + alpha)
    assert lambda_poly(1, alpha, beta, x, y) == want
    assert lambda_poly(2, 1, 1, 1, 1) == F(1, 6)


def test_assoc_laguerre_values():
    assert assoc_laguerre(2, 1, 1, 1) == F(1, 2)
    for x in (F(0), F(1, 3), F(2)):
        assert assoc_laguerre(1, 1, x, 1) == 2 - x


def test_assoc_laguerre_negative_offset_is_finite():
    # Negative integer offsets must stay well defined termwise; the pole of
    # the prefactor is absorbed into the finite per-term product.
    x, y = F(1), F(1)
    assert assoc_laguerre(2, -1, x, y) == x * x / 2 - x * y
    val = assoc_laguerre(4, 2 - 4, F(1), F(1))
    assert isinstance(val, Fraction)


def _assoc_laguerre_fraction_loop(n, alpha, x, y=1):
    """assoc_laguerre as it ran before the integer weights: a Fraction
    weight per term, times the product built from r = n downward, the
    terms summed for r upward."""
    prod = 1
    terms = []
    for r in range(n, -1, -1):
        w = Fraction(1, math.factorial(r) * math.factorial(n - r))
        terms.append(w * prod * (-x) ** r * y ** (n - r))
        prod = prod * (alpha + r)
    total = 0
    for t in reversed(terms):
        total = total + t
    return total


def _same(value, want):
    """Equal and of the same type; floats compared by float.hex."""
    if type(want) is float:
        return type(value) is float and value.hex() == want.hex()
    return value == want and type(value) is type(want)


def _fraction_calls(fn):
    """(fn(), the number of Python-level calls it made into `fractions`,
    other than the numerator and denominator getters).  Making a Fraction
    or operating on one costs at least one such call."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        code = frame.f_code
        if (
            event == "call"
            and code.co_filename == fractions.__file__
            and code.co_name not in ("numerator", "denominator")
        ):
            count += 1

    sys.setprofile(hook)
    try:
        value = fn()
    finally:
        sys.setprofile(None)
    return value, count


exact_scalar = st.integers(min_value=-4, max_value=4) | st.fractions(
    min_value=-4, max_value=4, max_denominator=5
)
float_scalar = st.floats(min_value=-4.0, max_value=4.0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=-45, max_value=8)
    | st.fractions(min_value=-6, max_value=6, max_denominator=7)
    | st.floats(min_value=-6.0, max_value=6.0),
    exact_scalar | float_scalar,
    exact_scalar | float_scalar | st.just(1),
    st.booleans(),
)
@example(12, 1 / 3, 0.5, 1, False)  # (alpha + 7) + 1 != alpha + 8 in floats
@example(150, 0.5, 1.0, 1.0, False)  # a float Gamma product near the float range
def test_assoc_laguerre_matches_the_fraction_loop(n, alpha, x, y, offset_by_n):
    if offset_by_n:
        alpha = alpha - n  # the negative offsets alpha - n of the diagonal
    value = assoc_laguerre(n, alpha, x, y)
    want = _assoc_laguerre_fraction_loop(n, alpha, x, y)
    assert _same(value, want), (value, want)


#: Relative error allowed a value of pointwise._laguerre_rows against the
#: exact sum at its float argument: the recurrence rows come within 1.6e-15
#: on the engine rows, and moving their argument by a relative 1e-12 moves
#: every value of degree >= 1 there by at least 9.9e-15.
ROW_REL_BOUND = 4e-15


def test_engine_laguerre_values_match_the_fraction_loop(monkeypatch):
    # The right sides of EQ2.10, EQ3.1, EQ3.3 and EQ3.9 call assoc_laguerre
    # per index; those of EQ2.11 and EQ3.11 read L_s^(a)(xi) off the rows of
    # _laguerre_rows.  Over one default run, each per-index value must be
    # the fraction loop's float, and each row value the exact sum at its
    # float xi within ROW_REL_BOUND.
    calls, served = [], set()

    def recording(*args):
        calls.append(args)
        return assoc_laguerre(*args)

    def recording_rows(xi):
        rows = make_rows(xi)

        def row(a):
            values = rows(a)
            served.update((s, a, xi, v) for s, v in enumerate(values))
            return values

        return row

    make_rows = pointwise._laguerre_rows
    monkeypatch.setattr(pointwise, "assoc_laguerre", recording)
    monkeypatch.setattr(pointwise, "_laguerre_rows", recording_rows)
    for case_id in ("EQ2.10", "EQ2.11", "EQ3.1", "EQ3.3", "EQ3.9", "EQ3.11"):
        assert check_pointwise(case_id).passed, case_id
    assert len(calls) > 200 and len(served) > 600
    assert max(s for s, *_ in served) > 20
    for args in calls:
        assert _same(assoc_laguerre(*args), _assoc_laguerre_fraction_loop(*args)), args
    for s, a, xi, v in served:
        want = _assoc_laguerre_fraction_loop(s, a, Fraction(xi))
        assert type(v) is float
        assert abs(Fraction(v) - want) <= ROW_REL_BOUND * abs(want), (s, a, xi, v)


def test_assoc_laguerre_int_offset_float_x_constructs_no_fraction():
    value, count = _fraction_calls(lambda: assoc_laguerre(30, 17, 0.4))
    assert count == 0 and type(value) is float
    want, count = _fraction_calls(lambda: _assoc_laguerre_fraction_loop(30, 17, 0.4))
    assert count > 30 and value.hex() == want.hex()


def test_hermite_values():
    a, b = F(2), F(3)
    assert hermite(2, 2, (a, b)) == a * a + 2 * b
    assert hermite(3, 3, (F(1), F(2), F(3))) == 1 + 12 + 18
    assert hermite(4, 5, (F(2), 0, 0, 0)) == F(2) ** 5


def test_hermite_generating_function():
    # n! [t^n] exp(sum_s x_s t^s) equals the multi-variable polynomial.
    xs = (F(1, 2), F(-1), F(2), F(1, 3))
    for m in range(1, 5):
        order = 12
        coeffs = [F(0)] * (order + 1)
        for s in range(1, m + 1):
            if s <= order:
                coeffs[s] = xs[s - 1]
        series = FormalPowerSeries(coeffs).exp()
        for n in range(order + 1):
            assert math.factorial(n) * series[n] == hermite(m, n, xs[:m])


def test_hermite_coeff_sequence_matches_direct():
    xs = (F(1, 2), F(-2))
    seq = hermite_coeff_sequence(2, 10, xs)
    for n in range(11):
        assert seq[n] * math.factorial(n) == hermite(2, n, xs)


def _hermite_coeff_loop(m, nmax, xs):
    """The list loop hermite_coeff_sequence ran before its values came from
    hermite_coeffs, without its last-value check: the reference the iterator
    must match bit for bit."""
    coeffs = [Fraction(1) if all(isinstance(v, (int, Fraction)) for v in xs) else 1.0]
    for n in range(nmax):
        acc = 0
        for s in range(1, min(m, n + 1) + 1):
            acc = acc + s * xs[s - 1] * coeffs[n + 1 - s]
        coeffs.append(acc / (n + 1))
    return coeffs


def _hermite_h_loop(nmax, u):
    """The list loop hermite_h_sequence ran before its values came from
    hermite_h_values, inf and NaN included."""
    out = [1.0 + 0.0j]
    if nmax >= 1:
        out.append(2.0 * u + 0.0j)
    for k in range(1, nmax):
        out.append(2.0 * u * out[-1] - 2.0 * k * out[-2])
    return out


def _bits(values):
    """Each value as the hex of its real and imaginary parts: equal bits,
    the sign of a zero included."""
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


def _finite_prefix(values):
    return list(itertools.takewhile(lambda v: v - v == 0, values))


def _check_prefix(iterator, kernel, oracle):
    """The iterator yields the oracle's finite prefix bit for bit and raises
    NumericError where the oracle turns inf or NaN; the list kernel is the
    whole oracle, or raises NumericError when it is not all finite."""
    finite = _finite_prefix(oracle)
    assert _bits(itertools.islice(iterator, len(finite))) == _bits(finite)
    if len(finite) < len(oracle):
        with pytest.raises(NumericError, match="non-finite value"):
            next(iterator)
        with pytest.raises(NumericError, match="non-finite value"):
            kernel()
    else:
        assert _bits(kernel()) == _bits(oracle)


hermite_arg = st.floats(min_value=-40.0, max_value=40.0) | st.complex_numbers(
    max_magnitude=40.0
)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.lists(hermite_arg, min_size=m, max_size=m)
    ),
    st.integers(min_value=0, max_value=400),
)
@example([1e3, 0.0], 400)  # c_n = 1000^n / n! overflows from n = 341
def test_hermite_coeffs_are_the_list_loop_bit_for_bit(xs, nmax):
    m = len(xs)
    _check_prefix(
        hermite_coeffs(m, xs),
        lambda: hermite_coeff_sequence(m, nmax, xs),
        _hermite_coeff_loop(m, nmax, xs),
    )


@settings(max_examples=80, deadline=None)
@given(hermite_arg, st.integers(min_value=0, max_value=400))
@example(0.5j, 400)  # inf and NaN from degree 266 on
def test_hermite_h_values_are_the_list_loop_bit_for_bit(u, nmax):
    _check_prefix(
        hermite_h_values(u), lambda: hermite_h_sequence(nmax, u), _hermite_h_loop(nmax, u)
    )


def test_hermite_kernels_check_their_arguments():
    with pytest.raises(DomainError):
        hermite_coeff_sequence(2, -1, [1.0, 2.0])
    with pytest.raises(DomainError):
        hermite_h_sequence(-2, 0.5j)
    with pytest.raises(DomainError):
        next(hermite_coeffs(0, []))
    with pytest.raises(DomainError):
        next(hermite_coeffs(2, [1.0]))


def test_hermite_h_small_orders():
    assert hermite_h(0, 0.3 + 0j) == 1
    u = 0.25 + 0j
    assert hermite_h(1, u) == 2 * u
    assert hermite_h(2, u) == 4 * u * u - 2


def test_hermite_h_sequence_consistent():
    u = 0.1j
    seq = hermite_h_sequence(6, u)
    for n in range(7):
        assert seq[n] == pytest.approx(hermite_h(n, u), rel=1e-13, abs=1e-13)


def test_hermite2_from_classical_agrees():
    for x in (-2.0, -0.5, 0.5, 2.0):
        for y in (0.25, 1.0, 4.0):
            for n in range(21):
                direct = float(hermite(2, n, (F(x), F(y))))
                via_h = hermite2_from_classical(n, x, y)
                assert abs(direct - via_h) <= 1e-11 * max(1.0, abs(direct))


def lacunary_decomposition(kind, n, x, y=1):
    """Reassemble L_{2n} or L_{3n} from degree-n Gamma-weighted pieces, the
    reference for the stride decompositions (acceptance criterion 2).

    kind "double":  sum_r C(n,r) (-x)^r y^(n-r) Lambda_n^(r)(x, y)
    kind "triple":  sum_{r,k} C(n,r) C(n,k) (-x)^(r+k) y^(2n-r-k) Lambda_n^(r+k)(x, y)
    """
    if kind not in ("double", "triple"):
        raise DomainError("kind must be 'double' or 'triple'")
    pieces = 1 if kind == "double" else 2
    total = 0
    for rs in itertools.product(range(n + 1), repeat=pieces):
        s = sum(rs)
        total = total + (
            Fraction(math.prod(math.comb(n, r) for r in rs))
            * (-x) ** s
            * y ** (pieces * n - s)
            * lambda_poly(n, s, 1, x, y)
        )
    return total


def test_lacunary_decompositions():
    tuples = ((F(1), F(1)), (F(1, 2), F(2, 3)), (F(3, 2), F(-1)))
    for x, y in tuples:
        for n in range(7):
            assert lacunary_decomposition("double", n, x, y) == laguerre(2 * n, x, y)
            assert lacunary_decomposition("triple", n, x, y) == laguerre(3 * n, x, y)
    with pytest.raises(DomainError):
        lacunary_decomposition("quadruple", 1, F(1), F(1))


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=25, deadline=None)
@given(small, small.filter(lambda v: v != 0), st.integers(min_value=0, max_value=12))
def test_homogeneity(x, y, n):
    assert laguerre(n, x, y) == y**n * laguerre(n, x / y, 1)


exact_coord = small | st.integers(min_value=-3, max_value=3)  # x = 0 and y = 0 included
exact_alpha = st.integers(min_value=-6, max_value=5) | st.fractions(
    min_value=-5, max_value=5, max_denominator=5
)


def _same_rows(values, wants):
    return len(values) == len(wants) and all(map(_same, values, wants))


@settings(max_examples=15, deadline=None)
@given(exact_coord, exact_coord, st.integers(min_value=0, max_value=60))
def test_laguerre_sequence_matches_explicit(x, y, n):
    # EQ2.7's exact left side reads index 2 nmax = 60 at nmax 30.
    seq = laguerre_sequence(n, x, y)
    assert _same_rows(seq, [laguerre(k, x, y) for k in range(n + 1)])


@settings(max_examples=15, deadline=None)
@given(exact_coord, exact_coord, exact_alpha, st.integers(min_value=0, max_value=60))
def test_assoc_sequence_matches_explicit(x, y, alpha, n):
    seq = assoc_laguerre_sequence(n, alpha, x, y)
    assert _same_rows(seq, [assoc_laguerre(k, alpha, x, y) for k in range(n + 1)])


def _lambda_rows_fraction_loop(nmax, alpha, beta, x, y=1, step=1):
    """The exact lambda_sequence as it ran before the integer rows: a
    Fraction Gamma weight times Fraction powers for every entry of the int
    Pascal row."""
    powx = [(-x) ** r for r in range(nmax + 1)]
    powy = [y**k for k in range(nmax + 1)]
    weights = [rgamma_exact(beta * r + 1 + alpha) for r in range(nmax + 1)]
    out, row = [], [1]
    for n in range(nmax + 1):
        if n:
            row = [1, *map(operator.add, row, row[1:]), 1]
        if n % step == 0:
            out.append(sum(c * weights[r] * powx[r] * powy[n - r] for r, c in enumerate(row)))
    return out


def _assoc_sequence_fraction_loop(nmax, alpha, x, y=1):
    """The exact recurrence as it ran before the integer rows, on Fractions."""
    out = [Fraction(1)]
    if nmax >= 1:
        out.append((1 + alpha) * y - x)
    for n in range(1, nmax):
        out.append(
            (((2 * n + 1 + alpha) * y - x) * out[n] - (n + alpha) * y * y * out[n - 1])
            / (n + 1)
        )
    return out


def _diagonal_fraction_loop(kmax, alpha, x, y=1, step=1):
    """The exact assoc_laguerre_diagonal as it ran before the integer rows:
    the Cauchy product of Fraction factor tables, each by its ratio."""
    b, e = [Fraction(1)], [Fraction(1)]
    for m in range(kmax):
        b.append(b[m] * (alpha - m) / (m + 1) * y)
        e.append(e[m] * -x / (m + 1))
    return [sum(e[r] * b[k - r] for r in range(k + 1)) for k in range(0, kmax + 1, step)]


@settings(max_examples=60, deadline=None)
@given(
    exact_alpha,
    st.integers(min_value=-6, max_value=4),
    st.integers(min_value=0, max_value=3),
    exact_coord,
    exact_coord,
    st.integers(min_value=0, max_value=60),
    st.sampled_from((1, 2, 3)),
)
def test_exact_kernels_match_their_fraction_loops(alpha, int_alpha, beta, x, y, nmax, step):
    # Negative offsets reach the poles beta r + alpha < 0 of the Gamma weights.
    seq = lambda_sequence(nmax, int_alpha, beta, x, y, step)
    assert _same_rows(seq, _lambda_rows_fraction_loop(nmax, int_alpha, beta, x, y, step))
    seq = assoc_laguerre_sequence(nmax, alpha, x, y)
    assert seq == _assoc_sequence_fraction_loop(nmax, alpha, x, y)
    assert all(type(v) is Fraction for v in seq)
    seq = assoc_laguerre_diagonal(nmax, alpha, x, y, step)
    assert _same_rows(seq, _diagonal_fraction_loop(nmax, alpha, x, y, step))


@pytest.mark.parametrize(
    "kernel, loop, args",
    [
        (lambda_sequence, _lambda_rows_fraction_loop, (30, 2, 3, F(1, 2), F(-3, 2), 2)),
        (assoc_laguerre_sequence, _assoc_sequence_fraction_loop, (30, F(-7, 3), F(1, 2), F(5, 4))),
        (laguerre_sequence, lambda n, x, y: _assoc_sequence_fraction_loop(n, 0, x, y),
         (30, F(2, 3), F(1, 5))),
        (assoc_laguerre_diagonal, _diagonal_fraction_loop, (30, F(5, 2), F(-2, 3), F(3, 4), 2)),
    ],
    ids=("lambda", "assoc", "laguerre", "diagonal"),
)
def test_exact_kernels_make_one_fraction_per_value(kernel, loop, args):
    # Fraction arithmetic must not creep back into the integer rows.
    value, count = _fraction_calls(lambda: kernel(*args))
    assert count <= len(value) and all(type(v) is Fraction for v in value)
    want, count = _fraction_calls(lambda: loop(*args))
    assert count > 2 * len(value) and value == want


def test_non_integral_gamma_weights_of_exact_inputs_raise():
    for alpha, beta in ((F(1, 2), 1), (1, F(1, 2)), (F(-1, 3), 0)):
        with pytest.raises(ExactnessViolation):
            lambda_sequence(3, alpha, beta, F(1), F(1))
        with pytest.raises(ExactnessViolation):
            lambda_poly(3, alpha, beta, F(1), F(1))
    # An integral Fraction is an integer; a float input keeps the float path.
    assert _same_rows(lambda_sequence(4, F(2), F(1), F(1, 2)), lambda_sequence(4, 2, 1, F(1, 2)))
    assert lambda_poly(3, F(2), F(1), F(1, 2)) == lambda_poly(3, 2, 1, F(1, 2))
    assert type(lambda_poly(3, F(1, 2), 1, 1.0)) is float


def _assoc_sequence_per_step_float(nmax, alpha, x, y=1):
    """The float recurrence as it ran before the inputs were converted once:
    the mixed int/float expression, rounded by float() at every step."""
    out = [1.0]
    if nmax >= 1:
        out.append(float((1 + alpha) * y - x))
    y2 = y * y
    for n in range(1, nmax):
        nxt = (((2 * n + 1 + alpha) * y - x) * out[n] - (n + alpha) * y2 * out[n - 1]) / (
            n + 1
        )
        out.append(float(nxt))
    return out


# The engines pass an int offset (or a float one) with float or int x and y.
float_args = st.tuples(
    st.integers(min_value=0, max_value=6) | st.floats(min_value=-0.9, max_value=4.0),
    st.floats(min_value=-4.0, max_value=12.0) | st.integers(min_value=-3, max_value=3),
    st.floats(min_value=-2.0, max_value=2.0) | st.just(1),
).filter(lambda a: not all(isinstance(v, int) for v in a))


@settings(max_examples=80, deadline=None)
@given(float_args, st.integers(min_value=0, max_value=200))
def test_assoc_sequence_float_path_is_bit_identical_to_per_step_float(args, nmax):
    alpha, x, y = args
    seq = assoc_laguerre_sequence(nmax, alpha, x, y)
    assert seq == _assoc_sequence_per_step_float(nmax, alpha, x, y)
    assert all(type(v) is float for v in seq)


def test_assoc_sequence_float_path_at_the_quadrature_degrees():
    for n in (80, 100):
        for z in (0.0179, 0.5, 3.7, 41.0, 370.0):
            assert laguerre_sequence(n + 1, z) == _assoc_sequence_per_step_float(
                n + 1, 0, z
            )


def test_assoc_sequence_rejects_complex_input():
    with pytest.raises(TypeError):
        assoc_laguerre_sequence(5, 0, 1.0 + 2.0j)
    with pytest.raises(TypeError):
        laguerre_sequence(5, 0.5, 1j)


def test_sequences_float_path_is_stable():
    seq = laguerre_sequence(250, 1.0)
    ref = float(laguerre(250, F(1)))
    assert abs(seq[250] - ref) <= 1e-12 * abs(ref)


coord = st.floats(min_value=-3.0, max_value=3.0) | st.just(0.0)
# Int alpha and beta take 1/(beta r + alpha)! (0.0 at the poles of a negative
# alpha); a float alpha, 1.0 included, takes rgamma; a Fraction alpha with
# float x takes the exact weight wherever its argument is integral.
float_draw = st.tuples(
    st.integers(min_value=-6, max_value=3)
    | st.floats(min_value=-2.5, max_value=3.0)
    | st.just(1.0)
    | st.fractions(min_value=-3, max_value=3, max_denominator=2),
    st.integers(min_value=1, max_value=3),
    coord,
    coord,
)
# The exact left sides of EQ1.7 and EQ1.9 sample alpha 0..3, beta 1..3;
# negative alpha reaches the poles beta r + alpha < 0.
exact_draw = st.tuples(
    st.integers(min_value=-6, max_value=3),
    st.integers(min_value=0, max_value=3),
    exact_coord,
    exact_coord,
)

def _lambda_bounds(alpha, beta, x, y, ns):
    """{n: (S_n, A_n, q_n, N_n)} for the float inputs taken as Fractions:
    Lambda_n = S_n / q_n, M_n = A_n / q_n and N_n.

    The weight g_r is exactly 1/Gamma(beta r + 1 + alpha) where that
    argument is an int or integral Fraction and the float rgamma otherwise,
    the weight both kernels take as given.  M_n = sum_r C(n,r) |g_r| |x|^r
    |y|^(n-r) scales the rounding error; N_n = 2 max(1, |g_r|) (2 + |x| +
    |y|)^n bounds what the results that underflow can lose, at most 2^-1074
    times the sum of C(n,r) (1 + |g_r|) (1 + |x|)^r (1 + |y|)^(n-r) each.
    The sums run on ints over one denominator per row.
    """
    top = max(ns)
    args = [beta * r + 1 + alpha for r in range(top + 1)]
    g = [
        F(rgamma(a)) if isinstance(a, float) or a.denominator != 1 else rgamma_exact(int(a))
        for a in args
    ]
    x, y = F(x), F(y)
    den = math.lcm(*(w.denominator for w in g))
    gx = [
        w.numerator * (den // w.denominator) * (-x.numerator * y.denominator) ** r
        for r, w in enumerate(g)
    ]
    yq, scale = y.numerator * x.denominator, x.denominator * y.denominator
    most = 2 * max(1, *map(abs, g))
    out = {}
    for n in ns:
        # Horner in y: each step multiplies by a small int only.
        total = size = 0
        for r in range(n + 1):
            term = math.comb(n, r) * gx[r]
            total = total * yq + term
            size = size * abs(yq) + abs(term)
        out[n] = total, size, den * scale**n, most * (2 + abs(x) + abs(y)) ** n
    return out


def _within_the_rounding_bound(value, n, bounds):
    """|value - Lambda_n| <= (2n + 4) (u M_n + 2^-1074 N_n), u = 2^-53, on
    ints: both sides times 2^1074 and every denominator."""
    total, size, q, wide = bounds
    num, den = value.as_integer_ratio()
    error = abs(num * q - total * den) * wide.denominator << 1074
    scaled = (size * den * wide.denominator << 1021) + wide.numerator * q * den
    return error <= (2 * n + 4) * scaled


@settings(max_examples=60, deadline=None)
@given(
    float_draw | exact_draw,
    st.integers(min_value=0, max_value=60),
    st.sampled_from((1, 2, 3)),
)
@example((-4, 2, 0.7, -1.3), 40, 1)  # poles at r = 0, 1
@example((F(3, 2), 2, 0.7, 1.3), 40, 1)
@example((F(2), 1, 0.7, 1.3), 40, 1)  # every Gamma argument integral
@example((1.0, 2, 2.0, 0.5), 40, 1)  # int-valued, but a float: rgamma
def test_lambda_rows_are_within_the_rounding_bound(draw, nmax, step):
    # Float rows from either kernel are within (2n + 4) u M_n of the exact
    # sum; exact rows are lambda_poly's, in value and type.
    alpha, beta, x, y = draw
    seq = lambda_sequence(nmax, alpha, beta, x, y, step)
    assert len(seq) == nmax // step + 1
    if all(isinstance(v, (int, Fraction)) for v in draw):
        for k, value in enumerate(seq):
            assert _same(value, lambda_poly(step * k, alpha, beta, x, y)), step * k
        return
    full = lambda_sequence(nmax, alpha, beta, x, y)
    assert all(_same(v, full[step * k]) for k, v in enumerate(seq))
    bounds = _lambda_bounds(alpha, beta, x, y, range(nmax + 1))
    for n, value in enumerate(full):
        want = lambda_poly(n, alpha, beta, x, y)
        assert type(value) is float and type(want) is float, n
        assert _within_the_rounding_bound(value, n, bounds[n]), ("table", n)
        assert _within_the_rounding_bound(want, n, bounds[n]), ("lambda_poly", n)


def test_lambda_sequence_at_the_eq2_9_grid():
    grid = ((0, 1, 1.0, 1.0), (1, 1, 0.5, 1.2), (1, 2, 1.0, 0.8), (2, 2, 0.7, 1.0))
    ns = (*range(0, 340, 17), 340)
    for alpha, beta, x, y in grid:
        seq = lambda_sequence(340, alpha, beta, x, y)
        bounds = _lambda_bounds(alpha, beta, x, y, ns)
        for n in ns:
            want = lambda_poly(n, alpha, beta, x, y)
            assert _within_the_rounding_bound(seq[n], n, bounds[n]), (alpha, beta, n)
            assert _within_the_rounding_bound(want, n, bounds[n]), (alpha, beta, n)
        # EQ2.9 reads the even rows only.
        rows = lambda_sequence(340, alpha, beta, x, y, step=2)
        assert [v.hex() for v in rows] == [v.hex() for v in seq[::2]]


def _lambda_table_rows(nmax, alpha, beta, x, y, step):
    """The float lambda_sequence as a full binomial-transform table, each
    level one entry shorter than the last: the reference for the table that
    stops at the support of a_r."""
    nmax -= nmax % step
    if isinstance(alpha, int) and isinstance(beta, int):
        args = [beta * r + alpha for r in range(nmax + 1)]
        weights = [1 / math.factorial(a) if a >= 0 else 0.0 for a in args]
    else:
        weights = [float(_gamma_weight(beta * r + 1 + alpha)) for r in range(nmax + 1)]
    b = [g * (-x) ** r for r, g in enumerate(weights)]
    out = [b[0]]
    for n in range(1, nmax + 1):
        b = [y * u + v for u, v in zip(b, b[1:])]
        if n % step == 0:
            out.append(b[0])
    return out


@settings(max_examples=60, deadline=None)
@given(float_draw, st.integers(min_value=0, max_value=200), st.sampled_from((1, 2, 3)))
@example((0, 2, 1.0, 1.0), 340, 1)  # beta = 2: 1/(2r)! underflows from r = 86
@example((-4, 2, 0.7, -1.3), 40, 1)  # poles at r = 0, 1
@example((-4, 2, 0.7, -1.3), 2, 1)  # the poles, then a_2 last: zeros inside the support
@example((1, 1, 0.0, 1.3), 30, 1)  # x = 0.0: the support is a_0 alone
@example((-1, 1, 0.0, 1.3), 30, 2)  # a pole at x = 0.0: every a_r is zero
@example((1, 1, 0.7, 0.0), 30, 1)  # y = 0.0: row n is a_n
@example((2, 1, 0.7, -1.0), 60, 1)  # y = -1.0
@example((3.0, 1, 0.7, 1.3), 200, 3)  # a float alpha takes rgamma
def test_float_lambda_rows_are_the_full_table_bit_for_bit(draw, nmax, step):
    # The full table adds the entries past the support as exact zeros: a
    # nonzero row is the same bit for bit, and a zero row is a zero, whose
    # sign may differ (+0 + -0 is +0; the dropped additions can flip it).
    rows = lambda_sequence(nmax, *draw, step=step)
    want = _lambda_table_rows(nmax, *draw, step)
    assert [v.hex() if v else 0.0 for v in rows] == [v.hex() if v else 0.0 for v in want]


@pytest.mark.parametrize(
    "args, cause",
    [
        # y b passes the float range: Lambda_n(1, 2) grows about as 2^n.
        ((1100, 0.5, 1, 1.0, 2.0), "non-finite value"),
        # (-2.0)^r passes the float range from r = 1024.
        ((1100, 1, 2, 2.0, 0.5), "out of range"),
    ],
)
def test_float_rows_beyond_the_float_range_raise_numeric_error(args, cause):
    with pytest.raises(NumericError, match=cause):
        lambda_sequence(*args)


@pytest.mark.parametrize(
    "fn, args, cause",
    [
        # C(n, r) as a Fraction times the float rgamma(r + 1.5).
        (lambda_poly, (1100, 0.5, 1, 1.0, 1.0), "too large for a float"),
        # (-2.0)^r passes the float range from r = 1024.
        (lambda_poly, (1100, 1, 2, 2.0, 0.5), "out of range"),
        # (-1e200)^r passes it at r = 2.
        (assoc_laguerre, (3000, 0, 1e200, 1.0), "out of range"),
        # Gamma(172.5) / Gamma(1.5) is inf, and the first two weights would
        # give inf - inf = NaN for a true value of about 0.8170.
        (assoc_laguerre, (171, 0.5, 1.0, 1.0), "overflows its Gamma product"),
    ],
)
def test_float_sums_beyond_the_float_range_raise_numeric_error(fn, args, cause):
    with pytest.raises(NumericError, match=cause):
        fn(*args)


INF = math.inf


@pytest.mark.parametrize(
    "fn, args",
    [
        # The polys rule: a float path raises instead of returning inf or NaN.
        (assoc_laguerre, (5, 0.5, INF, 1.0)),
        (lambda_poly, (5, 0.5, 1, INF, 1.0)),
        # L_n(1e10) passes the float range at n = 35; the recurrence then
        # gives inf and NaN up to n = 2000.
        (laguerre_sequence, (2000, 1e10)),
        (assoc_laguerre_sequence, (3, 0.5, math.nan)),
        (assoc_laguerre_diagonal, (10, 0.5, INF, 1.0)),
        (lambda_sequence, (5, 0.5, 1, INF, 1.0)),
        (hermite_coeff_sequence, (2, 5, [INF, 1.0])),
        # H_n(0.5j) passes the float range from degree 266.
        (hermite_h_sequence, (400, 0.5j)),
    ],
)
def test_float_kernels_raise_instead_of_returning_non_finite_values(fn, args):
    with pytest.raises(NumericError, match="non-finite value"):
        fn(*args)


def test_assoc_laguerre_diagonal_matches_exact_offsets():
    for alpha in (0.5, 2.5, 3.0, -1.25):
        for x, y in ((1.0, 1.0), (0.5, 2.0), (2.0, -0.75), (-1.5, 0.5), (0.0, 1.25)):
            diag = assoc_laguerre_diagonal(60, alpha, x, y)
            for k, value in enumerate(diag):
                want = float(assoc_laguerre(k, F(alpha) - k, F(x), F(y)))
                assert abs(value - want) <= 1e-12 * abs(want), (alpha, x, y, k)
    # Exact inputs, over EQ2.13's exact ranges, give the exact values.
    for alpha in (*range(6), F(-3, 2)):
        for x, y in ((F(1), F(1)), (F(1, 2), F(2)), (F(-2, 3), F(0)), (F(0), F(-3, 4))):
            diag = assoc_laguerre_diagonal(30, alpha, x, y)
            for k, value in enumerate(diag):
                want = assoc_laguerre(k, alpha - k, x, y)
                assert value == want and type(value) is Fraction, (alpha, x, y, k)


def _diagonal_generator_sum(kmax, alpha, x, y, step):
    """The float assoc_laguerre_diagonal as a per-k generator sum over its
    factor tables: the reference for the map over the reversed slice."""
    kmax -= kmax % step
    b, e = [1.0], [1.0]
    for m in range(kmax):
        b.append(b[m] * (alpha - m) / (m + 1) * y)
        e.append(e[m] * -x / (m + 1))
    return [sum(e[r] * b[k - r] for r in range(k + 1)) for k in range(0, kmax + 1, step)]


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=0, max_value=200),
    st.sampled_from((1, 2, 3)),
)
def test_float_diagonal_is_the_generator_sum_bit_for_bit(alpha, x, y, kmax, step):
    diag = assoc_laguerre_diagonal(kmax, alpha, x, y, step)
    want = _diagonal_generator_sum(kmax, alpha, x, y, step)
    assert [v.hex() for v in diag] == [v.hex() for v in want]


@pytest.mark.parametrize(
    "alpha, x, y, kmax, step",
    [
        (3.0, 0.7, 1.3, 60, 1),  # C(3, m) = 0 from m = 4: a terminating binomial
        (0.0, 1.5, -1.0, 60, 2),  # C(0, m) = 0 from m = 1
        (0.5, 0.0, 1.3, 60, 1),  # x = 0.0: e_r is +-0 from r = 1
        (3.0, 0.0, -1.0, 60, 3),  # both short: the rows past k = 3 are empty sums
        (0.5, 1.0, 0.0, 60, 1),  # y = 0.0: b_m is +-0 from m = 1
        (2.5, 1.0, 1.0, 400, 2),  # e_r underflows to 0 near r = 178
    ],
)
def test_float_diagonal_support_edges_are_the_generator_sum(alpha, x, y, kmax, step):
    diag = assoc_laguerre_diagonal(kmax, alpha, x, y, step)
    want = _diagonal_generator_sum(kmax, alpha, x, y, step)
    assert [v.hex() for v in diag] == [v.hex() for v in want]


def test_assoc_laguerre_diagonal_stays_finite():
    # At alpha = 0.5 the per-k float evaluation overflows its Gamma product
    # from k = 173 on.
    for alpha, x, y in ((0.5, 1.0, 1.0), (2.5, 0.5, 1.2), (1.5, 0.0, 1.0), (1.0, 2.0, 1.0)):
        diag = assoc_laguerre_diagonal(820, alpha, x, y)
        assert all(map(math.isfinite, diag))
        # EQ2.14 reads the even coefficients only.
        rows = assoc_laguerre_diagonal(820, alpha, x, y, step=2)
        assert [v.hex() for v in rows] == [v.hex() for v in diag[::2]]


def test_xpoly_coefficient_lists():
    x, y = F(2, 3), F(5, 4)
    for n in range(8):
        coeffs = laguerre_xpoly(n, y)
        assert sum(c * x**k for k, c in enumerate(coeffs)) == laguerre(n, x, y)
    for n in range(8):
        coeffs = assoc_laguerre_xpoly(n, 2)
        assert sum(c * x**k for k, c in enumerate(coeffs)) == assoc_laguerre(
            n, 2, x, 1
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_xpoly_float_paths_reject_non_finite_values(bad):
    with pytest.raises(NumericError):
        assoc_laguerre_xpoly(3, bad)
    with pytest.raises(NumericError):
        laguerre_xpoly(3, bad)


def test_xpoly_float_overflow_is_a_numeric_error():
    with pytest.raises(NumericError):
        assoc_laguerre_xpoly(200, 1e300)  # the Gamma product passes inf
    with pytest.raises(NumericError):
        laguerre_xpoly(3, 1e200)  # y**3 overflows
    assert assoc_laguerre_xpoly(2, 0.5) == [1.875, -2.5, F(1, 2)]
    assert laguerre_xpoly(2, 2.0) == [4.0, -4.0, 0.5]


@pytest.mark.parametrize("step", (1, 2, 3))
def test_step_rows_are_every_step_th_row(step):
    # Float draws, bit for bit, then exact draws, value and type.
    for alpha, beta, x, y in ((0.5, 1, 1.0, 1.0), (1, 2, 2.0, 0.5), (-1.5, 3, 0.7, -1.0),
                              (2, 1, F(1, 2), F(-3, 2)), (0, 2, F(2), F(1))):
        full = lambda_sequence(61, alpha, beta, x, y)
        rows = lambda_sequence(61, alpha, beta, x, y, step=step)
        assert len(rows) == 61 // step + 1
        assert all(_same(v, full[step * k]) for k, v in enumerate(rows))
    for alpha, x, y in ((0.5, 1.0, 1.0), (2.5, 0.5, 1.2), (-1.25, 2.0, -0.75),
                        (3, F(1, 2), F(2)), (F(-3, 2), F(-2, 3), F(1))):
        full = assoc_laguerre_diagonal(61, alpha, x, y)
        rows = assoc_laguerre_diagonal(61, alpha, x, y, step=step)
        assert len(rows) == 61 // step + 1
        assert all(_same(v, full[step * k]) for k, v in enumerate(rows))


def test_step_below_one_is_rejected():
    for step in (0, -1):
        with pytest.raises(DomainError):
            lambda_sequence(10, 1, 1, 1.0, 1.0, step=step)
        with pytest.raises(DomainError):
            assoc_laguerre_diagonal(10, 0.5, 1.0, 1.0, step=step)
