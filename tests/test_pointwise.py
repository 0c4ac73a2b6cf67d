"""Float engines: closeness, series tails, and truncation drift.

Every engine yields PointOutcome rows; the relative-error rule mirrors the
registry (scale by max(1, |lhs|, |rhs|)) so the thresholds here are the
same numbers the verification layer enforces.
"""

import functools
import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lacunary import (
    LacunaryError,
    NumericError,
    QuadratureFailure,
    SumControl,
    check_pointwise,
    check_quadrature,
    cli,
    specialfns,
)
from lacunary.identities import DEFAULT_TOL, pointwise
from lacunary.polys import laguerre_sequence

CTRL = SumControl(max_terms=400, rel_tol=1e-16)

ENGINES = [
    pointwise.eq1_7,
    pointwise.eq1_9,
    pointwise.eq1_12,
    pointwise.eq2_7,
    pointwise.eq2_8,
    pointwise.eq2_9,
    pointwise.eq2_10,
    pointwise.eq2_11,
    pointwise.eq2_13,
    pointwise.eq2_14,
    pointwise.eq3_1,
    pointwise.eq3_3,
    pointwise.eq3_4,
    pointwise.eq3_5,
    pointwise.eq3_8,
    pointwise.eq3_9,
    pointwise.eq3_10,
    pointwise.eq3_11,
]


def _rel(row):
    return abs(row.lhs - row.rhs) / max(1.0, abs(row.lhs), abs(row.rhs))


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
def test_engine_grid_is_tight(engine):
    rows = list(engine(60, 1.0, CTRL))
    assert rows
    for row in rows:
        scale = max(1.0, abs(row.lhs))
        assert _rel(row) <= 1e-10, row.label
        assert row.tail <= 1e-9 * scale, row.label
        assert row.drift <= 1e-9 * scale, row.label


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
def test_engine_accepts_shrunk_grid(engine):
    for row in engine(60, 0.5, CTRL):
        assert _rel(row) <= 1e-10, row.label


def test_eq2_7_forty_term_example():
    # x = 1, t = 0.1, forty terms: both sides within 1e-9 of each other.
    rows = [
        r
        for r in pointwise.eq2_7(40, 1.0, CTRL)
        if "x=1," in r.label and "t=0.1" in r.label
    ]
    assert rows
    for row in rows:
        assert abs(row.lhs - row.rhs) <= 1e-9


def test_eq3_10_every_point_reads_the_bessel_side(monkeypatch):
    # One right-side expression: the x = 0 points go through bessel_i too.
    calls = []
    bessel_i = pointwise.bessel_i

    def counting(m, z, ctrl=None):
        calls.append((m, z))
        return bessel_i(m, z, ctrl)

    monkeypatch.setattr(pointwise, "bessel_i", counting)
    rows = list(pointwise.eq3_10(60, 1.0, CTRL))
    assert len(rows) == len(calls) == 8


def test_eq3_10_x_zero_rows_hit_closed_root():
    rows = [r for r in pointwise.eq3_10(60, 1.0, CTRL) if " x=0," in r.label]
    assert len(rows) == 3
    for row in rows:
        t = float(row.label.split("t=")[1].rstrip("]"))
        assert row.rhs == pytest.approx((1.0 - t) ** -0.5, abs=1e-12)
        assert abs(row.lhs - row.rhs) <= 1e-12


def test_eq2_14_degenerate_scale_is_finite():
    # Shrinking t toward zero degenerates both sides to 1; the complex
    # branch cuts must not leak imaginary parts.
    for row in pointwise.eq2_14(40, 1e-6, CTRL):
        assert row.lhs == pytest.approx(1.0, abs=1e-4)
        assert _rel(row) <= 1e-10


def test_eq2_14_deep_left_sides_are_finite():
    # At 160 terms the diagonal reaches L_338^(alpha-338); evaluated per
    # index in floats it was NaN there.
    rows = list(pointwise.eq2_14(160, 1.0, CTRL))
    assert len(rows) == 4
    assert all(math.isfinite(row.lhs) for row in rows)


def test_eq2_9_passes_at_400_terms():
    assert check_pointwise("EQ2.9", n_terms=400).passed


@pytest.mark.parametrize("x, t", [(2.0, 0.8), (1.0, 0.9)])
def test_eq2_11_rhs_past_the_float_factorials_raises_numeric_error(x, t):
    # The sum runs past r = 170, where its weight's r! leaves the float range.
    with pytest.raises(NumericError, match="EQ2.11 rhs overflows"):
        pointwise.eq2_11.__wrapped__(10, CTRL, x=x, t=t)


@pytest.mark.parametrize("t", [0.9, 0.95, 0.99])
def test_eq3_11_rhs_near_the_radius_raises_numeric_error(t):
    with pytest.raises(NumericError):
        pointwise.eq3_11.__wrapped__(10, CTRL, alpha=0, x=2.0, t=t)


def _nested_rhs_mpmath(case_id, alpha, x, t):
    """The EQ2.11 or EQ3.11 right side as the engine's nested series over
    L_s^(s + alpha + r)(x / 3), s <= r, summed in 30 digits by mpmath until
    three terms in a row fall below 1e-32 of the sum."""
    import mpmath

    with mpmath.workdps(30):
        x, t, alpha = mpmath.mpf(x), mpmath.mpf(t), mpmath.mpf(alpha)
        fac = mpmath.factorial
        total, small = mpmath.mpf(0), 0
        for r in range(400):
            inner = mpmath.mpf(0)
            for s in range(r + 1):
                lag = (-x) ** s * mpmath.laguerre(s, s + alpha + r, x / 3)
                if case_id == "EQ2.11":
                    inner += lag * fac(r) / (fac(r - s) * fac(r + 2 * s))
                else:
                    inner += lag / fac(r - s) * mpmath.rgamma(2 * s + alpha + r + 1)
            if case_id == "EQ2.11":
                term = (-3 * t * x / (1 - t)) ** r * inner
            else:
                pochhammers = mpmath.rf(1 + alpha / 3, r) * mpmath.rf((2 + alpha) / 3, r)
                wz = -t * x / (9 * (1 - t))
                term = mpmath.gamma(3 * r + alpha + 1) / pochhammers * wz**r * inner
            total += term
            small = small + 1 if abs(term) <= mpmath.mpf(10) ** -32 * abs(total) else 0
            if small == 3:
                break
        else:
            raise AssertionError("the mpmath reference did not converge")
        if case_id == "EQ2.11":
            return total / (1 - t)
        return (1 - t) ** (-(1 + alpha) / 3) * total


#: (alpha, x, t) off the registered grids, toward larger x and toward the
#: radius t = 1; EQ2.11 has no alpha.
_RHS_LADDER = {
    "EQ2.11": [(0, 1.0, 0.6), (0, 2.0, 0.5), (0, 4.0, 0.3), (0, 8.0, 0.2),
               (0, 2.0, 0.8), (0, 1.0, 0.9)],
    "EQ3.11": [(0, 1.0, 0.5), (1, 2.0, 0.3), (0, 4.0, 0.2), (1, 8.0, 0.1),
               (0, 2.0, 0.9), (0, 2.0, 0.95), (0, 2.0, 0.99)],
}


@pytest.mark.parametrize("case_id", sorted(_RHS_LADDER))
def test_laguerre_row_right_sides_match_mpmath_off_grid_or_raise(case_id):
    # Each ladder point gives a right side within DEFAULT_TOL (relative, as
    # the point rule scales it) of the mpmath sum, or ends in a typed error.
    point = getattr(pointwise, case_id.replace(".", "_").lower()).__wrapped__
    compared = 0
    for alpha, x, t in _RHS_LADDER[case_id]:
        params = {"alpha": alpha} if case_id == "EQ3.11" else {}
        try:
            rhs = point(10, CTRL, **params, x=x, t=t)[2]
        except LacunaryError:
            continue
        want = _nested_rhs_mpmath(case_id, alpha, x, t)
        assert abs(rhs - want) <= DEFAULT_TOL * max(1, abs(want)), (alpha, x, t, rhs)
        compared += 1
    assert compared >= 4


def test_borel_points_grid():
    rows = list(pointwise.borel_points(tol=1e-8))
    assert len(rows) == len(pointwise._BOREL_XS)
    for row in rows:
        assert _rel(row) <= 1e-8
        assert row.tail <= 1e-8
    by_x = {row.label: row for row in rows}
    (two,) = [row for label, row in by_x.items() if "x=2" in label]
    assert two.rhs == pytest.approx(math.exp(-1.0), rel=1e-15)


@functools.lru_cache(maxsize=None)
def _laggauss_table_per_step(n):
    """The n-node rule in which every Newton step reads the full row
    laguerre_sequence(n, z): (nodes, weights), where the weights are the
    Christoffel numbers over their sum.  _laggauss must equal it bit for bit."""
    nodes, raw = [], []
    z = 0.0
    for i in range(n):
        if i == 0:
            z = 3.0 / (1.0 + 2.4 * n)
        elif i == 1:
            z += 15.0 / (1.0 + 2.5 * n)
        else:
            z += (1.0 + 2.55 * (i - 1)) / (1.9 * (i - 1)) * (z - nodes[i - 2])
        converged = False
        for _ in range(pointwise._NEWTON_STEPS):
            seq = laguerre_sequence(n, z)
            dz = z * seq[n] / (n * (seq[n] - seq[n - 1]))
            z -= dz
            if converged:
                break
            converged = abs(dz) <= 1e-13 * z
        else:
            raise AssertionError(f"node {i} of {n} did not converge")
        nodes.append(z)
        raw.append(1.0 / math.fsum(v * v for v in seq[:n]))
    total = math.fsum(raw)
    return tuple(nodes), tuple(w / total for w in raw)


#: The rule EQ3.19 runs, and larger rules that stress the Newton loop.
RULE_SIZES = [pointwise._RULE_NODES, 80, 100]


def test_the_rule_is_the_smallest_with_remainder_below_u():
    u = 2.0**-53
    n = pointwise._RULE_NODES
    assert n == 10
    assert pointwise._remainder(n, 3.0) <= u < pointwise._remainder(n - 1, 3.0)
    assert pointwise._remainder(n, 3.0) == pytest.approx(2.46e-17, rel=1e-2)
    assert pointwise._remainder(9, 3.0) == pytest.approx(7.02e-15, rel=1e-2)


@pytest.mark.parametrize("n", RULE_SIZES)
def test_laggauss_is_a_gauss_laguerre_rule(n):
    nodes, weights = pointwise._laggauss(n)
    assert len(nodes) == len(weights) == n
    assert 0.0 < nodes[0] and all(a < b for a, b in zip(nodes, nodes[1:]))
    assert all(w > 0.0 for w in weights)
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-14)
    # Exact up to degree 2n - 1: the moments of e^-x are k!.
    for k in range(13):
        moment = math.fsum(w * x**k for x, w in zip(nodes, weights))
        assert moment == pytest.approx(math.factorial(k), rel=1e-12), k


@pytest.mark.parametrize("n", RULE_SIZES)
def test_laggauss_matches_numpy(n):
    from numpy.polynomial.laguerre import laggauss

    want_nodes, want_weights = laggauss(n)
    nodes, weights = pointwise._laggauss(n)
    for got, want in zip(nodes, want_nodes):
        assert got == pytest.approx(float(want), rel=1e-12)
    # numpy's own weights at the two smallest nodes of the 100-point rule
    # sit about 5e-12 off a 60-digit reference (this rule's, about 7e-14),
    # so the comparison allows 1e-11.
    for got, want in zip(weights, want_weights):
        if want > 1e-200:
            assert got == pytest.approx(float(want), rel=1e-11)


def test_laggauss_node_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(pointwise, "_NEWTON_STEPS", 1)
    with pytest.raises(QuadratureFailure, match="did not converge in 1 Newton steps"):
        pointwise._laggauss.__wrapped__(pointwise._RULE_NODES)


def _hex(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("n", [1, 2, 3, 10, 80, 100])
def test_laggauss_is_the_table_per_step_rule_bit_for_bit(n):
    want_nodes, want_weights = _laggauss_table_per_step(n)
    nodes, weights = pointwise._laggauss.__wrapped__(n)
    assert _hex(nodes) == _hex(want_nodes)
    assert _hex(weights) == _hex(want_weights)


def test_borel_bessel_values_match_mpmath():
    # At every node the float J0 series is within rounding of mpmath's.
    import mpmath

    largest = 0.0
    nodes, weights = pointwise._laggauss(pointwise._RULE_NODES)
    for x in pointwise._BOREL_XS:
        err = 0.0
        for s, w in zip(nodes, weights):
            arg = math.sqrt(s) * x
            largest = max(largest, arg)
            got = specialfns.bessel_j0(arg, pointwise._BOREL_CTRL)
            err += w * abs(got - float(mpmath.besselj(0, arg)))
        assert err <= 1e-15, x
    assert largest < 17.0


#: x ladder of the soundness tests: the grid's x = 3 and beyond it.
_LADDER = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0)


def _mp_laguerre_rule(n):
    """The n-node Gauss-Laguerre rule at the working mpmath precision: the
    roots s of L_n, weights s / ((n + 1)^2 L_{n+1}(s)^2)."""
    import mpmath

    coeffs = [
        mpmath.mpf((-1) ** k * math.comb(n, k)) / math.factorial(k) for k in range(n, -1, -1)
    ]
    roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
    nodes = sorted(mpmath.re(r) for r in roots)
    return [(s, s / ((n + 1) ** 2 * mpmath.laguerre(n + 1, 0, s) ** 2)) for s in nodes]


def test_gauss_laguerre_remainder_bound_holds_at_50_digits():
    # The proven bound against the 50-digit rule, for rules around the one
    # EQ3.19 runs; below 1e-45 the working precision, not the rule, speaks.
    import mpmath

    worst = 0.0
    with mpmath.workdps(50):
        for n in range(4, 15):
            rule = _mp_laguerre_rule(n)
            for x in _LADDER:
                value = mpmath.fsum(w * mpmath.besselj(0, x * mpmath.sqrt(s)) for s, w in rule)
                err = float(abs(value - mpmath.exp(-mpmath.mpf(x) ** 2 / 4)))
                bound = pointwise._remainder(n, x)
                assert err <= bound + 1e-45, (n, x, err, bound)
                if bound > 1e-40:
                    worst = max(worst, err / bound)
                # The rule underestimates the integral of I0(x sqrt s).
                upper = mpmath.fsum(w * mpmath.besseli(0, x * mpmath.sqrt(s)) for s, w in rule)
                assert upper <= mpmath.exp(mpmath.mpf(x) ** 2 / 4) + 1e-45, (n, x)
    assert 0.5 < worst <= 1.0


def test_float_rule_is_within_its_charge_on_the_ladder(monkeypatch):
    monkeypatch.setattr(pointwise, "_BOREL_XS", _LADDER)
    n = pointwise._RULE_NODES
    nodes, weights = pointwise._laggauss(n)
    rows = list(pointwise.borel_points(tol=1.0))
    assert len(rows) == len(_LADDER)
    for x, row in zip(_LADDER, rows):
        assert pointwise._remainder(n, x) <= row.tail
        assert abs(row.lhs - math.exp(-x * x / 4.0)) <= row.tail, x
        # Sigma w I0, the charge's rounding scale, stays below e^(x^2/4) up
        # to the rounding of this sum itself.
        upper = sum(
            w * specialfns.bessel_i(0, math.sqrt(s) * x) for s, w in zip(nodes, weights)
        )
        assert upper <= math.exp(x * x / 4.0) * (1.0 + 4 * n * 2.0**-53), x


_BOREL_POINTS = pointwise.borel_points
_LAGGAUSS = pointwise._laggauss


def _moved_rhs(move):
    def points(tol):
        for x, row in zip(pointwise._BOREL_XS, _BOREL_POINTS(tol)):
            yield row._replace(rhs=move(x, row.rhs))

    return points


def _heavier_largest_weight(n):
    nodes, weights = _LAGGAUSS(n)
    k = weights.index(max(weights))
    return nodes, (*weights[:k], weights[k] * (1.0 + 1e-6), *weights[k + 1 :])


#: EQ3.19 mutants, as (module attribute, replacement).
_QUADRATURE_MUTANTS = {
    "rhs * (1 + 1e-6)": ("borel_points", _moved_rhs(lambda x, r: r * (1.0 + 1e-6))),
    "rhs + 1e-7": ("borel_points", _moved_rhs(lambda x, r: r + 1e-7)),
    "rhs negated": ("borel_points", _moved_rhs(lambda x, r: -r)),
    "closed form at x + 1": (
        "borel_points",
        _moved_rhs(lambda x, r: math.exp(-(((x + 1.0) / 2.0) ** 2))),
    ),
    "largest weight * (1 + 1e-6)": ("_laggauss", _heavier_largest_weight),
    "6-node rule": ("_RULE_NODES", 6),
    "9-node rule": ("_RULE_NODES", 9),
}

#: The kill table: how check_quadrature("EQ3.18") ends under each mutant.
#: The 6-node rule's proven error at x = 3, 3.8e-8, is over tol, so it ends
#: in QuadratureFailure.  The 9-node rule is the one expected survivor: its
#: proven error at x = 3 is 7.0e-15, far below tol 1e-8.
QUADRATURE_KILLS = {
    "rhs * (1 + 1e-6)": "4 of 4 points fail",
    "rhs + 1e-7": "4 of 4 points fail",
    "rhs negated": "4 of 4 points fail",
    "closed form at x + 1": "4 of 4 points fail",
    "largest weight * (1 + 1e-6)": "4 of 4 points fail",
    "6-node rule": "QuadratureFailure after 3 points: failed points: charged error "
    "3.804e-08 (proven remainder 3.803e-08) exceeds 1.0e-08 at x=3.0",
    "9-node rule": "pass",
}


def _quadrature_outcome():
    report = check_quadrature("EQ3.18")
    if report.passed:
        return "pass"
    note = report.notes[-1]
    if "proven remainder" in note:
        return f"QuadratureFailure after {report.grid_size} points: {note}"
    return f"{note.count('EQ3.19[')} of {report.grid_size} points fail"


def test_eq3_19_kill_table(monkeypatch):
    kills = {}
    for name, (attr, replacement) in _QUADRATURE_MUTANTS.items():
        with monkeypatch.context() as m:
            m.setattr(pointwise, attr, replacement)
            kills[name] = _quadrature_outcome()
    assert kills == QUADRATURE_KILLS
    assert _quadrature_outcome() == "pass"


def test_verify_all_reads_a_short_prefix_of_every_hermite_iterator(monkeypatch, capsys):
    # The Hermite right sides stop after a few dozen terms; none builds a
    # table sized to the summation budget (400).
    yielded = []

    def counted(make):
        def wrapper(*args):
            yielded.append(0)
            slot = len(yielded) - 1
            for value in make(*args):
                yielded[slot] += 1
                yield value

        return wrapper

    for module, name in (
        (pointwise, "hermite_coeffs"),
        (pointwise, "hermite_h_values"),
        (specialfns, "hermite_coeffs"),
    ):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    assert cli.main(["verify", "--all", "--no-timestamp"]) == 0
    capsys.readouterr()
    # EQ2.7, EQ2.8, EQ2.9, EQ3.1: 4 points each; EQ3.3, EQ3.4: 3 each; EQ3.5:
    # 6 points with l + 1 = 1 or 2 Hermite-Tricomi sums each.
    assert len(yielded) == 31
    assert 0 < min(yielded) and max(yielded) <= 40


def test_point_outcome_labels_are_unique():
    for engine in ENGINES:
        labels = [row.label for row in engine(20, 1.0, CTRL)]
        assert len(labels) == len(set(labels)), engine.__name__


def _closure_sum_with_stability(term_at, n_terms):
    """The driver's loop when a point returned a term closure: the oracle."""
    total = 0.0
    recent = [0.0] * 3
    for n in range(n_terms):
        t = term_at(n)
        total += t
        recent[n % 3] = abs(t)
    pushed = total
    for n in range(n_terms, n_terms + pointwise.STABILITY_EXTRA):
        pushed += term_at(n)
    return total, max(recent), abs(pushed - total)


def _same_float(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _assert_matches_oracle(terms, n_terms):
    got = pointwise._sum_with_stability(terms, n_terms)
    want = _closure_sum_with_stability(terms.__getitem__, n_terms)
    assert all(map(_same_float, got, want)), (got, want)


_TERMS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
)


@pytest.mark.parametrize("n_terms", [1, 2, 3, 4, 5, 40])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_list_sum_matches_closure_oracle(n_terms, data):
    size = n_terms + pointwise.STABILITY_EXTRA
    _assert_matches_oracle(data.draw(st.lists(_TERMS, min_size=size, max_size=size)), n_terms)


@pytest.mark.parametrize(
    "terms",
    [
        [math.nan, 1.0, 2.0] + [0.5] * 10,
        [1.0, math.nan, 2.0] + [0.5] * 10,
        [1.0, 2.0, math.inf] + [-math.inf] * 10,
        [-math.inf, 1.0, -0.0] + [math.nan] + [0.0] * 9,
    ],
)
@pytest.mark.parametrize("n_terms", [1, 2, 3])
def test_list_sum_matches_closure_oracle_on_nan_and_inf(terms, n_terms):
    _assert_matches_oracle(terms[: n_terms + pointwise.STABILITY_EXTRA], n_terms)


@pytest.mark.parametrize("short", [None, "weights", "row"])
def test_engine_sums_weights_times_row_and_rejects_a_short_side(short):
    @pointwise._engine("TOY", ({"t": 0.5},))
    def toy(top, ctrl, t):
        sides = {"weights": [t**n for n in range(top)], "row": [1.0] * top}
        if short:
            sides[short].pop()
        return sides["weights"], sides["row"], 2.0

    if short is None:
        (row,) = toy(60, 1.0, CTRL)
        assert row.lhs == pytest.approx(2.0, rel=1e-15)  # 1 / (1 - t)
    else:
        with pytest.raises(IndexError):
            list(toy(5, 1.0, CTRL))


def test_eq1_7_and_eq1_9_build_their_shared_rows_once(monkeypatch):
    # The first two grid points of EQ1.7 and EQ1.9 have the same
    # (alpha, beta, x, y): 4 + 2 tables, not 4 + 4.
    calls = []
    lambda_sequence = pointwise.lambda_sequence

    def counting(*args):
        calls.append(args)
        return lambda_sequence(*args)

    monkeypatch.setattr(pointwise, "lambda_sequence", counting)
    pointwise._lambda_rows.cache_clear()
    try:
        assert check_pointwise("EQ1.7").passed and check_pointwise("EQ1.9").passed
    finally:
        pointwise._lambda_rows.cache_clear()
    assert len(calls) == 6


def test_shared_rows_are_keyed_by_type():
    # int 1 takes the weights 1/k! and float 1.0 takes rgamma(k + 1.0); the
    # weights differ in some bits, so one table must not stand in for the other.
    pointwise._lambda_rows.cache_clear()
    try:
        for alpha in (1, 1.0):
            fresh = pointwise.lambda_sequence(70, alpha, 2, 2.0, 0.5)
            rows = pointwise._lambda_rows(70, alpha, 2, 2.0, 0.5)
            assert type(rows) is tuple
            assert [v.hex() for v in rows] == [v.hex() for v in fresh]
        assert pointwise._lambda_rows.cache_info().currsize == 2
    finally:
        pointwise._lambda_rows.cache_clear()


def _grid_t0(engine):
    """The t of an engine's first grid point, read off its label."""
    return float(next(engine(10, 1.0, CTRL)).label.rpartition("t=")[2].rstrip("]"))


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
def test_engines_off_the_grid_finish_or_raise_a_typed_error(engine):
    # Scale 1/t0 puts the first grid point at t = 1, a pole of seven cases'
    # weights or right sides; scale -1 puts every t under a square root in
    # four.  Either the run finishes with finite sides or it ends in a
    # LacunaryError, never a bare ZeroDivisionError or ValueError.
    for scale in (1.0 / _grid_t0(engine), -1.0):
        try:
            rows = list(engine(10, scale, CTRL))
        except LacunaryError:
            continue
        assert all(math.isfinite(row.lhs) and math.isfinite(row.rhs) for row in rows)


def test_a_point_off_its_domain_names_its_label():
    with pytest.raises(NumericError, match=r"^EQ1\.9\[alpha=0\.5, .*t=1\]: float division by zero"):
        list(pointwise.eq1_9(10, 1.0 / 0.3, CTRL))
    with pytest.raises(NumericError, match=r"^EQ2\.7\[x=1, t=-0\.1\]: math domain error"):
        list(pointwise.eq2_7(10, -1.0, CTRL))


_U = 2.0**-53


def _egf_factors(t, top):
    """[t^n / n!] for n < top: the exponential weights before _weights."""
    out = [1.0]
    for n in range(1, top):
        out.append(out[-1] * t / n)
    return out


def _half_pochhammer_weights(t, b, top):
    """[(1/2)_n / (b)_n t^n] for n <= top: EQ3.9's and EQ3.10's weights
    before _weights."""
    w = [1.0]
    for n in range(top):
        w.append(w[-1] * t * (0.5 + n) / (b + n))
    return w


_T = st.floats(-1.0, 1.0)
_TOP = st.integers(1, 400)


@settings(max_examples=100, deadline=None)
@given(t=_T, b=st.floats(0.0, 1e3, exclude_min=True), top=_TOP)
def test_weights_are_the_old_builders_bit_for_bit(t, b, top):
    assert _hex(pointwise._weights(t, top, down=(1,))) == _hex(_egf_factors(t, top))
    half = pointwise._weights(t, top, up=(0.5,), down=(b,))
    assert _hex(half) == _hex(_half_pochhammer_weights(t, b, top)[:top])


def _check_against_exact(weights, t, up, down, roundings):
    """Each normal-range w_n against t^n prod (a)_n / prod (b)_n in Fraction
    arithmetic at the same float inputs, within roundings * n * u.  A step
    makes at most `roundings` roundings and the first step's 1.0 * t and
    sums a + 0 are exact, so w_n carries k < roundings * n of them, and
    Higham's gamma_k = k u / (1 - k u) is below (k + 1) u."""
    exact = Fraction(1)
    for n, w in enumerate(weights):
        if n:
            k = n - 1
            exact *= Fraction(t)
            for a in up:
                exact *= Fraction(a) + k
            for b in down:
                exact /= Fraction(b) + k
        if abs(exact) < 2.0**-1022:
            break  # |w_n| falls with n: past here every value is subnormal
        assert abs(Fraction(w) - exact) <= roundings * n * _U * abs(exact), (n, w)


@settings(max_examples=50, deadline=None)
@given(t=_T, top=_TOP)
def test_ordinary_weights_are_within_n_u_of_t_to_the_n(t, top):
    _check_against_exact(pointwise._weights(t, top), t, (), (), 1)


@settings(max_examples=50, deadline=None)
@given(t=_T, alpha=st.one_of(st.integers(0, 3), st.floats(0.0, 3.0)), top=_TOP)
def test_eq3_11_weights_match_the_fraction_product(t, alpha, top):
    # EQ3.11's (1/3)_n (2/3)_n / ((1 + a/3)_n ((2 + a)/3)_n) t^n, as its point
    # builds it: per step t, two sums a + n, two products, two sums b + n and
    # two quotients, 9 roundings.  (2n u is too tight: the measured error
    # reaches 2.2 n u at n < 10.)
    up = (1.0 / 3.0, 2.0 / 3.0)
    down = (1.0 + alpha / 3.0, (2.0 + alpha) / 3.0)
    _check_against_exact(pointwise._weights(t, top, up, down), t, up, down, 9)


_WEIGHTS = pointwise._weights
_REGISTRY = importlib.import_module("lacunary.identities.registry")
NUMERIC_CASES = [e.__name__.replace("_", ".").upper() for e in ENGINES]


def _moved_weight(n, move):
    def weights(*args, **kwargs):
        w = _WEIGHTS(*args, **kwargs)
        w[n] = move(w[n])
        return w

    return weights


#: Left-side mutants, each a replacement for pointwise._weights.
_WEIGHT_MUTANTS = {
    "w_1 * (1 + 1e-6)": _moved_weight(1, lambda w: w * (1.0 + 1e-6)),
    "w_1 negated": _moved_weight(1, lambda w: -w),
    "w_2 * (1 + 1e-6)": _moved_weight(2, lambda w: w * (1.0 + 1e-6)),
}

#: The kill table: check_pointwise's failing points per numeric case under
#: each weight mutant.  Moving w_k moves the left side by the move times
#: w_k row_k, so a point fails only where that is over tol = 1e-8 of its
#: scale max(1, |lhs|, |rhs|).  Points where row_1 is 0 never see w_1:
#: EQ2.14 at alpha=1, x=2, y=1; EQ3.8 at x=y=1; EQ3.9 at alpha=2, x=2.  The
#: other points w_1 * (1 + 1e-6) misses have |w_1 row_1| below 1e-2 of
#: their scale (EQ3.3 at l=2; EQ3.8 at x=0.6; EQ3.11 at alpha=0, x=2 and
#: alpha=1, x=1).  Every report fails under both w_1 mutants.
WEIGHT_KILLS = {
    "w_1 * (1 + 1e-6)": {
        "EQ1.7": 4, "EQ1.9": 4, "EQ1.12": 4, "EQ2.7": 4, "EQ2.8": 4, "EQ2.9": 4,
        "EQ2.10": 4, "EQ2.11": 3, "EQ2.13": 4, "EQ2.14": 3, "EQ3.1": 4, "EQ3.3": 2,
        "EQ3.4": 3, "EQ3.5": 6, "EQ3.8": 1, "EQ3.9": 3, "EQ3.10": 8, "EQ3.11": 2,
    },
    "w_1 negated": {
        "EQ1.7": 4, "EQ1.9": 4, "EQ1.12": 4, "EQ2.7": 4, "EQ2.8": 4, "EQ2.9": 4,
        "EQ2.10": 4, "EQ2.11": 3, "EQ2.13": 4, "EQ2.14": 3, "EQ3.1": 4, "EQ3.3": 3,
        "EQ3.4": 3, "EQ3.5": 6, "EQ3.8": 2, "EQ3.9": 3, "EQ3.10": 8, "EQ3.11": 4,
    },
    "w_2 * (1 + 1e-6)": {
        "EQ1.7": 2, "EQ1.9": 1, "EQ1.12": 3, "EQ2.7": 1, "EQ2.8": 0, "EQ2.9": 1,
        "EQ2.10": 2, "EQ2.11": 3, "EQ2.13": 4, "EQ2.14": 2, "EQ3.1": 1, "EQ3.3": 0,
        "EQ3.4": 0, "EQ3.5": 0, "EQ3.8": 0, "EQ3.9": 1, "EQ3.10": 5, "EQ3.11": 0,
    },
}

#: The expected survivors of w_2 * (1 + 1e-6), each with its reason: the
#: largest |w_2 row_2| over the case's points, as a share of the point's
#: scale, is below tol / 1e-6 = 1e-2 (about t^2 / 2 for the exponential
#: weight at t <= 0.2), so the move stays under tol at every point.
WEIGHT_SURVIVORS = {
    "EQ2.8": 6.1e-3,
    "EQ3.3": 5.8e-3,
    "EQ3.4": 7.6e-3,
    "EQ3.5": 7.0e-3,
    "EQ3.8": 1.3e-3,
    "EQ3.11": 7.7e-4,
}


def _failing_points(case_id):
    report = check_pointwise(case_id)
    return sum(note.count(case_id + "[") for note in report.notes)


def test_weight_kill_table(monkeypatch):
    # Every failing point is named in the notes.
    monkeypatch.setattr(_REGISTRY, "MAX_NOTED_FAILURES", 100)
    kills = {}
    for name, replacement in _WEIGHT_MUTANTS.items():
        with monkeypatch.context() as m:
            m.setattr(pointwise, "_weights", replacement)
            kills[name] = {case_id: _failing_points(case_id) for case_id in NUMERIC_CASES}
    assert kills == WEIGHT_KILLS
    assert all(_failing_points(case_id) == 0 for case_id in NUMERIC_CASES)
    survivors = [c for c, n in kills["w_2 * (1 + 1e-6)"].items() if n == 0]
    assert survivors == list(WEIGHT_SURVIVORS)


def test_weight_survivors_move_their_left_sides_below_tol(monkeypatch):
    terms = []
    sum_with_stability = pointwise._sum_with_stability

    def spy(row_terms, n_terms):
        terms.append(row_terms)
        return sum_with_stability(row_terms, n_terms)

    monkeypatch.setattr(pointwise, "_sum_with_stability", spy)
    for case_id, share in WEIGHT_SURVIVORS.items():
        engine = getattr(pointwise, case_id.replace(".", "_").lower())
        terms.clear()
        rows = list(engine(_REGISTRY.DEFAULT_TERMS, 1.0, CTRL))
        largest = max(
            abs(t[2]) / max(1.0, abs(row.lhs), abs(row.rhs)) for t, row in zip(terms, rows)
        )
        assert largest == pytest.approx(share, rel=0.05), case_id
        assert largest * 1e-6 < DEFAULT_TOL, case_id
