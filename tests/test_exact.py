"""Coefficient-level engines must produce literal rational equality."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lacunary import assoc_laguerre, laguerre_xpoly, rgamma_exact
from lacunary.fps import FormalPowerSeries, fps_binomial, fps_x
from lacunary.identities import exact, registry

F = Fraction


def _run(stream):
    checks = list(stream)
    assert checks
    bad = [(label, lhs, rhs) for label, lhs, rhs in checks if lhs != rhs]
    assert not bad, f"{len(bad)} mismatches, first: {bad[:3]}"
    return checks


def _rows(runner, nmax, tuples):
    """Each tuple's two rows from the runner's row builder, equal for n <= nmax."""
    for binding in tuples:
        lhs, rhs = runner.__wrapped__(nmax, **binding)
        bad = [(n, lhs[n], rhs[n]) for n in range(nmax + 1) if lhs[n] != rhs[n]]
        assert not bad, f"{binding}: {len(bad)} mismatches, first: {bad[:3]}"


def test_eq1_7_two_index_egf():
    tuples = [
        {"alpha": 0, "beta": 1, "x": F(1), "y": F(1)},
        {"alpha": 2, "beta": 2, "x": F(1, 2), "y": F(-1, 3)},
        {"alpha": 3, "beta": 3, "x": F(2), "y": F(1, 4)},
    ]
    _rows(exact.eq1_7, 8, tuples)


def test_eq1_9_two_index_ogf():
    tuples = [
        {"alpha": 1, "beta": 1, "x": F(1), "y": F(1)},
        {"alpha": 0, "beta": 2, "x": F(-1, 2), "y": F(1, 3)},
    ]
    _rows(exact.eq1_9, 8, tuples)


def _composed_eq1_9(nmax, alpha, beta, x, y):
    """EQ1.9's right side through the general composition: sum_r g_r s^r at
    s = -x t/(1 - y t), by `compose`, times 1/(1 - y t)."""
    geom = fps_binomial(nmax, y, 1)
    inner = geom * fps_x(nmax, -x)
    outer = FormalPowerSeries(
        [rgamma_exact(beta * r + alpha + 1) for r in range(nmax + 1)]
    )
    return (outer.compose(inner) * geom).coeffs


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=7)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=3),
    _rationals.filter(bool),
    _rationals,
)
@example(60, 3, 3, F(-4, 3), F(0))
@example(7, 0, 1, F(-4, 3), F(0))
@example(25, 2, 2, F(3, 7), F(-5, 2))
def test_eq1_9_horner_equals_the_composed_series(nmax, alpha, beta, x, y):
    _, rhs = exact.eq1_9.__wrapped__(nmax, alpha=alpha, beta=beta, x=x, y=y)
    assert list(rhs) == list(_composed_eq1_9(nmax, alpha, beta, x, y))
    assert all(type(c) is Fraction for c in rhs)


def _names(code):
    """Every global or attribute name a code object and its nested ones read."""
    nested = (c for c in code.co_consts if hasattr(c, "co_names"))
    return set(code.co_names).union(*map(_names, nested))


def test_eq1_9_right_side_forms_no_binomial():
    # The left side is the Pascal sum sum_r C(n, r) g_r (-x)^r y^(n-r); a
    # right side that formed C(n, r) would restate it, not check it.
    assert "comb" not in _names(exact.eq1_9.__wrapped__.__code__)


def test_eq1_11_classical_ogf():
    tuples = [
        {"alpha": 0, "x": F(2, 3), "y": F(1)},
        {"alpha": 2, "x": F(1, 2), "y": F(-1)},
    ]
    _rows(exact.eq1_11, 10, tuples)
    # The registered runner labels its first row n = 0, where both sides are 1.
    label, lhs, rhs = next(exact.eq1_11(10, random.Random(0)))
    assert label == "EQ1.11[alpha=0, x=2/3, y=1; n=0]" and lhs == rhs == F(1)


def test_eq2_7_double_lacunary_egf():
    tuples = [{"x": F(1), "y": F(1)}, {"x": F(1, 2), "y": F(-2, 3)}]
    _rows(exact.eq2_7, 8, tuples)


def test_eq2_13_negative_offset_family():
    tuples = [{"alpha": 3, "x": F(1), "y": F(1)}, {"alpha": 5, "x": F(1, 3), "y": F(2)}]
    _rows(exact.eq2_13, 6, tuples)
    checks = _run(exact.eq2_13(6, random.Random(0)))
    spot = {label: lhs for label, lhs, _ in checks}
    assert spot["EQ2.13[alpha=3, x=1, y=1; n=2]"] == assoc_laguerre(2, 1, 1, 1) == F(1, 2)


def test_eq2_12_inverse_symbol_block():
    _run(exact.eq2_12_block(range(9), F(1, 3), 12))
    _run(exact.eq2_12_block(range(9), F(-2), 12))


def test_eq3_8_bilateral_gf():
    tuples = [
        {"x": F(1), "y": F(1), "z": F(1), "u": F(1)},
        {"x": F(1, 2), "y": F(2), "z": F(-1, 3), "u": F(1, 4)},
    ]
    _rows(exact.eq3_8, 7, tuples)


#: The exact kill table: for each tuple-driven runner and each key of its
#: tuples, how many of its base tuples reject the right side rebuilt with
#: that key moved by +1, against the unmoved left side at order 10.  Every
#: mutant is rejected at every base tuple; a survivor needs a stated reason.
EXACT_KILLS = {
    "EQ1.7": {"alpha": 3, "beta": 3, "x": 3, "y": 3},
    "EQ1.9": {"alpha": 3, "beta": 3, "x": 3, "y": 3},
    "EQ1.11": {"alpha": 3, "x": 3, "y": 3},
    "EQ2.7": {"x": 3, "y": 3},
    "EQ2.13": {"alpha": 3, "x": 3, "y": 3},
    "EQ3.8": {"x": 3, "y": 3, "z": 3, "u": 3},
}


def _rejects(rows, order, binding, key):
    """Whether the left side at `binding` differs from the right side rebuilt
    with `key` moved by +1, at some n <= order."""
    lhs, _ = rows(order, **binding)
    _, rhs = rows(order, **{**binding, key: binding[key] + 1})
    return any(lhs[n] != rhs[n] for n in range(order + 1))


def test_exact_kill_table():
    kills = {}
    for case in registry():
        runner = getattr(exact, case.case_id.replace(".", "_").lower(), None)
        if hasattr(runner, "__wrapped__"):  # order-only and numeric-only cases have no rows
            kills[case.case_id] = {
                key: sum(_rejects(runner.__wrapped__, 10, b, key) for b in runner.base)
                for key in runner.base[0]
            }
    assert kills == EXACT_KILLS


def test_laguerre_derivative_on_monomial():
    # -d/dx x d/dx applied to x^2 is -4x.
    assert exact.laguerre_derivative([F(0), F(0), F(1)]) == [F(0), F(-4)]
    assert exact.laguerre_derivative([F(7)]) == []
    # A numerator list over a fixed denominator stays a list of ints.
    ints = exact.laguerre_derivative([5, -3, 2, 7])
    assert ints == [3, -8, -63] and all(type(c) is int for c in ints)


def _eq3_12_lowering(nmax, ys):
    """The derivative lowers the polynomial index: -d_x x d_x L_n = n L_{n-1}."""
    for y in ys:
        for n in range(1, nmax + 1):
            got = exact.laguerre_derivative(laguerre_xpoly(n, y))
            want = [n * c for c in laguerre_xpoly(n - 1, y)]
            got += [F(0)] * (len(want) - len(got))
            for k, (g, w) in enumerate(zip(got, want)):
                yield f"EQ3.12[y={y}, n={n}, x^{k}]", g, w


def test_eq3_12_lowering_first_step():
    checks = _run(_eq3_12_lowering(1, [F(1), F(-1, 2)]))
    # n = 1 lowers to a constant: one x-coefficient per y node.
    assert len(checks) == 2
    assert all(lhs == F(1) for _, lhs, _ in checks)


def test_eq3_12_lowering_depth():
    # 13 rational nodes pin the y-dependence: every polynomial the lowering
    # check touches has y-degree below 11.
    ys = [F(k, 3) for k in range(-6, 7)]
    checks = _run(_eq3_12_lowering(10, ys))
    assert len(checks) == 715


def _fraction_derivative(coeffs):
    out = [F(0)] * max(len(coeffs) - 1, 0)
    for k in range(1, len(coeffs)):
        out[k - 1] -= k * k * coeffs[k]
    return out


def _fraction_eq3_14(total_order):
    """EQ3.14 on Fraction coefficients, one Fraction operation per step."""
    current = [F((-1) ** b, math.factorial(b)) for b in range(total_order + 1)]
    a_fact = F(1)
    for a in range(total_order + 1):
        if a:
            current = _fraction_derivative(current)
            a_fact *= a
        for b in range(total_order + 1 - a):
            rhs = F((-1) ** b * math.comb(a + b, a), math.factorial(b))
            yield f"EQ3.14[y^{a} x^{b}]", current[b] / a_fact, rhs


def _fraction_eq3_15(order, depth=10):
    start = [F((-1) ** k, math.factorial(k) ** 2) for k in range(order + depth + 1)]
    current = start
    for a in range(1, depth + 1):
        current = _fraction_derivative(current)
        for b in range(order + 1):
            yield f"EQ3.15[a={a}, x^{b}]", current[b], start[b]


def test_eq3_14_and_eq3_15_rows_equal_the_fraction_loops():
    for order in range(41):
        for got, want in ((exact.eq3_14(order), _fraction_eq3_14(order)),
                          (exact.eq3_15(order), _fraction_eq3_15(order)),
                          (exact.eq3_15(order, 3), _fraction_eq3_15(order, 3))):
            got = list(got)
            assert got == list(want), order
            assert all(type(v) is Fraction for _, *pair in got for v in pair)


def test_eq3_14_double_taylor_grid():
    checks = _run(exact.eq3_14(8))
    spot = {label: rhs for label, _, rhs in checks}
    assert spot["EQ3.14[y^0 x^2]"] == F(1, 2)
    assert spot["EQ3.14[y^3 x^1]"] == F(-4)


def test_eq3_15_eigenfunction_depth():
    _run(exact.eq3_15(10, depth=6))


def test_eq3_17_pseudo_gaussian_taylor():
    checks = _run(exact.eq3_17(12))
    assert checks[1][2] == F(-1, 4)


def test_eq3_18_dilated_gaussian():
    checks = _run(exact.eq3_18_exact(12))
    assert checks[1][2] == F(-1, 4)
    assert checks[2][2] == F(1, 32)


def test_eq3_20_umbral_lorentzian():
    _run(exact.eq3_20(12))


def test_eq3_21_erf_series():
    checks = _run(exact.eq3_21(12))
    spot = {label: lhs for label, lhs, _ in checks}
    assert spot["EQ3.21[x^3]"] == F(-1, 3)
