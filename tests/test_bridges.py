"""The printed bridge tables that the EQ2.8 and EQ3.4 right sides evaluate:
each has the shape of its exact fit, and the numeric check sees a move of
any one of its coefficients."""

from collections import Counter

import pytest

from lacunary import DomainError
from lacunary.identities import bridges, derive_aux_polynomial, pointwise, satisfies_template
from lacunary.identities.registry import _CTRL, DEFAULT_TERMS, DEFAULT_TOL, _point_rule


@pytest.mark.parametrize("family, m, equal", [("p", 1, True), ("p", 2, False), ("q", 1, True)])
def test_printed_display_has_the_shape_of_its_fit(family, m, equal):
    display, fit = bridges.printed(family, m), derive_aux_polynomial(family, m)
    assert (display.family, display.m) == (family, m)
    assert (display.factorial_shift, display.step) == (fit.factorial_shift, fit.step)
    assert satisfies_template(display, n_max=10)
    # p4 differs from the fit by a null direction; the unique fits equal
    # their displays, in the same key order, so the float sums agree bit for bit.
    assert (list(display.coeffs.items()) == list(fit.coeffs.items())) is equal


def test_printed_has_no_display_past_the_paper():
    for family, m in [("p", 3), ("q", 2), ("z", 1)]:
        with pytest.raises(DomainError, match="no printed display"):
            bridges.printed(family, m)


#: (family, m) -> (engine, label prefix of its registered points).
_POINTS = {
    ("p", 1): (pointwise.eq2_8, "EQ2.8[m=1,"),
    ("p", 2): (pointwise.eq2_8, "EQ2.8[m=2,"),
    ("q", 1): (pointwise.eq3_4, "EQ3.4["),
}

#: The kill table of the single-coefficient mutants (+1 to one coefficient
#: of one table): per display, {registered points failed: mutants}.  Every
#: mutant fails at least one point; none is an expected survivor.  The one
#: partial kill is p4's r^2 t^2 y^4 term: it moves (x=1.5, y=0.5, t=0.12) by
#: 7.8e-9 relative, under tol, and (x=1, y=1, t=0.1) by 2.5e-7.
KILLS = {
    ("p", 1): {2: 9},
    ("p", 2): {2: 31, 1: 1},
    ("q", 1): {3: 14},
}


def test_every_single_coefficient_mutant_fails_a_registered_point(monkeypatch):
    rule = _point_rule(DEFAULT_TOL, budgeted=True)
    kills = {}
    for key, (engine, prefix) in _POINTS.items():
        display = bridges.printed(*key)
        failed = Counter()
        for k in display.coeffs:
            mutant = {**display.coeffs, k: display.coeffs[k] + 1}
            monkeypatch.setitem(bridges._PRINTED, key, display._replace(coeffs=mutant))
            rows = [o for o in engine(DEFAULT_TERMS, 1.0, _CTRL) if o.label.startswith(prefix)]
            assert rows
            failed[sum(rule(o)[2] is not None for o in rows)] += 1
        monkeypatch.setitem(bridges._PRINTED, key, display)
        kills[key] = dict(failed)
    assert kills == KILLS
