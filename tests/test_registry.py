"""Case registry: lookup, mode dispatch, and report wiring."""

import importlib
import math
import random

import pytest

from lacunary import (
    DomainError,
    ModeUnsupported,
    NonConvergence,
    QuadratureFailure,
    UnknownIdentity,
    all_ids,
    check_coefficients,
    check_pointwise,
    check_quadrature,
    get_case,
    run_case,
)
from lacunary.identities import pointwise
from lacunary.identities.pointwise import PointOutcome

# The package re-exports a registry() function under the submodule's name.
registry_mod = importlib.import_module("lacunary.identities.registry")

EXPECTED_IDS = [
    "EQ1.7", "EQ1.9", "EQ1.11", "EQ1.12",
    "EQ2.7", "EQ2.8", "EQ2.9", "EQ2.10", "EQ2.11", "EQ2.13", "EQ2.14",
    "EQ3.1", "EQ3.3", "EQ3.4", "EQ3.5", "EQ3.8", "EQ3.9", "EQ3.10", "EQ3.11",
    "EQ3.14", "EQ3.15", "EQ3.17", "EQ3.18", "EQ3.20", "EQ3.21",
]

EXACT_IDS = {
    "EQ1.7", "EQ1.9", "EQ1.11", "EQ2.7", "EQ2.13", "EQ3.8",
    "EQ3.14", "EQ3.15", "EQ3.17", "EQ3.18", "EQ3.20", "EQ3.21",
}


def test_registry_order_and_size():
    assert all_ids() == EXPECTED_IDS


def test_unknown_id_error_lists_valid_ids():
    with pytest.raises(UnknownIdentity) as err:
        get_case("EQ9.9")
    assert "EQ9.9" in str(err.value)
    assert "EQ1.7" in str(err.value)


def test_mode_partition():
    exact = {i for i in all_ids() if "exact" in get_case(i).modes}
    quad = {i for i in all_ids() if "quadrature" in get_case(i).modes}
    assert exact == EXACT_IDS
    assert quad == {"EQ3.18"}
    assert all("numeric" in get_case(i).modes or i in EXACT_IDS for i in all_ids())


def test_every_case_passes_in_every_registered_mode():
    reports = []
    for case_id in all_ids():
        reports.extend(run_case(case_id))
    assert len(reports) == 31
    assert all(r.passed for r in reports)
    for r in reports:
        if r.mode == "exact":
            assert r.max_abs_err == 0.0
            assert r.max_rel_err == 0.0
        else:
            assert r.max_rel_err <= 1e-8


def test_mode_dispatch_rejects_unregistered_mode():
    with pytest.raises(ModeUnsupported):
        check_coefficients("EQ2.8")
    with pytest.raises(ModeUnsupported):
        check_pointwise("EQ1.11")
    with pytest.raises(ModeUnsupported):
        check_quadrature("EQ1.7")
    with pytest.raises(ModeUnsupported):
        run_case("EQ1.7", mode="bogus")


def test_run_case_mode_filter():
    (only,) = run_case("EQ2.13", mode="exact")
    assert only.mode == "exact"
    with pytest.raises(ModeUnsupported):
        run_case("EQ2.8", mode="exact")


def test_seeded_runs_are_reproducible():
    a = check_coefficients("EQ1.7", seed=5)
    b = check_coefficients("EQ1.7", seed=5)
    assert a.to_dict() == b.to_dict()


def test_truncation_overrides_are_reported():
    assert check_coefficients("EQ1.7", nmax=6).truncation == 6
    assert check_pointwise("EQ1.7", n_terms=40).truncation == 40


@pytest.mark.parametrize("case_id", ["EQ3.14", "EQ3.15", "EQ3.20", "EQ3.21"])
def test_exact_order_below_one_is_rejected(case_id):
    # These runners yield no rows below order 0, so the report passed empty.
    for nmax in (0, -1):
        with pytest.raises(DomainError):
            check_coefficients(case_id, nmax=nmax)
    with pytest.raises(DomainError):
        run_case(case_id, nmax=-2)


def test_numeric_term_count_below_one_is_rejected():
    # A negative count sliced the terms instead (terms[:-3]).
    for n_terms in (0, -3):
        with pytest.raises(DomainError):
            check_pointwise("EQ1.7", n_terms=n_terms)


@pytest.mark.parametrize("n_terms", [2.5, True, "3"])
def test_numeric_term_count_that_is_no_int_is_rejected(n_terms):
    # 2.5 raised a bare TypeError; True ran a 1-term report.
    with pytest.raises(DomainError, match="order must be an int >= 1"):
        check_pointwise("EQ1.7", n_terms=n_terms)


@pytest.mark.parametrize("nmax", [2.5, True])
def test_exact_order_that_is_no_int_is_rejected(nmax):
    with pytest.raises(DomainError, match="order must be an int >= 1"):
        check_coefficients("EQ1.7", nmax=nmax)


@pytest.mark.parametrize(
    "tol", ["a", None, True, -1.0, 0.0, math.nan, math.inf, -math.inf, 10**400]
)
def test_tolerance_outside_the_finite_positive_reals_is_rejected(tol):
    # "a" and None raised a bare TypeError; -1.0 failed the quadrature report
    # as if the rule were at fault.
    for check, case_id in ((check_pointwise, "EQ1.7"), (check_quadrature, "EQ3.18")):
        with pytest.raises(DomainError, match="tolerance must be a finite real > 0"):
            check(case_id, tol=tol)


#: The two tuples each tuple-driven exact runner draws for seed 0, as their
#: n = 0 labels read at order 1 before the draws became spec data.  A report
#: shows labels only on failure, so the fixtures cannot see these draws.
SEED_0_DRAWS = {
    "EQ1.7": ["alpha=3, beta=2, x=-4/3, y=1", "alpha=3, beta=2, x=1, y=-1/2"],
    "EQ1.9": ["alpha=3, beta=2, x=-4/3, y=1", "alpha=3, beta=2, x=1, y=-1/2"],
    "EQ1.11": ["alpha=3, x=2, y=2/3", "alpha=3, x=1/2, y=2"],
    "EQ2.7": ["x=1/2, y=-4/3", "x=1, y=2/3"],
    "EQ2.13": ["alpha=3, x=2, y=0", "alpha=3, x=1/2, y=2"],
    "EQ3.8": ["x=1/2, y=-4/3, z=1, u=2/3", "x=1, y=-1/2, z=-1, u=2"],
}


@pytest.mark.parametrize("case_id", sorted(SEED_0_DRAWS))
def test_seeded_draws_are_pinned(case_id):
    rows = get_case(case_id).exact_runner(1, random.Random(0))
    firsts = [label for label, _, _ in rows if label.endswith("; n=0]")]
    assert firsts[-2:] == [f"{case_id}[{t}; n=0]" for t in SEED_0_DRAWS[case_id]]


def test_shrunk_grid_still_passes():
    assert check_pointwise("EQ1.7", grid_scale=0.5).passed


@pytest.mark.parametrize("scale", [0.0, -1.0, 5.0, 1.0 + 1e-12, math.nan, math.inf])
def test_grid_scale_outside_the_unit_interval_is_rejected(scale):
    # At 0 every point sits at t = 0, and above 1 off the registered grid.
    with pytest.raises(DomainError):
        check_pointwise("EQ1.7", grid_scale=scale)
    with pytest.raises(DomainError):
        run_case("EQ1.7", mode="numeric", grid_scale=scale)


def test_eq3_10_report_notes_the_normalization():
    report = check_pointwise("EQ3.10")
    assert report.passed
    assert any("normalization" in note for note in report.notes)


def test_case_descriptions_name_behavior():
    # Descriptions state what each case does; display refs live in paper_ref.
    for case_id in all_ids():
        case = get_case(case_id)
        assert case.description
        assert "Eq." not in case.description
        assert case.paper_ref.startswith("Eq")


# -- failing reports ----------------------------------------------------------


def _swap_runner(monkeypatch, case_id, **runner):
    case = get_case(case_id)
    monkeypatch.setitem(registry_mod._BY_ID, case_id, case._replace(**runner))


def test_modes_follow_runners(monkeypatch):
    _swap_runner(monkeypatch, "EQ2.13", numeric_runner=None)
    assert get_case("EQ2.13").modes == ("exact",)
    assert [r.mode for r in run_case("EQ2.13")] == ["exact"]
    with pytest.raises(ModeUnsupported, match="EQ2.13 has no numeric mode"):
        run_case("EQ2.13", mode="numeric")


def test_exact_mismatch_fails_and_names_its_label(monkeypatch):
    case = get_case("EQ2.13")
    perturbed = []

    def runner(order, rng):
        for i, (label, lhs, rhs) in enumerate(case.exact_runner(order, rng)):
            if i == 3:
                perturbed.append(label)
                rhs = rhs + 1
            yield label, lhs, rhs

    _swap_runner(monkeypatch, "EQ2.13", exact_runner=runner)
    report = check_coefficients("EQ2.13")
    assert not report.passed
    assert report.max_abs_err == 1.0
    assert 0.0 < report.max_rel_err <= 1.0
    assert report.notes[-1] == f"1 coefficient mismatches (first: {perturbed[0]})"


def test_a_drawn_tuple_names_its_mismatch_in_full(monkeypatch):
    # Seed 183 draws alpha=0, beta=1, x=-4/3, y=0 first for EQ1.9: after the
    # three base tuples, check 3 (nmax + 1) + 7 is that tuple's n = 7.
    case = get_case("EQ1.9")

    def runner(order, rng):
        for i, (label, lhs, rhs) in enumerate(case.exact_runner(order, rng)):
            yield label, lhs, rhs + (i == 3 * (order + 1) + 7)

    _swap_runner(monkeypatch, "EQ1.9", exact_runner=runner)
    report = check_coefficients("EQ1.9", nmax=10, seed=183)
    assert report.notes[-1] == (
        "1 coefficient mismatches (first: EQ1.9[alpha=0, beta=1, x=-4/3, y=0; n=7])"
    )


@pytest.mark.parametrize("field", ["tail", "drift"])
def test_numeric_budget_overrun_fails_with_small_error(monkeypatch, field):
    # The two sides agree exactly; only the series budget is blown.
    bad = PointOutcome("P[bad]", 2.0, 2.0, 0.0, 0.0)
    bad = bad._replace(**{field: 1e-6})

    def runner(n_terms, scale, ctrl):
        yield PointOutcome("P[ok]", 1.0, 1.0, 0.0, 0.0)
        yield bad

    _swap_runner(monkeypatch, "EQ2.13", numeric_runner=runner)
    report = check_pointwise("EQ2.13")
    assert not report.passed
    assert report.grid_size == 2
    assert report.max_abs_err == report.max_rel_err == 0.0
    assert report.notes[-1] == f"failed points: P[bad] {field}=1.000e-06"


@pytest.mark.parametrize("field", ["lhs", "tail", "drift"])
def test_numeric_nan_fails_the_report(monkeypatch, field):
    nan = float("nan")
    bad = PointOutcome("P[nan]", 1.0, 1.0, 0.0, 0.0)._replace(**{field: nan})

    def runner(n_terms, scale, ctrl):
        yield PointOutcome("P[ok]", 1.0, 1.0, 0.0, 0.0)
        yield bad

    _swap_runner(monkeypatch, "EQ2.13", numeric_runner=runner)
    report = check_pointwise("EQ2.13")
    assert not report.passed
    name = "rel" if field == "lhs" else field
    assert report.notes[-1] == f"failed points: P[nan] {name}=nan"
    if field == "lhs":
        # A NaN error must win the fold, not read as 0.0.
        assert math.isnan(report.max_abs_err) and math.isnan(report.max_rel_err)
    else:
        assert report.max_abs_err == 0.0 and report.max_rel_err == 0.0


@pytest.mark.parametrize(
    "tail, drift, note",
    [
        (1.0, 1.0, "tail=1.000e+00"),
        (0.0, 1.0, "drift=1.000e+00"),
        (0.0, 0.0, "rel=3.333e-01"),
    ],
    ids=["tail", "drift", "rel"],
)
def test_numeric_budgets_are_reported_before_relative_error(monkeypatch, tail, drift, note):
    # A truncated point is named by its tail or drift even when its relative
    # error is over tol too; rel= names a point whose budgets hold.
    def runner(n_terms, scale, ctrl):
        yield PointOutcome("P[off]", 1.0, 1.5, tail, drift)

    _swap_runner(monkeypatch, "EQ2.13", numeric_runner=runner)
    report = check_pointwise("EQ2.13")
    assert report.max_abs_err == 0.5
    assert report.notes[-1] == f"failed points: P[off] {note}"


def test_numeric_error_fails_its_own_report(monkeypatch):
    # A NumericError (here NonConvergence) fails the report it arises in and
    # keeps the rows tallied so far, as a QuadratureFailure does.
    def runner(n_terms, scale, ctrl):
        yield PointOutcome("P[ok]", 1.0, 1.0, 0.0, 0.0)
        raise NonConvergence("no convergence")

    _swap_runner(monkeypatch, "EQ2.13", numeric_runner=runner)
    report = check_pointwise("EQ2.13")
    assert not report.passed
    assert report.grid_size == 1
    assert report.notes[-1] == "failed points: no convergence"


def test_other_typed_errors_still_propagate(monkeypatch):
    def runner(n_terms, scale, ctrl):
        yield PointOutcome("P[ok]", 1.0, 1.0, 0.0, 0.0)
        raise DomainError("bad grid")

    _swap_runner(monkeypatch, "EQ2.13", numeric_runner=runner)
    with pytest.raises(DomainError, match="bad grid"):
        check_pointwise("EQ2.13")


def test_quadrature_failure_keeps_rows_tallied_so_far(monkeypatch):
    message = (
        "charged error 1.000e-06 (proven remainder 1.000e-06) exceeds 1.0e-08 at x=2.0"
    )

    def points(tol):
        yield PointOutcome("EQ3.19[x=0]", 1.0, 1.0, 0.0, 0.0)
        yield PointOutcome("EQ3.19[x=1]", 0.75, 0.75 + 1e-12, 0.0, 0.0)
        raise QuadratureFailure(message)

    _swap_runner(monkeypatch, "EQ3.18", quadrature_runner=points)
    report = check_quadrature("EQ3.18")
    assert not report.passed
    assert report.grid_size == 2
    assert 0.0 < report.max_abs_err < 1e-11
    assert report.notes[-1] == f"failed points: {message}"


def test_nan_consistency_estimate_fails_quadrature(monkeypatch):
    # A NaN rule value meets a finite charged estimate, so the relative-error
    # rule fails the point.
    monkeypatch.setattr(pointwise, "bessel_j0", lambda z, ctrl: math.nan)
    report = check_quadrature("EQ3.18")
    assert not report.passed
    assert report.grid_size == 4
    assert math.isnan(report.max_abs_err)
    assert report.notes[-1].startswith("failed points: EQ3.19[x=0] rel=nan; ")
