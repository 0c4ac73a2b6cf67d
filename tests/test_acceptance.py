"""Release gate: the eight acceptance criteria, one verdict line each.

Each test prints a single pass/fail line and then asserts, so a red run
shows exactly which criterion broke and the printed transcript doubles as
the acceptance record.  Tolerances here are contractual; do not loosen.
"""

import importlib
import json
import math
import time
from fractions import Fraction

from lacunary import (
    SumControl,
    UmbralSeries,
    assoc_laguerre,
    check_coefficients,
    check_pointwise,
    cli,
    get_case,
    laguerre,
    lambda_poly,
)
from lacunary.identities import compare_with_printed, derive_aux_polynomial, pointwise
from lacunary.identities.exact import eq2_12_block
from test_polys import lacunary_decomposition

# The package re-exports a registry() function under the submodule's name,
# so the mutation test reaches the module through sys.modules.
registry_mod = importlib.import_module("lacunary.identities.registry")

F = Fraction

CTRL = SumControl(max_terms=400, rel_tol=1e-16)

RATIONAL_TUPLES = [
    (F(1), F(1)),
    (F(1, 2), F(2)),
    (F(-1, 3), F(3, 4)),
    (F(2), F(-1)),
    (F(-3, 2), F(1, 5)),
]


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {number}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    bad = []
    for x, y in RATIONAL_TUPLES:
        for beta in (1, 2, 3):
            binomial = UmbralSeries.scalar(y) + UmbralSeries.monomial(-x, beta)
            power = UmbralSeries.scalar(F(1))
            for n in range(13):
                if n:
                    power = power * binomial
                if beta == 1 and power.reduce() != laguerre(n, x, y):
                    bad.append(("laguerre", x, y, n))
                for alpha in range(5):
                    got = (UmbralSeries.symbol(alpha) * power).reduce()
                    if got != lambda_poly(n, alpha, beta, x, y):
                        bad.append(("lambda", alpha, beta, x, y, n))
                    if beta == 1:
                        rescale = F(math.factorial(n + alpha), math.factorial(n))
                        if got * rescale != assoc_laguerre(n, alpha, x, y):
                            bad.append(("assoc", alpha, x, y, n))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "umbral reduction equals closed forms",
        not bad and elapsed <= 5.0,
        f"{len(bad)} mismatches, {elapsed:.2f}s",
    )


def test_criterion_2_lacunary_decompositions():
    bad = []
    for x, y in [(F(1), F(1)), (F(1, 2), F(-1)), (F(-2, 3), F(3))]:
        for n in range(7):
            if lacunary_decomposition("double", n, x, y) != laguerre(2 * n, x, y):
                bad.append(("double", x, y, n))
            if lacunary_decomposition("triple", n, x, y) != laguerre(3 * n, x, y):
                bad.append(("triple", x, y, n))
    _verdict(2, "double/triple index decompositions", not bad, f"{len(bad)} bad")


EXACT_SUITE = [
    "EQ1.9", "EQ1.11", "EQ2.13", "EQ3.8",
    "EQ3.14", "EQ3.15", "EQ3.17", "EQ3.18", "EQ3.20", "EQ3.21",
]

TUPLE_DRIVEN = {"EQ1.9", "EQ1.11", "EQ2.13", "EQ3.8"}


def test_criterion_3_exact_coefficient_suite():
    reports = [check_coefficients(case_id) for case_id in EXACT_SUITE]
    suite_ok = all(
        r.passed and r.max_abs_err == 0.0 and r.max_rel_err == 0.0 for r in reports
    )
    # Registry truncations meet or exceed the contract: >= 10 everywhere,
    # >= 20 for the three deep pseudo-Gaussian cases.
    depth_ok = all(r.truncation >= 10 for r in reports) and all(
        r.truncation >= 20
        for r in reports
        if r.case_id in ("EQ3.15", "EQ3.17", "EQ3.21")
    )
    grids_ok = all(
        r.grid_size >= 3 * (r.truncation + 1)
        for r in reports
        if r.case_id in TUPLE_DRIVEN
    )
    block = list(eq2_12_block(range(9), F(1, 3), 12)) + list(
        eq2_12_block(range(9), F(-2, 5), 12)
    )
    block_ok = all(lhs == rhs for _, lhs, rhs in block)
    _verdict(
        3,
        "exact-coefficient suite has zero discrepancy",
        suite_ok and depth_ok and grids_ok and block_ok,
    )


NUMERIC_SUITE = [
    "EQ1.7", "EQ1.12", "EQ2.7", "EQ2.8", "EQ2.9", "EQ2.10", "EQ2.11",
    "EQ2.14", "EQ3.1", "EQ3.3", "EQ3.4", "EQ3.5", "EQ3.9", "EQ3.10", "EQ3.11",
]


def test_criterion_4_numeric_pointwise_suite():
    start = time.perf_counter()
    reports = [check_pointwise(case_id, tol=1e-8) for case_id in NUMERIC_SUITE]
    elapsed = time.perf_counter() - start
    worst_rel = max(r.max_rel_err for r in reports)
    # check_pointwise enforces the tail and N -> N+10 stability budgets
    # (1e-9 at tol 1e-8) per point; passing reports certify all three rules.
    ok = all(r.passed for r in reports) and worst_rel <= 1e-8 and elapsed <= 60.0
    _verdict(
        4,
        "numeric pointwise suite within 1e-8",
        ok,
        f"worst rel {worst_rel:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_bridge_polynomials():
    p1_verdict, _ = compare_with_printed(derive_aux_polynomial("p", 1))
    r28 = check_pointwise("EQ2.8", tol=1e-9)
    r34 = check_pointwise("EQ3.4", tol=1e-9)
    p2_verdict, _ = compare_with_printed(derive_aux_polynomial("p", 2))
    q1_verdict, _ = compare_with_printed(derive_aux_polynomial("q", 1))
    reported = {"exact_match", "same_weighted_sum"}
    documented = (
        p2_verdict in reported
        and q1_verdict in reported
        and (p2_verdict == "exact_match" or get_case("EQ2.8").notes)
    )
    _verdict(
        5,
        "derived weight polynomials",
        p1_verdict == "exact_match" and r28.passed and r34.passed and bool(documented),
        f"p1 {p1_verdict}, p2 {p2_verdict}, q1 {q1_verdict}",
    )


def test_criterion_6_even_bessel_spot_values():
    rows = {r.label: r for r in pointwise.eq3_10(60, 1.0, CTRL)}
    collapse_ok = True
    for t in (0.1, 0.25, 0.5):
        row = rows[f"EQ3.10[m=0, x=0, t={t:g}]"]
        root = (1.0 - t) ** -0.5
        collapse_ok &= abs(row.lhs - root) <= 1e-12 and abs(row.rhs - root) <= 1e-12
    spot = rows["EQ3.10[m=0, x=1, t=0.09]"]
    spot_ok = abs(spot.lhs - spot.rhs) <= 1e-9
    _verdict(6, "even-index closed form spot values", collapse_ok and spot_ok)


def test_criterion_7_borel_quadrature():
    rows = list(pointwise.borel_points(tol=1e-8))
    seen = set()
    ok = True
    for row in rows:
        x = float(row.label.split("x=")[1].rstrip("]"))
        seen.add(x)
        ok &= row.rhs == math.exp(-((x / 2.0) ** 2))
        ok &= abs(row.lhs - row.rhs) <= 1e-8
    _verdict(7, "transform quadrature", ok and seen == {0.0, 1.0, 2.0, 3.0})


def test_criterion_8_determinism_and_mutation(tmp_path, monkeypatch, capsys):
    target = tmp_path / "report.json"
    argv = [
        "verify", "--all", "--seed", "7", "--no-timestamp", "--report", str(target),
    ]
    rc_first = cli.main(list(argv))
    first = target.read_bytes()
    rc_second = cli.main(list(argv))
    second = target.read_bytes()
    capsys.readouterr()
    determinism_ok = rc_first == 0 and rc_second == 0 and first == second

    # Flip the sign of one engine's closed form: the suite must go red.
    case = registry_mod.get_case("EQ2.9")

    def flipped(n_terms, scale, ctrl, _orig=case.numeric_runner):
        for row in _orig(n_terms, scale, ctrl):
            yield row._replace(rhs=-row.rhs)

    monkeypatch.setitem(
        registry_mod._BY_ID, "EQ2.9", case._replace(numeric_runner=flipped)
    )
    rc_broken = cli.main(["verify", "--all", "--seed", "7", "--no-timestamp"])
    doc = json.loads(capsys.readouterr().out)
    broken_rows = [
        r for r in doc["results"] if r["id"] == "EQ2.9" and r["mode"] == "numeric"
    ]
    mutation_ok = (
        rc_broken == 1 and len(broken_rows) == 1 and broken_rows[0]["pass"] is False
    )
    _verdict(
        8,
        "byte-identical reports and failing mutant",
        determinism_ok and mutation_ok,
        f"exit codes {rc_first}/{rc_second}/{rc_broken}",
    )
