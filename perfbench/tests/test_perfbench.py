"""Tests of the benchmark's own arithmetic, tracer and output gate.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
if not os.path.isdir(os.path.join(REPO, "src", "lacunary")):
    pytest.skip("needs the lacunary source tree", allow_module_level=True)
sys.path.insert(0, os.path.join(REPO, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["specialfns", 1.0, 4.0, 0],
        ["summation", 2.0, 3.5, 1],
        ["summation", 2.5, 3.0, 2],  # nested in a span of its own name
        ["polys.laguerre", 5.0, 6.0, 0],
    ]
    out = tracer.summarize(spans)
    assert out["cli.main"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert out["specialfns"]["self_s"] == pytest.approx(3.0 - 1.5)
    assert out["summation"]["calls"] == 2
    assert out["summation"]["s"] == pytest.approx(1.5)
    assert out["summation"]["self_s"] == pytest.approx(1.0 + 0.5)
    assert out["layer.polys"]["self_s"] == pytest.approx(1.0)
    layers = sum(v["self_s"] for k, v in out.items() if k.startswith("layer."))
    assert layers == pytest.approx(10.0)


def test_alias_rebinding_reaches_engine_imports():
    from lacunary import polys
    from lacunary.identities import auxpoly, pointwise

    originals = (pointwise.lambda_poly, pointwise.derive_aux_polynomial)
    t = tracer.Tracer()
    bindings = t.install()
    try:
        assert pointwise.lambda_poly is polys.lambda_poly
        assert pointwise.lambda_poly.__wrapped__ is originals[0]
        assert pointwise.derive_aux_polynomial is auxpoly.derive_aux_polynomial
        assert pointwise.derive_aux_polynomial.__wrapped__ is originals[1]
        assert bindings["lacunary.polys.lambda_poly"] == 4
        pointwise.lambda_poly(3, 0, 1, 0.5)
        pointwise.derive_aux_polynomial("p", 1)
    finally:
        t.restore()
    assert (pointwise.lambda_poly, pointwise.derive_aux_polynomial) == originals
    names = [span[0] for span in t.spans]
    assert names.count("polys.lambda_poly") == 1
    assert names.count("auxpoly.derive") == 1
    assert "polys.xpoly" in names


def _report(rows):
    results = [
        {"id": i, "mode": m, "grid_size": g, "truncation": n, "pass": p,
         "max_abs_err": 0.0, "max_rel_err": 0.0, "notes": []}
        for i, m, g, n, p in rows
    ]
    return json.dumps({"run": {"seed": 0}, "results": results})


def test_reference_gate_flags_changed_grid_size_and_pass():
    reference = workloads.load_reference()
    workload = workloads.WORKLOADS["exact-deep"]
    rows = [list(r) for r in reference["exact-deep"]]
    gate = lambda text, status=0: workloads.failed_operations(  # noqa: E731
        workload, reference, workload.name, status, text)

    assert gate(_report(rows)) == 0
    grid = [list(r) for r in rows]
    grid[3][2] += 1
    assert gate(_report(grid)) == 1
    failing = [list(r) for r in rows]
    failing[0][4] = False
    failing[5][4] = False
    assert gate(_report(failing)) == 2
    assert gate(_report(rows[:-1])) == 1
    assert gate(_report(rows), status=1) == len(rows)
    assert gate("not json") == len(rows)


def test_tail_is_the_upper_quartile():
    assert run.tail([float(v) for v in range(1, 22)]) == 16.0
    assert run.tail([3.0, 1.0, 2.0]) == 2.5
    assert run.tail([4.0]) == 4.0


def test_scale_maps_calibration_time_to_reference_seconds():
    assert run.scale_between(run.CAL_REF_S, run.CAL_REF_S) == 1.0
    assert run.scale_between(0.5 * run.CAL_REF_S, 1.5 * run.CAL_REF_S) == 1.0
    assert run.scale_between(2 * run.CAL_REF_S, 2 * run.CAL_REF_S) == 0.5


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units(
        workloads.load_reference()
    )
