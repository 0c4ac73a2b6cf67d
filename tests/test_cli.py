"""Command line behavior: selection, overrides, reports, exit codes."""

import ast
import csv
import gc
import io
import itertools
import json
import os
import re
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

from lacunary import cli, polys
from lacunary.identities import pointwise


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_prints_every_case(capsys):
    code, out, err = _run(capsys, "list")
    assert code == 0 and not err
    lines = out.strip().splitlines()
    assert len(lines) == 25
    assert lines[0].startswith("EQ1.7 - Eq. 1.7 - ")


def test_verify_single_case_json_document(capsys):
    code, out, _ = _run(capsys, "verify", "--id", "EQ2.13", "--mode", "exact")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"run", "results"}
    (result,) = doc["results"]
    assert result["id"] == "EQ2.13"
    assert result["mode"] == "exact"
    assert result["max_rel_err"] == 0.0
    assert result["pass"] is True
    assert doc["run"]["config"]["ids"] == ["EQ2.13"]


def test_verify_all_passes(capsys):
    code, out, _ = _run(capsys, "verify", "--all", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 31
    assert all(r["pass"] for r in doc["results"])
    assert "timestamp" not in doc["run"]
    assert doc["run"]["seed"] == 0


def test_unknown_id_is_usage_error(capsys):
    code, _, err = _run(capsys, "verify", "--id", "EQ9.9")
    assert code == 2
    assert "EQ9.9" in err


def test_explicit_id_with_missing_mode_is_usage_error(capsys):
    code, _, err = _run(capsys, "verify", "--id", "EQ2.8", "--mode", "exact")
    assert code == 2
    assert "EQ2.8" in err


def test_all_with_mode_filter_skips_silently(capsys):
    code, out, _ = _run(capsys, "verify", "--all", "--mode", "quadrature")
    assert code == 0
    doc = json.loads(out)
    assert [r["id"] for r in doc["results"]] == ["EQ3.18"]


def test_tolerance_must_tighten(capsys):
    code, _, err = _run(capsys, "verify", "--id", "EQ1.7", "--tol", "2e-8")
    assert code == 2 and "tol" in err
    code, _, _ = _run(capsys, "verify", "--id", "EQ1.7", "--tol", "1e-9")
    assert code == 0


def test_grid_scale_must_shrink(capsys):
    code, _, err = _run(capsys, "verify", "--id", "EQ1.7", "--grid-scale", "1.5")
    assert code == 2 and "grid" in err.lower()
    code, _, _ = _run(capsys, "verify", "--id", "EQ1.7", "--grid-scale", "0.5")
    assert code == 0


def test_no_selection_is_usage_error(capsys):
    code, _, err = _run(capsys, "verify")
    assert code == 2
    assert "select" in err.lower() or "id" in err.lower()


def test_report_reruns_are_byte_identical(tmp_path, capsys):
    target = tmp_path / "report.json"
    argv = (
        "verify", "--id", "EQ1.7", "--id", "EQ3.18",
        "--seed", "7", "--no-timestamp", "--report", str(target),
    )
    assert cli.main(list(argv)) == 0
    first = target.read_bytes()
    summary = capsys.readouterr().out
    assert summary.strip().endswith("reports passed")
    assert cli.main(list(argv)) == 0
    capsys.readouterr()
    assert target.read_bytes() == first
    doc = json.loads(first)
    assert [r["id"] for r in doc["results"]] == ["EQ1.7", "EQ1.7", "EQ3.18", "EQ3.18"]


def test_csv_report_parses(capsys):
    code, out, _ = _run(
        capsys, "verify", "--id", "EQ2.13", "--format", "csv", "--no-timestamp"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "seed", "timestamp", "id", "paper_ref", "mode", "grid_size",
        "truncation", "max_abs_err", "max_rel_err", "pass", "notes",
    ]
    assert len(rows) == 3
    assert rows[1][2] == "EQ2.13"
    assert {row[9] for row in rows[1:]} == {"true"}


STAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ")


def test_timestamped_report_carries_the_utc_run_time(capsys):
    # Without --no-timestamp the run's UTC time, to the second, is in the
    # JSON run block (after the seed) and in every CSV row.
    start = datetime.now(timezone.utc).replace(microsecond=0)
    code, out, _ = _run(capsys, "verify", "--id", "EQ2.13", "--mode", "exact")
    assert code == 0
    run = json.loads(out)["run"]
    assert list(run) == ["seed", "timestamp", "config"]
    assert STAMP.fullmatch(run["timestamp"])
    stamped = datetime.strptime(run["timestamp"], "%Y-%m-%dT%H:%M:%SZ")
    assert start <= stamped.replace(tzinfo=timezone.utc) <= datetime.now(timezone.utc)

    code, out, _ = _run(capsys, "verify", "--id", "EQ2.13", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3
    assert all(STAMP.fullmatch(row[1]) for row in rows[1:])


def test_nmax_override_reaches_reports(capsys):
    code, out, _ = _run(capsys, "verify", "--id", "EQ2.7", "--nmax", "45")
    assert code == 0
    doc = json.loads(out)
    assert {r["truncation"] for r in doc["results"]} == {45}


def test_under_truncated_series_fails_honestly(capsys):
    # Eight terms leave a visible tail, so the stability rule must fail
    # the numeric report and the exit code must say so.
    code, out, _ = _run(capsys, "verify", "--id", "EQ2.7", "--nmax", "8")
    assert code == 1
    by_mode = {r["mode"]: r for r in json.loads(out)["results"]}
    assert by_mode["exact"]["pass"] is True
    assert by_mode["numeric"]["pass"] is False
    assert any("tail" in note for note in by_mode["numeric"]["notes"])


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ids": ["EQ2.13"], "mode": "numeric", "seed": 3}))
    code, out, _ = _run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    (result,) = doc["results"]
    assert result["mode"] == "numeric"
    assert doc["run"]["seed"] == 3


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ids": ["EQ2.13"], "mode": "numeric"}))
    code, out, _ = _run(
        capsys, "verify", "--config", str(cfg), "--mode", "exact"
    )
    assert code == 0
    (result,) = json.loads(out)["results"]
    assert result["mode"] == "exact"
    # A config that sets every key reads like the same settings as flags.
    report = tmp_path / "report.json"
    settings = {
        "ids": ["EQ2.13", "EQ1.7"],
        "mode": "numeric",
        "nmax": 40,
        "tol": 1e-9,
        "grid_scale": 0.5,
        "seed": 2,
        "report": str(report),
        "format": "json",
        "no_timestamp": True,
    }
    cfg.write_text(json.dumps(settings))
    by_config = _run(capsys, "verify", "--config", str(cfg)), report.read_text()
    flags = ["--id", "EQ2.13", "--id", "EQ1.7", "--mode", "numeric", "--nmax", "40"]
    flags += ["--tol", "1e-9", "--grid-scale", "0.5", "--seed", "2"]
    flags += ["--report", str(report), "--format", "json", "--no-timestamp"]
    report.unlink()
    assert (_run(capsys, "verify", *flags), report.read_text()) == by_config
    assert '"nmax": 40' in by_config[1]


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ids": ["EQ2.13"], "tolerance": 1e-9}))
    code, _, err = _run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "tolerance" in err


@pytest.mark.parametrize(
    "key, message",
    [
        ("nmax", "nmax must be a positive integer"),
        ("seed", "seed must be an integer"),
        ("tol", "tolerance override must tighten"),
        ("grid_scale", "grid scale must stay inside (0, 1]"),
    ],
)
def test_boolean_config_value_is_rejected(tmp_path, capsys, key, message):
    # JSON true and false load as bool, which Python counts as an int.
    cfg = tmp_path / "cfg.json"
    for value in (True, False):
        cfg.write_text(json.dumps({"ids": ["EQ1.7"], "mode": "exact", key: value}))
        code, out, err = _run(capsys, "verify", "--config", str(cfg))
        assert code == 2 and not out
        assert message in err


@pytest.mark.parametrize(
    "key, values, message",
    [
        # An int report would be taken as a file descriptor and closed.
        ("report", (1, True, ["r.json"]), "report must be a file path or null"),
        ("no_timestamp", ("no", 0, None), "no_timestamp must be true or false"),
    ],
)
def test_mistyped_config_value_is_rejected(tmp_path, capsys, key, values, message):
    cfg = tmp_path / "cfg.json"
    for value in values:
        cfg.write_text(json.dumps({"ids": ["EQ2.13"], "mode": "exact", key: value}))
        code, out, err = _run(capsys, "verify", "--config", str(cfg))
        assert code == 2 and not out
        assert message in err


def test_non_dict_config_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(["EQ2.13"]))
    code, _, err = _run(capsys, "verify", "--config", str(cfg))
    assert code == 2


def _child_env():
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_verify_all_never_imports_numpy(tmp_path):
    # numpy is a test oracle only; a fresh process running every case,
    # the quadrature included, must not load it.
    report = tmp_path / "report.json"
    script = (
        "import sys\n"
        "from lacunary import cli\n"
        f"argv = ['verify', '--all', '--no-timestamp', '--report', {str(report)!r}]\n"
        "assert cli.main(argv) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=_child_env(),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(report.read_text())["results"]


@pytest.mark.parametrize(
    "argv",
    [["list"], ["verify", "--id", "EQ1.7", "--mode", "exact", "--no-timestamp"]],
)
def test_a_reader_that_closes_early_ends_the_run_quietly(argv):
    # The pipe's read end is closed before the child writes, so its first
    # write to stdout fails with EPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "lacunary.cli", *argv],
            env=_child_env(),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == ""


@pytest.mark.parametrize(
    "argv",
    [["list"], ["verify", "--id", "EQ3.14", "--no-timestamp"], ["verify"]],
)
def test_main_in_process_freezes_nothing(capsys, argv):
    # Only the process entry point `run` freezes the heap; tests and
    # perfbench's tracer call `main` in process.
    before = gc.get_freeze_count()
    cli.main(argv)
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_the_exit_path_keeps_code_report_and_stdout(tmp_path, capsys):
    # A child that exits through `run` writes what `main` writes in process;
    # an atexit hook, which runs after `run` has frozen the heap, reports
    # the frozen object count on stderr.
    argv = ["verify", "--id", "EQ1.7", "--no-timestamp", "--report"]
    script = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: sys.stderr.write(str(gc.get_freeze_count())))\n"
        "from lacunary import cli\n"
        "cli.run()\n"
    )
    child = tmp_path / "child.json"
    done = subprocess.run(
        [sys.executable, "-c", script, *argv, str(child)],
        env=_child_env(),
        capture_output=True,
        text=True,
    )
    code, out, err = _run(capsys, *argv, str(tmp_path / "parent.json"))
    assert done.returncode == code == 0 and not err
    assert done.stdout == out
    assert int(done.stderr) > 0
    assert child.read_bytes() == (tmp_path / "parent.json").read_bytes()


@pytest.mark.parametrize("argv", [["verify"], ["verify", "--id", "EQ9.9"], ["nosuch"]])
def test_a_usage_error_still_exits_2(argv):
    done = subprocess.run(
        [sys.executable, "-m", "lacunary.cli", *argv],
        env=_child_env(),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2
    assert done.stdout == "" and "error" in done.stderr


def test_script_and_module_exit_through_one_function():
    tomllib = pytest.importorskip("tomllib")
    root = Path(cli.__file__).resolve().parents[2]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["lacunary"]
    tree = ast.parse(Path(cli.__file__).read_text())
    (block,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    (call,) = [node.value for node in block.body if isinstance(node, ast.Expr)]
    assert not call.args and target == f"lacunary.cli:{call.func.id}"
    assert getattr(cli, call.func.id) is cli.run


OVERFLOW = "float lambda rows to degree 1110 overflow"


@pytest.mark.parametrize("case_id", ["EQ1.7", "EQ1.9"])
def test_float_overflow_at_large_nmax_is_a_typed_error(capsys, case_id):
    # The kernel's NumericError fails the case's own report.  Point 1
    # (t = 0.3) stays in the float range and is evaluated.
    code, out, err = _run(capsys, "verify", "--id", case_id, "--mode", "numeric", "--nmax", "1100")
    assert code == 1 and not err
    (result,) = json.loads(out)["results"]
    assert result["pass"] is False and result["grid_size"] == 1
    assert result["notes"][-1].startswith(f"failed points: {OVERFLOW}")


def test_only_exact_lambda_rows_walk_pascal_rows(capsys, monkeypatch):
    # Float rows come from one binomial-transform table per grid point.
    calls = []
    pascal_rows = polys._pascal_rows

    def counting(*args):
        calls.append(args)
        return pascal_rows(*args)

    monkeypatch.setattr(polys, "_pascal_rows", counting)
    pointwise._lambda_rows.cache_clear()
    try:
        ids = ("--id", "EQ1.7", "--id", "EQ1.9", "--id", "EQ2.9")
        code, _, _ = _run(capsys, "verify", "--mode", "numeric", "--nmax", "160", *ids)
    finally:
        pointwise._lambda_rows.cache_clear()
    assert code == 0 and calls == []
    code, _, _ = _run(capsys, "verify", "--mode", "exact", "--id", "EQ1.7")
    assert code == 0 and calls


def test_only_eq3_18_reduces_a_built_exponential(capsys, monkeypatch):
    # The exact right sides reduce their exponentials with reduce_exp; only
    # EQ3.18 builds one, to dilate it before the reduction.
    from lacunary import umbral

    calls = []
    reduce_poly = umbral.UmbralSeries.reduce_poly

    def counting(self):
        calls.append(len(self.terms))
        return reduce_poly(self)

    monkeypatch.setattr(umbral.UmbralSeries, "reduce_poly", counting)
    ids = ("--id", "EQ1.7", "--id", "EQ2.7", "--id", "EQ2.13", "--id", "EQ3.8", "--id", "EQ3.17")
    code, _, _ = _run(capsys, "verify", "--mode", "exact", *ids)
    assert code == 0 and calls == []
    code, _, _ = _run(capsys, "verify", "--mode", "exact", "--id", "EQ3.18")
    assert code == 0 and calls


def test_numeric_error_in_one_case_keeps_the_other_reports(capsys):
    code, out, err = _run(
        capsys, "verify", "--id", "EQ2.7", "--id", "EQ1.7",
        "--mode", "numeric", "--nmax", "1100", "--no-timestamp",
    )
    assert code == 1 and not err
    eq2_7, eq1_7 = json.loads(out)["results"]
    assert (eq2_7["id"], eq2_7["pass"], eq2_7["grid_size"]) == ("EQ2.7", True, 4)
    assert (eq1_7["id"], eq1_7["pass"]) == ("EQ1.7", False)
    assert OVERFLOW in eq1_7["notes"][-1]


def test_derive_aux_reports_matches(capsys):
    code, out, _ = _run(capsys, "derive-aux", "--family", "p", "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["matches_paper"] is True
    assert doc["verdict"] == "exact_match"
    assert doc["factorial_shift"] == 3
    assert any(
        c["r_power"] == 2 and c["t_power"] == 0 and c["value"] == "1"
        for c in doc["coefficients"]
    )


def test_derive_aux_q_family(capsys):
    code, out, _ = _run(capsys, "derive-aux", "--family", "q")
    assert code == 0
    doc = json.loads(out)
    assert doc["matches_paper"] is True
    assert doc["factorial_shift"] == 4


def test_derive_aux_reports_null_direction_mismatch(capsys):
    code, out, _ = _run(capsys, "derive-aux", "--family", "p", "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["matches_paper"] is False
    assert doc["verdict"] == "same_weighted_sum"


def test_derive_aux_rejects_unsupported_order(capsys):
    code, _, err = _run(capsys, "derive-aux", "--family", "q", "--m", "2")
    assert code == 2
    assert "m" in err


FIXTURES = Path(__file__).parent / "fixtures"

GOLDEN = [
    (("verify", "--all", "--seed", "0", "--no-timestamp"), "verify_all_seed0.json"),
    (("derive-aux", "--family", "p", "--m", "1"), "derive_aux_p1.json"),
    (("derive-aux", "--family", "p", "--m", "2"), "derive_aux_p2.json"),
    (("derive-aux", "--family", "p", "--m", "3"), "derive_aux_p3.json"),
    (("derive-aux", "--family", "q", "--m", "1"), "derive_aux_q1.json"),
    (("derive-aux", "--family", "p", "--m", "4"), "derive_aux_p4.json"),
    (("list",), "list.txt"),
    (
        ("verify", "--all", "--seed", "0", "--no-timestamp", "--format", "csv"),
        "verify_all_seed0.csv",
    ),
    (
        ("verify", "--mode", "numeric", "--nmax", "160", "--id", "EQ1.7",
         "--id", "EQ1.9", "--id", "EQ2.9", "--seed", "0", "--no-timestamp"),
        "verify_lambda_n160.json",
    ),
    (
        ("verify", "--mode", "numeric", "--nmax", "160",
         *(a for cid in ("EQ1.12", "EQ2.7", "EQ2.10", "EQ2.11", "EQ2.13", "EQ2.14",
                         "EQ3.1", "EQ3.3", "EQ3.5", "EQ3.8", "EQ3.9", "EQ3.10",
                         "EQ3.11") for a in ("--id", cid)),
         "--seed", "0", "--no-timestamp"),
        "verify_rhs_n160.json",
    ),
    (
        ("verify", "--all", "--mode", "exact", "--nmax", "30", "--seed", "3",
         "--no-timestamp"),
        "verify_exact_n30_seed3.json",
    ),
]


def _moved_fields(old: dict, new: dict) -> list:
    """(id, mode, field, "old -> new") for each report field of a verify
    document that differs, reports paired in order."""
    moved = []
    for was, now in itertools.zip_longest(old["results"], new["results"], fillvalue={}):
        key = (was.get("id", now.get("id")), was.get("mode", now.get("mode")))
        for field in sorted(was.keys() | now.keys()):
            if repr(was.get(field)) != repr(now.get(field)):
                moved.append((*key, field, f"{was.get(field)!r} -> {now.get(field)!r}"))
    return moved


@pytest.mark.parametrize("argv, name", GOLDEN, ids=[name for _, name in GOLDEN])
def test_output_matches_golden_fixture(capsys, argv, name):
    # The fixtures were recorded with CPython 3.11.7 (no output depends on
    # numpy); a refactor must reproduce them byte for byte, float digits
    # included.  A verify document is compared report by report first, so
    # a mismatch names the fields that moved.
    code, out, err = _run(capsys, *argv)
    assert code == 0 and not err
    if name.startswith("verify_") and name.endswith(".json"):
        moved = _moved_fields(json.loads((FIXTURES / name).read_text()), json.loads(out))
        assert not moved, "moved report fields:\n" + "\n".join(" ".join(m) for m in moved)
    assert out.encode("utf-8") == (FIXTURES / name).read_bytes()
