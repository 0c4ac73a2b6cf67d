"""Batch command line front end.

Three subcommands: `list` prints the registry, `verify` runs selected
cases and emits a machine-readable report, `derive-aux` fits a bridge
polynomial and prints it with the printed-display comparison.

Reports are pure functions of the run configuration: a fixed seed plus
--no-timestamp gives byte-identical files across runs.  Floats are written
with 17 significant digits; dictionary order is fixed by construction.

Exit codes: 0 all selected checks passed, 1 any failure (or report I/O
failure, with the partial report dumped to stderr; a reader that closes
stdout early ends the run quietly with 1), 2 usage or configuration
errors.

`main(argv)` changes no process-wide state, so it can run in process; the
console script and `python -m lacunary.cli` exit through `run()`.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import sys
from typing import NoReturn, Optional, Sequence

from .errors import DomainError, LacunaryError, UnknownIdentity
from .identities import DEFAULT_TOL, MODES

_MODES = (*MODES, "all")
_FORMATS = ("json", "csv")
#: Every config key with its default, in `run.config` order.  The keys in
#: _UNREPORTED stay out of `run.config`; `ids` and `no_timestamp` have flags
#: of another shape (`--id`/`--all`, a store-true switch) and resolve apart.
_CONFIG = {
    "ids": None,
    "mode": "all",
    "nmax": None,
    "tol": DEFAULT_TOL,
    "grid_scale": 1.0,
    "format": "json",
    "seed": 0,
    "report": None,
    "no_timestamp": False,
}
_UNREPORTED = ("seed", "report", "no_timestamp")


class UsageError(Exception):
    pass


# -- deterministic serialization --------------------------------------------


def _float_repr(v: float) -> str:
    if not math.isfinite(v):
        # JSON has no literal for these; only failing reports contain them.
        return json.dumps(format(v, "g"))
    return format(v, ".17g")


def _to_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_to_json(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + rows + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = ",\n".join(f"{inner}{_to_json(v, indent + 1)}" for v in value)
        return "[\n" + rows + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _float_repr(value)
    if value is None:
        return "null"
    return json.dumps(str(value))


def _render_json(document: dict) -> str:
    return _to_json(document) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return " | ".join(value)
    return _to_json(value).strip('"')


def _render_csv(document: dict) -> str:
    """One row per report: the run's seed and timestamp, then the report fields.

    The columns are the keys of VerificationReport.to_dict(); the CLI never
    renders a report with no results.
    """
    import csv

    run = document["run"]
    results = document["results"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["seed", "timestamp", *results[0]])
    for row in results:
        writer.writerow(
            [run["seed"], run.get("timestamp", ""), *map(_csv_cell, row.values())]
        )
    return buf.getvalue()


def emit_report(document: dict, fmt: str, path: Optional[str]) -> None:
    """Write the report, or print it when no path is given.

    An unwritable path is a runtime failure, not a usage error: the caller
    gets the rendered report on stderr and the run exits 1.
    """
    text = _render_json(document) if fmt == "json" else _render_csv(document)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write report to {path}: {exc}\n")
        sys.stderr.write(text)
        raise


# -- configuration ----------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    unknown = sorted(set(loaded) - set(_CONFIG))
    if unknown:
        raise UsageError(
            f"config {path} has unknown keys: {', '.join(unknown)}; "
            f"known keys: {', '.join(sorted(_CONFIG))}"
        )
    return loaded


def _is_number(value, kinds: tuple = (int, float)) -> bool:
    """isinstance(value, kinds) without bool, which Python counts as an int."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _resolve_verify_settings(args: argparse.Namespace) -> dict:
    """Merge config-file values under the explicit command line flags."""
    config = _load_config(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if k in _CONFIG and v is not None}
    settings = {**_CONFIG, **config, **flags}
    if args.id or args.all:
        settings["ids"] = args.id or "all"
    if settings["ids"] is None:
        raise UsageError("select cases with --id/--all (or ids in --config)")
    if not isinstance(config.get("no_timestamp", False), bool):
        raise UsageError("no_timestamp must be true or false")
    settings["no_timestamp"] = args.no_timestamp or config.get("no_timestamp", False)

    if not (settings["report"] is None or isinstance(settings["report"], str)):
        raise UsageError("report must be a file path or null")
    if settings["mode"] not in _MODES:
        raise UsageError(f"mode must be one of {', '.join(_MODES)}")
    if settings["format"] not in _FORMATS:
        raise UsageError(f"format must be one of {', '.join(_FORMATS)}")
    tol = settings["tol"]
    if not (_is_number(tol) and 0.0 < float(tol) <= DEFAULT_TOL):
        raise UsageError(
            f"tolerance override must tighten: 0 < tol <= {DEFAULT_TOL:g}"
        )
    settings["tol"] = float(tol)
    gs = settings["grid_scale"]
    if not (_is_number(gs) and 0.0 < float(gs) <= 1.0):
        raise UsageError("grid scale must stay inside (0, 1]: it can only shrink grids")
    settings["grid_scale"] = float(gs)
    if settings["nmax"] is not None:
        if not (_is_number(settings["nmax"], int) and settings["nmax"] >= 1):
            raise UsageError("nmax must be a positive integer")
    if not _is_number(settings["seed"], int):
        raise UsageError("seed must be an integer")
    return settings


def _select_cases(ids, mode: str) -> list:
    """The selected cases that register `mode`, in registry or first-mention order.

    Under `all` a case without the mode is skipped; a named one is an error.
    """
    from .identities.registry import get_case, registry

    if ids == "all":
        return [c for c in registry() if mode == "all" or mode in c.modes]
    if not isinstance(ids, (list, tuple)) or not ids:
        raise UsageError("ids must be a nonempty list of identity ids or 'all'")
    cases = [get_case(cid) for cid in dict.fromkeys(map(str, ids))]
    for case in cases:
        if mode != "all" and mode not in case.modes:
            raise UsageError(
                f"{case.case_id} has no {mode} mode; registered modes: "
                f"{', '.join(case.modes)}"
            )
    return cases


# -- subcommands -------------------------------------------------------------


def _cmd_list(_args: argparse.Namespace) -> int:
    from .identities.registry import registry

    for case in registry():
        modes = ",".join(case.modes)
        print(f"{case.case_id} - {case.paper_ref} - {modes} - {case.description}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .identities.registry import run_case

    settings = _resolve_verify_settings(args)
    cases = _select_cases(settings["ids"], settings["mode"])

    reports = []
    for case in cases:
        reports.extend(
            run_case(
                case.case_id,
                mode=settings["mode"],
                nmax=settings["nmax"],
                tol=settings["tol"],
                grid_scale=settings["grid_scale"],
                seed=settings["seed"],
            )
        )

    run_info: dict = {"seed": settings["seed"]}
    if not settings["no_timestamp"]:
        from datetime import datetime, timezone

        run_info["timestamp"] = datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        )
    run_info["config"] = {k: settings[k] for k in _CONFIG if k not in _UNREPORTED}
    run_info["config"]["ids"] = [c.case_id for c in cases]
    document = {"run": run_info, "results": [r.to_dict() for r in reports]}

    failed = [r for r in reports if not r.passed]
    try:
        emit_report(document, settings["format"], settings["report"])
    except OSError:
        return 1
    if settings["report"] is not None:
        for r in reports:
            print(r.summary_line())
        verdict = "ok" if not failed else "FAILED"
        print(f"{verdict}: {len(reports) - len(failed)}/{len(reports)} reports passed")
    return 0 if not failed else 1


def _cmd_derive_aux(args: argparse.Namespace) -> int:
    from .identities.auxpoly import compare_with_printed, derive_aux_polynomial

    try:
        aux = derive_aux_polynomial(args.family, args.m)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    verdict, detail = compare_with_printed(aux)
    coefficients = [
        {
            "r_power": d,
            "t_power": j,
            "x_power": a,
            "y_power": aux.step * j - a,
            "value": str(c),
        }
        for (d, j, a), c in sorted(aux.coeffs.items())
    ]
    document = {
        "family": aux.family,
        "m": aux.m,
        "step": aux.step,
        "degree": aux.degree,
        "factorial_shift": aux.factorial_shift,
        "coefficients": coefficients,
        "matches_paper": verdict == "exact_match",
        "verdict": verdict,
        "detail": detail,
        "notes": list(aux.notes),
    }
    sys.stdout.write(_render_json(document))
    return 0


# -- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lacunary",
        description="verify registered generating-function identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print registered identities, one per line")

    verify = sub.add_parser("verify", help="run verification and emit a report")
    verify.add_argument(
        "--id",
        action="append",
        metavar="CASE",
        help="identity id such as EQ2.7; repeatable",
    )
    verify.add_argument("--all", action="store_true", help="select every case")
    verify.add_argument("--mode", choices=_MODES, help="mode filter (default all)")
    verify.add_argument(
        "--nmax", type=int, help="override truncation/expansion order"
    )
    verify.add_argument(
        "--tol",
        type=float,
        help=f"numeric tolerance; must tighten the default {DEFAULT_TOL:g}",
    )
    verify.add_argument(
        "--grid-scale",
        type=float,
        dest="grid_scale",
        help="multiply grid t-values by this factor in (0, 1]",
    )
    verify.add_argument("--seed", type=int, help="seed for sampled rational tuples")
    verify.add_argument("--report", metavar="PATH", help="write the report here")
    verify.add_argument("--format", choices=_FORMATS, help="report format")
    verify.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp so reruns are byte-identical",
    )
    verify.add_argument("--config", metavar="PATH", help="JSON config file")

    derive = sub.add_parser(
        "derive-aux", help="fit a bridge polynomial and compare with the display"
    )
    derive.add_argument("--family", choices=("p", "q"), required=True)
    derive.add_argument("--m", type=int, default=1)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "list": _cmd_list,
        "verify": _cmd_verify,
        "derive-aux": _cmd_derive_aux,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early (the "Note on SIGPIPE" in the docs
        # of `signal`): the output is lost, and the flush at exit must not
        # fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, UnknownIdentity) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except LacunaryError as exc:
        sys.stderr.write(f"error: {exc.__class__.__name__}: {exc}\n")
        return 1


def run() -> NoReturn:
    """Run `main()` on the command line and exit with its code.

    gc.freeze() moves every tracked object to the permanent generation,
    which the collections at interpreter shutdown skip (they ignore
    gc.disable()); most of those objects are the interpreter's own
    start-up state.  Skipping them is safe: `main` has closed the report
    and flushed stdout, a frozen object is still freed by its reference
    count, and only cyclic garbage is left for the OS to reclaim.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
