"""Benchmark workloads and the output gate that checks every pass.

A workload is a list of `lacunary` command lines that make up one pass.
Each command runs in a fresh child process, so every pass pays the cold
costs a user pays: interpreter start, import, and the first-call bridge fits.

The gate compares each output with `reference.json`, recorded from the
program at a trusted commit by `record_reference.py`.  Verify reports are
compared on their (id, mode, grid_size, truncation, pass) rows; `max_*_err`
may move in its last digits when float operations are reordered, so it is
not compared.  derive-aux output is compared on its coefficient listing,
verdict and matches_paper.  Neither depends on the seed: the exact-mode
tuples change with it, but their count and the coefficient orders do not.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: Every numeric case except EQ2.8 and EQ3.4, the two that need a bridge fit.
NUMERIC_DEEP_IDS = (
    "EQ1.7", "EQ1.9", "EQ1.12", "EQ2.7", "EQ2.9", "EQ2.10", "EQ2.11", "EQ2.13",
    "EQ2.14", "EQ3.1", "EQ3.3", "EQ3.5", "EQ3.8", "EQ3.9", "EQ3.10", "EQ3.11",
)

#: (family, m) per derive-aux process; the fitted systems grow from 12 to
#: 112 unknowns, and only (p, 2) reaches the printed-display comparison.
DERIVE_FITS = (("p", 1), ("p", 2), ("q", 1), ("p", 3))


@dataclass(frozen=True)
class Invocation:
    """One child process: lacunary arguments and where its output lands."""

    key: str
    argv: tuple[str, ...]
    output: str  # the report file for verify, captured stdout for derive-aux
    stdout: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "verify" or "derive"
    verify_args: tuple[str, ...] = ()

    def invocations(self, seed: int, workdir: str) -> list[Invocation]:
        if self.kind == "verify":
            report = os.path.join(workdir, f"{self.name}.json")
            argv = ("verify", *self.verify_args, "--seed", str(seed),
                    "--no-timestamp", "--report", report)
            return [Invocation(self.name, argv, report,
                               os.path.join(workdir, f"{self.name}.out"))]
        out = []
        for family, m in DERIVE_FITS:
            key = f"{family}{m}"
            stdout = os.path.join(workdir, f"derive-{key}.out")
            argv = ("derive-aux", "--family", family, "--m", str(m))
            out.append(Invocation(key, argv, stdout, stdout))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-all",
            "the end-to-end run: all 31 reports from a cold process, p1/p2/q1 "
            "bridge fits included",
            "verify",
            ("--all",),
        ),
        Workload(
            "exact-deep",
            "12 exact reports at nmax 30: rational umbral and power-series "
            "arithmetic, whose superlinear cost the defaults hide",
            "verify",
            ("--all", "--mode", "exact", "--nmax", "30"),
        ),
        Workload(
            "numeric-deep",
            "16 numeric reports at 160 terms without bridge fits: float "
            "polynomial recurrences and special functions",
            "verify",
            ("--mode", "numeric", "--nmax", "160",
             *(a for cid in NUMERIC_DEEP_IDS for a in ("--id", cid))),
        ),
        Workload(
            "derive-aux",
            "the p1, p2, q1 and p3 bridge fits: the exact solve up to 112 "
            "unknowns and the printed-display comparison",
            "derive",
        ),
    )
}


# -- output extraction -------------------------------------------------------


def report_rows(text: str) -> list[list]:
    """(id, mode, grid_size, truncation, pass) rows of a verify report."""
    doc = json.loads(text)
    return [
        [r["id"], r["mode"], r["grid_size"], r["truncation"], r["pass"]]
        for r in doc["results"]
    ]


def fit_record(text: str) -> dict:
    """The derive-aux fields the gate compares."""
    doc = json.loads(text)
    return {
        "coefficients": doc["coefficients"],
        "verdict": doc["verdict"],
        "matches_paper": doc["matches_paper"],
    }


def extract(workload: Workload, text: str):
    return report_rows(text) if workload.kind == "verify" else fit_record(text)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- the gate ----------------------------------------------------------------


def operations(workload: Workload, reference: dict) -> int:
    """Operations one invocation attempts: its reports, or one fit."""
    return len(reference[workload.name]) if workload.kind == "verify" else 1


def checks_per_pass(workload: Workload, reference: dict) -> int:
    """Grid points and coefficient pairs verified per pass, or fits per pass."""
    expected = reference[workload.name]
    if workload.kind == "verify":
        return sum(row[2] for row in expected)
    return len(expected)


def failed_operations(workload: Workload, reference: dict, key: str,
                      status: int, text: str | None) -> int:
    """Operations of one invocation that fail the gate.

    A nonzero exit or an unreadable output fails every operation of the
    invocation.  A verify row fails unless it equals its reference row and
    passed; a missing or extra row fails too.
    """
    total = operations(workload, reference)
    if status != 0 or text is None:
        return total
    try:
        got = extract(workload, text)
    except (ValueError, KeyError, TypeError):
        return total
    if workload.kind == "derive":
        return 0 if got == reference[workload.name][key] else 1
    expected = reference[workload.name]
    bad = sum(1 for g, e in zip(got, expected) if g != e or not g[4])
    return min(total, bad + abs(len(got) - len(expected)))
