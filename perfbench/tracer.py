"""Outside-in tracer for one run of the lacunary command line.

Run as a child process in place of `python -m lacunary.cli`:

    python3 perfbench/tracer.py SPANS.json -- verify --all --seed 0 ...

It wraps the public functions of each lacunary module from outside the
program, calls `lacunary.cli.main(argv)`, writes the recorded spans and
counters to SPANS.json and exits with the status `main` returned.

Wrapping means rebinding every `lacunary.*` module global that aliases the
target function: the engines import with `from ..polys import lambda_poly`,
so patching only the defining module would miss their calls.  Methods of
`UmbralSeries` and `FormalPowerSeries` are wrapped on their classes.

A span is (name, start, end, parent index); `summarize` turns a list of them
into per-name totals, where a span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import sys
import time
from collections import Counter
from fractions import Fraction

#: (defining module, attribute or Class.method, span name).  Several
#: functions may share a span name; they then count as one metric.
SPAN_TARGETS = (
    ("lacunary.identities.auxpoly", "derive_aux_polynomial", "auxpoly.derive"),
    ("lacunary.identities.auxpoly", "compare_with_printed", "auxpoly.compare"),
    ("lacunary.umbral", "UmbralSeries.__mul__", "umbral.mul"),
    ("lacunary.umbral", "umb_exp", "umbral.umb_exp"),
    ("lacunary.umbral", "UmbralSeries.reduce_poly", "umbral.reduce_poly"),
    ("lacunary.fps", "FormalPowerSeries.__mul__", "fps.mul"),
    ("lacunary.fps", "FormalPowerSeries.compose", "fps.compose"),
    ("lacunary.fps", "FormalPowerSeries.exp", "fps.exp"),
    ("lacunary.polys", "lambda_poly", "polys.lambda_poly"),
    ("lacunary.polys", "assoc_laguerre", "polys.assoc_laguerre"),
    ("lacunary.polys", "laguerre", "polys.laguerre"),
    ("lacunary.polys", "laguerre_sequence", "polys.sequence"),
    ("lacunary.polys", "assoc_laguerre_sequence", "polys.sequence"),
    ("lacunary.polys", "hermite_coeff_sequence", "polys.sequence"),
    ("lacunary.polys", "hermite_h_sequence", "polys.sequence"),
    ("lacunary.polys", "laguerre_xpoly", "polys.xpoly"),
    ("lacunary.polys", "assoc_laguerre_xpoly", "polys.xpoly"),
    ("lacunary.specialfns", "wright", "specialfns"),
    ("lacunary.specialfns", "mittag_leffler", "specialfns"),
    ("lacunary.specialfns", "tricomi", "specialfns"),
    ("lacunary.specialfns", "bessel_i", "specialfns"),
    ("lacunary.specialfns", "bessel_j0", "specialfns"),
    ("lacunary.specialfns", "h_tricomi", "specialfns"),
    ("lacunary.specialfns", "h_wright", "specialfns"),
    ("lacunary.specialfns", "h_bessel_j", "specialfns"),
    ("lacunary.specialfns", "h_tricomi_bilateral", "specialfns"),
    ("lacunary.summation", "sum_series", "summation"),
    ("lacunary.cli", "emit_report", "cli.emit_report"),
)

#: Registry checks get one span per report, named case.<ID>.<mode>.
CASE_TARGETS = (
    ("check_coefficients", "exact"),
    ("check_pointwise", "numeric"),
    ("check_quadrature", "quadrature"),
)

#: Counted, not timed: a timer around a 1 us function would distort it.
COUNT_TARGETS = (
    ("lacunary.scalars", "rgamma", "scalars.rgamma.calls"),
    ("lacunary.scalars", "rgamma_exact", "scalars.rgamma_exact.calls"),
)

ROOT = "cli.main"

_FREE_DIRS = re.compile(r"solution space has (\d+) free directions")


def _layer(name: str) -> str:
    if name.startswith("case."):
        return "registry"
    return name.split(".", 1)[0]


class Tracer:
    """Span and counter store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {"umbral.peak_terms": 0, "umbral.coeff_bits": 0}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def span(self, fn, name, observe=None):
        """Wrap fn in a span; `name` is a string or a function of the call args.

        `observe(args, result)` runs after the span has closed, so its cost is
        charged to the caller, never to the span it inspects.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _summation(self, fn):
        """sum_series with its term iterator counted and non-convergence noted."""
        from lacunary.errors import NonConvergence

        counts = self.counts

        def counting(terms):
            for term in terms:
                counts["summation.terms"] += 1
                yield term

        def summed(terms, *args, **kwargs):
            try:
                return fn(counting(terms), *args, **kwargs)
            except NonConvergence:
                counts["summation.nonconvergence"] += 1
                raise

        return self.span(functools.wraps(fn)(summed), "summation")

    # -- observers -------------------------------------------------------------

    def _outermost(self, prefix: str) -> bool:
        """True when no open span belongs to the given layer prefix."""
        return not any(self.spans[i][0].startswith(prefix) for i in self._stack)

    def _measure_umbral(self, series) -> None:
        terms = series.terms
        self.peaks["umbral.peak_terms"] = max(self.peaks["umbral.peak_terms"], len(terms))
        bits = max(
            (c.numerator.bit_length() + c.denominator.bit_length()
             for c in terms.values() if isinstance(c, Fraction)),
            default=0,
        )
        self.peaks["umbral.coeff_bits"] = max(self.peaks["umbral.coeff_bits"], bits)

    def _observe_umbral_result(self, args, result) -> None:
        if self._outermost("umbral."):
            self._measure_umbral(result)

    def _observe_reduce_poly(self, args, result) -> None:
        if self._outermost("umbral."):
            self._measure_umbral(args[0])

    def _observe_derive(self, args, result) -> None:
        for note in result.notes:
            found = _FREE_DIRS.search(note)
            if found:
                self.counts["auxpoly.free_dirs"] += int(found.group(1))
            if note.startswith("factorial shift"):
                self.counts["auxpoly.shift_retries"] += 1

    # -- installation ------------------------------------------------------------

    def _wrapper_for(self, fn, name: str):
        if name == "summation":
            return self._summation(fn)
        observe = {
            "umbral.mul": self._observe_umbral_result,
            "umbral.umb_exp": self._observe_umbral_result,
            "umbral.reduce_poly": self._observe_reduce_poly,
            "auxpoly.derive": self._observe_derive,
        }.get(name)
        return self.span(fn, name, observe)

    def _rebind(self, original, wrapper) -> int:
        """Point every lacunary module global bound to `original` at `wrapper`."""
        bound = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "lacunary" or mod_name.startswith("lacunary.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    bound += 1
        return bound

    def install(self) -> dict[str, int]:
        """Wrap every target; return {module.attr: bindings rebound}."""
        importlib.import_module("lacunary.cli")
        bindings = {}
        for mod_name, attr, name in SPAN_TARGETS:
            module = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrapper_for(original, name))
                bindings[f"{mod_name}.{attr}"] = 1
            else:
                original = getattr(module, attr)
                bindings[f"{mod_name}.{attr}"] = self._rebind(
                    original, self._wrapper_for(original, name)
                )
        registry = importlib.import_module("lacunary.identities.registry")
        for attr, mode in CASE_TARGETS:
            original = getattr(registry, attr)

            def label(args, kwargs, mode=mode):
                case_id = args[0] if args else kwargs["case_id"]
                return f"case.{case_id}.{mode}"

            bindings[f"lacunary.identities.registry.{attr}"] = self._rebind(
                original, self.span(original, label)
            )
        for mod_name, attr, key in COUNT_TARGETS:
            original = getattr(importlib.import_module(mod_name), attr)
            bindings[f"{mod_name}.{attr}"] = self._rebind(original, self.counted(original, key))
        return bindings

    def restore(self) -> None:
        """Undo `install`, newest binding first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def run(self, argv: list[str]) -> int:
        import lacunary.cli

        return self.span(lacunary.cli.main, ROOT)(argv)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
        }


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive time of its outermost spans, self time.

    A span nested inside another span of the same name adds to `calls` and
    `self_s` but not again to `s`, so recursion is not counted twice.  Spans
    of one name are also gathered by layer into `layer.<layer>` entries.
    """
    durations = [end - start for _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            covered[parent] += durations[i]
    out: dict[str, dict] = {}

    def entry(key):
        return out.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})

    for i, (name, _, _, parent) in enumerate(spans):
        self_time = durations[i] - covered[i]
        nested = False
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        item = entry(name)
        item["calls"] += 1
        item["self_s"] += self_time
        if not nested:
            item["s"] += durations[i]
        entry("layer." + _layer(name))["self_s"] += self_time
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py SPANS.json -- LACUNARY-ARGS...\n")
        return 2
    out_path, program_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        status = tracer.run(program_args)
    finally:
        tracer.restore()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
