"""Benchmark of the lacunary verifier, run from the root of a source checkout.

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 28 --trace 0

Each pass runs the workload's `lacunary` command lines in fresh child
processes, one at a time: a closed loop with a single client.  Passes repeat
until `--seconds` is used up; every pass is checked against `reference.json`
and against the first pass's output bytes.

Times are reported in reference seconds: each measured time is multiplied
by CAL_REF_S over the mean time of the fixed calibration loops run just
before and just after it, so that drift in the speed of a shared machine
cancels (see README.md).  With `--trace 0` the last stdout line reports the
end-to-end metrics, with `--trace 1` the per-layer metrics of traced passes.
The lines before it give the sample counts, the unscaled times and the
machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(HERE, "tracer.py")

#: Children still running this long after the first pass started are
#: killed, so a hung program cannot keep a run past its 180 s limit.
RUN_BUDGET_S = 150.0
SETUP_PROBES = 11
MIN_UNTRACED_PASSES = 2

#: The calibration loop's size and the time it is scaled to.  The loop does
#: dict stores and products of Fractions with 240-bit parts, the work the
#: exact solver and the umbral engine do most, and runs no program code.
CAL_ITERS = 60_000
CAL_REF_S = 0.085
_CAL_BIG = 3**150

#: Per-layer metrics: (name, unit, span name or counter, field).  Field "s"
#: is the inclusive time of the outermost spans, "self_s" the time not
#: covered by child spans, "calls" the span count, None a counter.
LAYER_SPECS = (
    ("auxpoly.derive.s", "s", "auxpoly.derive", "s"),
    ("auxpoly.derive.calls", "count", "auxpoly.derive", "calls"),
    ("auxpoly.compare.s", "s", "auxpoly.compare", "s"),
    ("auxpoly.free_dirs", "count", "auxpoly.free_dirs", None),
    ("auxpoly.shift_retries", "count", "auxpoly.shift_retries", None),
    ("umbral.mul.s", "s", "umbral.mul", "s"),
    ("umbral.mul.calls", "count", "umbral.mul", "calls"),
    ("umbral.umb_exp.self_s", "s", "umbral.umb_exp", "self_s"),
    ("umbral.reduce_poly.s", "s", "umbral.reduce_poly", "s"),
    ("umbral.peak_terms", "count", "umbral.peak_terms", None),
    ("umbral.coeff_bits", "bits", "umbral.coeff_bits", None),
    ("fps.mul.s", "s", "fps.mul", "s"),
    ("fps.compose.s", "s", "fps.compose", "s"),
    ("fps.exp.s", "s", "fps.exp", "s"),
    ("polys.lambda_poly.s", "s", "polys.lambda_poly", "s"),
    ("polys.lambda_poly.calls", "count", "polys.lambda_poly", "calls"),
    ("polys.assoc_laguerre.s", "s", "polys.assoc_laguerre", "s"),
    ("polys.assoc_laguerre.calls", "count", "polys.assoc_laguerre", "calls"),
    ("polys.laguerre.s", "s", "polys.laguerre", "s"),
    ("polys.sequence.s", "s", "polys.sequence", "s"),
    ("polys.xpoly.s", "s", "polys.xpoly", "s"),
    ("specialfns.s", "s", "specialfns", "s"),
    ("specialfns.calls", "count", "specialfns", "calls"),
    ("summation.s", "s", "summation", "s"),
    ("summation.calls", "count", "summation", "calls"),
    ("summation.terms", "count", "summation.terms", None),
    ("summation.nonconvergence", "count", "summation.nonconvergence", None),
    ("scalars.rgamma.calls", "count", "scalars.rgamma.calls", None),
    ("scalars.rgamma_exact.calls", "count", "scalars.rgamma_exact.calls", None),
    ("registry.check_coefficients.s", "s", "registry.check_coefficients", "s"),
    ("registry.check_pointwise.s", "s", "registry.check_pointwise", "s"),
    ("registry.check_quadrature.s", "s", "registry.check_quadrature", "s"),
    ("cli.emit_report.s", "s", "cli.emit_report", "s"),
    *(
        (f"layer.{layer}.self_s", "s", f"layer.{layer}", "self_s")
        for layer in ("auxpoly", "umbral", "fps", "polys", "specialfns",
                      "summation", "registry", "cli")
    ),
)

E2E_UNITS = {
    "wall_s": "s",
    "wall_tail_s": "s",
    "cpu_s": "s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
    "setup_s": "s",
}

_CHECK_OF_MODE = {
    "exact": "registry.check_coefficients",
    "numeric": "registry.check_pointwise",
    "quadrature": "registry.check_quadrature",
}


def case_metric_names(reference: dict) -> list[str]:
    """case.<ID>.<mode>.s for every report of the full run."""
    return [f"case.{row[0]}.{row[1]}.s" for row in reference["verify-all"]]


def layer_units(reference: dict) -> dict[str, str]:
    """Every per-layer metric the benchmark reports, with its unit."""
    units = {name: unit for name, unit, _, _ in LAYER_SPECS}
    units.update((name, "s") for name in case_metric_names(reference))
    units["trace.overhead_s"] = "s"
    return units


# -- calibration ------------------------------------------------------------------


def calibrate() -> float:
    """Seconds this process takes for the fixed calibration loop."""
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(CAL_ITERS):
        total += i * i % 7
        table[i & 1023] = total
        if i % 4 == 0:
            Fraction(_CAL_BIG + i, _CAL_BIG - i - 1) * Fraction(i + 1, 7)
    return time.perf_counter() - start


def scale_between(before: float, after: float) -> float:
    """Factor from measured to reference seconds for work between two loops."""
    return CAL_REF_S / ((before + after) / 2)


# -- child processes ------------------------------------------------------------


@dataclass
class ChildResult:
    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(cmd: list[str], env: dict, stdout_path: str, deadline: float) -> ChildResult:
    """Run one child to completion and take its own rusage from wait4."""
    err_path = stdout_path + ".err"
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        reaped = threading.Event()

        def kill_if_running() -> None:
            if not reaped.is_set():
                proc.kill()

        timer = threading.Timer(max(0.0, deadline - time.perf_counter()), kill_if_running)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            reaped.set()
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(err_path, "rb") as fh:
            tail = fh.read()[-2000:].decode("utf-8", "replace")
        sys.stderr.write(f"child {cmd[1:]} exited {proc.returncode}:\n{tail}\n")
    return ChildResult(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0
    )


@dataclass
class PassResult:
    """One pass; wall_s, cpu_s and span times are in reference seconds."""

    traced: bool
    measured_wall_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def run_pass(workload, invocations, reference, env, workdir, traced, deadline,
             calibration: list[float]) -> PassResult:
    """Run each invocation, then a calibration loop that scales it together
    with the loop before it; `calibration` ends with that earlier loop."""
    result = PassResult(traced)
    peaks: dict[str, int] = {}
    for inv in invocations:
        if os.path.exists(inv.output):
            os.remove(inv.output)
        spans_path = os.path.join(workdir, f"spans-{inv.key}.json")
        if traced:
            cmd = [sys.executable, TRACER, spans_path, "--", *inv.argv]
        else:
            cmd = [sys.executable, "-m", "lacunary.cli", *inv.argv]
        child = run_child(cmd, env, inv.stdout, deadline)
        calibration.append(calibrate())
        scale = scale_between(calibration[-2], calibration[-1])
        result.measured_wall_s += child.wall_s
        result.wall_s += child.wall_s * scale
        result.cpu_s += child.cpu_s * scale
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        data = _read(inv.output)
        result.outputs[inv.key] = data
        text = None if data is None else data.decode("utf-8", "replace")
        result.attempted += workloads.operations(workload, reference)
        result.failed += workloads.failed_operations(
            workload, reference, inv.key, child.status, text
        )
        if traced:
            _merge_trace(result, peaks, spans_path, scale)
    result.counts.update(peaks)
    return result


def _merge_trace(result: PassResult, peaks: dict, spans_path: str, scale: float) -> None:
    """Add one traced child's spans, scaled, and counters to the pass totals."""
    raw = _read(spans_path)
    if raw is None:
        return
    dump = json.loads(raw)
    for name, item in tracer.summarize(dump["spans"]).items():
        total = result.summary.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        total["calls"] += item["calls"]
        total["s"] += item["s"] * scale
        total["self_s"] += item["self_s"] * scale
    for key, value in dump["counts"].items():
        result.counts[key] = result.counts.get(key, 0) + value
    for key, value in dump["peaks"].items():
        peaks[key] = max(peaks.get(key, 0), value)


# -- metrics ------------------------------------------------------------------------


def tail(samples: list[float]) -> float:
    """The upper quartile.

    A run holds 3 to 13 passes, too few for any percentile above the median
    to have ten samples beyond it; the upper quartile is the highest one a
    run resolves steadily.
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def layer_values(p: PassResult, case_names: list[str]) -> dict[str, float]:
    """Per-layer metric values of one traced pass."""
    summary = dict(p.summary)
    for mode, check in _CHECK_OF_MODE.items():
        spans = [v for k, v in p.summary.items()
                 if k.startswith("case.") and k.endswith("." + mode)]
        summary[check] = {
            "calls": sum(v["calls"] for v in spans),
            "s": sum(v["s"] for v in spans),
            "self_s": sum(v["self_s"] for v in spans),
        }
    values = {}
    for name, _, source, fld in LAYER_SPECS:
        if fld is None:
            values[name] = p.counts.get(source, 0)
        else:
            values[name] = summary.get(source, {}).get(fld, 0)
    for name in case_names:
        values[name] = summary.get(name[: -len(".s")], {}).get("s", 0.0)
    return values


# -- set-up and machine record ------------------------------------------------------


def measure_setup(env: dict, root: str, workdir: str,
                  calibration: list[float]) -> tuple[float, float]:
    """Median time for a fresh interpreter to import lacunary, in reference
    and in measured seconds.

    One untimed import first writes the bytecode cache, which users pay once,
    and confirms that the import resolves to this checkout's source tree.
    Each timed import is followed by a calibration loop that scales it
    together with the loop before it; `calibration` ends with that loop.
    """
    probe = subprocess.run(
        [sys.executable, "-c", "import lacunary; print(lacunary.__file__)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    where = probe.stdout.strip()
    if probe.returncode != 0 or not where.startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"error: lacunary does not import from {root}/src: {probe.stderr}")
    out = os.path.join(workdir, "setup.out")
    deadline = time.perf_counter() + 30
    measured, scaled = [], []
    for _ in range(SETUP_PROBES):
        child = run_child([sys.executable, "-c", "import lacunary"], env, out, deadline)
        if child.status != 0:
            raise SystemExit("error: import lacunary failed")
        calibration.append(calibrate())
        measured.append(child.wall_s)
        scaled.append(child.wall_s * scale_between(calibration[-2], calibration[-1]))
    return statistics.median(scaled), statistics.median(measured)


def machine_record(root: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_DIR": os.path.join(root, ".git")},
        )
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


# -- driver --------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_passes(workload, invocations, reference, env, workdir, seconds, traced_run,
               calibration: list[float]):
    """Passes until `seconds` would be overrun by the next one.

    Trace runs interleave untraced and traced passes, at least one untraced
    and two traced, so that counts can be compared between traced passes.
    """
    deadline = time.perf_counter() + RUN_BUDGET_S
    plan = [False, True, True] if traced_run else [False] * MIN_UNTRACED_PASSES
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        if len(passes) < len(plan):
            traced = plan[len(passes)]
        else:
            traced = traced_run and not passes[-1].traced
            expected = statistics.median(
                p.measured_wall_s for p in passes if p.traced == traced)
            loops = len(invocations) * calibration[-1]
            if time.perf_counter() - start + expected + loops > seconds:
                return passes
        passes.append(run_pass(workload, invocations, reference, env, workdir,
                               traced, deadline, calibration))


def end_to_end_metrics(workload, reference, untraced, setup_s, pass_frac) -> dict:
    """Untraced-pass medians, times in reference seconds."""
    walls = [p.wall_s for p in untraced]
    checks = workloads.checks_per_pass(workload, reference)
    values = {
        "wall_s": statistics.median(walls),
        "wall_tail_s": tail(walls),
        "cpu_s": statistics.median(p.cpu_s for p in untraced),
        "checks_per_s": statistics.median(checks / w for w in walls),
        "peak_rss_mb": statistics.median(p.rss_mb for p in untraced),
        "pass_frac": pass_frac,
        "setup_s": setup_s,
    }
    return {name: _metric(values[name], unit) for name, unit in E2E_UNITS.items()}


def layer_metrics(passes, reference) -> tuple[dict, bool]:
    """Medians of traced-pass times, and counts that must agree between them."""
    case_names = case_metric_names(reference)
    traced = [p for p in passes if p.traced]
    per_pass = [layer_values(p, case_names) for p in traced]
    counted = [name for name, unit, _, _ in LAYER_SPECS if unit != "s"]
    agree = all(all(v[k] == per_pass[0][k] for k in counted) for v in per_pass[1:])
    if not agree:
        sys.stderr.write("traced passes of one seed gave different counts\n")
    metrics = {}
    for name, unit in layer_units(reference).items():
        if name == "trace.overhead_s":
            continue
        if unit == "s":
            value = statistics.median(v[name] for v in per_pass)
        else:
            value = per_pass[0][name]
        metrics[name] = _metric(value, unit)
    overhead = (statistics.median(p.wall_s for p in traced)
                - statistics.median(p.wall_s for p in passes if not p.traced))
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return metrics, agree


def measure(workload, seed: int, seconds: int, traced_run: bool, root: str) -> dict:
    reference = workloads.load_reference()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p)}
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        calibration = [calibrate()]
        setup_s, setup_measured = measure_setup(env, root, workdir, calibration)
        invocations = workload.invocations(seed, workdir)
        passes = run_passes(workload, invocations, reference, env, workdir,
                            seconds, traced_run, calibration)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # One seed gives one output, traced or not: every pass must reproduce
    # the first pass's bytes.
    for p in passes[1:]:
        for key, data in p.outputs.items():
            if data != passes[0].outputs[key]:
                failed += workloads.operations(workload, reference)
                sys.stderr.write(f"output of {key} differs between passes\n")
    failed = min(failed, attempted)
    correct = failed == 0
    untraced = [p for p in passes if not p.traced]
    if traced_run:
        metrics, agree = layer_metrics(passes, reference)
        correct = correct and agree
    else:
        metrics = end_to_end_metrics(workload, reference, untraced, setup_s,
                                     (attempted - failed) / attempted)
    print("samples " + json.dumps({
        "workload": workload.name, "seed": seed, "setup_probes": SETUP_PROBES,
        "untraced_passes": len(untraced), "traced_passes": len(passes) - len(untraced),
    }))
    print("unscaled " + json.dumps({
        "setup_s": round(setup_measured, 4),
        "pass_walls_s": [round(p.measured_wall_s, 4) for p in passes],
        "calibration_s": [round(c, 4) for c in calibration],
    }))
    print("machine " + json.dumps(machine_record(root)))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # A terminated run still kills its child and removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lacunary", "cli.py")):
        sys.stderr.write(f"error: no lacunary source tree under {root}/src\n")
        return 2
    result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), root)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
