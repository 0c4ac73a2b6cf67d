"""Record the gate's reference outputs from the program in this checkout.

    python3 perfbench/record_reference.py [SEED ...]

Run it from the repository root at a commit whose outputs are trusted.  It
runs every workload once per seed (default 0 1 2), requires the gated fields
to agree across seeds, and writes perfbench/reference.json.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

import run
import workloads


def record(seeds: list[int], root: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    reference: dict = {"seeds_checked": seeds}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        for name, workload in workloads.WORKLOADS.items():
            seen = None
            for seed in seeds:
                got = {}
                for inv in workload.invocations(seed, workdir):
                    cmd = [sys.executable, "-m", "lacunary.cli", *inv.argv]
                    child = run.run_child(cmd, env, inv.stdout, time.perf_counter() + 600)
                    if child.status != 0:
                        raise SystemExit(f"{name} seed {seed}: {inv.key} exited {child.status}")
                    with open(inv.output, encoding="utf-8") as fh:
                        got[inv.key] = workloads.extract(workload, fh.read())
                if seen is not None and got != seen:
                    raise SystemExit(f"{name}: gated fields differ between seeds")
                seen = got
            reference[name] = seen[name] if workload.kind == "verify" else seen
    return reference


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [0, 1, 2]
    reference = record(seeds, os.getcwd())
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
