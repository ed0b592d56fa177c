"""Repeatability check of the benchmark itself.

    python3 bench/selftest.py [--seed N] [workload ...]

Runs each workload (all by default) twice with --trace 1 and the same seed,
for one round each, and fails unless both runs report the same exact counts
(graph.edges, solver.cg_iters_m*, solver.matvecs, mixture.em_iters,
mixture.samples_bytes and the other counters), the same output digest and
the same ARI/F1, and unless the second run also passes with --trace 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from tracer import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(final JSON object, run record) of one run."""
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                         capture_output=True, text=True, timeout=300, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("record: "))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    bad = 0
    for workload in args.workloads:
        runs = [bench(workload, args.seed, 1) for _ in range(2)]
        (first, rec1), (second, rec2) = runs
        problems = [m for m in COUNT_METRICS
                    if first["metrics"][m]["value"] != second["metrics"][m]["value"]]
        problems += [k for k in ("digest", "quality", "failures") if rec1[k] != rec2[k]]
        problems += [k for k in ("correct", "attempted", "failed") if first[k] != second[k]]
        untraced, _ = bench(workload, args.seed, 0)
        problems += [k for k in ("correct", "attempted", "failed") if untraced[k] != first[k]]
        counts = {m: first["metrics"][m]["value"] for m in COUNT_METRICS}
        print(f"{workload}: {'FAIL ' + ', '.join(problems) if problems else 'ok'} "
              f"digest {rec1['digest']} counts {counts}")
        bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
