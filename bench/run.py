"""The hitmix benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from any directory; the hitmix sources are taken from src/ next to this
directory and nothing is installed. The workloads are described in
workloads.py and their reasons in BENCHMARK.json.

Each run is one process with one client in a closed loop (workers=1, BLAS
threads 1 unless OMP/OPENBLAS/MKL_NUM_THREADS say otherwise):

1. Set-up, 3 to 7 times: a fresh interpreter imports hitmix and writes the
   workload's inputs from --seed. The inputs must be byte-identical each
   time. setup_s is the median.
2. Timed phase: rounds of tasks until the tasks have taken --seconds (at
   least one round). Only the calls into hitmix are timed; each output is
   checked between calls. A task fails on an exception, a non-zero exit,
   RunRecord.failed or a failed output check.
3. The last line of stdout is one JSON object: correct, attempted, failed and
   the metrics of BENCHMARK.json, end_to_end ones with --trace 0, per_layer
   ones with --trace 1 (spans from tracer.py, medians over rounds).
   `correct` is false when an output check failed or when two rounds of the
   run wrote different bytes. The line before it, "record: {...}", holds the
   run record: code version, machine, thread settings, seed, output digest,
   ARI/F1 and failure notes. Records and spans are also written under
   .bench_build/hitmix-bench/<workload>/.

Exit status 2 means the benchmark could not run (no hitmix sources, set-up
failed, inputs not reproducible); nothing is printed on stdout then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Set up at least SETUP_REPS times, and more (up to SETUP_MAX_REPS) until set-up
# has taken SETUP_BUDGET_S, so that a cheap set-up is still a steady median.
SETUP_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 3, 7, 3.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class PeakRss:
    """Peak resident set size while inside `with`, read from /proc/self/statm
    on entry, on exit and every 5 ms in between."""

    def __init__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self.peak = 0
        self._inside = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _read(self) -> int:
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page

    def _sample(self):
        while not self._stop.wait(0.005):
            if self._inside:
                self.peak = max(self.peak, self._read())

    def __enter__(self):
        self._inside = True
        self.peak = max(self.peak, self._read())

    def __exit__(self, *exc):
        self.peak = max(self.peak, self._read())
        self._inside = False

    def close(self):
        self._stop.set()
        self._thread.join()
        os.close(self._fd)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def run_record(args, np, scipy) -> dict:
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "hitmix")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src_hash.update(name.encode() + f.read())
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit, "src_sha256": src_hash.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def set_up(workloads, args, work: str) -> tuple[str, list[float]]:
    """Generate the inputs several times; the directory of the first and the times."""
    times, digests = [], []
    for rep in range(SETUP_MAX_REPS):
        if rep >= SETUP_REPS and sum(times) >= SETUP_BUDGET_S:
            break
        out = os.path.join(work, f"inputs{rep}")
        t0 = perf_counter()
        subprocess.run([sys.executable, workloads.__file__, args.workload, str(args.seed), out],
                       check=True, timeout=150, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
        digests.append(workloads.dir_digest(out))
        if rep:
            shutil.rmtree(out)
    if len(set(digests)) != 1:
        raise RuntimeError("set-up wrote different inputs for one seed")
    return os.path.join(work, "inputs0"), times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hitmix", "__init__.py")):
        return fail(f"no hitmix sources under {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import numpy as np
    import scipy
    import hitmix
    import hitmix.cli  # noqa: F401  (loads every module the tracer wraps)
    if not os.path.abspath(hitmix.__file__).startswith(SRC + os.sep):
        return fail(f"imported hitmix from {hitmix.__file__}, not from {SRC}")
    import tracer as tracing
    import workloads

    work = os.path.join(ROOT, ".bench_build", "hitmix-bench", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir)
    try:
        in_dir, setup_times = set_up(workloads, args, work)
    except (subprocess.SubprocessError, RuntimeError) as exc:
        return fail(f"set-up failed: {exc}")
    state = workloads.load_state(args.workload, in_dir)

    rss = PeakRss()
    tracer = tracing.Tracer() if args.trace else None
    task_ids: list[int] = []

    def measure(fn, *call_args):
        task_ids.append(len(task_ids))
        if tracer is not None:
            tracer.task = task_ids[-1]
        with rss:
            t0 = perf_counter()
            try:
                result, exc = fn(*call_args), None
            except Exception as e:  # a failed task; the loop carries on
                result, exc = None, e
            seconds = perf_counter() - t0
        return seconds, result, exc

    rounds, round_tasks = [], []
    if tracer is not None:
        tracer.install()
    try:
        while not rounds or sum(r.seconds for r in rounds) < args.seconds:
            first = len(task_ids)
            rounds.append(workloads.run_round(args.workload, state, in_dir, out_dir,
                                              measure, args.seed))
            round_tasks.append(task_ids[first:])
    finally:
        if tracer is not None:
            tracer.uninstall()
        rss.close()

    tasks = [t for r in rounds for t in r.tasks]
    ok = [t for t in tasks if t.ok]
    timed = sum(r.seconds for r in rounds)
    digests = sorted({r.digest for r in rounds})
    correct = not any(t.wrong for t in tasks) and len(digests) == 1
    record = run_record(args, np, scipy)
    record.update({
        "setup_runs_s": setup_times, "round_s": [r.seconds for r in rounds], "tasks": len(tasks),
        "timed_s": timed, "digest": digests[0] if len(digests) == 1 else digests,
        "failed_share": 1 - len(ok) / len(tasks), "quality": rounds[0].quality,
        "failures": sorted({t.note for t in tasks if not t.ok})})

    if args.trace:
        cost = tracing.wrapper_cost()
        per_round = [tracing.layer_metrics(tracer, ids, r.seconds, cost)
                     for ids, r in zip(round_tasks, rounds)]
        values = tracing.median_metrics(per_round)
        record["counts_repeat"] = all(
            p[m] == per_round[0][m] for p in per_round for m in tracing.COUNT_METRICS)
        record["untraced_names"] = tracer.missing
        record["wrapper_cost_s"] = cost
        with open(os.path.join(work, "spans.jsonl"), "w") as f:
            for name, start, end, parent, task, attrs in tracer.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                    "task": task, "attrs": attrs}) + "\n")
        declared_metrics = declared["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "tasks_per_s": len(ok) / timed,
                  "task_p50_s": statistics.median(t.seconds for t in (ok or tasks)),
                  "success_share": len(ok) / len(tasks),
                  "peak_rss_mb": rss.peak / 2 ** 20}
        declared_metrics = declared["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared_metrics}
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    with open(os.path.join(work, f"record-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(dict(record, metrics=values), f, indent=1)

    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {len(tasks)} tasks "
          f"({len(tasks) - len(ok)} failed) in {timed:.2f} s timed")
    for name in units:
        print(f"  {name:32s} {values[name]:>14.6g} {units[name]}")
    for name, value in [("failed_share", record["failed_share"]), *rounds[0].quality.items()]:
        print(f"  {name:32s} {value:>14.6g}")
    for note in record["failures"]:
        print(f"  failed: {note}")
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": len(tasks), "failed": len(tasks) - len(ok),
                      "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
