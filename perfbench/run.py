#!/usr/bin/env python3
"""Benchmark legsums: the density table, the random-model positivity runs
and the exact moments, timed in wall seconds.

    python3 perfbench/run.py --workload density-table --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy.  Every round of a workload runs
in a fresh worker process (perfbench/worker.py), so its peak RSS and the
package's module-level prime cache belong to that round alone.  Rounds repeat
until --seconds have passed (at least one); run_s and peak_rss_mb are their
medians.  setup_s is the median over SETUP_PROBES processes that only import
the package and build the inputs, and the round processes.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (run_s, peak_rss_mb, setup_s with --trace 0; with
--trace 1 the per-layer metrics, from one round with spans and one with
tracemalloc peaks, after the untraced rounds).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("density-table", "positivity-model", "moments")
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0

UNITS = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_limit"):
        return "integer"
    return "count"


class Worker:
    """One worker process; `setup_s` is from its start until it is ready.

    A timer kills the worker if it runs past the run's deadline.
    """

    def __init__(self, args, mode: str, deadline: float):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--mode", mode]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.watchdog = threading.Timer(max(deadline - t0, 1.0), self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.stop()
            raise SystemExit(f"{mode} worker did not get ready (exit {self.proc.returncode})")

    def stop(self):
        self.watchdog.cancel()
        self.proc.kill()
        self.proc.wait()

    def result(self) -> dict:
        # Read to the end through the same buffered pipe that gave READY.
        try:
            out = self.proc.stdout.read()
            self.proc.stdout.close()
            self.proc.wait()
        finally:
            self.watchdog.cancel()
        if self.proc.returncode != 0:
            raise SystemExit(f"worker exited with {self.proc.returncode}")
        lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
        if not lines:
            raise SystemExit("worker printed no result")
        return json.loads(lines[-1][len("RESULT "):])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.perf_counter()
    deadline = start + TIME_LIMIT_S

    if not (ROOT / "src" / "legsums" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'legsums'}", file=sys.stderr)
        return 2

    def run(mode):
        worker = Worker(args, mode, deadline)
        setup.append(worker.setup_s)
        return worker.result()

    setup: list[float] = []
    for _ in range(SETUP_PROBES):
        run("setup")
    # Whole rounds, each in a fresh process, until the run's time is up.
    rounds = []
    loop_start = time.perf_counter()
    while not rounds or time.perf_counter() - loop_start < args.seconds:
        rounds.append(run("round"))
    traced = [run("spans"), run("peaks")] if args.trace else []

    done = rounds + traced
    for res in done:
        for message in res["failures"]:
            print(f"FAILED {args.workload}: {message}", file=sys.stderr)
    run_s = statistics.median(r["run_s"] for r in rounds)
    if args.trace:
        values = {**traced[0]["layers"], **traced[1]["layers"],
                  "trace.overhead_s": traced[0]["run_s"] - run_s}
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = {
            "run_s": run_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "setup_s": statistics.median(setup),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} "
          f"run_s={[round(r['run_s'], 3) for r in rounds]} "
          f"setup_s={[round(x, 3) for x in setup]} wall={time.perf_counter() - start:.1f}")
    print(json.dumps({
        "correct": all(r["correct"] for r in done),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
