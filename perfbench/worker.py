"""One round of one workload in one fresh process; started by run.py.

Every round gets its own process, as every command a user types does, so no
round inherits the grown prime cache or the warmed allocator of an earlier
one.  Modes:

    setup   import the package and build the inputs, then exit (RESULT {})
    round   one untraced round, then its checks
    spans   one round with spans and counters on every traced layer
    peaks   one round with tracemalloc on, for the memory peaks only

Protocol on standard output: `READY` once the package is imported and the
inputs are built, then `RESULT <json>`.  The program's own standard output is
captured inside the workload calls, so nothing else reaches it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import legsums

    source = Path(legsums.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"imported legsums from {source}, not from {ROOT / 'src'}")


def run_round(workload, failures):
    """Call every operation once; return (timed seconds, attempted, outputs).

    Only the calls are timed.  An operation that raises is reported and left
    out of the outputs, so it counts as failed.
    """
    outputs, elapsed, attempted = [], 0.0, 0
    for label, call in workload.operations():
        attempted += 1
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:
            failures.append(f"{label}: raised {exc!r}")
            continue
        finally:
            elapsed += time.perf_counter() - t0
        outputs.append((label, out))
    return elapsed, attempted, outputs


def check_round(workload, outputs, failures):
    """Number of operations whose output fails a check."""
    bad = 0
    for label, out in outputs:
        try:
            messages = workload.check(label, out)
        except Exception as exc:  # output too malformed to check counts as wrong
            messages = [f"check raised {exc!r}"]
        if messages:
            bad += 1
            failures.extend(f"{label}: {m}" for m in messages)
    return bad


def layer_metrics(tracer):
    t, s, c, n, m = tracer.total, tracer.self_time, tracer.calls, tracer.counts, tracer.maxima
    return {
        "primes.sieve_s": t["primes.sieve"],
        "primes.sieve_limit": m["primes.sieve_limit"],
        "charsum.scan_s": s["charsum.scan"],
        "charsum.scan_calls": c["charsum.scan"],
        "charsum.prime_evals": n["charsum.prime_evals"],
        "charsum.cutoff_s": t["charsum.cutoff"],
        "charsum.cutoff_calls": c["charsum.cutoff"],
        "charsum.boundary_hits": n["charsum.boundary_hits"],
        "randmodel.sign_hash_s": t["randmodel.sign_hash"],
        "randmodel.sign_hash_calls": c["randmodel.sign_hash"],
        "randmodel.sign_cells": n["randmodel.sign_cells"],
        "randmodel.series_s": s["randmodel.series"],
        "randmodel.series_calls": c["randmodel.series"],
        "randmodel.series_terms": n["randmodel.series_terms"],
        "randmodel.euler_s": s["randmodel.euler"],
        "randmodel.euler_factors": n["randmodel.euler_factors"],
        "randmodel.moment_k2_s": t["randmodel.moment_k2"],
        "randmodel.moment_k3_s": t["randmodel.moment_k3"],
        "randmodel.moment_k4_s": t["randmodel.moment_k4"],
        "randmodel.kernel_support": m["randmodel.kernel_support"],
        "randmodel.xor_builds": n["randmodel.xor_builds"],
        "randmodel.xor_pairs": n["randmodel.xor_pairs"],
        "tails.sigma2_s": t["tails.sigma2"],
        "tails.zeta_ratio_s": t["tails.zeta_ratio"],
        "tails.certify_s": t["tails.certify"],
        "tails.optimize_calls": c["tails.optimize"],
    }


def peak_metrics(tracer):
    return {name + "_mb": tracer.maxima[name] / float(1 << 20)
            for name in ("charsum.peak", "randmodel.series_peak",
                         "randmodel.euler_peak", "randmodel.moment_peak")}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "round", "spans", "peaks"), required=True)
    args = parser.parse_args()

    tracer = None
    if args.mode in ("spans", "peaks"):
        from tracing import Tracer

        tracer = Tracer(peaks=args.mode == "peaks")
    if args.mode == "spans":
        tracer.profile_sieve_during(import_package)
    else:
        import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        print("RESULT {}", flush=True)
        return

    failures: list[str] = []
    if tracer:
        workload.trace(tracer)
        if args.mode == "peaks":
            tracemalloc.start()
    try:
        elapsed, attempted, outputs = run_round(workload, failures)
    finally:
        if tracer:
            tracemalloc.stop()
            tracer.unwrap()
    bad = check_round(workload, outputs, failures)

    result = {
        "run_s": elapsed,
        "attempted": attempted,
        "failed": attempted - len(outputs) + bad,
        "correct": bad == 0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": failures,
    }
    if args.mode == "spans":
        result["layers"] = layer_metrics(tracer)
    elif args.mode == "peaks":
        result["layers"] = peak_metrics(tracer)
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
