"""Run one workload in a fresh process; print its measurements as one JSON line.

run.py starts this script with PYTHONPATH set to the checkout's ``src``
and the BLAS/OpenMP thread counts set to 1, and passes the monotonic clock
reading taken just before the process was started, so that set-up time
includes interpreter start and the afcmem import.

  --setup-only  stop after the warm-up unit and report the set-up time
  --trace 0     closed loop with one caller: whole passes until --seconds
                have elapsed and at least the workload's minimum passes ran;
                wall_s is the timed body's wall time per pass
  --trace 1     the workload's minimum passes, traced, for per-layer self
                times and work counters; fixed work, so counters repeat
                exactly for a seed.  The first passes also run untraced,
                for the tracing overhead
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Enough passes for any run length the driver asks for; generating them is
# part of set-up.
MAX_PASSES = 400

# The traced run repeats its first passes untraced, traced run first in
# one and second in the other, to measure the tracing overhead.
OVERHEAD_PASSES = 2


def run_unit(wl, unit):
    """Run one unit; returns (latency in s, list of problems)."""
    wl.before(unit)
    t0 = time.perf_counter()
    try:
        out = wl.call(unit)
    except Exception as exc:  # a failed unit is counted, the loop goes on
        traceback.print_exc()
        return time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
    latency = time.perf_counter() - t0
    try:
        return latency, wl.check(unit, out)
    except Exception as exc:
        traceback.print_exc()
        return latency, [f"check raised {type(exc).__name__}: {exc}"]


def run_pass(wl, units, failures):
    latencies = []
    for unit in units:
        latency, problems = run_unit(wl, unit)
        latencies.append(latency)
        if problems:
            failures.append({"unit": unit, "problems": problems})
    return latencies


def tail(latencies, n_min):
    """Fixed percentile with at least ten samples beyond it in a run of
    n_min or more units: the same point of the latency distribution at any
    run length.  Returns (value, percentile, samples beyond)."""
    pct = math.floor(100 * (1 - 10 / n_min))
    ordered = sorted(latencies)
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[rank - 1], pct, len(ordered) - rank


def timed(wl, schedule, seconds, min_passes):
    failures, latencies = [], []
    passes = 0
    start = time.monotonic()
    while passes < len(schedule) and (
            passes < min_passes or time.monotonic() - start < seconds):
        latencies += run_pass(wl, schedule[passes], failures)
        passes += 1
    body_s = time.monotonic() - start
    value, pct, beyond = tail(latencies, min_passes * len(schedule[0]))
    return {
        "metrics": {
            "wall_s": body_s / passes,
            "unit_p50_s": statistics.median(latencies),
            "unit_tail_s": value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "attempted": len(latencies), "failures": failures,
        "passes": passes,
        "tail": {"percentile": pct, "samples": len(latencies),
                 "beyond": beyond},
    }


def traced(wl, schedule, min_passes):
    from tracer import Tracer

    tracer = Tracer()
    failures, attempted = [], 0
    unit_wall = 0.0
    walls = {True: 0.0, False: 0.0}  # traced and untraced overhead passes
    for p in range(min_passes):
        order = ((True, False), (False, True))[p] if p < OVERHEAD_PASSES else (True,)
        for traced_run in order:
            if traced_run:
                tracer.install()
            t0 = time.monotonic()
            try:
                latencies = run_pass(wl, schedule[p], failures)
            finally:
                tracer.uninstall()
            wall = time.monotonic() - t0
            attempted += len(latencies)
            if traced_run:
                unit_wall += sum(latencies)
            if p < OVERHEAD_PASSES:
                walls[traced_run] += wall
    return {"metrics": tracer.metrics(unit_wall, walls[True], walls[False]),
            "attempted": attempted, "failures": failures,
            "passes": min_passes}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the process was started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import afcmem
    if not Path(afcmem.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"afcmem imported from {afcmem.__file__}, not from the checkout")
    import numpy
    import scipy
    from spec import WORKLOADS
    from workloads import WORKLOADS as CLASSES

    work_dir = ROOT / "benchmarks" / ".work" / str(os.getpid())
    try:
        wl = CLASSES[args.workload](args.seed, work_dir)
        min_passes = WORKLOADS[args.workload]["min_passes"]
        schedule = wl.schedule(MAX_PASSES)
        _, problems = run_unit(wl, wl.warmup_unit())
        if problems:
            sys.exit(f"warm-up unit failed: {problems}")
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            result = {}
        elif args.trace:
            result = traced(wl, schedule, min_passes)
        else:
            result = timed(wl, schedule, args.seconds, min_passes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["setup_s"] = setup_s
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
