"""afcmem benchmark: seeded workloads, end-to-end timings and per-layer costs.

One run of one workload:

  python3 benchmarks/run.py --workload optical-chain --seed 3 --seconds 20 --trace 0

prints every metric by name with its unit, an environment record, and as
its last line a JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 gives the end-to-end metrics, --trace 1 the per-layer
ones from a separate traced run.  Each workload runs in fresh processes
(see worker.py); set-up is measured in several of them and its median
reported.

A unit that raises or whose output fails its check counts in "failed",
and "correct" is true only when none did.

Every workload, spec.RUNS seeds each, plus one traced run per workload:

  python3 benchmarks/run.py [--seconds 20]

prints the same per run, then the median and quartiles of every metric,
checks that layers predicted idle did no work, writes BENCHMARK.json and
benchmarks/results/baseline.json, and ends with a JSON summary line.

Exit status: 2 when the checkout holds no afcmem sources, 1 when a workload
process failed or, for all workloads, when a unit failed or a layer
predicted idle did work; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import (END_TO_END, RUN_SECONDS, RUNS, SETUP_PROBES, WORKLOADS,
                  benchmark_json, per_layer_metrics)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKER_TIMEOUT_S = 170


class WorkerFailed(RuntimeError):
    pass


def _loadavg():
    return Path("/proc/loadavg").read_text().split()[:3]


def _spawn(workload, seed, seconds, trace, setup_only=False):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}:\n"
                           + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns (result line, details)."""
    load_start = _loadavg()
    probes = 0 if trace else SETUP_PROBES
    setups = [_spawn(workload, seed, seconds, trace, True)["setup_s"]
              for _ in range(probes // 2)]
    r = _spawn(workload, seed, seconds, trace)
    setups.append(r["setup_s"])
    setups += [_spawn(workload, seed, seconds, trace, True)["setup_s"]
               for _ in range(probes - probes // 2)]
    if trace:
        names = per_layer_metrics()
    else:
        r["metrics"]["setup_s"] = statistics.median(setups)
        names = [(n, u) for n, u, _ in END_TO_END]
    if {n for n, _ in names} != set(r["metrics"]):
        raise WorkerFailed(f"{workload} reported metrics other than the spec's")
    failed = len(r["failures"])
    line = {"correct": failed == 0, "attempted": r["attempted"],
            "failed": failed,
            "metrics": {n: {"value": r["metrics"][n], "unit": u}
                        for n, u in names}}
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": r["passes"], "failed_frac": failed / r["attempted"],
        "failures": r["failures"], "setup_samples_s": setups,
        "env": {"nproc": os.cpu_count(), **r["versions"],
                "loadavg_start": load_start, "loadavg_end": _loadavg()},
    }
    if "tail" in r:
        details["unit_tail"] = r["tail"]
    return line, details


def print_run(line, details):
    print(f"# {details['workload']} seed {details['seed']} trace "
          f"{details['trace']}: {details['passes']} passes, "
          f"{line['attempted']} units, failed_frac {details['failed_frac']:.4g}")
    kinds = {}
    for f in details["failures"]:
        kinds.setdefault("; ".join(f["problems"]), []).append(f["unit"])
    for problem, units in kinds.items():
        print(f"  {len(units)} failed units: {problem}; first {units[0]}")
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if "unit_tail" in details:
        t = details["unit_tail"]
        print(f"unit_tail_s is p{t['percentile']} of {t['samples']} units "
              f"({t['beyond']} beyond it)")
    print("env " + json.dumps(details["env"]))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(seconds):
    """Every workload; returns the exit status."""
    results = {"run_seconds": seconds, "runs_per_workload": RUNS,
               "workloads": {}}
    steady = True
    attempted = failed = 0
    for workload, wspec in WORKLOADS.items():
        lines, run_details = [], []
        for seed in range(1, RUNS + 1):
            line, details = measure(workload, seed, seconds, 0)
            print_run(line, details)
            lines.append(line)
            run_details.append({k: details[k] for k in (
                "seed", "passes", "failed_frac", "unit_tail",
                "setup_samples_s", "env")})
        tline, tdetails = measure(workload, 1, seconds, 1)
        print_run(tline, tdetails)
        summary = {}
        print(f"## {workload}: median [q1, q3] over {RUNS} seeds; spread is "
              "(q3 - q1) / median against a third of the bound")
        for name, unit, bound in END_TO_END:
            q1, med, q3 = quartiles([l["metrics"][name]["value"] for l in lines])
            spread = (q3 - q1) / med
            ok = spread < bound / 3
            steady &= ok
            summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bound}
            print(f"{name} = {med:.6g} {unit} [{q1:.6g}, {q3:.6g}] spread "
                  f"{spread:.3f} (bound/3 {bound / 3:.3f}){'' if ok else ' NOT STEADY'}")
        layer = tline["metrics"]
        idle = {}
        for lay in wspec["idle"]:
            work = sum(m["value"] for n, m in layer.items()
                       if n.startswith(lay + ".") and m["unit"] in ("count", "s")
                       and not n.endswith(".errors"))
            idle[lay] = work == 0
            print(f"idle prediction {lay}: {'holds' if work == 0 else 'FAILS'}")
        for l in lines + [tline]:
            attempted += l["attempted"]
            failed += l["failed"]
        results["workloads"][workload] = {
            "end_to_end": summary,
            "attempted": sum(l["attempted"] for l in lines),
            "failed": sum(l["failed"] for l in lines),
            "per_layer_seed1": {n: m["value"] for n, m in layer.items()},
            "per_layer_failed": tline["failed"],
            "idle_layers_did_no_work": idle,
            "runs": run_details,
            "traced_run_env": tdetails["env"],
        }
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(benchmark_json(), indent=2) + "\n")
    out = HERE / "results" / "baseline.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=2) + "\n")
    idle_ok = all(all(w["idle_layers_did_no_work"].values())
                  for w in results["workloads"].values())
    print(f"wrote BENCHMARK.json and {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "idle_predictions_hold": idle_ok,
                      "steady": steady}))
    return 0 if failed == 0 and idle_ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "afcmem" / "__init__.py").is_file():
        print(f"error: no afcmem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            return run_all(args.seconds)
        line, details = measure(args.workload, args.seed, args.seconds,
                                args.trace)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_run(line, details)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
