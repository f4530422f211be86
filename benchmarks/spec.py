"""What the benchmark measures: workloads, metrics, bounds and run sizes.

run.py writes BENCHMARK.json from these tables, and worker.py checks that
it reports exactly these metrics, so this file is the one place to change
them.
"""

RUN_SECONDS = 20

# Seeds per workload when every workload is run.
RUNS = 10

# Set-up probes per run: each is a fresh process that imports afcmem,
# generates the inputs and runs the warm-up unit.  Half run before the
# measuring process and half after it; setup_s is the median of the probes
# and the measuring process itself.
SETUP_PROBES = 4

WORKLOADS = {
    "reproduce-presets": {
        "why": "The six reproduce presets through the CLI, as users run "
               "them: stresses spinbath's ideal OU path, fitting and "
               "harness; comb and bloch stay idle (tables back out the "
               "transfer).",
        # Six passes give every preset seed of the pool a rerun, which the
        # digest check needs, and 36 units for the tail percentile.
        "min_passes": 6,
        "idle": ("comb", "bloch"),
    },
    "optical-chain": {
        "why": "build_comb+propagate over 20-100 kHz combs and three tooth "
               "shapes, plus transfer profiles of distinct chirped pulses: "
               "stresses comb, pulses, bloch; spinbath and detection idle.",
        # Three passes build every tooth shape at every period rung.
        "min_passes": 3,
        "idle": ("spinbath", "detection"),
    },
    "spinwave-sweep": {
        "why": "run_spinwave over XX/XY4/XY8/XY16 x 20-200 ms storage "
               "(bath T2 200 ms, 40k atoms) plus qubit tomography: stresses "
               "spinbath's pulse-error branch, repeated transfer profile "
               "and detection; comb idle.",
        "min_passes": 3,
        "idle": ("comb",),
    },
}

# (name, unit, bound).  failed_frac is reported by every run as the
# attempted/failed counts of the result line; it is 0 at a correct commit,
# so it cannot serve as a relative bound.
# The timing bounds are wide: on the shared 2-vCPU virtual machine they were
# set on, one transfer_profile call took 0.36 s to 0.64 s within a minute,
# with CPU time equal to wall time (contention, not descheduling).
END_TO_END = (
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("unit_p50_s", "s", 0.25),
    ("unit_tail_s", "s", 0.25),
    ("peak_rss_mb", "MiB", 0.1),
)

LAYERS = ("comb", "pulses", "bloch", "spinbath", "detection", "tomography",
          "fitting", "harness")

PRESETS = ("fig1e", "fig2", "table1-20ms", "table1-50ms", "table1-100ms",
           "fig4-tomo")

# Work counters of each span, summed over the traced passes.  They are
# computed from call arguments and return values only.
SPAN_COUNTERS = {
    "comb.build": (("tooth_points", "count"), ("fft_points", "count")),
    "comb.propagate": (("fft_points", "count"),),
    "pulses.waveform": (("samples", "count"),),
    "bloch.transfer": (("calls", "count"), ("step_detunings", "count")),
    "spinbath.ideal": (("atom_intervals", "count"),),
    "spinbath.errors": (("atom_intervals", "count"),),
    "spinbath.residual": (("atom_intervals", "count"),),
    "detection.counts": (("bins", "count"),),
    "detection.modes": (),
    "tomography": (("reconstructions", "count"),),
    "fitting": (("fits", "count"), ("iterations", "count"),
                ("unconverged", "count")),
    "harness": (("bytes_written", "B"),)
               + tuple((f"preset.{p}_s", "s") for p in PRESETS),
}

# Cost per unit of work: (metric, self-time span, counter).
UNIT_COSTS = (
    ("comb.build.ns_per_tooth_point", "comb.build", "tooth_points"),
    ("bloch.transfer.ns_per_step_detuning", "bloch.transfer", "step_detunings"),
    ("spinbath.ideal.ns_per_atom_interval", "spinbath.ideal", "atom_intervals"),
    ("spinbath.errors.ns_per_atom_interval", "spinbath.errors", "atom_intervals"),
    ("spinbath.residual.ns_per_atom_interval", "spinbath.residual",
     "atom_intervals"),
)


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for span, counters in SPAN_COUNTERS.items():
        out.append((f"{span}.self_s", "s"))
        out.extend((f"{span}.{c}", unit) for c, unit in counters)
    out.extend((name, "ns") for name, _, _ in UNIT_COSTS)
    out.append(("bloch.transfer.repeat_frac", "frac"))
    out.extend((f"{layer}.errors", "count") for layer in LAYERS)
    out.extend([("trace.wall_s", "s"), ("trace.unattributed_frac", "frac"),
                ("trace.overhead_frac", "frac")])
    return out


def benchmark_json():
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]}
                      for name, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in per_layer_metrics()],
    }
