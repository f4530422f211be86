"""Per-layer spans and work counters around afcmem's public functions.

The tracer wraps functions from outside the package: ``install`` replaces
every module attribute in ``afcmem.*`` that refers to a traced function by
a wrapper, ``uninstall`` puts the originals back.  A span's self time is
its duration minus the time covered by the spans it encloses, so self times
add up to the time spent inside traced calls.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from spec import LAYERS, SPAN_COUNTERS, UNIT_COSTS


def _comb_build(tracer, a, out, dur):
    p = a["params"]
    n = out.freq_grid_hz.size
    teeth = 2 * math.floor(p.bandwidth_hz / 2 / p.comb_period_hz) + 1
    return {"tooth_points": n * teeth, "fft_points": 2 * n}


def _comb_propagate(tracer, a, out, dur):
    return {"fft_points": out.output_waveform.n_samples}


def _waveform(tracer, a, out, dur):
    return {"samples": out.n_samples}


def _transfer(tracer, a, out, dur):
    wf = a["waveform"]
    grid = np.asarray(a["detuning_grid"], dtype=float)
    key = hashlib.sha256(wf.samples.tobytes() + grid.tobytes()
                         + repr(wf.sample_rate_hz).encode()).digest()
    repeated = key in tracer.profile_keys
    tracer.profile_keys.add(key)
    # RK4 takes one step per two samples, padding an even count by one.
    return {"calls": 1, "step_detunings": (wf.n_samples // 2) * grid.size,
            "repeats": int(repeated)}


def _atom_intervals(line_arg):
    def count(tracer, a, out, dur):
        return {"atom_intervals": a[line_arg].n_atoms * (a["dd"].n_pulses + 1)}
    return count


def _bins(tracer, a, out, dur):
    return {"bins": out.n_bins}


def _reconstruction(tracer, a, out, dur):
    return {"reconstructions": 1}


def _fit(tracer, a, out, dur):
    return {"fits": 1, "iterations": out.n_iter,
            "unconverged": int(not out.converged)}


def _cli_main(tracer, a, out, dur):
    argv = list(a["argv"] or ())
    if "--out" not in argv:
        return {}
    out_dir = Path(argv[argv.index("--out") + 1])
    return {"bytes_written": sum(f.stat().st_size for f in out_dir.rglob("*")
                                 if f.is_file())}


def _reproduce(tracer, a, out, dur):
    return {f"preset.{a['name']}_s": dur}


def _echo_span(a):
    return "spinbath.ideal" if a["errors"] is None else "spinbath.errors"


# (module, function, span name or function of the arguments, counter)
TARGETS = (
    ("afcmem.comb", "build_comb", "comb.build", _comb_build),
    ("afcmem.comb", "propagate", "comb.propagate", _comb_propagate),
    ("afcmem.pulses", "hsh_waveform", "pulses.waveform", _waveform),
    ("afcmem.pulses", "chsh_waveform", "pulses.waveform", _waveform),
    ("afcmem.bloch", "transfer_profile", "bloch.transfer", _transfer),
    ("afcmem.spinbath", "spin_echo_coherence", _echo_span,
     _atom_intervals("bath")),
    ("afcmem.spinbath", "residual_excitation", "spinbath.residual",
     _atom_intervals("line")),
    ("afcmem.detection", "simulate_counts", "detection.counts", _bins),
    ("afcmem.detection", "mode_sums", "detection.modes", None),
    ("afcmem.tomography", "pauli_expectations", "tomography", None),
    ("afcmem.tomography", "direct_inversion", "tomography", _reconstruction),
    ("afcmem.tomography", "fidelity", "tomography", None),
    ("afcmem.tomography", "purity", "tomography", None),
    ("afcmem.tomography", "classical_bound_weak_coherent", "tomography", None),
    ("afcmem.tomography", "white_noise_fidelity", "tomography", None),
    ("afcmem.fitting", "fit_afc_decay", "fitting", _fit),
    ("afcmem.fitting", "fit_mims", "fitting", _fit),
    ("afcmem.fitting", "fit_power_law", "fitting", _fit),
    ("afcmem.cli", "main", "harness", _cli_main),
    ("afcmem.harness", "reproduce", "harness", _reproduce),
    ("afcmem.harness", "run_spinwave", "harness", None),
    ("afcmem.harness", "run_qubit_tomography", "harness", None),
)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.errors = defaultdict(int)
        self.profile_keys = set()
        self._stack = []
        self._last_error = {}
        self._patches = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "afcmem" or name.startswith("afcmem.")]
        for module_name, fn_name, span, counter in TARGETS:
            orig = getattr(sys.modules[module_name], fn_name)
            wrapper = self._wrap(orig, span, counter)
            for m in modules:
                for attr, value in vars(m).items():
                    if value is orig:
                        self._patches.append((m, attr, orig, wrapper))

    def install(self):
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, orig, _ in self._patches:
            setattr(m, attr, orig)

    def _wrap(self, orig, span, counter):
        sig = inspect.signature(orig)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            name = span if isinstance(span, str) else span(a)
            frame = [0.0]  # time covered by enclosed spans
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            except BaseException as exc:
                self._close(name, t0, frame)
                layer = name.split(".")[0]
                # count an exception once per layer as it unwinds
                if isinstance(exc, Exception) and self._last_error.get(layer) is not exc:
                    self._last_error[layer] = exc
                    self.errors[layer] += 1
                raise
            dur = self._close(name, t0, frame)
            if counter is not None:
                for key, value in counter(self, a, out, dur).items():
                    self.counts[f"{name}.{key}"] += value
            return out

        return wrapper

    def _close(self, name, t0, frame):
        dur = time.perf_counter() - t0
        self._stack.pop()
        self.self_s[name] += dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur
        return dur

    def metrics(self, unit_wall_s, traced_wall_s, untraced_wall_s):
        """Per-layer metrics of the traced units.

        unit_wall_s is the time inside the traced units' calls; the two
        walls are those of the same passes run with and without tracing.
        """
        m = {}
        for span, counters in SPAN_COUNTERS.items():
            m[f"{span}.self_s"] = self.self_s[span]
            for c, _ in counters:
                m[f"{span}.{c}"] = self.counts[f"{span}.{c}"]
        for name, span, counter in UNIT_COSTS:
            work = self.counts[f"{span}.{counter}"]
            m[name] = 1e9 * self.self_s[span] / work if work else 0.0
        calls = self.counts["bloch.transfer.calls"]
        m["bloch.transfer.repeat_frac"] = (
            self.counts["bloch.transfer.repeats"] / calls if calls else 0.0)
        for layer in LAYERS:
            m[f"{layer}.errors"] = self.errors[layer]
        m["trace.wall_s"] = unit_wall_s
        m["trace.unattributed_frac"] = 1 - sum(self.self_s.values()) / unit_wall_s
        m["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1
        return m
