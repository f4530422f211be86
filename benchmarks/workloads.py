"""Seeded inputs, unit calls and output checks of the three workloads.

A unit is one top-level call into the public afcmem API.  A pass is a fixed
mix of units: every pass holds the same unit kinds drawn from the same
parameter strata, so that runs of any length or seed load the layers alike.
Inputs depend only on the benchmark seed and the pass index.  The bands of
the checks are those of the repository's tests.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil

import numpy as np

import afcmem
import afcmem.cli
import afcmem.comb
from afcmem.config import DEFAULT_OU_TAU_C_S
from afcmem.spinbath import ou_sigma_for_t2

from spec import PRESETS


class ReproducePresets:
    """All six presets through ``afcmem.cli.main(["reproduce", ...])``."""

    # Preset seeds at which every gated check passes.  Passes cycle through
    # them, so a run reruns each seed and checks that its report repeats.
    SEED_POOL = (1, 2, 3, 7, 11)

    def __init__(self, seed, work_dir):
        self.rng = random.Random(seed)
        self.pool = list(self.SEED_POOL)
        self.rng.shuffle(self.pool)
        self.out = work_dir / "reproduce"
        self.digests = {}

    def warmup_unit(self):
        return {"preset": "table1-20ms", "seed": self.pool[0]}

    def schedule(self, n_passes):
        passes = []
        for p in range(n_passes):
            names = list(PRESETS)
            self.rng.shuffle(names)
            seed = self.pool[p % len(self.pool)]
            passes.append([{"preset": n, "seed": seed} for n in names])
        return passes

    def before(self, unit):
        shutil.rmtree(self.out, ignore_errors=True)

    def call(self, unit):
        return afcmem.cli.main(["reproduce", unit["preset"], "--seed",
                                str(unit["seed"]), "--out", str(self.out)])

    def check(self, unit, code):
        problems = [] if code == 0 else [f"exit code {code}"]
        report = json.loads((self.out / "report.json").read_text())
        problems += [f"gated check {c['name']} failed"
                     for c in report["checks"]
                     if c.get("gated", True) and not c["pass"]]
        digest = hashlib.sha256()
        for path in sorted(self.out.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        key = (unit["preset"], unit["seed"])
        if self.digests.setdefault(key, digest.hexdigest()) != digest.hexdigest():
            problems.append("outputs differ from an earlier run of this seed")
        return problems


class OpticalChain:
    """Comb construction and echo, and transfer profiles of chirped pulses."""

    SHAPES = ("square", "gaussian", "lorentzian_sum")
    # build_comb costs about grid points x teeth, so 1/period.  Every pass
    # builds one comb at each rung of a log-spaced ladder over 20-100 kHz,
    # each period jittered by at most PERIOD_JITTER of the ladder's log
    # span, so that every pass holds the same comb work.
    PERIOD_RANGE_HZ = (20e3, 100e3)
    PERIOD_RUNGS = 4
    PERIOD_JITTER = 0.02
    # The reference pulse keeps > 0.99 in-band inversion from its tuned
    # time-bandwidth product (15 us x 1.5 MHz) up; below about 20 it drops
    # (0.95 at 10 us x 1.5 MHz), so durations and bandwidths start there.
    DURATION_STRATA_S = ((15e-6, 17.5e-6), (17.5e-6, 20e-6))
    BANDWIDTH_STRATA_HZ = ((1.5e6, 1.75e6), (1.75e6, 2.0e6))

    def __init__(self, seed, work_dir):
        self.rng = random.Random(seed)
        self.shapes = list(self.SHAPES)
        self.rng.shuffle(self.shapes)

    def warmup_unit(self):
        return {"kind": "comb", "shape": "square", "period_hz": 100e3,
                "finesse": 4.0, "peak_od": 3.0, "passes": 2}

    def _comb(self, shape, rung):
        rng = self.rng
        centre = rung / (self.PERIOD_RUNGS - 1)
        x = rng.uniform(max(0.0, centre - self.PERIOD_JITTER),
                        min(1.0, centre + self.PERIOD_JITTER))
        lo, hi = self.PERIOD_RANGE_HZ
        unit = {"kind": "comb", "shape": shape, "period_hz": lo * (hi / lo) ** x}
        if shape == "square":
            # the comb of the echo-timing criterion, at a varied period
            unit.update(finesse=4.0, peak_od=3.0, passes=2)
        else:
            unit.update(finesse=rng.uniform(2.0, 10.0),
                        peak_od=rng.uniform(0.5, 6.0),
                        passes=rng.choice((1, 2)))
        return unit

    def _pulse(self, kind, dur_stratum, bw_stratum):
        rng = self.rng
        bandwidth = rng.uniform(*self.BANDWIDTH_STRATA_HZ[bw_stratum])
        unit = {"kind": kind,
                "duration_s": rng.uniform(*self.DURATION_STRATA_S[dur_stratum]),
                "bandwidth_hz": bandwidth,
                "n_detunings": rng.randint(31, 61)}
        if kind == "chsh":
            unit["separation_s"] = rng.uniform(1.2e-6, 2.0e-6)
            unit["phase_rad"] = rng.uniform(0.0, 2 * math.pi)
        return unit

    def schedule(self, n_passes):
        passes = []
        # Every pass holds one comb per period rung and one long narrow and
        # one short wide pulse of each kind, so that passes cost about the
        # same.  The shapes rotate over the rungs: every three passes build
        # each shape at each rung once.
        n_shapes = len(self.shapes)
        for p in range(n_passes):
            units = [self._comb(self.shapes[(r + p) % n_shapes], r)
                     for r in range(self.PERIOD_RUNGS)]
            units += [self._pulse(kind, (p + j) % 2, (p + j + 1) % 2)
                      for kind in ("hsh", "chsh") for j in range(2)]
            self.rng.shuffle(units)
            passes.append(units)
        return passes

    def before(self, unit):
        pass

    def call(self, unit):
        if unit["kind"] == "comb":
            params = afcmem.CombParams(
                comb_period_hz=unit["period_hz"], finesse=unit["finesse"],
                peak_od=unit["peak_od"], bandwidth_hz=3e6,
                tooth_shape=unit["shape"], passes=unit["passes"])
            spectrum = afcmem.build_comb(params)
            fwhm = min(700e-9, 0.1 / unit["period_hz"])
            echo = afcmem.propagate(afcmem.gaussian_pulse(fwhm, 0.0, 32e6),
                                    spectrum)
            return spectrum, echo
        spec = afcmem.reference_transfer_pulse(unit["duration_s"],
                                               unit["bandwidth_hz"])
        if unit["kind"] == "hsh":
            waveform = afcmem.hsh_waveform(spec)
            half_span = 0.4  # the in-band 80 % of the sweep
        else:
            waveform = afcmem.chsh_waveform(afcmem.ChshSpec(
                base=spec, separation_s=unit["separation_s"],
                relative_phase_rad=unit["phase_rad"]))
            half_span = 0.6
        grid = np.linspace(-half_span, half_span, unit["n_detunings"])
        return afcmem.transfer_profile(waveform, grid * unit["bandwidth_hz"])

    def check(self, unit, out):
        if unit["kind"] == "comb":
            return self._check_comb(unit, *out)
        inversion = out.inversion
        if not np.all(np.isfinite(inversion)):
            return ["non-finite inversion"]
        if unit["kind"] == "hsh" and not inversion.min() > 0.99:
            return [f"in-band inversion {inversion.min():.5f} <= 0.99"]
        # RK4 is not renormalised; its norm drift budget is 1e-8 per pulse
        if inversion.min() < -1e-6 or inversion.max() > 1 + 1e-6:
            return ["inversion outside [0, 1]"]
        return []

    @staticmethod
    def _check_comb(unit, spectrum, echo):
        problems = []
        if (np.abs(spectrum.complex_response).max() > 1 + 1e-9
                or spectrum.alpha.min() < 0):
            problems.append("comb is not passive")
        period = unit["period_hz"]
        # The echo-timing band holds for the criterion comb, the
        # closed-form efficiencies for square and Gaussian teeth.
        if unit["shape"] == "square":
            timing_err = abs(echo.echo_time_s * period - 1)
            if not timing_err < 0.01:
                problems.append(f"echo time off 1/Delta by {timing_err:.2%}")
        oracle = {"square": afcmem.comb.square_tooth_efficiency,
                  "gaussian": afcmem.comb.gaussian_tooth_efficiency}.get(
                      unit["shape"])
        if oracle is None:
            return problems
        df = spectrum.freq_grid_hz[1] - spectrum.freq_grid_hz[0]
        want = oracle(unit["peak_od"], unit["finesse"], passes=unit["passes"],
                      kernel_hwhm_hz=4 * df, comb_period_hz=period)
        if not abs(echo.echo_efficiency - want) <= 0.05 * want:
            problems.append(f"efficiency {echo.echo_efficiency:.5f} not "
                            f"within 5% of closed form {want:.5f}")
        return problems


class SpinwaveSweep:
    """``run_spinwave`` over DD kinds and storage times, plus tomography."""

    DD_KINDS = ("XX", "XY4", "XY8", "XY16")
    # Storage times of 20-200 ms in two strata, for every DD kind.
    T_STRATA_S = ((0.020, 0.110), (0.110, 0.200))
    # The default bath gives the two-pulse sequence T2 = 70 ms, so beyond
    # about 100 ms at XX and 140 ms at XY4 the stored signal sinks under
    # the noise floor and run_spinwave raises (mu1 undefined).  The sweep
    # runs on a quieter OU bath, with the two-pulse T2 at the longest
    # storage time, where every sequence keeps eta_spin above 0.1.  The
    # bath strength does not change the work done.
    BATH_OU_SIGMA_HZ = ou_sigma_for_t2(2, T_STRATA_S[-1][1],
                                       DEFAULT_OU_TAU_C_S)
    # With the default 10 000 atoms the repeated transfer profile is 80 %
    # of a unit.  Its step loop over small arrays slowed by 37-50 % between
    # two sets of runs on a shared 2-vCPU host, where the spin ensemble's
    # vectorised work slowed by 13 %.  Four times the atoms give the pulse-
    # error branch about half of a unit, which steadies the timings.
    N_ATOMS = 40_000

    def __init__(self, seed, work_dir):
        self.rng = random.Random(seed)

    def warmup_unit(self):
        return {"kind": "spinwave", "dd_kind": "XX",
                "t_s": self.T_STRATA_S[0][0], "seed": 0}

    def schedule(self, n_passes):
        rng = self.rng
        passes = []
        for _ in range(n_passes):
            units = []
            for kind in self.DD_KINDS:
                for lo, hi in self.T_STRATA_S:
                    units.append({"kind": "spinwave", "dd_kind": kind,
                                  "t_s": rng.uniform(lo, hi),
                                  "seed": rng.randrange(2**31)})
            units.append({"kind": "qubit", "seed": rng.randrange(2**31)})
            rng.shuffle(units)
            passes.append(units)
        return passes

    def before(self, unit):
        pass

    def call(self, unit):
        if unit["kind"] == "qubit":
            return afcmem.run_qubit_tomography(
                afcmem.ExperimentConfig(seed=unit["seed"]))
        return afcmem.run_spinwave(afcmem.ExperimentConfig(
            dd_kind=unit["dd_kind"], t_s_seconds=unit["t_s"],
            bath_ou_sigma_hz=self.BATH_OU_SIGMA_HZ, n_atoms=self.N_ATOMS,
            seed=unit["seed"]))

    def check(self, unit, report):
        if unit["kind"] == "qubit":
            t = report.tomography
            values = [t["fidelity_avg"], t["purity_avg"]] + [
                q[k] for q in t["per_qubit"] for k in ("fidelity", "purity")]
            if not all(map(math.isfinite, values)):
                return ["non-finite tomography result"]
            if not (0 <= t["fidelity_avg"] <= 1
                    and 0.5 <= t["purity_avg"] <= 1 + 1e-12):
                return ["fidelity or purity outside its physical range"]
            return []
        problems = []
        values = _numbers(report.metrics) + _numbers(report.stages)
        if not all(map(math.isfinite, values)):
            problems.append("non-finite metric")
        s = report.stages
        product = s["eta_afc"] * s["eta_transfer_sq"] * s["eta_spin"]
        if not math.isclose(report.eta_end_to_end, product, rel_tol=1e-12):
            problems.append("eta_end_to_end is not the product of the stages")
        if not 0 < s["eta_spin"] <= 1:
            problems.append(f"eta_spin {s['eta_spin']} outside (0, 1]")
        return problems


def _numbers(tree):
    """Every number in a nest of dicts, lists and arrays (None skipped)."""
    if isinstance(tree, dict):
        return [x for v in tree.values() for x in _numbers(v)]
    if isinstance(tree, (list, tuple, np.ndarray)):
        return [x for v in tree for x in _numbers(v)]
    return [] if tree is None else [float(tree)]


WORKLOADS = {"reproduce-presets": ReproducePresets,
             "optical-chain": OpticalChain,
             "spinwave-sweep": SpinwaveSweep}
