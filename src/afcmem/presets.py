"""Calibrated reproduction presets and their reference targets.

Every preset measures one sample, MEMORY: the default comb, bath, RF,
detection and analyser.  Each is one row of PRESETS: the kind of run it
makes; its protocol, the fields the experiment sets (storage time, DD
sequence, input photon number, trials); the fields it calibrates, each
pinned to a reference value (comb peak OD, which fixes the echo
efficiency; end-to-end efficiency, from which the transfer is backed out;
read-out noise; interference visibility); notes that give each
calibrated field's reference; and its checks against the reference values,
a function of the report's fields alone.  A gated check names its class,
what fixes its expected value: calibration identity, fit recovery, model
identity, self-oracle, simulated value against a formula, or prediction.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, NamedTuple

import numpy as np

from .config import ExperimentConfig, DEFAULT_OU_TAU_C_S
from .pulses import DD_KINDS, dd_phases

# The sample every preset measures.
MEMORY = ExperimentConfig(seed=6)

# Reference echo efficiency at the working delay 1/Delta = 25 us (first
# modulation maximum of the echo-decay curve) and the comb peak OD giving it.
ETA_AFC_REFERENCE = 0.28
COMB_PEAK_OD_REFERENCE = 3.32  # closed form 0.27998 at the default comb

# Reference single-photon-level storage table: per storage time, the DD
# sequence used and the measured (mu_in, eta, p_n, snr, mu1) with quoted
# uncertainties.
TABLE1 = {
    "table1-20ms": {
        "dd_kind": "XY4", "t_s_seconds": 0.020,
        "mu_in": 0.711, "mu_in_err": 0.006,
        "eta": 0.0739, "eta_err": 0.0004,
        "p_n": 0.0073, "p_n_err": 0.0012, "p_n_round": 0.00005,
        "snr": 7.4, "snr_err": 0.5,
        "mu1": 0.098, "mu1_err": 0.002,
    },
    "table1-50ms": {
        "dd_kind": "XY8", "t_s_seconds": 0.050,
        "mu_in": 1.21, "mu_in_err": 0.01,
        "eta": 0.0437, "eta_err": 0.0004,
        "p_n": 0.009, "p_n_err": 0.002, "p_n_round": 0.0005,
        "snr": 5.6, "snr_err": 0.7,
        "mu1": 0.218, "mu1_err": 0.008,
    },
    "table1-100ms": {
        "dd_kind": "XY16", "t_s_seconds": 0.100,
        "mu_in": 1.062, "mu_in_err": 0.007,
        "eta": 0.0260, "eta_err": 0.0002,
        "p_n": 0.0110, "p_n_err": 0.0015, "p_n_round": 0.00005,
        "snr": 2.5, "snr_err": 0.2,
        "mu1": 0.445, "mu1_err": 0.008,
    },
}

# Echo-decay reference fit: zero-time efficiency and effective coherence
# time, with the efficiency modulation tied to the 41.4 kHz splitting.
FIG1E = {"eta0": 0.36, "eta0_tol": 0.03, "t2_seconds": 240e-6,
         "t2_tol_seconds": 30e-6, "mod_depth_truth": 0.3, "noise_frac": 0.05,
         "n_points": 25, "t_min_s": 5e-6, "t_max_s": 220e-6}

# Spin-decay reference: effective coherence times per sequence and the
# power-law scaling measured on the reference dataset, plus the tolerance
# bands expected of the ideal-bath simulation.
FIG2 = {
    "t2_reference_ms": {"XX": (70, 2), "XY4": (106, 9), "XY8": (154, 11),
                        "XY16": (230, 30)},
    "gamma_reference": (0.57, 0.03),
    "t2_1_reference_ms": (47, 2),
    "gamma_band_sim": (0.60, 0.72),
    "mims_m_band": (2.5, 3.5),
    "xx_t2_calibration_s": 0.070,
}

# Qubit tomography reference: fidelity/purity with their acceptance bands,
# the sigma_z SNR used to pin the noise level, and the bright-pulse
# fidelity fixing the intrinsic interference visibility.
FIG4 = {
    "fidelity_band": (0.82, 0.88),
    "purity_band": (0.72, 0.80),
    "sigma_z_snr": 3.48,
    "bright_pulse_fidelity": 0.96,
    "classical_bound_reference": 0.812,
    "classical_bound_oracle": (0.802, 0.005),
    "white_noise_fidelity_reference": 0.889,
}


def spin_t2_nominal(dd_kind: str) -> float:
    """Ideal slow-bath scaling from the calibrated two-pulse point:
    T2(n) = T2(2) * (n/2)^(2/3)."""
    n = len(dd_phases(dd_kind))
    return FIG2["xx_t2_calibration_s"] * (n / 2.0) ** (2.0 / 3.0)


def _num(value) -> np.ndarray:
    """A report value as floats.  report.json writes NaN and inf as null,
    which reads back here as NaN, so a check on a saved report fails where
    the check on the run's own report did."""
    return np.asarray(value, dtype=float)


def _nums(table: dict) -> dict:
    return {key: _num(value) for key, value in table.items()}


def _check(name, value, lo, hi, gate=None, note=None) -> dict:
    """A check of lo <= value <= hi, gated when gate names its class."""
    entry = {"name": name, "value": float(value), "lo": float(lo),
             "hi": float(hi), "pass": bool(lo <= value <= hi),
             "gated": gate is not None}
    if gate is not None:
        entry["class"] = gate
    if note:
        entry["note"] = note
    return entry


def _near(name, value, centre, half, *args, **kw) -> dict:
    return _check(name, value, centre - half, centre + half, *args, **kw)


def table_checks(ref: dict, report: dict) -> list[dict]:
    m = report["metrics"]
    s = _nums(m["summary"])
    # the published inputs are rounded and carry their own error bars
    mu1_half = ref["mu1_err"] + float(ref["mu1"] * np.hypot(
        (ref["p_n_err"] + ref["p_n_round"]) / ref["p_n"],
        ref["eta_err"] / ref["eta"]))
    gate = "calibration identity"
    return [
        _near("snr_avg", s["snr"], ref["snr"], ref["snr_err"], gate),
        _near("mu1_avg", s["mu1"], ref["mu1"], mu1_half, gate,
              note="band widened by uncertainty propagated from the "
                   "rounded published inputs"),
        _check("eta_avg", s["eta"],
               ref["eta"] - ref["eta_err"] - 3 * s["eta_err"],
               ref["eta"] + ref["eta_err"] + 3 * s["eta_err"], gate),
        _near("mu_in_measured", float(np.mean(_num(m["mu_in_measured"]))),
              ref["mu_in"],
              4 * float(np.mean(_num(m["mu_in_measured_err"]))), gate),
    ]


def tomo_checks(report: dict) -> list[dict]:
    tomo = report["tomography"]
    fidelity = _num(tomo["fidelity_avg"])
    bound = _num(tomo["classical_bound_weak_coherent"])
    return [
        _check("fidelity_avg", fidelity, *FIG4["fidelity_band"],
               "prediction"),
        _check("purity_avg", _num(tomo["purity_avg"]), *FIG4["purity_band"],
               "prediction"),
        _near("classical_bound_oracle", bound,
              *FIG4["classical_bound_oracle"], "self-oracle"),
        _near("white_noise_fidelity", _num(tomo["white_noise_fidelity"]),
              FIG4["white_noise_fidelity_reference"], 0.01,
              "calibration identity"),
        _check("fidelity_beats_classical_bound", fidelity - bound,
               0.0, 1.0, "simulated value against a formula"),
        _check("classical_bound_gap_to_reference",
               bound - FIG4["classical_bound_reference"], -0.02, 0.02,
               note="the greedy oracle sits about one percentage point "
                    "below the reference bound; the gap is reported, "
                    "not suppressed"),
    ]


def fig1e_checks(report: dict) -> list[dict]:
    fit = _nums(report["fits"]["afc_decay"])
    gate = "fit recovery"
    return [
        _near("eta0_fit", fit["eta0"], FIG1E["eta0"], FIG1E["eta0_tol"],
              gate),
        _near("t2_fit_seconds", fit["t2"], FIG1E["t2_seconds"],
              FIG1E["t2_tol_seconds"], gate),
        _check("converged", float(fit["converged"]), 1, 1, gate),
    ]


def fig2_checks(report: dict) -> list[dict]:
    fits = {name: _nums(fit) for name, fit in report["fits"].items()}
    gate = "model identity"
    checks = []
    for kind in DD_KINDS:
        fit = fits[f"mims_{kind}"]
        checks += [
            _check(f"mims_m_{kind}", fit["m"], *FIG2["mims_m_band"], gate),
            _near(f"t2_{kind}_ms_reference", fit["t2"] * 1e3,
                  *FIG2["t2_reference_ms"][kind],
                  note="reference dataset value; the simulated ideal "
                       "bath is calibrated only at XX"),
        ]
    gamma = fits["power_law"]["gamma"]
    xx_t2_ms = FIG2["xx_t2_calibration_s"] * 1e3
    return checks + [
        _check("gamma", gamma, *FIG2["gamma_band_sim"], gate),
        _check("t2_XX_calibration_ms", fits["mims_XX"]["t2"] * 1e3,
               xx_t2_ms * 0.95, xx_t2_ms * 1.05, gate),
        _near("gamma_reference", gamma, *FIG2["gamma_reference"],
              note="reference dataset value; ideal OU bath scaling is 2/3"),
    ]


class Preset(NamedTuple):
    kind: str  # the RunReport.kind of the run it makes
    protocol: dict  # the fields the experiment sets
    calibrated: dict  # the fields pinned to a reference, named in notes
    notes: tuple[str, ...]
    checks: Callable[[dict], list[dict]]

    @property
    def config(self) -> ExperimentConfig:
        """MEMORY with this preset's protocol and calibrated fields."""
        return dataclasses.replace(MEMORY, **self.protocol, **self.calibrated)


_TABLE_CALIBRATED = {
    name: {"comb_peak_od": COMB_PEAK_OD_REFERENCE,
           "eta_end_to_end_target": ref["eta"],
           "p_noise_target_per_mode": ref["p_n"]}
    for name, ref in TABLE1.items()}
_ROW_20MS = TABLE1["table1-20ms"]
_MU_QUBIT = 0.92
# noise per mode pinned by the reference sigma_z SNR at _MU_QUBIT/2 per bin
_P_NOISE_QUBIT = float((_MU_QUBIT / 2) * _ROW_20MS["eta"] / FIG4["sigma_z_snr"])
_VISIBILITY = float(2 * FIG4["bright_pulse_fidelity"] - 1)
_GAMMA_LO, _GAMMA_HI = FIG2["gamma_band_sim"]

PRESETS = {
    "fig1e": Preset(
        "fig1e", {"afc_mod_depth": FIG1E["mod_depth_truth"]}, {},
        ("synthetic echo-decay data generated from the reference fit "
         f"parameters with {FIG1E['noise_frac']:.0%} multiplicative noise; "
         "the modulation depth is a fitted parameter, not assumed",),
        fig1e_checks),
    "fig2": Preset(
        "fig2", {}, {},
        (f"OU bath calibrated so the two-pulse sequence decays with T2 = "
         f"{FIG2['xx_t2_calibration_s']*1e3:.0f} ms at correlation time "
         f"{DEFAULT_OU_TAU_C_S} s; the scaling study runs around that point",
         "the pass/fail gate on the scaling exponent uses the ideal-bath "
         f"band ({_GAMMA_LO:.2f}, {_GAMMA_HI:.2f}); the reference dataset's "
         f"{FIG2['gamma_reference'][0]} +- {FIG2['gamma_reference'][1]} is "
         "reported alongside without gating"),
        fig2_checks),
    **{name: Preset(
        "spinwave",
        {"dd_kind": ref["dd_kind"], "t_s_seconds": ref["t_s_seconds"],
         "mu_in_per_mode": ref["mu_in"]},
        _TABLE_CALIBRATED[name],
        (f"comb peak OD {COMB_PEAK_OD_REFERENCE} pins eta_afc to the first-"
         f"maximum echo efficiency {ETA_AFC_REFERENCE} at 1/Delta = 25 us",
         f"per-pulse transfer efficiency backed out of the reference "
         f"end-to-end efficiency {ref['eta']} given eta_afc and the "
         f"simulated spin-stage survival; it absorbs alignment drift of the "
         f"longer acquisitions",
         f"noise gain calibrated so this sequence at this storage time "
         f"gives p_n = {ref['p_n']} per mode (reference noise measurement)"),
        functools.partial(table_checks, ref))
       for name, ref in TABLE1.items()},
    "fig4-tomo": Preset(
        "qubit",
        {"dd_kind": _ROW_20MS["dd_kind"],
         "t_s_seconds": _ROW_20MS["t_s_seconds"],
         "mu_in_per_mode": _MU_QUBIT, "n_trials": 50_000},
        {**_TABLE_CALIBRATED["table1-20ms"],
         "p_noise_target_per_mode": _P_NOISE_QUBIT,
         "qubit_visibility": _VISIBILITY},
        (f"qubit noise per mode {_P_NOISE_QUBIT:.6f} pinned by the reference "
         f"sigma_z SNR {FIG4['sigma_z_snr']} at {_MU_QUBIT/2} photons per bin",
         f"intrinsic interference visibility {_VISIBILITY:.2f} pinned by the "
         f"reference bright-pulse fidelity {FIG4['bright_pulse_fidelity']}",
         "comb, memory efficiency and seed as table1-20ms: comb peak OD "
         f"{COMB_PEAK_OD_REFERENCE} pins eta_afc, the transfer is backed out"),
        tomo_checks),
}
PRESET_NAMES = tuple(PRESETS)
