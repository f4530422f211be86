"""Calibrated reproduction presets and their reference targets.

Each preset bundles an ExperimentConfig, the stored reference values it is
compared against, and calibration notes recording how the free parameters
(transfer efficiency, noise conversion gain, interference visibility) were
pinned to the reference dataset.
"""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig, DEFAULT_OU_TAU_C_S
from .pulses import dd_phases

PRESET_NAMES = ("fig1e", "fig2", "table1-20ms", "table1-50ms",
                "table1-100ms", "fig4-tomo")

# Reference echo efficiency at the working delay 1/Delta = 25 us (first
# modulation maximum of the echo-decay curve).
ETA_AFC_REFERENCE = 0.28

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


def spin_t2_nominal(dd_kind: str, xx_t2_s: float | None = None) -> float:
    """Ideal slow-bath scaling from the calibrated two-pulse point:
    T2(n) = T2(2) * (n/2)^(2/3)."""
    if xx_t2_s is None:
        xx_t2_s = FIG2["xx_t2_calibration_s"]
    n = len(dd_phases(dd_kind))
    return xx_t2_s * (n / 2.0) ** (2.0 / 3.0)


def table_preset(name: str) -> tuple[ExperimentConfig, list[str]]:
    ref = TABLE1[name]
    cfg = ExperimentConfig(
        dd_kind=ref["dd_kind"],
        t_s_seconds=ref["t_s_seconds"],
        mu_in_per_mode=ref["mu_in"],
        eta_afc_fixed=ETA_AFC_REFERENCE,
        eta_end_to_end_target=ref["eta"],
        p_noise_target_per_mode=ref["p_n"],
        seed=6,
    )
    notes = [
        f"eta_afc pinned to {ETA_AFC_REFERENCE} (first-maximum echo efficiency "
        f"of the reference decay curve at 1/Delta = 25 us)",
        f"per-pulse transfer efficiency backed out of the reference "
        f"end-to-end efficiency {ref['eta']} given eta_afc and the simulated "
        f"spin-stage survival; it absorbs alignment drift of the longer "
        f"acquisitions",
        f"noise gain calibrated so this sequence at this storage time gives "
        f"p_n = {ref['p_n']} per mode (reference noise measurement)",
    ]
    return cfg, notes


def tomo_preset() -> tuple[ExperimentConfig, list[str]]:
    base = TABLE1["table1-20ms"]
    eta_q = base["eta"]
    mu_q = 0.92
    # noise per mode pinned by the reference sigma_z SNR at mu_q/2 per bin
    p_noise = float((mu_q / 2) * eta_q / FIG4["sigma_z_snr"])
    visibility = float(2 * FIG4["bright_pulse_fidelity"] - 1)
    cfg = ExperimentConfig(
        mu_in_per_mode=mu_q,
        eta_end_to_end_target=eta_q,
        p_noise_target_per_mode=p_noise,
        qubit_visibility=visibility,
        n_trials=50_000,
        seed=6,
    )
    notes = [
        f"qubit noise per mode {p_noise:.6f} pinned by the reference "
        f"sigma_z SNR {FIG4['sigma_z_snr']} at {mu_q/2} photons per bin",
        f"intrinsic interference visibility {visibility:.2f} pinned by the "
        f"reference bright-pulse fidelity {FIG4['bright_pulse_fidelity']}",
        "memory efficiency for the qubit run taken from the 20 ms reference "
        "row",
    ]
    return cfg, notes


def fig1e_preset() -> tuple[ExperimentConfig, list[str]]:
    cfg = ExperimentConfig(afc_mod_depth=FIG1E["mod_depth_truth"],
                           seed=6)
    notes = [
        "synthetic echo-decay data generated from the reference fit "
        "parameters with 5% multiplicative noise; the modulation depth is "
        "a fitted parameter, not assumed",
    ]
    return cfg, notes


def fig2_preset() -> tuple[ExperimentConfig, list[str]]:
    cfg = ExperimentConfig(seed=6)
    notes = [
        f"OU bath calibrated so the two-pulse sequence decays with T2 = "
        f"{FIG2['xx_t2_calibration_s']*1e3:.0f} ms at correlation time "
        f"{DEFAULT_OU_TAU_C_S} s; the scaling study runs around that point",
        "the pass/fail gate on the scaling exponent uses the ideal-bath "
        "band (0.60, 0.72); the reference dataset's 0.57 +- 0.03 is "
        "reported alongside without gating",
    ]
    return cfg, notes


def preset_config(name: str) -> tuple[ExperimentConfig, list[str]]:
    if name in TABLE1:
        return table_preset(name)
    if name == "fig4-tomo":
        return tomo_preset()
    if name == "fig1e":
        return fig1e_preset()
    if name == "fig2":
        return fig2_preset()
    raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")


def mu1_tolerance_band(name: str) -> tuple[float, float]:
    """Acceptance band for mu1: quoted value +- (quoted error plus the
    uncertainty propagated from the published inputs, which are rounded
    and carry their own error bars)."""
    ref = TABLE1[name]
    mu1 = ref["mu1"]
    prop = mu1 * np.hypot(
        (ref["p_n_err"] + ref["p_n_round"]) / ref["p_n"],
        ref["eta_err"] / ref["eta"])
    half = ref["mu1_err"] + float(prop)
    return (mu1 - half, mu1 + half)
