"""Flat, JSON-compatible experiment configuration.

Every physical quantity is SI with the unit in the key name, so a config
file is a single flat JSON object that diffs cleanly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from dataclasses import dataclass

from .pulses import normalize_dd_kind
from .spinbath import ou_sigma_for_t2

# OU bath calibrated so the two-pulse sequence decays with T2 = 70 ms
# (slow-bath regime, correlation time 3 s).
DEFAULT_OU_TAU_C_S = 3.0
DEFAULT_OU_SIGMA_HZ = ou_sigma_for_t2(2, 0.070, DEFAULT_OU_TAU_C_S)


@dataclass
class ExperimentConfig:
    # comb / echo stage
    comb_period_hz: float = 40e3
    comb_finesse: float = 4.0
    comb_peak_od: float = 3.0
    comb_background_od: float = 0.0
    comb_bandwidth_hz: float = 3e6
    comb_tooth_shape: str = "square"
    comb_passes: int = 2
    zeeman_split_hz: float = 41.4e3
    afc_eta0: float = 0.36
    afc_t2_seconds: float = 240e-6
    afc_mod_depth: float = 0.0
    eta_afc_fixed: float | None = None

    # optical transfer pulses
    transfer_duration_seconds: float = 15e-6
    transfer_bandwidth_hz: float = 1.5e6
    eta_transfer_fixed: float | None = None
    # calibration: when set, the per-pulse transfer efficiency is backed out
    # so the composed stage product equals this end-to-end efficiency
    eta_end_to_end_target: float | None = None

    # spin storage stage
    dd_kind: str = "XY4"
    t_s_seconds: float = 0.02
    rf_rabi_hz: float = 120e3
    rf_area_error: float = 0.01
    rf_phase_error_rad: float = 0.0
    noise_gain_kappa: float | None = None
    p_noise_target_per_mode: float | None = 0.0073
    bath_inhom_fwhm_hz: float = 60e3
    bath_ou_sigma_hz: float = DEFAULT_OU_SIGMA_HZ
    bath_ou_tau_c_seconds: float = DEFAULT_OU_TAU_C_S
    n_atoms: int = 10_000
    eta_spin_fixed: float | None = None

    # temporal mode layout
    mode_count: int = 6
    mode_duration_seconds: float = 1.65e-6
    input_fwhm_seconds: float = 700e-9
    mu_in_per_mode: float = 0.711

    # detection chain
    detector_efficiency: float = 0.57
    path_transmission: float = 0.185
    filter_extinction: float = 1636.0
    dark_rate_hz: float = 0.0
    bin_width_seconds: float = 165e-9

    # qubit storage run
    qubit_mu_in: float = 0.92
    qubit_eta: float = 0.0739
    qubit_noise_per_mode: float = 0.009768
    qubit_visibility: float = 0.92

    # run control
    n_trials: int = 100_000
    n_trials_noise: int = 400_000
    seed: int = 20220324

    def validate(self) -> None:
        self.dd_kind = normalize_dd_kind(self.dd_kind)
        if self.comb_period_hz <= 0:
            raise ValueError("comb_period_hz must be positive")
        one_over_delta = 1.0 / self.comb_period_hz
        budget = (self.mode_count * self.mode_duration_seconds
                  + self.transfer_duration_seconds)
        if budget > one_over_delta + 1e-12:
            raise ValueError(
                f"timing budget violated: {self.mode_count} modes x "
                f"{self.mode_duration_seconds:.3g} s + transfer "
                f"{self.transfer_duration_seconds:.3g} s = {budget:.3g} s "
                f"exceeds 1/Delta = {one_over_delta:.3g} s")
        if self.t_s_seconds <= 0:
            raise ValueError("t_s_seconds must be positive")
        if self.mu_in_per_mode <= 0 or self.qubit_mu_in <= 0:
            raise ValueError("input photon numbers must be positive")
        if self.n_trials < 1 or self.n_trials_noise < 1:
            raise ValueError("trial counts must be positive")
        if self.mode_duration_seconds <= self.input_fwhm_seconds:
            raise ValueError("mode duration must exceed the pulse width")
        ratio = self.mode_duration_seconds / self.bin_width_seconds
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("bin_width_seconds must divide the mode duration")
        for name in ("detector_efficiency", "path_transmission"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")
        n = self.n_atoms
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError("n_atoms must be a positive integer")
        for name, positive in (("bath_inhom_fwhm_hz", False),
                               ("bath_ou_sigma_hz", False),
                               ("bath_ou_tau_c_seconds", True)):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or not math.isfinite(v) or v < 0 or (positive and v == 0)):
                kind = "positive" if positive else "nonnegative"
                raise ValueError(f"{name} must be a finite {kind} number")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a flat JSON object")
        return cls.from_dict(data)

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]
