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
import typing
from dataclasses import dataclass

import numpy as np

from . import __version__
from .comb import TOOTH_SHAPES, ZEEMAN_SPLIT_HZ, afc_efficiency
from .pulses import (dd_sequence, normalize_dd_kind, recommended_sample_rate,
                     reference_transfer_pulse)
from .spinbath import MAX_LINE_PER_RABI, MAX_PHASE_TURNS, ou_sigma_for_t2
from .tomography import MAX_MEAN_PHOTONS

# OU bath calibrated so the two-pulse sequence decays with T2 = 70 ms
# (slow-bath regime, correlation time 3 s).
DEFAULT_OU_TAU_C_S = 3.0
DEFAULT_OU_SIGMA_HZ = ou_sigma_for_t2(2, 0.070, DEFAULT_OU_TAU_C_S)

# Most samples a simulated transfer pulse may take.  The default pulse needs
# about 9.5e3; the work of the transfer stage grows with the sample count.
MAX_TRANSFER_SAMPLES = 2**20

# Samples of the photon flux per detector bin.  A sampled Gaussian pulse
# keeps its photon number (to 5e-9) only while its sigma is at least one
# sample step, so the input pulse may be no narrower than that.
FLUX_SAMPLES_PER_BIN = 8


# Allowed interval of a numeric field: (low, high, low is open, high is open).
_POSITIVE = (0, math.inf, True, True)
_NONNEGATIVE = (0, math.inf, False, True)
_UNIT = (0, 1, False, False)
_EFFICIENCY = (0, 1, True, False)
_COUNT = (1, math.inf, False, True)
_ANY = (-math.inf, math.inf, True, True)

_RANGES = {
    "comb_period_hz": _POSITIVE,
    "comb_finesse": (1, math.inf, True, True),
    "comb_peak_od": _NONNEGATIVE,
    "comb_background_od": _NONNEGATIVE,
    "comb_bandwidth_hz": _POSITIVE,
    "comb_passes": _COUNT,
    "afc_t2_seconds": _POSITIVE,
    "afc_mod_depth": _UNIT,
    "transfer_duration_seconds": _POSITIVE,
    "transfer_bandwidth_hz": _POSITIVE,
    "eta_end_to_end_target": _EFFICIENCY,
    "t_s_seconds": _POSITIVE,
    # spinbath._pulse squares g^2 = delta^2 + omega^2, with omega at most
    # 1.5 rf_rabi_hz and |delta| at most LINE_SPAN = 10 line sigmas, 17
    # rf_rabi_hz by MAX_LINE_PER_RABI: g^2 < 300 rf_rabi_hz^2 stays finite
    # up to about 7.7e152 Hz
    "rf_rabi_hz": (0, 1e150, True, False),
    "rf_area_error": (-0.5, 0.5, True, True),
    "p_noise_target_per_mode": _NONNEGATIVE,
    "bath_inhom_fwhm_hz": _NONNEGATIVE,
    "bath_ou_sigma_hz": _NONNEGATIVE,
    "bath_ou_tau_c_seconds": _POSITIVE,
    "n_atoms": _COUNT,
    "mode_count": _COUNT,
    "mode_duration_seconds": _POSITIVE,
    "input_fwhm_seconds": _POSITIVE,
    "mu_in_per_mode": (0, MAX_MEAN_PHOTONS, True, False),
    "detector_efficiency": _EFFICIENCY,
    "path_transmission": _EFFICIENCY,
    "dark_rate_hz": _NONNEGATIVE,
    "bin_width_seconds": _POSITIVE,
    "qubit_visibility": _UNIT,
    "n_trials": _COUNT,
    "n_trials_noise": _COUNT,
    "seed": (0, math.inf, False, True),
}


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _check_field(name: str, kind: type, optional: bool, value) -> None:
    """Raise a one-line ValueError naming the field unless value has the
    field's type and lies in its range (numbers must also be finite)."""
    if value is None and optional:
        return
    null = " or null" if optional else ""
    if kind is str:
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a string{null}")
        return
    bounds = _RANGES.get(name, _ANY)
    lo, hi, lo_open, hi_open = bounds
    integral = kind is int
    if not (not isinstance(value, bool)
            and isinstance(value, numbers.Integral if integral else numbers.Real)
            and _is_finite(value)
            and (lo < value if lo_open else lo <= value)
            and (value < hi if hi_open else value <= hi)):
        what = "an integer" if integral else "a finite number"
        if bounds is not _ANY:
            what += (f" in {'(' if lo_open else '['}{lo:g}, "
                     f"{hi:g}{')' if hi_open else ']'}")
        raise ValueError(f"{name} must be {what}{null}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's parameters, frozen and checked when built."""

    # comb / echo stage
    comb_period_hz: float = 40e3
    comb_finesse: float = 4.0
    comb_peak_od: float = 3.0
    comb_background_od: float = 0.0
    comb_bandwidth_hz: float = 3e6
    comb_tooth_shape: str = "square"
    comb_passes: int = 2
    zeeman_split_hz: float = ZEEMAN_SPLIT_HZ
    afc_t2_seconds: float = 240e-6
    afc_mod_depth: float = 0.0

    # optical transfer pulses
    transfer_duration_seconds: float = 15e-6
    transfer_bandwidth_hz: float = 1.5e6
    # calibration: when set, the per-pulse transfer efficiency is backed out
    # so the composed stage product equals this end-to-end efficiency
    eta_end_to_end_target: float | None = None

    # spin storage stage
    dd_kind: str = "XY4"
    t_s_seconds: float = 0.02
    rf_rabi_hz: float = 120e3
    rf_area_error: float = 0.01
    rf_phase_error_rad: float = 0.0
    # read-out noise per mode from the RF manipulation; 0 runs noiseless
    p_noise_target_per_mode: float = 0.0073
    bath_inhom_fwhm_hz: float = 60e3
    bath_ou_sigma_hz: float = DEFAULT_OU_SIGMA_HZ
    bath_ou_tau_c_seconds: float = DEFAULT_OU_TAU_C_S
    n_atoms: int = 10_000

    # temporal mode layout
    mode_count: int = 6
    mode_duration_seconds: float = 1.65e-6
    input_fwhm_seconds: float = 700e-9
    mu_in_per_mode: float = 0.711

    # detection chain
    detector_efficiency: float = 0.57
    path_transmission: float = 0.185
    dark_rate_hz: float = 0.0
    bin_width_seconds: float = 165e-9

    # qubit read-out: intrinsic interference visibility of the analyser
    qubit_visibility: float = 0.92

    # run control
    n_trials: int = 100_000
    n_trials_noise: int = 400_000
    seed: int = 20220324

    def __post_init__(self) -> None:
        """Check every field once against its declared type and range,
        then the constraints that tie fields together; raise ValueError."""
        for name, kind, optional in _FIELDS:
            _check_field(name, kind, optional, getattr(self, name))
        if not math.isfinite(1.0 / (math.pi * self.afc_t2_seconds)):
            raise ValueError(
                f"afc_t2_seconds {self.afc_t2_seconds:g} is too small: the "
                f"homogeneous HWHM 1/(pi T2) overflows")
        object.__setattr__(self, "dd_kind", normalize_dd_kind(self.dd_kind))
        if self.comb_tooth_shape not in TOOTH_SHAPES:
            raise ValueError(f"comb_tooth_shape must be one of {TOOTH_SHAPES}")
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                eta_afc = afc_efficiency(self)
        except (FloatingPointError, OverflowError):
            eta_afc = math.nan
        if not math.isfinite(eta_afc):
            raise ValueError(
                f"the echo stage's closed form overflows float64 at "
                f"comb_peak_od {self.comb_peak_od:g}, comb_finesse "
                f"{self.comb_finesse:g}, comb_period_hz "
                f"{self.comb_period_hz:g}, afc_t2_seconds "
                f"{self.afc_t2_seconds:g}, zeeman_split_hz "
                f"{self.zeeman_split_hz:g}")
        if self.bath_inhom_fwhm_hz > MAX_LINE_PER_RABI * self.rf_rabi_hz:
            raise ValueError(
                f"bath_inhom_fwhm_hz {self.bath_inhom_fwhm_hz:g} exceeds "
                f"{MAX_LINE_PER_RABI:g} x rf_rabi_hz, the widest line the "
                f"residual-excitation quadrature is held to")
        turns = (self.bath_inhom_fwhm_hz + self.bath_ou_sigma_hz) \
            * self.t_s_seconds
        if not turns <= MAX_PHASE_TURNS:
            raise ValueError(
                f"(bath_inhom_fwhm_hz + bath_ou_sigma_hz) x t_s_seconds = "
                f"{turns:.3g} turns of free phase, more than the "
                f"{MAX_PHASE_TURNS:g} that the spin stage resolves in float64")
        try:
            dd_sequence(self.dd_kind, self.t_s_seconds,
                        1.0 / (2 * self.rf_rabi_hz))
        except ValueError as exc:
            raise ValueError(f"t_s_seconds: {exc}") from None
        one_over_delta = 1.0 / self.comb_period_hz
        budget = (self.mode_count * self.mode_duration_seconds
                  + self.transfer_duration_seconds)
        if budget > one_over_delta + 1e-12:
            raise ValueError(
                f"timing budget violated: {self.mode_count} modes x "
                f"{self.mode_duration_seconds:.3g} s + transfer "
                f"{self.transfer_duration_seconds:.3g} s = {budget:.3g} s "
                f"exceeds 1/Delta = {one_over_delta:.3g} s")
        if self.eta_end_to_end_target is None:
            where = "transfer_bandwidth_hz/transfer_duration_seconds"
            # numpy scalars, so that extreme inputs overflow to inf quietly
            try:
                with np.errstate(all="ignore"):
                    spec = reference_transfer_pulse(
                        np.float64(self.transfer_duration_seconds),
                        np.float64(self.transfer_bandwidth_hz))
                    samples = spec.duration_s * recommended_sample_rate(spec)
            except ValueError as exc:  # a pulse too weak to have a Rabi rate
                raise ValueError(f"{where}: {exc}") from None
            if not samples <= MAX_TRANSFER_SAMPLES:
                raise ValueError(
                    f"{where}: the transfer pulse needs {samples:.3g} "
                    f"samples, more than {MAX_TRANSFER_SAMPLES}")
        if self.mode_duration_seconds <= self.input_fwhm_seconds:
            raise ValueError("mode duration must exceed the pulse width")
        step = self.bin_width_seconds / FLUX_SAMPLES_PER_BIN
        sigma = self.input_fwhm_seconds / (2 * math.sqrt(2 * math.log(2)))
        if sigma < step:
            raise ValueError(
                f"input_fwhm_seconds {self.input_fwhm_seconds:g} is too "
                f"short: its sigma {sigma:.3g} s is under the flux sample "
                f"step bin_width_seconds/{FLUX_SAMPLES_PER_BIN} = "
                f"{step:.3g} s, which would lose its photon number")
        ratio = self.mode_duration_seconds / self.bin_width_seconds
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("bin_width_seconds must divide the mode duration")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def read_config_json(path) -> dict:
    """The flat JSON object of a config file, its values not yet checked."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a flat JSON object")
    return data


def provenance(config: dict) -> dict:
    """Hash, seed and package version of the config dict a run used."""
    canon = json.dumps(config, sort_keys=True)
    return {"config_hash": hashlib.sha256(canon.encode()).hexdigest()[:16],
            "seed": config["seed"], "version": __version__}


def _declared_fields():
    """(name, type, optional) of every config field, from its annotation."""
    hints = typing.get_type_hints(ExperimentConfig)
    out = []
    for f in dataclasses.fields(ExperimentConfig):
        args = typing.get_args(hints[f.name]) or (hints[f.name],)
        kinds = [a for a in args if a is not type(None)]
        out.append((f.name, kinds[0], len(kinds) < len(args)))
    return tuple(out)


_FIELDS = _declared_fields()
