"""End-to-end protocol orchestration, reproduction presets and reports."""

from __future__ import annotations

import contextlib
import functools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .comb import (CombParams, afc_decay_model, afc_efficiency, build_comb,
                   propagate)
from .config import FLUX_SAMPLES_PER_BIN, ExperimentConfig, provenance
from .detection import (DetectionChain, metrics, mode_sums,
                        noise_floor_model, simulate_counts)
from .fitting import fit_afc_decay, fit_mims, fit_power_law
from .presets import FIG1E, PRESET_NAMES, PRESETS, spin_t2_nominal
from .pulses import (DD_KINDS, dd_phases, dd_sequence, hsh_waveform,
                     reference_transfer_pulse)
from .bloch import transfer_profile
from .spinbath import (PulseErrorModel, SpinBathParams, efficiency_decay,
                       residual_excitation, spin_echo_coherence)
from .tomography import (PROJECTION_KEYS, TomoCounts,
                         classical_bound_weak_coherent, reconstruct,
                         white_noise_fidelity)
from .waveform import gaussian_pulse, write_csv

# Analyser phase theta of each interference projection of the qubit run.
ANALYSER_PHASES_RAD = {"plus": 0.0, "plus_i": np.pi / 2, "minus": np.pi,
                       "minus_i": 3 * np.pi / 2}


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, (np.floating, np.integer)):
        return _json_safe(float(x))
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_json_safe(v) for v in x.tolist()]
    return x


def json_text(obj) -> str:
    """obj as indented, key-sorted JSON with a final newline; non-finite
    floats become null."""
    return json.dumps(_json_safe(obj), indent=2, sort_keys=True) + "\n"


@dataclass
class RunReport:
    kind: str
    config: dict
    preset: str | None = None
    stages: dict = field(default_factory=dict)
    eta_end_to_end: float | None = None
    metrics: dict | None = None
    tomography: dict | None = None
    fits: dict | None = None
    checks: list | None = None
    notes: list = field(default_factory=list)
    # what the run writes besides report.json, by file name: a CSV table
    # as (header, *columns), or an object for a JSON file
    files: dict = field(default_factory=dict, repr=False)

    @property
    def passed(self) -> bool:
        if not self.checks:
            return True
        return all(c["pass"] for c in self.checks if c.get("gated", True))

    def to_dict(self) -> dict:
        """The fields report.json holds, with the config's provenance;
        json_text makes them JSON-safe."""
        fields = {k: v for k, v in vars(self).items() if k != "files"}
        return {**fields, "provenance": provenance(self.config)}

    def to_json(self) -> str:
        return json_text(self.to_dict())

    def save(self, out_dir) -> None:
        """Make out_dir and write report.json and the run's files into it."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(self.to_json())
        for name, content in self.files.items():
            if name.endswith(".csv"):
                write_csv(out / name, *content)
            else:
                (out / name).write_text(json_text(content))


def _gaussian_flux(t: np.ndarray, center: float, fwhm: float,
                   photons: float) -> np.ndarray:
    sigma = fwhm / (2 * np.sqrt(2 * np.log(2)))
    return photons * np.exp(-((t - center) ** 2) / (2 * sigma**2)) \
        / (sigma * np.sqrt(2 * np.pi))


def _bath(cfg: ExperimentConfig) -> SpinBathParams:
    return SpinBathParams(inhom_fwhm_hz=cfg.bath_inhom_fwhm_hz,
                          ou_sigma_hz=cfg.bath_ou_sigma_hz,
                          ou_tau_c_s=cfg.bath_ou_tau_c_seconds,
                          n_atoms=cfg.n_atoms)


def _flux_grid(cfg: ExperimentConfig, n_modes_spanned: int):
    dt = cfg.bin_width_seconds / FLUX_SAMPLES_PER_BIN
    window = n_modes_spanned * cfg.mode_duration_seconds
    n = int(round(window / dt))
    return np.arange(n) * dt, dt


def _pulse_train(cfg: ExperimentConfig, t: np.ndarray, base: np.ndarray,
                 pulses) -> np.ndarray:
    """base plus, in order, an input-width Gaussian holding the given
    photon number at the centre of each 1-indexed temporal mode, for
    every (mode, photons) in pulses."""
    flux = base.copy()
    for mode, photons in pulses:
        flux += _gaussian_flux(t, (mode - 0.5) * cfg.mode_duration_seconds,
                               cfg.input_fwhm_seconds, photons)
    return flux


def _read_out(cfg: ExperimentConfig, flux: np.ndarray, dt: float,
              n_trials: int, rng, n_modes: int):
    """Count histogram of flux over n_trials and its sums over the first
    n_modes temporal modes; returns (hist, sums)."""
    chain = DetectionChain(detector_efficiency=cfg.detector_efficiency,
                           path_transmission=cfg.path_transmission,
                           dark_rate_hz=cfg.dark_rate_hz)
    hist = simulate_counts(flux, 1.0 / dt, chain, n_trials, rng,
                           cfg.bin_width_seconds)
    return hist, mode_sums(hist, cfg.mode_duration_seconds, n_modes, chain)


class StageError(RuntimeError):
    """A pipeline stage failed; the message carries the stage tag."""


@contextlib.contextmanager
def _staged(stage: str):
    """Tag an exception raised in the block with the stage; interrupts and
    exits pass through untouched."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(f"[{stage}] {exc}") from exc


@functools.lru_cache(maxsize=64)
def _eta_transfer(duration_s: float, bandwidth_hz: float) -> float:
    """Per-pulse transfer efficiency of the reference pulse: its mean
    inversion over the in-band 80 % of the sweep.  It depends on the pulse
    geometry alone, so each geometry is propagated once per process."""
    spec = reference_transfer_pulse(duration_s, bandwidth_hz)
    grid = np.linspace(-0.4, 0.4, 41) * bandwidth_hz
    prof = transfer_profile(hsh_waveform(spec), grid)
    return float(prof.inversion.mean())


def _stage_efficiencies(cfg: ExperimentConfig, rng_spin):
    """Compose the echo, transfer and spin stages; returns the stages dict
    and their product, the end-to-end memory efficiency."""
    with _staged("afc"):
        eta_afc = afc_efficiency(cfg)

    with _staged("spin"):
        dd = dd_sequence(cfg.dd_kind, cfg.t_s_seconds,
                         1.0 / (2 * cfg.rf_rabi_hz))
        bath = _bath(cfg)
        errors = PulseErrorModel(area_error=cfg.rf_area_error,
                                 phase_error_rad=cfg.rf_phase_error_rad,
                                 rf_rabi_hz=cfg.rf_rabi_hz)
        res = spin_echo_coherence(dd, bath, errors, seed=rng_spin)

    if cfg.eta_end_to_end_target is not None:
        # back the per-pulse transfer efficiency out of the target product
        stored = eta_afc * res.eta_spin
        if not stored >= cfg.eta_end_to_end_target:
            raise ValueError(
                f"eta_end_to_end_target {cfg.eta_end_to_end_target:g} exceeds "
                f"the echo and spin stage product {stored:.3g}")
        eta_transfer = float(np.sqrt(cfg.eta_end_to_end_target / stored))
    else:
        with _staged("transfer"):
            eta_transfer = _eta_transfer(cfg.transfer_duration_seconds,
                                         cfg.transfer_bandwidth_hz)

    with _staged("spin"):
        resid = residual_excitation(dd, errors, bath)
    p_noise = cfg.p_noise_target_per_mode

    stages = {
        "eta_afc": float(eta_afc),
        "eta_transfer": float(eta_transfer),
        "eta_transfer_sq": float(eta_transfer**2),
        "eta_spin": float(res.eta_spin),
        # eta_spin = coherence^2, so its error is 2 |coherence| stderr
        "eta_spin_stderr": float(2 * abs(res.coherence) * res.coherence_stderr),
        "p_noise_per_mode": float(p_noise),
        "residual_excitation": float(resid),
        # the gain that maps the residual excitation onto the read-out noise
        "noise_gain_kappa": float(p_noise / resid) if resid > 0 else None,
    }
    return stages, (stages["eta_afc"] * stages["eta_transfer_sq"]
                    * stages["eta_spin"])


def run_spinwave(cfg: ExperimentConfig) -> RunReport:
    """Full spin-wave storage run: stage efficiencies, photon counting and
    the memory metrics of the summary table."""
    ss = np.random.SeedSequence(cfg.seed)
    # rngs[1] is spare: the spawn count fixes every other generator's stream
    rngs = [np.random.default_rng(c) for c in ss.spawn(5)]

    stages, eta_total = _stage_efficiencies(cfg, rngs[0])

    n = cfg.mode_count
    t, dt = _flux_grid(cfg, n + 2)
    modes = range(1, n + 1)
    zeros = np.zeros_like(t)
    noise_flux = noise_floor_model(
        t, stages["p_noise_per_mode"] / cfg.mode_duration_seconds)
    signal_flux = _pulse_train(
        cfg, t, zeros, [(m, cfg.mu_in_per_mode * eta_total) for m in modes]) \
        + noise_flux
    input_flux = _pulse_train(cfg, t, zeros,
                              [(m, cfg.mu_in_per_mode) for m in modes])

    hist_signal, sums_signal = _read_out(cfg, signal_flux, dt, cfg.n_trials,
                                         rngs[2], n)
    hist_noise, sums_noise = _read_out(cfg, noise_flux, dt,
                                       cfg.n_trials_noise, rngs[3], n)
    hist_input, sums_input = _read_out(cfg, input_flux, dt, cfg.n_trials,
                                       rngs[4], n)
    mm = metrics(cfg.mu_in_per_mode, sums_signal, sums_noise)
    undefined = [m for m, eta in zip(modes, mm["per_mode"]["eta"])
                 if not eta > 0]

    return RunReport(
        kind="spinwave", config=cfg.to_dict(),
        stages=stages, eta_end_to_end=float(eta_total),
        metrics={
            **mm,
            "mu_in_measured": sums_input.values,
            "mu_in_measured_err": sums_input.errors,
        },
        notes=[f"mu1 undefined in modes {undefined}: noise-subtracted "
               "signal not positive"] if undefined else [],
        files={"hist_signal.csv": hist_signal.table(),
               "hist_noise.csv": hist_noise.table(),
               "hist_input.csv": hist_input.table()},
    )


def run_qubit_tomography(cfg: ExperimentConfig,
                         input_phase_rad: float = 0.0) -> RunReport:
    """Time-bin qubit storage with analyser read-out, in the memory that
    run_spinwave composes from the same config.

    Two qubits of mu_in_per_mode photons occupy temporal modes (2, 3) and
    (5, 6), so the config's timing budget must hold at least 6 modes.  For
    sigma_x and sigma_y the second transfer pulse is the composite analyser
    with phase theta, which splits each bin over two emission times so the
    middle bin interferes early against late; sigma_z uses a plain
    read-out.  Counts are Poisson draws from the resulting mode
    intensities.
    """
    qubits = ((2, 3), (5, 6))  # 1-indexed (early, late) temporal modes
    if cfg.mode_count < qubits[-1][1]:
        raise ValueError(f"the qubit run stores its qubits in modes 2-3 and "
                         f"5-6: mode_count must be at least 6, not "
                         f"{cfg.mode_count}")
    t_m = cfg.mode_duration_seconds
    if cfg.input_fwhm_seconds >= t_m / 2:
        raise ValueError("pulse width too large: interference bins would overlap")
    n_span = 9
    t, dt = _flux_grid(cfg, n_span)

    # spawn order fixes each run's random stream: the stage generators last,
    # the spare one kept so that the spawn count stays
    ss = np.random.SeedSequence(cfg.seed)
    *rngs_analyser, rng_z, rng_spin, _ = (
        np.random.default_rng(c) for c in ss.spawn(len(ANALYSER_PHASES_RAD) + 3))
    stages, eta = _stage_efficiencies(cfg, rng_spin)
    mu = cfg.mu_in_per_mode
    p_noise = stages["p_noise_per_mode"]
    v0 = cfg.qubit_visibility
    noise_flux = noise_floor_model(t, p_noise / t_m)

    # analyser runs: early bin, interference bin, trailing bin per qubit
    mid_sums = {}
    for (key, theta), rng in zip(ANALYSER_PHASES_RAD.items(), rngs_analyser):
        fringe = 0.5 * mu * eta * (1 + v0 * np.cos(theta - input_phase_rad))
        flux = _pulse_train(cfg, t, noise_flux, [
            pulse for early, late in qubits
            for pulse in ((early, 0.25 * mu * eta), (late, fringe),
                          (late + 1, 0.25 * mu * eta))])
        mid_sums[key] = _read_out(cfg, flux, dt, cfg.n_trials, rng, n_span)[1]

    # sigma_z run: plain read-out, each bin carries half the qubit
    flux = _pulse_train(cfg, t, noise_flux,
                        [(m, 0.5 * mu * eta) for q in qubits for m in q])
    hist_z, z_sums = _read_out(cfg, flux, dt, cfg.n_trials, rng_z, n_span)

    target = np.array([1, 1]) / np.sqrt(2)
    per_qubit = []
    for early, late in qubits:
        mid = late - 1  # 0-indexed interference window = late mode window
        tc = TomoCounts(
            counts={
                "early": int(z_sums.raw_counts[early - 1]),
                "late": int(z_sums.raw_counts[late - 1]),
                **{key: int(sums.raw_counts[mid])
                   for key, sums in mid_sums.items()},
            },
            n_trials=dict.fromkeys(PROJECTION_KEYS, cfg.n_trials),
        )
        try:
            rec = reconstruct(tc, target)
        except ValueError as exc:  # a config that stores too little light
            raise ValueError(
                f"[tomography] {exc} in {cfg.n_trials} trials per projection: "
                f"the composed eta_end_to_end is {eta:.3g} = eta_afc "
                f"{stages['eta_afc']:.3g} x eta_transfer_sq "
                f"{stages['eta_transfer_sq']:.3g} x eta_spin "
                f"{stages['eta_spin']:.3g}; raise a low stage, mu_in_per_mode "
                f"or n_trials") from None
        per_qubit.append({"modes": [early, late], **rec, "counts": tc.counts})

    # measured interference SNR scaled to one photon per qubit
    plus_minus_photons = ((mid_sums["plus"].values[qubits[0][1] - 1]
                           + mid_sums["minus"].values[qubits[0][1] - 1]
                           + mid_sums["plus"].values[qubits[1][1] - 1]
                           + mid_sums["minus"].values[qubits[1][1] - 1]) / 2
                          - 2 * p_noise)
    snr_measured = plus_minus_photons / p_noise if p_noise > 0 else float("inf")
    # no classical bound for a memory that stores nothing
    bound_oracle = (classical_bound_weak_coherent(mu, eta) if eta > 0
                    else float("nan"))

    tomo = {
        "per_qubit": per_qubit,
        "fidelity_avg": float(np.mean([q["fidelity"] for q in per_qubit])),
        "purity_avg": float(np.mean([q["purity"] for q in per_qubit])),
        "interference_snr": float(snr_measured),
        "white_noise_fidelity": float(white_noise_fidelity(max(snr_measured, 0.0)))
        if math.isfinite(snr_measured) else 1.0,
        "classical_bound_weak_coherent": float(bound_oracle),
        "input_phase_rad": float(input_phase_rad),
        "theta_list": list(ANALYSER_PHASES_RAD.values()),
    }
    return RunReport(
        kind="qubit", config=cfg.to_dict(),
        stages={**stages, "visibility": v0}, eta_end_to_end=float(eta),
        tomography=tomo, files={"hist_sigma_z.csv": hist_z.table()},
    )


def _run_afc(cfg: ExperimentConfig) -> RunReport:
    """The echo of an input-width Gaussian pulse off the config's comb, on
    a grid that resolves the comb's homogeneous line, beside the echo
    stage's closed form."""
    params = CombParams(
        comb_period_hz=cfg.comb_period_hz, finesse=cfg.comb_finesse,
        peak_od=cfg.comb_peak_od, background_od=cfg.comb_background_od,
        bandwidth_hz=cfg.comb_bandwidth_hz, tooth_shape=cfg.comb_tooth_shape,
        passes=cfg.comb_passes,
        homogeneous_hwhm_hz=1.0 / (math.pi * cfg.afc_t2_seconds))
    echo = propagate(gaussian_pulse(cfg.input_fwhm_seconds, 0.0, 16e6),
                     build_comb(params))
    return RunReport(
        kind="afc", config=cfg.to_dict(),
        # the comb above leaves out the Zeeman modulation (afc_mod_depth)
        stages={"eta_afc": afc_efficiency(cfg)},
        metrics={"echo_time_s": echo.echo_time_s,
                 "echo_efficiency": echo.echo_efficiency},
        files={"echo_waveform.csv": echo.output_waveform.table()})


# --- reproduction presets ---------------------------------------------------

def _run_fig1e(cfg: ExperimentConfig) -> RunReport:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    t = np.linspace(FIG1E["t_min_s"], FIG1E["t_max_s"], FIG1E["n_points"])
    truth = afc_decay_model(t, FIG1E["eta0"], FIG1E["t2_seconds"],
                            cfg.afc_mod_depth, cfg.zeeman_split_hz)
    data = truth * (1 + FIG1E["noise_frac"] * rng.standard_normal(t.size))
    fit = fit_afc_decay(t, data, zeeman_split_hz=cfg.zeeman_split_hz)
    model = afc_decay_model(t, *fit.params, cfg.zeeman_split_hz)
    return RunReport(
        kind="fig1e", config=cfg.to_dict(), fits={"afc_decay": fit.as_dict()},
        files={"afc_decay.csv": ("one_over_delta_s,eta_data,eta_fit",
                                 t, data, model),
               "fit_afc.json": fit.as_dict()})


def _run_fig2(cfg: ExperimentConfig) -> RunReport:
    bath = _bath(cfg)
    fits, files = {}, {}
    for kind in DD_KINDS:
        t_list = spin_t2_nominal(kind) * np.array(
            [0.4, 0.55, 0.7, 0.85, 1.0, 1.2, 1.4])
        cols = np.array(efficiency_decay(kind, t_list, bath)).T
        files[f"decay_{kind}.csv"] = ("t_s_seconds,eta", *cols)
        fits[f"mims_{kind}"] = fit_mims(cols[0], cols[1]).as_dict()
    pl = fit_power_law([len(dd_phases(k)) for k in DD_KINDS],
                       [fits[f"mims_{k}"]["t2"] for k in DD_KINDS])
    fits["power_law"] = files["fit_powerlaw.json"] = pl.as_dict()
    return RunReport(kind="fig2", config=cfg.to_dict(), fits=fits,
                     files=files)


# each run by its kind, the RunReport.kind it makes
RUNS = {"afc": _run_afc, "spinwave": run_spinwave,
        "qubit": run_qubit_tomography, "fig1e": _run_fig1e, "fig2": _run_fig2}


def reproduce(name: str, out_dir, seed: int | None = None):
    """Run a named reproduction preset, MEMORY with the preset's protocol
    and calibrated fields, check it against the stored reference values
    and save it, with its plot-ready CSV, into out_dir.

    Returns (report, passed).
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    preset = PRESETS[name]
    cfg = preset.config
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    report = RUNS[preset.kind](cfg)
    report.preset = name
    report.notes.extend(preset.notes)
    # the checks read the report's fields by their report.json keys
    report.checks = preset.checks(vars(report))
    report.save(out_dir)
    return report, report.passed
