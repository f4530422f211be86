"""End-to-end protocol orchestration, reproduction presets and reports."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .comb import afc_decay_model
from .config import ExperimentConfig, provenance
from .detection import (DetectionChain, metrics, mode_sums,
                        noise_floor_model, simulate_counts)
from .fitting import fit_afc_decay, fit_mims, fit_power_law
from .presets import (FIG1E, FIG2, FIG4, PRESET_NAMES, TABLE1,
                      mu1_tolerance_band, preset_config, spin_t2_nominal)
from .pulses import (DD_KINDS, dd_phases, dd_sequence, hsh_waveform,
                     reference_transfer_pulse)
from .bloch import transfer_profile
from .spinbath import (PulseErrorModel, SpinBathParams, efficiency_decay,
                       decay_table_to_csv, residual_excitation,
                       spin_echo_coherence)
from .tomography import (PROJECTION_KEYS, TomoCounts,
                         classical_bound_weak_coherent,
                         direct_inversion, fidelity, pauli_expectations, purity,
                         white_noise_fidelity)


NOISE_LIFETIME_S = 1.9e-3

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


@dataclass
class RunReport:
    kind: str
    preset: str | None
    config: dict
    stages: dict = field(default_factory=dict)
    eta_end_to_end: float | None = None
    metrics: dict | None = None
    tomography: dict | None = None
    fits: dict | None = None
    checks: list | None = None
    notes: list = field(default_factory=list)
    histograms: dict = field(default_factory=dict, repr=False)

    @property
    def passed(self) -> bool:
        if not self.checks:
            return True
        return all(c["pass"] for c in self.checks if c.get("gated", True))

    def to_dict(self) -> dict:
        return _json_safe({
            "kind": self.kind,
            "preset": self.preset,
            "config": self.config,
            "provenance": provenance(self.config),
            "stages": self.stages,
            "eta_end_to_end": self.eta_end_to_end,
            "metrics": self.metrics,
            "tomography": self.tomography,
            "fits": self.fits,
            "checks": self.checks,
            "notes": self.notes,
        })

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, out_dir) -> None:
        """Write report.json and one CSV per histogram into out_dir."""
        out = Path(out_dir)
        (out / "report.json").write_text(self.to_json() + "\n")
        for name, hist in self.histograms.items():
            hist.to_csv(out / f"{name}.csv")


def _check(name, value, lo, hi, gated=True, note=None) -> dict:
    entry = {"name": name, "value": float(value), "lo": float(lo),
             "hi": float(hi), "pass": bool(lo <= value <= hi), "gated": gated}
    if note:
        entry["note"] = note
    return entry


def _gaussian_flux(t: np.ndarray, center: float, fwhm: float,
                   photons: float) -> np.ndarray:
    sigma = fwhm / (2 * np.sqrt(2 * np.log(2)))
    return photons * np.exp(-((t - center) ** 2) / (2 * sigma**2)) \
        / (sigma * np.sqrt(2 * np.pi))


def _chain(cfg: ExperimentConfig) -> DetectionChain:
    return DetectionChain(detector_efficiency=cfg.detector_efficiency,
                          path_transmission=cfg.path_transmission,
                          dark_rate_hz=cfg.dark_rate_hz)


def _bath(cfg: ExperimentConfig) -> SpinBathParams:
    return SpinBathParams(inhom_fwhm_hz=cfg.bath_inhom_fwhm_hz,
                          ou_sigma_hz=cfg.bath_ou_sigma_hz,
                          ou_tau_c_s=cfg.bath_ou_tau_c_seconds,
                          n_atoms=cfg.n_atoms, seed=cfg.seed)


def _flux_grid(cfg: ExperimentConfig, n_modes_spanned: int):
    dt = cfg.bin_width_seconds / 8
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
    chain = _chain(cfg)
    hist = simulate_counts(flux, 1.0 / dt, chain, n_trials, rng,
                           cfg.bin_width_seconds)
    return hist, mode_sums(hist, cfg.mode_duration_seconds, n_modes, chain)


class StageError(RuntimeError):
    """A pipeline stage failed; the message carries the stage tag."""


def _staged(stage: str):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and not isinstance(exc, StageError):
                raise StageError(f"[{stage}] {exc}") from exc
            return False

    return _Ctx()


@functools.lru_cache(maxsize=64)
def _eta_transfer(duration_s: float, bandwidth_hz: float) -> float:
    """Per-pulse transfer efficiency of the reference pulse: its mean
    inversion over the in-band 80 % of the sweep.  It depends on the pulse
    geometry alone, so each geometry is propagated once per process."""
    spec = reference_transfer_pulse(duration_s, bandwidth_hz)
    grid = np.linspace(-0.4, 0.4, 41) * bandwidth_hz
    prof = transfer_profile(hsh_waveform(spec), grid)
    return float(prof.inversion.mean())


def _stage_efficiencies(cfg: ExperimentConfig, rng_spin, rng_noise):
    """Compose the echo, transfer and spin stages; returns the stages dict
    and their product, the end-to-end memory efficiency."""
    one_over_delta = 1.0 / cfg.comb_period_hz
    if cfg.eta_afc_fixed is not None:
        eta_afc = cfg.eta_afc_fixed
    else:
        with _staged("afc"):
            eta_afc = afc_decay_model(one_over_delta, cfg.afc_eta0,
                                      cfg.afc_t2_seconds, cfg.afc_mod_depth,
                                      cfg.zeeman_split_hz)

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
        resid = residual_excitation(dd, errors, bath, seed=rng_noise)
    if cfg.p_noise_target_per_mode is not None:
        p_noise = cfg.p_noise_target_per_mode
        kappa = p_noise / resid if resid > 0 else None
    elif cfg.noise_gain_kappa is not None:
        kappa = cfg.noise_gain_kappa
        p_noise = kappa * resid
    else:
        kappa = None
        p_noise = 0.0

    stages = {
        "eta_afc": float(eta_afc),
        "eta_transfer": float(eta_transfer),
        "eta_transfer_sq": float(eta_transfer**2),
        "eta_spin": float(res.eta_spin),
        "eta_spin_stderr": float(res.coherence_stderr),
        "p_noise_per_mode": float(p_noise),
        "residual_excitation": float(resid),
        "noise_gain_kappa": None if kappa is None else float(kappa),
    }
    return stages, (stages["eta_afc"] * stages["eta_transfer_sq"]
                    * stages["eta_spin"])


def run_spinwave(cfg: ExperimentConfig, preset: str | None = None) -> RunReport:
    """Full spin-wave storage run: stage efficiencies, photon counting and
    the memory metrics of the summary table."""
    cfg.validate()
    ss = np.random.SeedSequence(cfg.seed)
    rngs = [np.random.default_rng(c) for c in ss.spawn(5)]

    stages, eta_total = _stage_efficiencies(cfg, rngs[0], rngs[1])

    n = cfg.mode_count
    t, dt = _flux_grid(cfg, n + 2)
    modes = range(1, n + 1)
    zeros = np.zeros_like(t)
    noise_flux = noise_floor_model(
        t, stages["p_noise_per_mode"] / cfg.mode_duration_seconds,
        NOISE_LIFETIME_S)
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
    undefined = [m for m, eta in zip(modes, mm.eta) if not eta > 0]

    report = RunReport(
        kind="spinwave", preset=preset, config=cfg.to_dict(),
        stages=stages, eta_end_to_end=float(eta_total),
        metrics={
            "summary": mm.summary(),
            "per_mode": {
                "eta": mm.eta, "eta_err": mm.eta_err,
                "p_n": mm.p_n, "p_n_err": mm.p_n_err,
                "snr": mm.snr, "snr_err": mm.snr_err,
                "mu1": mm.mu1, "mu1_err": mm.mu1_err,
            },
            "mu_in_measured": sums_input.values,
            "mu_in_measured_err": sums_input.errors,
        },
        notes=[f"mu1 undefined in modes {undefined}: noise-subtracted "
               "signal not positive"] if undefined else [],
    )
    report.histograms = {"hist_signal": hist_signal, "hist_noise": hist_noise,
                         "hist_input": hist_input}
    return report


def run_qubit_tomography(cfg: ExperimentConfig, input_phase_rad: float = 0.0,
                         preset: str | None = None) -> RunReport:
    """Time-bin qubit storage with analyser read-out, in the memory that
    run_spinwave composes from the same config.

    Two qubits of mu_in_per_mode photons occupy temporal modes (2, 3) and
    (5, 6).  For sigma_x and sigma_y the second transfer pulse is the
    composite analyser with phase theta, which splits each bin over two
    emission times so the middle bin interferes early against late;
    sigma_z uses a plain read-out.  Counts are Poisson draws from the
    resulting mode intensities.
    """
    cfg.validate()
    t_m = cfg.mode_duration_seconds
    if cfg.input_fwhm_seconds >= t_m / 2:
        raise ValueError("pulse width too large: interference bins would overlap")
    qubits = ((2, 3), (5, 6))  # 1-indexed (early, late) temporal modes
    n_span = 9
    t, dt = _flux_grid(cfg, n_span)

    # spawn order fixes each run's random stream: the stage generators last
    ss = np.random.SeedSequence(cfg.seed)
    *rngs_analyser, rng_z, rng_spin, rng_noise = (
        np.random.default_rng(c) for c in ss.spawn(len(ANALYSER_PHASES_RAD) + 3))
    stages, eta = _stage_efficiencies(cfg, rng_spin, rng_noise)
    mu = cfg.mu_in_per_mode
    p_noise = stages["p_noise_per_mode"]
    v0 = cfg.qubit_visibility
    noise_flux = noise_floor_model(t, p_noise / t_m, NOISE_LIFETIME_S)

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

    # detector-level noise per trial
    noise_det = p_noise * _chain(cfg).total_transmission
    target = np.array([1, 1]) / np.sqrt(2)
    per_qubit = []
    fids, purs = [], []
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
            noise=dict.fromkeys(PROJECTION_KEYS, noise_det),
        )
        sx, sy, sz = pauli_expectations(tc)
        dm = direct_inversion([sx, sy, sz])
        f = fidelity(dm, target)
        p = purity(dm)
        fids.append(f)
        purs.append(p)
        per_qubit.append({
            "modes": [early, late],
            "expectations": {"sx": sx, "sy": sy, "sz": sz},
            "rho": [[[dm.matrix[i, j].real, dm.matrix[i, j].imag]
                     for j in range(2)] for i in range(2)],
            "rescaled": dm.rescaled,
            "fidelity": f,
            "purity": p,
            "counts": tc.counts,
        })

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
        "fidelity_avg": float(np.mean(fids)),
        "purity_avg": float(np.mean(purs)),
        "interference_snr": float(snr_measured),
        "white_noise_fidelity": float(white_noise_fidelity(max(snr_measured, 0.0)))
        if math.isfinite(snr_measured) else 1.0,
        "classical_bound_weak_coherent": float(bound_oracle),
        "input_phase_rad": float(input_phase_rad),
        "theta_list": list(ANALYSER_PHASES_RAD.values()),
    }
    report = RunReport(
        kind="qubit", preset=preset, config=cfg.to_dict(),
        stages={**stages, "visibility": v0}, eta_end_to_end=float(eta),
        tomography=tomo,
    )
    report.histograms = {"hist_sigma_z": hist_z}
    return report


# --- reproduction presets ---------------------------------------------------

def _reproduce_table(name: str, cfg, notes) -> RunReport:
    ref = TABLE1[name]
    report = run_spinwave(cfg, preset=name)
    report.notes.extend(notes)
    s = report.metrics["summary"]
    mu1_lo, mu1_hi = mu1_tolerance_band(name)
    checks = [
        _check("snr_avg", s["snr"], ref["snr"] - ref["snr_err"],
               ref["snr"] + ref["snr_err"]),
        _check("mu1_avg", s["mu1"], mu1_lo, mu1_hi,
               note="band widened by uncertainty propagated from the "
                    "rounded published inputs"),
        _check("eta_avg", s["eta"],
               ref["eta"] - ref["eta_err"] - 3 * s["eta_err"],
               ref["eta"] + ref["eta_err"] + 3 * s["eta_err"]),
        _check("mu_in_measured", float(np.mean(report.metrics["mu_in_measured"])),
               ref["mu_in"] - 4 * float(np.mean(report.metrics["mu_in_measured_err"])),
               ref["mu_in"] + 4 * float(np.mean(report.metrics["mu_in_measured_err"]))),
    ]
    report.checks = checks
    return report


def _reproduce_fig1e(out: Path, cfg, notes) -> RunReport:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    t = np.linspace(FIG1E["t_min_s"], FIG1E["t_max_s"], FIG1E["n_points"])
    truth = afc_decay_model(t, FIG1E["eta0"], FIG1E["t2_seconds"],
                            cfg.afc_mod_depth, cfg.zeeman_split_hz)
    data = truth * (1 + FIG1E["noise_frac"] * rng.standard_normal(t.size))
    fit = fit_afc_decay(t, data, zeeman_split_hz=cfg.zeeman_split_hz)
    eta0_fit, t2_fit = fit.params[0], fit.params[1]
    model = afc_decay_model(t, *fit.params, cfg.zeeman_split_hz)

    with open(out / "afc_decay.csv", "w") as fh:
        fh.write("one_over_delta_s,eta_data,eta_fit\n")
        for row in zip(t, data, model):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    (out / "fit_afc.json").write_text(
        json.dumps(_json_safe(fit.as_dict()), indent=2, sort_keys=True) + "\n")

    report = RunReport(
        kind="fig1e", preset="fig1e", config=cfg.to_dict(),
        fits={"afc_decay": fit.as_dict()}, notes=list(notes),
        checks=[
            _check("eta0_fit", eta0_fit, FIG1E["eta0"] - FIG1E["eta0_tol"],
                   FIG1E["eta0"] + FIG1E["eta0_tol"]),
            _check("t2_fit_seconds", t2_fit,
                   FIG1E["t2_seconds"] - FIG1E["t2_tol_seconds"],
                   FIG1E["t2_seconds"] + FIG1E["t2_tol_seconds"]),
            _check("converged", float(fit.converged), 1, 1),
        ])
    return report


def _reproduce_fig2(out: Path, cfg, notes) -> RunReport:
    bath = _bath(cfg)
    xx_t2 = FIG2["xx_t2_calibration_s"]
    fits = {}
    t2_fitted = {}
    checks = []
    for kind in DD_KINDS:
        t_list = spin_t2_nominal(kind, xx_t2) * np.array(
            [0.4, 0.55, 0.7, 0.85, 1.0, 1.2, 1.4])
        rows = efficiency_decay(kind, t_list, bath)
        decay_table_to_csv(out / f"decay_{kind}.csv", rows)
        fit = fit_mims([r[0] for r in rows], [r[1] for r in rows])
        fits[f"mims_{kind}"] = fit.as_dict()
        t2_fitted[kind] = float(fit.params[1])
        lo, hi = FIG2["mims_m_band"]
        checks.append(_check(f"mims_m_{kind}", fit.params[2], lo, hi))
        ref_t2, ref_err = FIG2["t2_reference_ms"][kind]
        checks.append(_check(f"t2_{kind}_ms_reference", fit.params[1] * 1e3,
                             ref_t2 - ref_err, ref_t2 + ref_err, gated=False,
                             note="reference dataset value; the simulated "
                                  "ideal bath is calibrated only at XX"))
    pl = fit_power_law([len(dd_phases(k)) for k in DD_KINDS],
                       [t2_fitted[k] for k in DD_KINDS])
    fits["power_law"] = pl.as_dict()
    lo, hi = FIG2["gamma_band_sim"]
    checks.append(_check("gamma", pl.params[1], lo, hi))
    checks.append(_check("t2_XX_calibration_ms", t2_fitted["XX"] * 1e3,
                         xx_t2 * 1e3 * 0.95, xx_t2 * 1e3 * 1.05))
    g_ref, g_err = FIG2["gamma_reference"]
    checks.append(_check("gamma_reference", pl.params[1], g_ref - g_err,
                         g_ref + g_err, gated=False,
                         note="reference dataset value; ideal OU bath "
                              "scaling is 2/3"))
    (out / "fit_powerlaw.json").write_text(
        json.dumps(_json_safe(pl.as_dict()), indent=2, sort_keys=True) + "\n")
    return RunReport(kind="fig2", preset="fig2", config=cfg.to_dict(),
                     fits=fits, checks=checks, notes=list(notes))


def _reproduce_tomo(cfg, notes) -> RunReport:
    report = run_qubit_tomography(cfg, preset="fig4-tomo")
    report.notes.extend(notes)
    tomo = report.tomography
    f_lo, f_hi = FIG4["fidelity_band"]
    p_lo, p_hi = FIG4["purity_band"]
    b_ref = FIG4["classical_bound_reference"]
    b_val, b_tol = FIG4["classical_bound_oracle"]
    report.checks = [
        _check("fidelity_avg", tomo["fidelity_avg"], f_lo, f_hi),
        _check("purity_avg", tomo["purity_avg"], p_lo, p_hi),
        _check("classical_bound_oracle", tomo["classical_bound_weak_coherent"],
               b_val - b_tol, b_val + b_tol),
        _check("white_noise_fidelity", tomo["white_noise_fidelity"],
               FIG4["white_noise_fidelity_reference"] - 0.01,
               FIG4["white_noise_fidelity_reference"] + 0.01),
        _check("fidelity_beats_classical_bound",
               tomo["fidelity_avg"] - tomo["classical_bound_weak_coherent"],
               0.0, 1.0),
        _check("classical_bound_gap_to_reference",
               tomo["classical_bound_weak_coherent"] - b_ref,
               -0.02, 0.02, gated=False,
               note="the greedy oracle sits about one percentage point "
                    "below the reference bound; the gap is reported, "
                    "not suppressed"),
    ]
    return report


def reproduce(name: str, out_dir, seed: int | None = None):
    """Run a named reproduction preset; writes plot-ready CSV plus a
    pass/fail comparison against the stored reference values.

    Returns (report, passed).
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    cfg, notes = preset_config(name)
    if seed is not None:
        cfg.seed = seed
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if name in TABLE1:
        report = _reproduce_table(name, cfg, notes)
    elif name == "fig1e":
        report = _reproduce_fig1e(out, cfg, notes)
    elif name == "fig2":
        report = _reproduce_fig2(out, cfg, notes)
    else:
        report = _reproduce_tomo(cfg, notes)
    report.save(out)
    return report, report.passed
