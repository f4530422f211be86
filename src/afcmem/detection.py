"""Photon-counting chain: Poisson statistics, mode sums and memory metrics.

Fluxes are mean photon rates at the memory output; the chain applies the
path transmission and detector efficiency before drawing counts.  Metric
errors are Poisson-propagated treating the temporal modes as independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# Lifetime of the spontaneous-emission noise floor after read-out.
NOISE_LIFETIME_S = 1.9e-3


@dataclass(frozen=True)
class DetectionChain:
    detector_efficiency: float = 0.57
    path_transmission: float = 0.185
    dark_rate_hz: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.detector_efficiency <= 1:
            raise ValueError("detector_efficiency must lie in (0, 1]")
        if not 0 < self.path_transmission <= 1:
            raise ValueError("path_transmission must lie in (0, 1]")
        if self.dark_rate_hz < 0:
            raise ValueError("dark_rate_hz must be nonnegative")

    @property
    def total_transmission(self) -> float:
        return self.detector_efficiency * self.path_transmission


@dataclass
class CountHistogram:
    bin_width_s: float
    counts: np.ndarray
    n_trials: int

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    def bin_starts(self) -> np.ndarray:
        return np.arange(self.n_bins) * self.bin_width_s

    def table(self) -> tuple:
        """The histogram as a CSV table, (header, *columns)."""
        return "bin_start_s,counts", self.bin_starts(), self.counts


def simulate_counts(flux_per_s, sample_rate_hz: float, chain: DetectionChain,
                    n_trials: int, seed, bin_width_s: float) -> CountHistogram:
    """Histogram of detector counts accumulated over n_trials.

    flux_per_s is the mean photon rate at the memory output, an array on a
    uniform grid of sample_rate_hz starting at 0.  Per bin the detected
    mean is the integrated flux times the chain transmission plus dark
    counts; total counts per bin are drawn as Poisson with n_trials times
    that mean (the sum of independent per-trial Poisson draws has exactly
    this law).
    """
    flux = np.asarray(flux_per_s, dtype=float)
    if np.any(flux < 0) or not np.all(np.isfinite(flux)):
        raise ValueError("flux must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    dt = 1.0 / sample_rate_hz
    per_bin = max(1, int(round(bin_width_s * sample_rate_hz)))
    n_bins = int(np.ceil(flux.size / per_bin))
    padded = np.zeros(n_bins * per_bin)
    padded[: flux.size] = flux
    mean_per_trial = padded.reshape(n_bins, per_bin).sum(axis=1) * dt
    # dark counts accrue over the realised bin, per_bin samples wide
    width = per_bin * dt
    mean_per_trial = mean_per_trial * chain.total_transmission \
        + chain.dark_rate_hz * width
    counts = rng.poisson(n_trials * mean_per_trial)
    return CountHistogram(bin_width_s=width, counts=counts, n_trials=n_trials)


@dataclass
class ModeSums:
    """Per-mode photon numbers referred back to the memory output."""

    values: np.ndarray
    errors: np.ndarray
    raw_counts: np.ndarray


def mode_sums(hist: CountHistogram, t_m_s: float, n_modes: int,
              chain: DetectionChain) -> ModeSums:
    """Sum counts over n_modes back-to-back windows of t_m_s that tile the
    histogram from its first bin, normalized by trials and chain
    transmission."""
    ratio = t_m_s / hist.bin_width_s
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError("bin width must divide the mode window")
    bins_per_mode = int(round(ratio))
    if n_modes * bins_per_mode > hist.n_bins:
        raise ValueError("mode window outside histogram span")
    raw = hist.counts[: n_modes * bins_per_mode].reshape(
        n_modes, bins_per_mode).sum(axis=1)
    norm = hist.n_trials * chain.total_transmission
    return ModeSums(values=raw / norm, errors=np.sqrt(raw) / norm,
                    raw_counts=raw)


def metrics(mu_in: float, output_modes: ModeSums,
            noise_modes: ModeSums) -> dict:
    """Storage efficiency, SNR and mu1 from signal-run and noise-run mode
    sums: {"summary": mu_in and the 6-mode average of each figure with its
    error, "per_mode": each figure and its error per mode}.

    eta and snr use the noise-subtracted output, so snr is signal over
    noise; mu1 = p_n / eta is the input photon number giving SNR 1.  mu1
    and its error are NaN in modes whose signal is not positive.
    """
    if mu_in <= 0:
        raise ValueError("mu_in must be positive")
    out = output_modes.values
    out_err = output_modes.errors
    p_n = noise_modes.values
    p_err = noise_modes.errors

    signal = out - p_n
    sig_err = np.hypot(out_err, p_err)
    eta = signal / mu_in
    eta_err = sig_err / mu_in

    with np.errstate(divide="ignore", invalid="ignore"):
        snr = np.where(p_n > 0, signal / np.where(p_n > 0, p_n, 1.0), np.inf)
        snr_err = np.where(
            p_n > 0,
            np.abs(snr) * np.sqrt((sig_err / np.where(signal != 0, signal, 1.0)) ** 2
                                  + (p_err / np.where(p_n > 0, p_n, 1.0)) ** 2),
            0.0)
        defined = eta > 0
        mu1 = np.where(defined, p_n / eta, np.nan)
        mu1_err = np.where(defined, mu1 * np.sqrt(
            (p_err / np.where(p_n > 0, p_n, 1.0)) ** 2 + (eta_err / eta) ** 2),
            np.nan)
    per_mode = {"eta": eta, "eta_err": eta_err, "p_n": p_n, "p_n_err": p_err,
                "snr": snr, "snr_err": snr_err, "mu1": mu1, "mu1_err": mu1_err}
    summary = {"mu_in": mu_in}
    for name in ("eta", "p_n", "snr", "mu1"):
        v, e = per_mode[name], per_mode[f"{name}_err"]
        summary[name] = float(np.mean(v))
        summary[f"{name}_err"] = float(np.sqrt(np.sum(np.square(e))) / len(v))
    return {"summary": summary, "per_mode": per_mode}


def table_metrics(mu_in: float, eta: float, p_n: float,
                  mu_in_err: float = 0.0, eta_err: float = 0.0,
                  p_n_err: float = 0.0) -> dict:
    """SNR and mu1 (with propagated errors) from a (mu_in, eta, p_n) triple."""
    if mu_in <= 0 or eta <= 0 or p_n <= 0:
        raise ValueError("mu_in, eta and p_n must be positive")
    snr = mu_in * eta / p_n
    mu1 = p_n / eta
    rel_mu = mu_in_err / mu_in
    rel_eta = eta_err / eta
    rel_p = p_n_err / p_n
    return {
        "snr": snr,
        "snr_err": snr * np.sqrt(rel_mu**2 + rel_eta**2 + rel_p**2),
        "mu1": mu1,
        "mu1_err": mu1 * np.sqrt(rel_eta**2 + rel_p**2),
    }


def noise_floor_model(t_after_readout_s, p_n_ref: float):
    """Noise density versus delay after readout: exponential decay of the
    spontaneous-emission floor, normalized to p_n_ref at zero delay."""
    t = np.asarray(t_after_readout_s, dtype=float)
    if np.any(t < 0):
        raise ValueError("t_after_readout_s must be nonnegative")
    out = p_n_ref * np.exp(-t / NOISE_LIFETIME_S)
    return out if out.ndim else float(out)
