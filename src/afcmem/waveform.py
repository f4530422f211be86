"""Complex-envelope waveforms on uniform time grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Waveform:
    """Uniformly sampled complex envelope (amplitude in Hz of Rabi frequency,
    or any linear field unit) starting at t0_s."""

    sample_rate_hz: float
    t0_s: float
    samples: np.ndarray

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        self.samples = np.asarray(self.samples, dtype=np.complex128)

    @property
    def dt_s(self) -> float:
        return 1.0 / self.sample_rate_hz

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    def times(self) -> np.ndarray:
        return self.t0_s + np.arange(self.n_samples) * self.dt_s

    def energy(self) -> float:
        """Integral of |envelope|^2 dt."""
        return float(np.sum(np.abs(self.samples) ** 2) * self.dt_s)

    def peak_time(self) -> float:
        """Time of maximum |envelope|, refined by parabolic interpolation."""
        mag = np.abs(self.samples) ** 2
        i = int(np.argmax(mag))
        if 0 < i < mag.size - 1:
            denom = mag[i - 1] - 2 * mag[i] + mag[i + 1]
            if denom < 0:
                i_frac = i + 0.5 * (mag[i - 1] - mag[i + 1]) / denom
                return self.t0_s + i_frac * self.dt_s
        return self.t0_s + i * self.dt_s

    def table(self) -> tuple:
        """The envelope as a CSV table, (header, *columns): rows of
        (t, Re, Im)."""
        return "t_s,re,im", self.times(), self.samples.real, self.samples.imag


def write_csv(path, header: str, *columns: np.ndarray) -> None:
    """Write the header line, then one line per row of the equal-length
    columns, each value as its Python repr (a float round-trips exactly)."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*(c.tolist() for c in columns)):
            fh.write(",".join(map(repr, row)) + "\n")


def gaussian_pulse(fwhm_s: float, center_s: float,
                   sample_rate_hz: float) -> Waveform:
    """Unit-peak Gaussian envelope whose magnitude has the given FWHM,
    centered at center_s and sampled over 8 FWHM."""
    if fwhm_s <= 0:
        raise ValueError("fwhm_s must be positive")
    span_s = 8 * fwhm_s
    t0 = center_s - span_s / 2
    n = int(round(span_s * sample_rate_hz))
    if n < 1:
        raise ValueError(
            f"fwhm_s {fwhm_s:g} is too short for sample_rate_hz "
            f"{sample_rate_hz:g}: its 8-FWHM span holds no sample")
    t = t0 + np.arange(n) / sample_rate_hz
    sigma = fwhm_s / (2 * np.sqrt(2 * np.log(2)))
    env = np.exp(-((t - center_s) ** 2) / (2 * sigma**2))
    return Waveform(sample_rate_hz, t0, env.astype(np.complex128))
