"""Adiabatic transfer pulses and RF dynamical-decoupling sequences.

The chirped transfer pulse has hyperbolic-secant amplitude edges around a
flat plateau.  Its instantaneous frequency sweeps the full pulse bandwidth:
linearly over the plateau, with tanh-rounded turn-on and turn-off during
the edges, so the sweep is strictly monotone and C1 and the swept span
equals bandwidth_hz exactly.  With edges of te = edge_fraction * T < T/2
a time t enters at most one edge, so each quantity is one closed form in
the plateau time p = clip(t, te, T - te) - te and the signed edge time
e = t - clip(t, te, T - te), negative in the rise and positive in the
fall: amplitude W / cosh(c e / te), frequency f0 + k p + a tanh(c e / te).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .waveform import Waveform

# Bloch norm drift per pulse that recommended_sample_rate is sized for: the
# sum over RK4 steps of theta^6/72, theta = pi h hypot(|s|, d) the spinor's
# turn per step.
NORM_BUDGET = 1e-8


@dataclass(frozen=True)
class HshSpec:
    """Chirped flat-top adiabatic inversion pulse."""

    duration_s: float
    bandwidth_hz: float
    peak_rabi_hz: float | None = None
    edge_fraction: float = 0.3
    sech_cutoff: float = 2.6

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.bandwidth_hz < 0:
            raise ValueError("bandwidth_hz must be nonnegative")
        if not 0 < self.edge_fraction < 0.5:
            raise ValueError("edge_fraction must lie in (0, 0.5)")
        if self.sech_cutoff <= 0:
            raise ValueError("sech_cutoff must be positive")
        if self.peak_rabi_hz is not None and self.peak_rabi_hz <= 0:
            raise ValueError("peak_rabi_hz must be positive")

    @property
    def edge_s(self) -> float:
        return self.edge_fraction * self.duration_s

    @property
    def rabi_hz(self) -> float:
        """Peak Rabi frequency; defaults to 3 sqrt(chirp rate) (safely adiabatic)."""
        if self.peak_rabi_hz is not None:
            return self.peak_rabi_hz
        rate = chirp_rate(self)
        return 3.0 * np.sqrt(rate) if rate > 0 else 1.0 / self.duration_s


# Amplitude of each composite component relative to its base pulse, so the
# composite peak stays within the single-pulse hardware amplitude.
CHSH_AMPLITUDE_SCALE = 0.5


@dataclass(frozen=True)
class ChshSpec:
    """Composite pulse: sum of two identical chirped pulses shifted by
    separation_s, each scaled by CHSH_AMPLITUDE_SCALE."""

    base: HshSpec
    separation_s: float
    relative_phase_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.separation_s <= 0:
            raise ValueError("separation_s must be positive")
        if not 0 <= self.relative_phase_rad < 2 * np.pi:
            raise ValueError("relative_phase_rad must lie in [0, 2pi)")


def chirp_rate(spec: HshSpec) -> float:
    """Plateau chirp rate in Hz/s.

    The plateau sweep plus the two tanh-rounded edge sweeps compose the full
    bandwidth, which fixes the plateau rate at
    B / (T * (1 - 2*ef + 2*ef*tanh(c)/c)).
    """
    c = spec.sech_cutoff
    ef = spec.edge_fraction
    denom = spec.duration_s * (1 - 2 * ef + 2 * ef * np.tanh(c) / c)
    return spec.bandwidth_hz / denom


def _sweep(spec: HshSpec, t):
    """(k, a, f0, p, e): the plateau chirp rate k, the edge sweep scale
    a = k te / c, the plateau's start frequency f0 = -B/2 + a tanh(c), and
    the plateau time p and signed edge time e of the times t."""
    te = spec.edge_s
    k = chirp_rate(spec)
    a = k * te / spec.sech_cutoff
    t_plateau = np.clip(t, te, spec.duration_s - te)
    return (k, a, -spec.bandwidth_hz / 2 + a * np.tanh(spec.sech_cutoff),
            t_plateau - te, t - t_plateau)


def hsh_amplitude(spec: HshSpec, t) -> np.ndarray:
    """Envelope magnitude: sech rise, flat plateau, mirrored sech fall."""
    t = np.asarray(t, dtype=float)
    *_, e = _sweep(spec, t)
    amp = spec.rabi_hz / np.cosh(spec.sech_cutoff * e / spec.edge_s)
    return np.where((t < 0) | (t > spec.duration_s), 0.0, amp)


def hsh_frequency(spec: HshSpec, t) -> np.ndarray:
    """Instantaneous frequency relative to the carrier; strictly monotone."""
    k, a, f0, p, e = _sweep(spec, np.asarray(t, dtype=float))
    return f0 + k * p + a * np.tanh(spec.sech_cutoff * e / spec.edge_s)


def hsh_phase(spec: HshSpec, t) -> np.ndarray:
    """Envelope phase 2*pi*integral of the instantaneous frequency (closed form)."""
    t = np.asarray(t, dtype=float)
    k, a, f0, p, e = _sweep(spec, t)
    c = spec.sech_cutoff
    edges = (a / c) * spec.edge_s * (np.log(np.cosh(c * e / spec.edge_s))
                                     - np.log(np.cosh(c)))
    return 2 * np.pi * (f0 * t + k * p * (p / 2 + e) + edges)


def hsh_time_of_frequency(spec: HshSpec, freq_hz) -> np.ndarray:
    """Closed-form inverse of hsh_frequency over the swept span."""
    f = np.asarray(freq_hz, dtype=float)
    if spec.bandwidth_hz == 0:
        raise ValueError("a zero-bandwidth pulse sweeps no frequency")
    if np.any(np.abs(f) > spec.bandwidth_hz / 2):
        raise ValueError("frequency outside the swept span")
    k, a, f0, _, _ = _sweep(spec, 0.0)
    # the plateau sweeps [f0, -f0]; f - g is the part swept in an edge
    g = np.clip(f, f0, -f0)
    return (spec.edge_s + (g - f0) / k
            + spec.edge_s / spec.sech_cutoff * np.arctanh((f - g) / a))


def recommended_sample_rate(spec: HshSpec) -> float:
    """Sample rate such that RK4 on half-sample steps keeps the Bloch norm
    drift per pulse below NORM_BUDGET for detunings up to 1.5 times the
    pulse bandwidth.

    bloch steps the spinor under -i pi [[d, s*], [s, -d]], which turns it
    by theta = pi h hypot(|s|, d) in a step h.  The RK4 stability function
    has |R(i theta)|^2 = 1 - theta^6/72 + theta^8/576, so the norm drifts by
    theta^6/72 per step, and by T (pi f)^6 h^5 / 72 over a pulse of
    duration T whose largest hypot(|s|, d) is f.
    """
    f_rot = max(np.hypot(spec.rabi_hz, 1.5 * spec.bandwidth_hz),
                1.0 / spec.duration_s)
    h = (72 * NORM_BUDGET / (spec.duration_s * (np.pi * f_rot) ** 6)) ** 0.2
    return 2.0 / h


def _grid(duration_s: float, sample_rate_hz: float):
    """(rate, t): a grid spanning [0, duration_s] exactly, with an even
    interval count and the smallest rate not below sample_rate_hz.

    The endpoints are sampled rather than zeroed, which would otherwise
    inject a spurious envelope jump into the final integrator step.  k /
    rate can round above duration_s by an ulp at k = n, so the times are
    clamped to it.
    """
    n_int = 2 * int(np.ceil(duration_s * sample_rate_hz / 2))
    rate = n_int / duration_s
    return rate, np.minimum(np.arange(n_int + 1) / rate, duration_s)


def _envelope(spec: HshSpec, t: np.ndarray) -> np.ndarray:
    """Complex envelope amplitude * exp(i phase) at times t, zero outside
    [0, duration_s] and evaluated only inside it."""
    inside = (t >= 0) & (t <= spec.duration_s)
    out = np.zeros(t.shape, dtype=complex)
    out[inside] = (hsh_amplitude(spec, t[inside])
                   * np.exp(1j * hsh_phase(spec, t[inside])))
    return out


def hsh_waveform(spec: HshSpec, sample_rate_hz: float | None = None) -> Waveform:
    """Sampled complex envelope of the chirped flat-top pulse."""
    if sample_rate_hz is None:
        sample_rate_hz = recommended_sample_rate(spec)
    min_rate = 8 * (spec.bandwidth_hz + spec.rabi_hz)
    if sample_rate_hz < min_rate:
        raise ValueError(
            f"sample_rate_hz {sample_rate_hz:.3g} under-resolves the chirp; "
            f"need at least {min_rate:.3g}")
    rate, t = _grid(spec.duration_s, sample_rate_hz)
    return Waveform(rate, 0.0, _envelope(spec, t))


def chsh_waveform(spec: ChshSpec, sample_rate_hz: float | None = None) -> Waveform:
    """Pointwise sum of the base pulse and its copy delayed by separation_s
    and rotated by the relative phase."""
    if sample_rate_hz is None:
        sample_rate_hz = recommended_sample_rate(spec.base)
    base = spec.base
    rate, t = _grid(base.duration_s + spec.separation_s, sample_rate_hz)
    phase_factor = np.exp(1j * spec.relative_phase_rad)
    # the delayed copy ends with the grid; clamp its rounding overshoot too
    late = np.minimum(t - spec.separation_s, base.duration_s)
    env = CHSH_AMPLITUDE_SCALE * (
        _envelope(base, t) + phase_factor * _envelope(base, late))
    return Waveform(rate, 0.0, env)


def chsh_crossing_times(spec: ChshSpec, freq_hz) -> tuple[np.ndarray, np.ndarray]:
    """Times at which each component's instantaneous frequency crosses freq_hz."""
    t1 = hsh_time_of_frequency(spec.base, freq_hz)
    return t1, t1 + spec.separation_s


def half_transfer_rabi(chirp_rate_hz_s: float, transfer: float = 0.5) -> float:
    """Rabi frequency for which a single linear sweep transfers the given
    probability, from the Landau-Zener relation p = 1 - exp(-pi^2 W^2 / k)."""
    if not 0 < transfer < 1:
        raise ValueError("transfer must lie in (0, 1)")
    return float(np.sqrt(-chirp_rate_hz_s * np.log1p(-transfer)) / np.pi)


def reference_transfer_pulse(duration_s: float = 15e-6,
                             bandwidth_hz: float = 1.5e6) -> HshSpec:
    """Transfer-pulse geometry tuned for uniform in-band inversion with the
    sweep confined to the stated bandwidth.

    Wider edges and a gentler truncation push the turn-on/turn-off
    projection losses below 1% across 80% of the band while keeping the
    half-maximum transfer width just inside the swept span; the amplitude
    is the minimum that keeps the sweep strongly adiabatic (Landau-Zener
    exponent ~12).
    """
    spec = HshSpec(duration_s=duration_s, bandwidth_hz=bandwidth_hz,
                   edge_fraction=0.45, sech_cutoff=4.0)
    return replace(spec, peak_rabi_hz=1.1 * np.sqrt(chirp_rate(spec)))


# --- dynamical decoupling -------------------------------------------------

DD_KINDS = ("XX", "XY4", "XY8", "XY16")


def dd_phases(kind: str) -> np.ndarray:
    """Pulse phases for the named sequence.

    XX repeats phase 0; XY4 alternates 0, pi/2; XY8 is XY4 followed by its
    reverse; XY16 is XY8 followed by XY8 with all phases shifted by pi.
    """
    if kind == "XX":
        return np.array([0.0, 0.0])
    xy4 = np.array([0.0, np.pi / 2, 0.0, np.pi / 2])
    if kind == "XY4":
        return xy4
    xy8 = np.concatenate([xy4, xy4[::-1]])
    if kind == "XY8":
        return xy8
    if kind == "XY16":
        return np.concatenate([xy8, xy8 + np.pi])
    raise ValueError(f"unknown DD kind {kind!r}; expected one of {DD_KINDS}")


def normalize_dd_kind(kind: str) -> str:
    k = kind.upper().replace("-", "").replace("_", "")
    if k not in DD_KINDS:
        raise ValueError(f"unknown DD kind {kind!r}; expected one of {DD_KINDS}")
    return k


@dataclass
class DDSequence:
    """RF pi pulses with per-pulse phases; pulse k ends free interval k."""

    phases_rad: np.ndarray
    intervals_s: np.ndarray

    @property
    def n_pulses(self) -> int:
        return len(self.phases_rad)


def dd_sequence(kind: str, total_time_s: float,
                pulse_duration_s: float) -> DDSequence:
    """Build a CPMG-timed sequence: free intervals exactly tau, 2 tau, ...,
    2 tau, tau, tau = total_time / (2 n_pulses).  pulse_duration_s only
    bounds the storage time: the train of pi pulses must fit inside it."""
    phases = dd_phases(normalize_dd_kind(kind))
    n = len(phases)
    if total_time_s <= 2 * n * pulse_duration_s:
        raise ValueError("total_time_s too short for the pulse train")
    tau = total_time_s / (2 * n)
    return DDSequence(phases_rad=phases,
                      intervals_s=np.r_[tau, np.full(n - 1, 2 * tau), tau])
