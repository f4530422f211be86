"""Atomic frequency comb construction and linear echo formation.

The comb is built as a dense sum of narrow Lorentzian lines following a
target tooth profile, so absorption and dispersion come as a causal pair
and echoes appear only at positive delays (the filter picture of
Bonarota et al., Phys. Rev. A 81, 033803 (2010)).  The tooth profile is
summed only inside the band, over the teeth near each frequency.  The
causal pair is formed in the time domain as a discrete analytic signal
(Marple, IEEE Trans. Signal Process. 47, 2600 (1999)).  The profile is
even in frequency, so its transform is real and the causal pair obeys
D(-f) = conj(D(f)): the comb is built, stored and applied at f >= 0 only,
the profile's half going through four real transforms of N/2 points, its
even and odd samples taken apart (decimation in time).
Propagation through the prepared ensemble is a linear filter acting on
the input spectrum, by the response at f >= 0 and its conjugate at f < 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .waveform import Waveform

TOOTH_SHAPES = ("square", "gaussian", "lorentzian_sum")

DEFAULT_GRID_POINTS = 2**20
DEFAULT_GRID_SPAN_HZ = 8e6

# Fraction of the band tapered by the raised-cosine window at each edge.
EDGE_TAPER_FRACTION = 0.1

# Largest input energy fraction outside the comb band that propagate accepts.
MAX_LEAK_FRACTION = 0.01

# Points per block of the Lorentzian tooth sum: three float64 arrays of
# this length (256 KiB each) fit in a core's L2 cache.  build_comb also
# runs its tooth pass and its twiddle factors in blocks of this length, so
# that their temporaries stay small beside the grid arrays.
LORENTZIAN_BLOCK_POINTS = 2**15

# Excited-state Zeeman splitting that modulates the echo efficiency.
ZEEMAN_SPLIT_HZ = 41.4e3


@dataclass(frozen=True)
class CombParams:
    """Parameters of the prepared comb.

    finesse is tooth spacing over tooth FWHM; peak_od is the single-pass
    optical depth at a tooth center; passes counts traversals of the
    crystal (2 for the double-pass input configuration);
    homogeneous_hwhm_hz is the HWHM of each ion's own line (1/(pi T2) for
    an optical coherence time T2), the comb's line kernel where the grid
    resolves it; see build_comb.
    """

    comb_period_hz: float
    finesse: float
    peak_od: float
    background_od: float = 0.0
    bandwidth_hz: float = 3e6
    tooth_shape: str = "square"
    passes: int = 1
    homogeneous_hwhm_hz: float = 0.0

    def __post_init__(self) -> None:
        if self.comb_period_hz <= 0:
            raise ValueError("comb_period_hz must be positive")
        if self.finesse <= 1:
            raise ValueError("finesse must exceed 1")
        if self.peak_od < 0 or self.background_od < 0:
            raise ValueError("optical depths must be nonnegative")
        if self.bandwidth_hz < 10 * self.comb_period_hz:
            raise ValueError("bandwidth_hz must cover at least 10 comb periods")
        if self.tooth_shape not in TOOTH_SHAPES:
            raise ValueError(f"tooth_shape must be one of {TOOTH_SHAPES}")
        if self.passes < 1 or int(self.passes) != self.passes:
            raise ValueError("passes must be a positive integer")
        if not 0 <= self.homogeneous_hwhm_hz < np.inf:
            raise ValueError("homogeneous_hwhm_hz must be finite and nonnegative")

    @property
    def tooth_fwhm_hz(self) -> float:
        return self.comb_period_hz / self.finesse


@dataclass
class CombSpectrum:
    """Absorption profile and complex field transfer of the prepared comb.

    The arrays hold the non-negative half of the grid: freq_grid_hz is
    k df for k = 0 ... N//2, Nyquist included, and alpha and
    complex_response are given there.  Negative frequencies follow from
    alpha(-f) = alpha(f) and complex_response(-f) =
    conj(complex_response(f)).
    """

    freq_grid_hz: np.ndarray
    alpha: np.ndarray
    complex_response: np.ndarray
    params: CombParams = field(repr=False)

    @property
    def band_edge_hz(self) -> float:
        return self.params.bandwidth_hz / 2


@dataclass
class EchoResult:
    """Output of propagate; leak_fraction is the input energy fraction
    outside the comb band, at most MAX_LEAK_FRACTION."""

    output_waveform: Waveform
    echo_time_s: float
    echo_efficiency: float
    leak_fraction: float


def _taper_band_edge(band: np.ndarray, f: np.ndarray,
                     bandwidth_hz: float) -> None:
    """Multiply the profile at 0 <= f < B/2 by the raised-cosine window in
    place: unity up to B/2 - taper, then falling to zero at B/2 over the
    outer edge fraction.  Only the points past B/2 - taper are touched."""
    half = bandwidth_hz / 2
    taper = EDGE_TAPER_FRACTION * bandwidth_hz
    j0 = int(np.searchsorted(f, half - taper, "right"))
    band[j0:] *= 0.5 * (1 + np.cos(np.pi * (f[j0:] - (half - taper)) / taper))


def _tooth_profile(f: np.ndarray, params: CombParams) -> np.ndarray:
    """Sum of identical teeth at multiples of the comb period, peak = peak_od.

    Only the teeth that reach f are summed, in the order of the sum over
    all teeth; the terms left out lie below the last bit, so the result is
    that sum to the bit.  A square tooth is narrower than the period: only
    the nearest one can cover f.  A Gaussian tooth beyond 3.8 FWHM adds
    less than 1e-17 of the peak, so each point sums the
    ceil(3.8 FWHM / period) neighbours of its nearest tooth on each side.
    Lorentzian tails reach every tooth, so that shape keeps the sum over
    all of them.
    """
    delta = params.comb_period_hz
    fwhm = params.tooth_fwhm_hz
    n_teeth = int(np.floor(params.bandwidth_hz / 2 / delta))
    nearest = np.clip(np.rint(f / delta), -n_teeth, n_teeth)
    if params.tooth_shape == "square":
        return np.where(np.abs(f - nearest * delta) <= fwhm / 2,
                        params.peak_od, 0.0)
    g = np.zeros_like(f)
    if params.tooth_shape == "gaussian":
        reach = int(np.ceil(3.8 * fwhm / delta))
        for j in range(-reach, reach + 1):
            m = nearest + j
            term = params.peak_od * np.exp(
                -4 * np.log(2) * ((f - m * delta) / fwhm) ** 2)
            g += np.where(np.abs(m) <= n_teeth, term, 0.0)
        return g
    hw = fwhm / 2
    scale = params.peak_od * hw**2
    # every tooth over one block of points at a time, so that the block's
    # arrays stay in cache across the teeth
    for start in range(0, f.size, LORENTZIAN_BLOCK_POINTS):
        f_block = f[start:start + LORENTZIAN_BLOCK_POINTS]
        g_block = g[start:start + LORENTZIAN_BLOCK_POINTS]
        d = np.empty_like(f_block)
        for m in range(-n_teeth, n_teeth + 1):
            np.subtract(f_block, m * delta, out=d)
            np.square(d, out=d)
            d += hw**2
            np.divide(scale, d, out=d)
            g_block += d
    return g


def _grid_points(params: CombParams, span_hz: float) -> int:
    """The coarsest power of two whose step resolves the homogeneous line
    in four steps and a tooth in eight, at most DEFAULT_GRID_POINTS (so
    DEFAULT_GRID_POINTS with no homogeneous line)."""
    step = min(params.homogeneous_hwhm_hz / 4, params.tooth_fwhm_hz / 8)
    n = 1
    while n < DEFAULT_GRID_POINTS and span_hz / n > step:
        n *= 2
    return n


def _rotate(spectrum: np.ndarray, m: int, sign: int) -> None:
    """Multiply spectrum[k] by exp(sign i pi k / m) in place, one block of
    LORENTZIAN_BLOCK_POINTS at a time: by one table of exp(sign i pi j / m),
    j < LORENTZIAN_BLOCK_POINTS, and by the block's first twiddle."""
    theta = np.arange(min(spectrum.size, LORENTZIAN_BLOCK_POINTS), dtype=float)
    theta *= sign * np.pi / m
    table = np.empty(theta.size, dtype=complex)
    np.cos(theta, out=table.real)
    np.sin(theta, out=table.imag)
    del theta
    for start in range(0, spectrum.size, table.size):
        block = spectrum[start:start + table.size]
        block *= table[:block.size]
        if start:
            block *= np.exp(1j * (sign * np.pi * start / m))


def build_comb(params: CombParams, n_points: int | None = None,
               span_hz: float = DEFAULT_GRID_SPAN_HZ) -> CombSpectrum:
    """Build the comb's complex transfer function on a uniform grid.

    The grid spans span_hz, widened to 1.25 bandwidths if narrower, in
    n_points steps df, which must resolve a tooth in 8 steps.  By default
    a comb with a homogeneous line (params.homogeneous_hwhm_hz > 0) takes
    the coarsest power-of-two grid with df <= min(HWHM/4, tooth FWHM/8),
    at most DEFAULT_GRID_POINTS, and a comb without one takes
    DEFAULT_GRID_POINTS.  An explicit n_points fixes the grid whatever the
    line.

    The target absorption profile g (teeth plus flat background,
    edge-windowed) is convolved with a normalized complex Lorentzian of
    HWHM gamma, (1/pi) / (gamma + i f), the underlying line response:
    gamma = max(params.homogeneous_hwhm_hz, 4 df).  Where the grid
    resolves the homogeneous line, as the default grid does, gamma is that
    line; below four steps the grid's own 4 df kernel stands in for it, so
    that the decay below falls to exp(-8 pi) over the grid's time span.
    That line is the Fourier transform of the causal decay
    2 exp(-2 pi gamma t) for t > 0, so the convolution is done in the time
    domain as a discrete analytic signal (Marple 1999): transform g,
    weight time 0 by 1, later times by the decay, the Nyquist time by half
    of it and earlier times by 0, and transform back.  Absorption and
    dispersion so form the causal pair of AFC filter theory (Bonarota et
    al. 2010), periodic over the grid span: the images of g one span away
    add a slow dispersion ramp across the band, a group delay below 0.4 %
    of 1/Delta for peak depths up to 6.  The field transfer is
    exp(-(passes/2) * D(f)) with D the resulting complex optical depth.

    The band and the teeth are symmetric about f = 0, so g is even and
    is given by its half x at f = k df, k = 0 ... m, m = N/2; n_points
    must be even.  The transform s of an even g is real and even, and
    only its samples at t >= 0, n = 0 ... m, are weighted by the decay.
    Splitting them into even and odd samples (decimation in time, Cooley
    and Tukey, Math. Comp. 19, 297 (1965)) does the work in m-point
    transforms: s_2u = irfft(F, m)_u / 2 with F_k = x_k + x_(m-k), and
    s_(2u+1) = irfft(H, m)_u / 2 with H_k = (x_k - x_(m-k)) exp(i pi k/m).
    With E and O the m-point rffts of the weighted even and odd samples,
    D_k = E_k + exp(-i pi k/m) O_k and D_(m-k) = conj(E_k - exp(-i pi k/m)
    O_k) for k = 0 ... m//2.  The profile and then the time samples live
    in the memory of the returned response, and the transforms' half
    spectra pass through one (m//2 + 1)-point complex buffer, so a
    transform holds one and a half grid arrays of float64 besides its own
    scratch.  alpha and the response are returned on the half grid; see
    CombSpectrum for f < 0.
    """
    span_hz = max(span_hz, 1.25 * params.bandwidth_hz)
    if n_points is None:
        n_points = _grid_points(params, span_hz)
    if n_points % 2:
        raise ValueError(f"n_points must be even, not {n_points}")
    df = span_hz / n_points
    if df > params.tooth_fwhm_hz / 8:
        raise ValueError(
            f"grid resolution {df:.3g} Hz too coarse for tooth FWHM "
            f"{params.tooth_fwhm_hz:.3g} Hz (need at least 8 points per tooth)")
    gamma = max(params.homogeneous_hwhm_hz, 4 * df)

    # The response's m + 1 complex values, as 2m + 2 floats, first hold
    # the profile x (the top m + 1), then the even and odd time samples
    # (the bottom and the top m); the half spectra of the m-point
    # transforms, q points each, go through buf.
    m = n_points // 2
    q = m // 2 + 1
    response = np.empty(m + 1, dtype=complex)
    flat = response.view(float)
    x = flat[m + 1:]
    mirror = x[m:m - q:-1]  # x_(m-k), k = 0 ... q - 1

    # f = k df, k = 0 ... m.  The window is nonzero only where f < B/2,
    # which is f[:j1]; where its ramp rounds to 0, x is 0 as well.  The
    # grid is taken only as far as the first point at or past B/2.
    edge = params.bandwidth_hz / 2
    f = np.arange(min(m + 1, int(edge / df) + 2), dtype=float)
    f *= df
    j1 = int(np.searchsorted(f, edge, "left"))
    band = x[:j1]
    x[j1:] = 0.0
    # x >= 0, so a profile too deep for float64 shows as a non-finite DC
    # sample of the transform, the sum of g, which bounds every sample
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, j1, LORENTZIAN_BLOCK_POINTS):
            stop = min(start + LORENTZIAN_BLOCK_POINTS, j1)
            np.add(_tooth_profile(f[start:stop], params),
                   params.background_od, out=band[start:stop])
        _taper_band_edge(band, f[:j1], params.bandwidth_hz)
        del f
        buf = np.empty(q, dtype=complex)
        np.add(x[:q], mirror, out=buf.real)
        buf.imag = 0.0
        even = np.fft.irfft(buf, m, out=flat[:m])
    if not np.isfinite(even[0]):
        raise ValueError(
            f"comb_peak_od {params.peak_od:g} is too large: the comb's "
            f"absorption profile overflows float64")
    np.subtract(x[:q], mirror, out=buf.real)  # buf.imag is still 0
    _rotate(buf, m, 1)
    odd = np.fft.irfft(buf, m, out=flat[m + 2:])

    # the samples at t = n / span_hz, n = 0 ... m, weighted by the
    # one-sided decay times the split's 1/2: 1/2 at n = 0, exp(-2 pi gamma
    # t) after it and half of that at n = m; the samples past t = m / span_hz
    # are zeroed
    for first, samples in ((0, even), (1, odd)):
        decay = np.arange(first, m + 1, 2, dtype=float)
        decay *= -2 * np.pi * gamma
        decay /= n_points * df
        np.exp(decay, out=decay)
        if first == 0:
            decay[0] = 0.5
        if (m - first) % 2 == 0:
            decay[-1] /= 2
        samples[:decay.size] *= decay
        samples[decay.size:] = 0.0
        del decay

    # E into buf and O into the response's low end, then D_k there and
    # D_(m-k) for k < m - m//2 into its high end, which O does not reach
    np.fft.rfft(even, out=buf)
    low = np.fft.rfft(odd, out=response[:q])
    _rotate(low, m, -1)
    high = response[m:m // 2:-1]
    np.subtract(buf[:high.size], low[:high.size], out=high)
    np.conjugate(high, out=high)
    np.add(buf, low, out=low)
    del buf

    f = np.arange(m + 1, dtype=float)
    f *= df
    alpha = np.maximum(response.real, 0.0)
    response *= -(params.passes / 2.0)
    np.exp(response, out=response)
    return CombSpectrum(freq_grid_hz=f, alpha=alpha,
                        complex_response=response, params=params)


def propagate(inp: Waveform, spectrum: CombSpectrum) -> EchoResult:
    """Send a waveform through the comb filter and locate the first echo.

    The echo is searched in the window (0.5/Delta, 1.5/Delta) after the
    input peak; echo_efficiency is the energy in that window relative to
    the input energy.  Inputs leaking more than MAX_LEAK_FRACTION of their
    energy outside the comb band are rejected.  The comb acts on the
    input's positive frequencies by its response at f and on the negative
    ones by the conjugate at |f|; beyond its grid it passes the input.
    """
    params = spectrum.params
    delta = params.comb_period_hz
    t_peak_in = inp.peak_time()

    # The comb response is an echo train with amplitudes falling off slowly
    # in echo order; the FFT window must cover its ringdown or late echoes
    # wrap around into the measurement window.
    ring_periods = max(1.8, 10.0 * params.finesse)
    window_s = (t_peak_in - inp.t0_s) + ring_periods / delta
    n = max(inp.n_samples, int(np.ceil(window_s * inp.sample_rate_hz)))
    n = 1 << (n - 1).bit_length()
    spec = np.fft.fft(inp.samples, n)
    # |f| of bin k is f_abs[min(k, n - k)]; bins 0 ... p - 1 are f >= 0
    f_abs = np.fft.rfftfreq(n, d=inp.dt_s)
    p = (n + 1) // 2

    # Reject inputs whose spectrum leaks outside the comb band: the bins
    # with |f| beyond it are q ... n - q.
    power = np.abs(spec)
    np.square(power, out=power)
    q = int(np.searchsorted(f_abs, spectrum.band_edge_hz, "right"))
    leak = float(power[q:n - q + 1].sum() / power.sum())
    del power
    if leak > MAX_LEAK_FRACTION:
        raise ValueError(
            f"input spectrum leaks {leak:.1%} of its energy outside the comb band")

    h = np.interp(f_abs, spectrum.freq_grid_hz, spectrum.complex_response,
                  right=1.0)
    del f_abs
    spec[:p] *= h[:p]
    np.conjugate(h, out=h)
    spec[p:] *= h[n - p:0:-1]
    del h
    out = np.fft.ifft(spec, out=spec)
    out_wf = Waveform(inp.sample_rate_hz, inp.t0_s, out)

    t_rel = out_wf.times()
    t_rel -= t_peak_in
    mask = (t_rel > 0.5 / delta) & (t_rel < 1.5 / delta)
    energy_density = np.abs(out)
    np.square(energy_density, out=energy_density)
    in_energy = inp.energy()
    echo_energy = float(energy_density[mask].sum() * out_wf.dt_s)
    efficiency = echo_energy / in_energy

    idx = np.flatnonzero(mask)
    seg = energy_density[idx]
    k = int(np.argmax(seg))
    i = idx[k]
    echo_t = t_rel[i]
    if 0 < i < n - 1:
        denom = energy_density[i - 1] - 2 * energy_density[i] + energy_density[i + 1]
        if denom < 0:
            echo_t += out_wf.dt_s * 0.5 * (energy_density[i - 1] - energy_density[i + 1]) / denom
    return EchoResult(output_waveform=out_wf, echo_time_s=float(echo_t),
                      echo_efficiency=float(efficiency), leak_fraction=leak)


def afc_decay_model(one_over_delta_s, eta0: float, t2afc_s: float,
                    mod_depth: float = 0.0,
                    zeeman_split_hz: float = ZEEMAN_SPLIT_HZ):
    """Echo efficiency versus rephasing delay 1/Delta.

    eta0 * exp(-4 t / T2) * [1 - mod_depth * sin^2(pi * f_z * t)], where the
    sin^2 term models the efficiency modulation tied to the excited-state
    Zeeman splitting f_z.  exp(-4 t / T2) is exactly the closed forms'
    kernel factor exp(-4 pi gamma t) at a homogeneous HWHM gamma = 1/(pi T2),
    so with eta0 a comb's closed form at zero kernel this is that comb's
    echo; with eta0 free it is the fig1e fit model.
    """
    t = np.asarray(one_over_delta_s, dtype=float)
    if np.any(t < 0):
        raise ValueError("one_over_delta_s must be nonnegative")
    if eta0 < 0 or t2afc_s < 0:
        raise ValueError("eta0 and t2afc_s must be nonnegative")
    if not 0 <= mod_depth <= 1:
        raise ValueError("mod_depth must lie in [0, 1]")
    out = eta0 * np.exp(-4 * t / t2afc_s) * (
        1 - mod_depth * np.sin(np.pi * zeeman_split_hz * t) ** 2)
    return out if out.ndim else float(out)


# Closed-form first-echo efficiencies from the filter-theory Fourier
# coefficients.  For a one-sided (causal) periodic complex depth D(f) the
# first-echo amplitude is exactly (passes/2) * D1 * exp(-(passes/2) * D0)
# with D1 = 2 * a1, so eta = (passes * a1)^2 * exp(-passes * (a0 + d0)).
# A Lorentzian line kernel of HWHM gamma scales a1 by exp(-2 pi gamma/Delta).

def _first_echo(a0, a1, background_od, passes, kernel_hwhm_hz,
                comb_period_hz) -> float:
    if kernel_hwhm_hz > 0:
        a1 *= np.exp(-2 * np.pi * kernel_hwhm_hz / comb_period_hz)
    # the square of a half-depth product, so a deep comb gives 0, not inf * 0;
    # a half depth beyond float64 is such a comb
    with np.errstate(over="ignore"):
        half_depth = passes * (a0 + background_od) / 2
    return float((passes * a1 * np.exp(-half_depth)) ** 2)


def square_tooth_efficiency(peak_od: float, finesse: float,
                            background_od: float = 0.0, passes: int = 1,
                            kernel_hwhm_hz: float = 0.0,
                            comb_period_hz: float = 1.0) -> float:
    """Exact first-echo efficiency for ideal square teeth."""
    a0 = peak_od / finesse
    a1 = a0 * np.sinc(1.0 / finesse)  # numpy sinc(x) = sin(pi x)/(pi x)
    return _first_echo(a0, a1, background_od, passes, kernel_hwhm_hz,
                       comb_period_hz)


def gaussian_tooth_efficiency(peak_od: float, finesse: float,
                              background_od: float = 0.0, passes: int = 1,
                              kernel_hwhm_hz: float = 0.0,
                              comb_period_hz: float = 1.0) -> float:
    """Exact first-echo efficiency for ideal Gaussian teeth (FWHM = spacing/finesse)."""
    c = np.sqrt(2 * np.pi) / (2 * np.sqrt(2 * np.log(2)))  # area / (peak * FWHM)
    a0 = c * peak_od / finesse
    a1 = a0 * np.exp(-np.pi**2 / (2 * np.log(2)) / (2 * finesse**2))
    return _first_echo(a0, a1, background_od, passes, kernel_hwhm_hz,
                       comb_period_hz)


def lorentzian_tooth_efficiency(peak_od: float, finesse: float,
                                background_od: float = 0.0, passes: int = 1,
                                kernel_hwhm_hz: float = 0.0,
                                comb_period_hz: float = 1.0) -> float:
    """Exact first-echo efficiency for an infinite comb of Lorentzian teeth
    (FWHM = spacing/finesse): a tooth's area is pi * peak * HWHM."""
    a0 = np.pi * peak_od / (2 * finesse)
    a1 = a0 * np.exp(-np.pi / finesse)
    return _first_echo(a0, a1, background_od, passes, kernel_hwhm_hz,
                       comb_period_hz)


# The closed form of each tooth shape, keyed like CombParams.tooth_shape.
TOOTH_EFFICIENCY = {"square": square_tooth_efficiency,
                    "gaussian": gaussian_tooth_efficiency,
                    "lorentzian_sum": lorentzian_tooth_efficiency}


def afc_efficiency(cfg) -> float:
    """Echo efficiency of an ExperimentConfig's comb: the closed-form first
    echo of its teeth, decayed over 1/Delta by the optical T2
    (afc_t2_seconds) and modulated by the excited-state Zeeman splitting."""
    eta0 = TOOTH_EFFICIENCY[cfg.comb_tooth_shape](
        cfg.comb_peak_od, cfg.comb_finesse,
        background_od=cfg.comb_background_od, passes=cfg.comb_passes)
    return afc_decay_model(1.0 / cfg.comb_period_hz, eta0,
                           cfg.afc_t2_seconds, cfg.afc_mod_depth,
                           cfg.zeeman_split_hz)

