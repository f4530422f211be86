import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import afcmem
from afcmem.comb import (DEFAULT_GRID_POINTS, EDGE_TAPER_FRACTION,
                         LORENTZIAN_BLOCK_POINTS, TOOTH_SHAPES, CombParams,
                         CombSpectrum, _rotate, _taper_band_edge,
                         _tooth_profile, afc_decay_model,
                         build_comb, gaussian_tooth_efficiency,
                         lorentzian_tooth_efficiency, propagate,
                         square_tooth_efficiency)
from afcmem.waveform import Waveform, gaussian_pulse

# lighter grid for unit tests; acceptance uses the full default grid
N_TEST = 2**17
SPAN = 8e6
KERNEL = 4 * SPAN / N_TEST


def _comb(shape="square", finesse=4.0, peak_od=3.0, background_od=0.0,
          passes=1, period=40e3, homogeneous_hwhm_hz=0.0):
    params = CombParams(comb_period_hz=period, finesse=finesse,
                        peak_od=peak_od, background_od=background_od,
                        bandwidth_hz=3e6, tooth_shape=shape, passes=passes,
                        homogeneous_hwhm_hz=homogeneous_hwhm_hz)
    return build_comb(params, n_points=N_TEST, span_hz=SPAN)


def _input():
    return gaussian_pulse(700e-9, 0.0, 16e6)


def test_empty_medium_transparent():
    spec = _comb(peak_od=0.0)
    assert np.abs(spec.complex_response).max() == pytest.approx(1.0, abs=1e-9)
    assert np.abs(spec.complex_response).min() == pytest.approx(1.0, abs=1e-9)


def test_tooth_maxima_spacing():
    spec = _comb()
    f = spec.freq_grid_hz
    inner = np.abs(f) < 1e6
    a = spec.alpha[inner]
    fi = f[inner]
    # local maxima of the absorption profile
    peaks = fi[1:-1][(a[1:-1] >= a[:-2]) & (a[1:-1] > a[2:]) & (a[1:-1] > 1.0)]
    # collapse plateau points of each square tooth into one center
    centers = []
    for p in peaks:
        if not centers or p - centers[-1] > 20e3:
            centers.append(p)
    gaps = np.diff(centers)
    assert np.allclose(gaps, 40e3, atol=300)


def test_double_pass_effective_depth():
    # default production grid: the narrow line kernel barely rounds the
    # tooth peaks, so the double-pass depth at a tooth center is 2 x 3
    params = CombParams(comb_period_hz=40e3, finesse=4.0, peak_od=3.0,
                        bandwidth_hz=3e6, tooth_shape="square", passes=2)
    spec = build_comb(params)
    depth = -2 * np.log(np.abs(spec.complex_response).min())
    assert depth == pytest.approx(6.0, rel=0.01)


def test_passivity_random_params():
    rng = np.random.default_rng(11)
    for _ in range(8):
        shape = rng.choice(["square", "gaussian", "lorentzian_sum"])
        spec = _comb(shape=str(shape),
                     finesse=float(rng.uniform(1.5, 10)),
                     peak_od=float(rng.uniform(0, 8)),
                     background_od=float(rng.uniform(0, 1)),
                     passes=int(rng.integers(1, 3)))
        assert np.abs(spec.complex_response).max() <= 1 + 1e-9
        assert spec.alpha.min() >= 0


def _raised_cosine_window(f, bandwidth_hz):
    """Unity inside the band, tapering to zero over the outer edge fraction,
    on any grid: the window build_comb applies in place to the band."""
    half = bandwidth_hz / 2
    taper = EDGE_TAPER_FRACTION * bandwidth_hz
    a = np.abs(f)
    w = np.zeros_like(a)
    w[a <= half - taper] = 1.0
    ramp = (a > half - taper) & (a < half)
    w[ramp] = 0.5 * (1 + np.cos(np.pi * (a[ramp] - (half - taper)) / taper))
    return w


def _tooth_profile_reference(f, params):
    """Every tooth summed over every frequency, one tooth at a time."""
    delta = params.comb_period_hz
    fwhm = params.tooth_fwhm_hz
    n_teeth = int(np.floor(params.bandwidth_hz / 2 / delta))
    g = np.zeros_like(f)
    for m in range(-n_teeth, n_teeth + 1):
        df = f - m * delta
        if params.tooth_shape == "square":
            g += np.where(np.abs(df) <= fwhm / 2, params.peak_od, 0.0)
        elif params.tooth_shape == "gaussian":
            g += params.peak_od * np.exp(-4 * np.log(2) * (df / fwhm) ** 2)
        else:
            hw = fwhm / 2
            g += params.peak_od * hw**2 / (hw**2 + df**2)
    return g


def test_tooth_sums_match_per_tooth_loop():
    rng = np.random.default_rng(5)
    f = (np.arange(N_TEST) - N_TEST // 2) * (SPAN / N_TEST)
    for shape in TOOTH_SHAPES:
        for finesse_range in ((1.5, 2), (2, 4), (4, 10)):
            params = CombParams(comb_period_hz=float(rng.uniform(20e3, 100e3)),
                                finesse=float(rng.uniform(*finesse_range)),
                                peak_od=float(rng.uniform(0, 8)),
                                bandwidth_hz=float(rng.uniform(1e6, 3e6)),
                                tooth_shape=shape)
            want = _tooth_profile_reference(f, params)
            band = _raised_cosine_window(f, params.bandwidth_hz) > 0
            # build_comb sums the teeth in band only
            assert np.array_equal(_tooth_profile(f[band], params), want[band])
            if shape != "lorentzian_sum":
                assert np.array_equal(_tooth_profile(f, params), want)


def test_band_edge_taper_is_the_window():
    # the in-place taper touches only the ramp and gives the window's
    # product to the bit, also where a grid point falls on B/2 - taper
    rng = np.random.default_rng(7)
    for df, bandwidth in ((8e6 / 2**20, 3e6), (4e6 / 2**14, 3e6),
                          (1e3, 2e6), (977.0, 1.234e6)):
        f = np.arange(int(bandwidth / 2 / df) + 2) * df
        f = f[f < bandwidth / 2]
        band = rng.uniform(0.0, 6.0, f.size)
        want = band * _raised_cosine_window(f, bandwidth)
        _taper_band_edge(band, f, bandwidth)
        assert np.array_equal(band, want)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("m, size", [
    (2**19, 2**18 + 1),  # the default grid's half spectrum, 8 blocks + 1
    (8193, 4097),  # the 2^14 + 2 grid, m odd
    (2**19, LORENTZIAN_BLOCK_POINTS - 1),  # shorter than one block
])
def test_rotate_matches_direct_twiddles(sign, m, size):
    # the table of one block's twiddles times each block's first twiddle
    # gives exp(sign i pi k / m) to rounding
    rng = np.random.default_rng(size)
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    got = x.copy()
    _rotate(got, m, sign)
    want = x * np.exp(sign * 1j * np.pi * np.arange(size) / m)
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(x))


def _build_comb_reference(params, n_points, span_hz):
    """The full-spectrum formula: g on the ascending grid, a complex
    N-point transform back and the exponential at every point."""
    span_hz = max(span_hz, 1.25 * params.bandwidth_hz)
    df = span_hz / n_points
    gamma = 4 * df
    f = (np.arange(n_points) - n_points // 2) * df
    window = _raised_cosine_window(f, params.bandwidth_hz)
    band = window > 0
    g = np.zeros(n_points)
    g[band] = (_tooth_profile(f[band], params) + params.background_od) * window[band]
    g_t = np.fft.rfft(g).conj()
    decay = 2 * np.exp(-2 * np.pi * gamma * np.arange(g_t.size) / (n_points * df))
    decay[0] = 1.0
    if n_points % 2 == 0:
        decay[-1] /= 2
    d_complex = np.fft.fft(decay * g_t, n_points, norm="forward")
    return f, np.maximum(d_complex.real, 0.0), np.exp(-(params.passes / 2.0) * d_complex)


def _build_comb_half_spectrum(params, n_points, span_hz):
    """build_comb's numbers written plainly, without buffers or in-place
    steps: the even g's half x at f >= 0, its even and odd time samples
    from two m = N/2-point transforms, weighted by the one-sided decay
    (times the split's 1/2), and their two transforms joined by the
    twiddles exp(-i pi k / m)."""
    span_hz = max(span_hz, 1.25 * params.bandwidth_hz)
    df = span_hz / n_points
    gamma = 4 * df
    m = n_points // 2
    q = m // 2 + 1
    f = np.arange(m + 1) * df
    window = _raised_cosine_window(f, params.bandwidth_hz)
    band = window > 0
    x = np.zeros(m + 1)
    x[band] = (_tooth_profile(f[band], params) + params.background_od) * window[band]
    k = np.arange(q)
    up = np.cos(k * (np.pi / m)) + 1j * np.sin(k * (np.pi / m))
    down = np.cos(k * (-np.pi / m)) + 1j * np.sin(k * (-np.pi / m))
    even = np.fft.irfft(x[:q] + x[m:m - q:-1], m)
    odd = np.fft.irfft((x[:q] - x[m:m - q:-1]) * up, m)
    decay = np.exp(np.arange(m + 1) * (-2 * np.pi * gamma) / (n_points * df))
    decay[0] = 0.5
    decay[m] /= 2
    e = np.zeros(m)
    e[:m // 2 + 1] = even[:m // 2 + 1] * decay[0::2]
    o = np.zeros(m)
    o[:(m + 1) // 2] = odd[:(m + 1) // 2] * decay[1::2]
    big_e = np.fft.rfft(e)
    big_o = np.fft.rfft(o) * down
    d = np.empty(m + 1, dtype=complex)
    d[:q] = big_e + big_o
    d[m:m // 2:-1] = np.conj(big_e - big_o)[:m - m // 2]
    return f, np.maximum(d.real, 0.0), np.exp(-(params.passes / 2.0) * d)


@pytest.mark.parametrize("shape", TOOTH_SHAPES)
@pytest.mark.parametrize("passes", [1, 2])
@pytest.mark.parametrize("n_points,span_hz,edge_on_grid", [
    (2**14, 4e6, True), (2**14, 4.1e6, False), (2**14 + 2, 4e6, False),
])
def test_build_comb_matches_plain_formula(shape, passes, n_points, span_hz,
                                          edge_on_grid):
    # build_comb fills the band in place and splits the time signal into
    # even and odd samples through one buffer; it must give the plain
    # four-transform formula's numbers to the bit, and the full-spectrum
    # formula's at f >= 0 to rounding.  A span of 4 MHz < 2B puts band
    # points in both halves of x (the x_(m-k) terms), and 2^14 + 2 points
    # make m odd
    params = CombParams(comb_period_hz=40e3, finesse=4.0, peak_od=3.0,
                        background_od=0.3, bandwidth_hz=3e6,
                        tooth_shape=shape, passes=passes)
    spec = build_comb(params, n_points=n_points, span_hz=span_hz)
    f, alpha, response = _build_comb_half_spectrum(params, n_points, span_hz)
    assert np.isin(1.5e6, f) == edge_on_grid
    assert np.array_equal(spec.freq_grid_hz, f)
    assert np.array_equal(spec.alpha, alpha)
    assert np.array_equal(spec.complex_response, response)

    # the full grid's f >= 0 part; the half grid also holds +N/2 df,
    # which the ascending full grid leaves out
    f, alpha, response = _build_comb_reference(params, n_points, span_hz)
    m = n_points // 2
    k = n_points - m
    assert np.array_equal(spec.freq_grid_hz[:k], f[m:])
    assert np.abs(spec.alpha[:k] - alpha[m:]).max() <= 1e-13 * alpha.max()
    assert (np.abs(spec.complex_response[:k] - response[m:]).max()
            <= 1e-13 * np.abs(response).max())


def test_default_grid_build_memory():
    # the comb keeps its three half-grid arrays, two float64 grid arrays in
    # all, and they are the build's traced peak: the profile and the time
    # samples live in the response, the half spectra in one half-grid
    # buffer, and the teeth and twiddles run in blocks.  The measured peak,
    # 2.0 grid arrays, rounded up to the next quarter
    params = CombParams(comb_period_hz=40e3, finesse=4.0, peak_od=3.0,
                        background_od=0.2, tooth_shape="gaussian", passes=2)
    tracemalloc.start()
    try:
        spec = build_comb(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * DEFAULT_GRID_POINTS * 8
    assert [f.name for f in fields(CombSpectrum)] == [
        "freq_grid_hz", "alpha", "complex_response", "params"]
    half = DEFAULT_GRID_POINTS // 2 + 1
    assert spec.freq_grid_hz.shape == spec.alpha.shape == (half,)
    assert spec.complex_response.shape == (half,)


_RESIDENT_BUILD = r"""
from afcmem.comb import CombParams, build_comb


def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))


params = CombParams(comb_period_hz=40e3, finesse=4.0, peak_od=3.0,
                    background_od=0.2, tooth_shape="gaussian", passes=2)
before = peak_kib()
build_comb(params)
print(peak_kib() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident set from /proc")
def test_default_grid_build_resident_memory():
    # what tracemalloc misses: the half-length transforms' own plan and
    # scratch.  The first default-grid build of a fresh process raises its
    # peak resident set by at most 2.75 grid arrays (2.62-2.72 measured).
    # The peak is VmHWM, that of the process's own memory map: ru_maxrss
    # starts from the spawning process's peak, which exec carries over
    src = os.path.dirname(os.path.dirname(afcmem.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RESIDENT_BUILD],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    grown_kib = int(proc.stdout.splitlines()[-1])
    assert grown_kib * 1024 <= 2.75 * DEFAULT_GRID_POINTS * 8


@pytest.mark.parametrize("hwhm_hz, n_points", [
    (1 / (math.pi * 240e-6), 2**15), (1e5, 2**13)])
def test_default_grid_sized_by_the_line(hwhm_hz, n_points):
    # the coarsest power of two whose step df resolves the homogeneous line
    # in four steps and a tooth in eight: the 1.33 kHz line sets 2^15, the
    # 10 kHz tooth under a 100 kHz line 2^13
    params = CombParams(comb_period_hz=40e3, finesse=4.0, peak_od=3.0,
                        passes=2, homogeneous_hwhm_hz=hwhm_hz)
    f = build_comb(params).freq_grid_hz
    step = min(hwhm_hz / 4, params.tooth_fwhm_hz / 8)
    assert f.size == n_points // 2 + 1 and f[1] == 8e6 / n_points
    assert f[1] <= step < 2 * f[1]


def test_unresolved_line_keeps_the_grid_kernel():
    # a homogeneous HWHM below four grid steps leaves the kernel at 4 df:
    # the comb is bit-equal to the one without a homogeneous line, on the
    # default grid (a 20 Hz line, 30.5 Hz kernel) and on an explicit one
    base = dict(comb_period_hz=40e3, finesse=4.0, peak_od=3.0, passes=2)
    narrow = build_comb(CombParams(**base, homogeneous_hwhm_hz=20.0))
    plain = build_comb(CombParams(**base))
    assert narrow.freq_grid_hz.size == DEFAULT_GRID_POINTS // 2 + 1
    assert np.array_equal(narrow.complex_response, plain.complex_response)
    narrow = _comb(homogeneous_hwhm_hz=KERNEL / 2)
    assert np.array_equal(narrow.complex_response, _comb().complex_response)


def _line_convolution_2n(g, df):
    """Complex depth by linear convolution of g with the sampled line
    (1/pi)/(gamma + i f), zero-padded to 2N points."""
    n = g.size
    f = (np.arange(n) - n // 2) * df
    kernel = (1.0 / np.pi) / (4 * df + 1j * f)
    conv = np.fft.ifft(np.fft.fft(g, 2 * n) * np.fft.fft(kernel, 2 * n))
    return conv[n // 2: n // 2 + n] * df


@pytest.mark.parametrize("shape,finesse,passes", [
    ("square", 2.0, 2), ("gaussian", 10.0, 1), ("lorentzian_sum", 2.0, 2),
])
def test_default_grid_passive_and_absorbing(shape, finesse, passes):
    # the benchmark's extremes on the production grid: the causal
    # transform keeps the comb passive and its absorption equal to the
    # linear convolution's to 1e-5 of the peak depth
    params = CombParams(comb_period_hz=20e3, finesse=finesse, peak_od=6.0,
                        background_od=0.5, bandwidth_hz=3e6,
                        tooth_shape=shape, passes=passes)
    spec = build_comb(params)
    assert np.abs(spec.complex_response).max() <= 1 + 1e-9
    # g on the full ascending grid; alpha holds its f >= 0 part
    n = DEFAULT_GRID_POINTS
    df = spec.freq_grid_hz[1]
    f = (np.arange(n) - n // 2) * df
    window = _raised_cosine_window(f, params.bandwidth_hz)
    band = window > 0
    g = np.zeros_like(f)
    g[band] = (_tooth_profile(f[band], params) + 0.5) * window[band]
    want = _line_convolution_2n(g, df).real[n // 2:]
    assert want.min() > 0
    assert np.abs(spec.alpha[:want.size] - want).max() <= 1e-5 * g.max()


def test_odd_grid_rejected():
    # the even and odd samples of the time signal need an even grid
    params = CombParams(comb_period_hz=40e3, finesse=4.0, peak_od=3.0)
    with pytest.raises(ValueError, match="n_points must be even"):
        build_comb(params, n_points=2**14 + 1, span_hz=4e6)


def test_validation_errors():
    with pytest.raises(ValueError):
        CombParams(40e3, finesse=1.0, peak_od=3)
    with pytest.raises(ValueError):
        CombParams(40e3, finesse=4, peak_od=3, bandwidth_hz=100e3)
    with pytest.raises(ValueError, match="homogeneous"):
        CombParams(40e3, finesse=4, peak_od=3, homogeneous_hwhm_hz=-1.0)
    with pytest.raises(ValueError, match="homogeneous"):
        CombParams(40e3, finesse=4, peak_od=3, homogeneous_hwhm_hz=np.inf)
    params = CombParams(40e3, finesse=10, peak_od=3)
    with pytest.raises(ValueError):
        build_comb(params, n_points=2**10, span_hz=8e6)  # grid too coarse


@pytest.mark.parametrize("shape", TOOTH_SHAPES)
def test_overflowing_profile_rejected(shape):
    # teeth that nearly fill the band at the largest float64 depth: the
    # profile's sum overflows, which is an error, not a non-finite comb
    with pytest.raises(ValueError, match="comb_peak_od"):
        _comb(shape=shape, finesse=1.0001, peak_od=1.7e308)


def _propagate_full_grid(inp, spectrum):
    """propagate on the comb mirrored onto f < 0: the response interpolated
    at every signed bin frequency, 1 beyond the grid on either side."""
    f = spectrum.freq_grid_hz
    f_full = np.concatenate([-f[:0:-1], f])
    response = spectrum.complex_response
    h_full = np.concatenate([response[:0:-1].conj(), response])
    delta = spectrum.params.comb_period_hz
    t_peak_in = inp.peak_time()
    ring_periods = max(1.8, 10.0 * spectrum.params.finesse)
    window_s = (t_peak_in - inp.t0_s) + ring_periods / delta
    n = max(inp.n_samples, int(np.ceil(window_s * inp.sample_rate_hz)))
    n = 1 << (n - 1).bit_length()
    spec_in = np.fft.fft(inp.samples, n)
    f_sig = np.fft.fftfreq(n, d=inp.dt_s)
    power = np.abs(spec_in) ** 2
    leak = power[np.abs(f_sig) > spectrum.band_edge_hz].sum() / power.sum()
    h = np.interp(f_sig, f_full, h_full, left=1.0, right=1.0)
    out = np.fft.ifft(spec_in * h)
    t_rel = inp.t0_s + np.arange(n) * inp.dt_s - t_peak_in
    mask = (t_rel > 0.5 / delta) & (t_rel < 1.5 / delta)
    energy = np.abs(out) ** 2
    efficiency = energy[mask].sum() * inp.dt_s / inp.energy()
    return out, efficiency, leak


@pytest.mark.parametrize("n_points", [2**14, 2**14 + 2])
@pytest.mark.parametrize("shift_hz", [0.0, 300e3])
def test_propagate_matches_full_grid_reference(n_points, shift_hz):
    # the half spectrum with the conjugate at f < 0 acts as the comb on
    # the full grid, a power of two or not; a shifted input makes the two
    # halves differ
    params = CombParams(comb_period_hz=40e3, finesse=4.0, peak_od=3.0,
                        background_od=0.3, bandwidth_hz=3e6,
                        tooth_shape="gaussian", passes=2)
    spectrum = build_comb(params, n_points=n_points, span_hz=4e6)
    pulse = gaussian_pulse(700e-9, 0.0, 16e6)
    inp = Waveform(pulse.sample_rate_hz, pulse.t0_s, pulse.samples
                   * np.exp(2j * np.pi * shift_hz * pulse.times()))
    res = propagate(inp, spectrum)
    out, efficiency, leak = _propagate_full_grid(inp, spectrum)
    got = res.output_waveform.samples
    assert got.shape == out.shape
    assert np.abs(got - out).max() <= 1e-13 * np.abs(out).max()
    assert res.echo_efficiency == pytest.approx(efficiency, rel=1e-13)
    assert res.leak_fraction == pytest.approx(leak, rel=1e-13)
    assert res.echo_time_s == pytest.approx(25e-6, rel=0.01)


def test_propagate_passes_frequencies_beyond_grid(monkeypatch):
    # the grid spans 1.25 B = 3.75 MHz, the 16 MHz input's bins reach
    # 8 MHz: every bin with |f| beyond the grid keeps its input value
    spectrum = build_comb(CombParams(comb_period_hz=40e3, finesse=4.0,
                                     peak_od=3.0, bandwidth_hz=3e6),
                          n_points=2**14, span_hz=1e6)
    inp = _input()
    filtered = []
    ifft = np.fft.ifft

    def capture(a, *args, **kwargs):
        filtered.append(a.copy())
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", capture)
    res = propagate(inp, spectrum)
    n = res.output_waveform.n_samples
    spec_in = np.fft.fft(inp.samples, n)
    beyond = np.abs(np.fft.fftfreq(n, d=inp.dt_s)) > spectrum.freq_grid_hz[-1]
    assert beyond.sum() > n // 2
    assert np.array_equal(filtered[0][beyond], spec_in[beyond])
    assert not np.allclose(filtered[0][~beyond], spec_in[~beyond])


def test_propagate_memory():
    # beyond the comb it is given, propagate at n = 2^18 holds at most
    # three complex n-point arrays at once
    params = CombParams(comb_period_hz=20e3, finesse=9.3, peak_od=3.0,
                        bandwidth_hz=3e6, passes=2)
    spectrum = build_comb(params, n_points=N_TEST, span_hz=SPAN)
    inp = gaussian_pulse(700e-9, 0.0, 32e6)
    tracemalloc.start()
    try:
        res = propagate(inp, spectrum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = res.output_waveform.n_samples
    assert n == 2**18
    assert peak <= 3 * 16 * n


def test_echo_timing_and_output():
    spec = _comb(passes=2)
    res = propagate(_input(), spec)
    assert res.echo_time_s == pytest.approx(25e-6, rel=0.01)
    assert 0 < res.echo_efficiency < 0.54


def test_transparent_comb_passes_input():
    spec = _comb(peak_od=0.0)
    inp = _input()
    res = propagate(inp, spec)
    assert res.echo_efficiency < 1e-10
    out = res.output_waveform.samples[: inp.n_samples]
    assert np.max(np.abs(out - inp.samples)) < 1e-6


def test_leak_fraction_of_gaussian_pulse():
    # |E(f)|^2 of a Gaussian field of std s is Gaussian with std
    # 1/(2 sqrt(2) pi s), so the energy beyond |f| = B/2 is erfc(pi s B).  At
    # 16 MHz the band edge falls on a bin of the padded transform, and the
    # sum over the bins beyond it is the trapezoid rule less half of each
    # edge bin.
    spec = _comb()
    fwhm = 500e-9
    res = propagate(gaussian_pulse(fwhm, 0.0, 16e6), spec)
    s = fwhm / (2 * math.sqrt(2 * math.log(2)))
    sigma_f = 1 / (2 * math.sqrt(2) * math.pi * s)
    bin_hz = 16e6 / res.output_waveform.n_samples
    edge_density = (math.exp(-(1.5e6 / sigma_f) ** 2 / 2)
                    / (math.sqrt(2 * math.pi) * sigma_f))
    want = math.erfc(math.pi * s * 3e6) - bin_hz * edge_density
    assert res.leak_fraction == pytest.approx(want, rel=1e-4)
    assert 1e-3 < res.leak_fraction < 0.01


def test_broadband_input_rejected():
    spec = _comb()
    with pytest.raises(ValueError, match="leak"):
        propagate(gaussian_pulse(80e-9, 0.0, 64e6), spec)


@pytest.mark.parametrize("shape,oracle", [
    ("square", square_tooth_efficiency),
    ("gaussian", gaussian_tooth_efficiency),
    ("lorentzian_sum", lorentzian_tooth_efficiency),
])
def test_efficiency_matches_closed_form(shape, oracle):
    # first-echo coefficient identity: eta = (p a1)^2 exp(-p (a0 + d0)),
    # also with a homogeneous line (T2 100 us) wider than the grid's 4 df,
    # which is then the line kernel
    inp = _input()
    for hwhm in (0.0, 1 / (math.pi * 100e-6)):
        for finesse in (2.0, 4.0, 10.0):
            for depth in (0.5, 6.0):
                spec = _comb(shape=shape, finesse=finesse, peak_od=depth,
                             homogeneous_hwhm_hz=hwhm)
                got = propagate(inp, spec).echo_efficiency
                want = oracle(depth, finesse, kernel_hwhm_hz=max(KERNEL, hwhm),
                              comb_period_hz=40e3)
                assert got == pytest.approx(want, rel=0.05), (
                    shape, hwhm, finesse, depth)
    # a comb far too deep to echo gives 0, not inf * 0
    assert oracle(1e200, 4.0, passes=2) == 0.0


def comb_efficiency_estimate(peak_od: float, finesse: float,
                             background_od: float = 0.0) -> float:
    """Widely used single-pass estimate (d/F)^2 e^(-d/F) e^(-7/F^2) e^(-d0).

    The e^(-7/F^2) dephasing factor corresponds to Gaussian-like teeth; it
    overestimates the dephasing of true square teeth at low finesse.
    """
    d_avg = peak_od / finesse
    return float(d_avg**2 * np.exp(-d_avg) * np.exp(-7.0 / finesse**2)
                 * np.exp(-background_od))


def test_standard_estimate_at_high_finesse():
    # the (d/F)^2 e^(-d/F) e^(-7/F^2) estimate assumes Gaussian-like tooth
    # dephasing; it agrees with square teeth only at high finesse
    inp = _input()
    for finesse in (9.0, 10.0):
        spec = _comb(finesse=finesse, peak_od=6.0)
        got = propagate(inp, spec).echo_efficiency
        assert got == pytest.approx(comb_efficiency_estimate(6.0, finesse),
                                    rel=0.05)


def test_finesse_sweep_peak_and_cap():
    inp = _input()
    finesses = np.arange(2.0, 10.5, 1.0)
    effs = [propagate(inp, _comb(finesse=f, peak_od=6.0)).echo_efficiency
            for f in finesses]
    effs = np.array(effs)
    assert effs.max() < 0.54
    # analytic optimum of the estimate formula at d=6 is F = (3+sqrt(37))/2
    best = finesses[effs.argmax()]
    assert abs(best - 4.54) <= 1.0


def test_background_monotonicity():
    inp = _input()
    effs = [propagate(inp, _comb(background_od=d0)).echo_efficiency
            for d0 in (0.0, 0.4, 0.8)]
    assert effs[0] > effs[1] > effs[2]


@pytest.mark.parametrize("efficiency, peak_od, finesse, passes", [
    (square_tooth_efficiency, 1.6e308, 1.01, 2),
    (gaussian_tooth_efficiency, 1.6e308, 1.01, 2),
    (lorentzian_tooth_efficiency, 5e307, 1.5, 4)])
def test_deep_comb_closed_form_is_zero(efficiency, peak_od, finesse, passes):
    # a total depth beyond float64 absorbs the echo: 0, with no
    # floating-point flag, so the config check accepts such a comb
    with np.errstate(all="raise"):
        assert efficiency(peak_od, finesse, passes=passes) == 0.0


def test_decay_model_values():
    assert afc_decay_model(0.0, 0.36, 240e-6) == pytest.approx(0.36)
    assert afc_decay_model(25e-6, 0.36, 240e-6) == pytest.approx(0.2373, abs=2e-4)
    # modulation factor is maximal at multiples of 1/41.4kHz ~ 24.15 us
    t_peak = 1 / 41.4e3
    for t in (t_peak, 2 * t_peak):
        full = afc_decay_model(t, 1.0, 1e6, mod_depth=0.5)
        nearby = afc_decay_model(t + 6e-6, 1.0, 1e6, mod_depth=0.5)
        assert full > nearby
    with pytest.raises(ValueError):
        afc_decay_model(25e-6, 0.36, 240e-6, mod_depth=1.5)


def test_echo_train_periodicity():
    # later echoes appear at integer multiples of 1/Delta
    spec = _comb(passes=1, peak_od=6.0, finesse=2.0)
    res = propagate(_input(), spec)
    out = res.output_waveform
    t_rel = out.times() - 0.0
    energy = np.abs(out.samples) ** 2
    second = (t_rel > 1.5 * 25e-6) & (t_rel < 2.5 * 25e-6)
    idx = np.flatnonzero(second)
    t2 = t_rel[idx[np.argmax(energy[second])]]
    assert t2 == pytest.approx(50e-6, rel=0.01)
