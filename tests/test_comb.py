import math
import tracemalloc

import numpy as np
import pytest

from afcmem.comb import (DEFAULT_GRID_POINTS, TOOTH_SHAPES, CombParams,
                         _raised_cosine_window,
                         _tooth_profile, afc_decay_model, build_comb,
                         comb_efficiency_estimate, gaussian_tooth_efficiency,
                         lorentzian_tooth_efficiency, propagate,
                         square_tooth_efficiency)
from afcmem.waveform import gaussian_pulse

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
    """build_comb's numbers written plainly, with full-grid temporaries:
    the even g in FFT order, two real transforms, D at f >= 0 mirrored."""
    span_hz = max(span_hz, 1.25 * params.bandwidth_hz)
    df = span_hz / n_points
    gamma = 4 * df
    m = n_points // 2
    k = np.arange(n_points)
    f = (k - m) * df
    f_abs = np.minimum(k, n_points - k) * df  # |f| in FFT order
    window = _raised_cosine_window(f_abs, params.bandwidth_hz)
    band = window > 0
    g = np.zeros(n_points)
    g[band] = (_tooth_profile(f_abs[band], params) + params.background_od) * window[band]
    g_t = np.fft.rfft(g).real
    decay = 2 * np.exp(-2 * np.pi * gamma * np.arange(g_t.size) / (n_points * df))
    decay[0] = 1.0
    if n_points % 2 == 0:
        decay[-1] /= 2
    d_half = np.fft.rfft(decay * g_t, n_points, norm="forward")
    j = np.abs(k - m)  # the half-spectrum point of each grid point
    alpha = np.maximum(d_half.real, 0.0)[j]
    response = np.exp(-(params.passes / 2.0) * d_half)[j]
    response[:m] = response[:m].conj()
    return f, alpha, response


@pytest.mark.parametrize("shape", TOOTH_SHAPES)
@pytest.mark.parametrize("passes", [1, 2])
@pytest.mark.parametrize("n_points,span_hz,edge_on_grid", [
    (2**14, 4e6, True), (2**14, 4.1e6, False), (2**14 + 1, 4e6, False),
])
def test_build_comb_matches_plain_formula(shape, passes, n_points, span_hz,
                                          edge_on_grid):
    # build_comb fills the band in place and mirrors the half spectrum; it
    # must give the plain half-spectrum formula's numbers to the bit, and
    # the full-spectrum formula's to rounding
    params = CombParams(comb_period_hz=40e3, finesse=4.0, peak_od=3.0,
                        background_od=0.3, bandwidth_hz=3e6,
                        tooth_shape=shape, passes=passes)
    spec = build_comb(params, n_points=n_points, span_hz=span_hz)
    f, alpha, response = _build_comb_half_spectrum(params, n_points, span_hz)
    assert np.isin([-1.5e6, 1.5e6], f).all() == edge_on_grid
    assert np.array_equal(spec.freq_grid_hz, f)
    assert np.array_equal(spec.alpha, alpha)
    assert np.array_equal(spec.complex_response, response)

    f, alpha, response = _build_comb_reference(params, n_points, span_hz)
    assert np.array_equal(spec.freq_grid_hz, f)
    assert np.abs(spec.alpha - alpha).max() <= 1e-13 * alpha.max()
    assert (np.abs(spec.complex_response - response).max()
            <= 1e-13 * np.abs(response).max())

    # exactly mirror-symmetric about f = 0 (for even N, -N/2 df has no
    # partner on the grid)
    m, r = n_points // 2, (n_points - 1) // 2
    assert np.array_equal(spec.freq_grid_hz[m - r:m], -spec.freq_grid_hz[m + r:m:-1])
    assert np.array_equal(spec.alpha[m - r:m], spec.alpha[m + r:m:-1])
    assert np.array_equal(spec.complex_response[m - r:m],
                          spec.complex_response[m + r:m:-1].conj())


def test_default_grid_build_memory():
    # the grid, the half spectrum, alpha and the response: at most six
    # float64 grid arrays are traced at once
    params = CombParams(comb_period_hz=40e3, finesse=4.0, peak_od=3.0,
                        background_od=0.2, tooth_shape="gaussian", passes=2)
    tracemalloc.start()
    try:
        build_comb(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * DEFAULT_GRID_POINTS * 8


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
    f = spec.freq_grid_hz
    window = _raised_cosine_window(f, params.bandwidth_hz)
    band = window > 0
    g = np.zeros_like(f)
    g[band] = (_tooth_profile(f[band], params) + 0.5) * window[band]
    want = _line_convolution_2n(g, f[1] - f[0]).real
    assert want.min() > 0
    assert np.abs(spec.alpha - want).max() <= 1e-5 * g.max()


def test_validation_errors():
    with pytest.raises(ValueError):
        CombParams(40e3, finesse=1.0, peak_od=3).validate()
    with pytest.raises(ValueError):
        CombParams(40e3, finesse=4, peak_od=3, bandwidth_hz=100e3).validate()
    with pytest.raises(ValueError, match="homogeneous"):
        CombParams(40e3, finesse=4, peak_od=3,
                   homogeneous_hwhm_hz=-1.0).validate()
    with pytest.raises(ValueError, match="homogeneous"):
        CombParams(40e3, finesse=4, peak_od=3,
                   homogeneous_hwhm_hz=np.inf).validate()
    params = CombParams(40e3, finesse=10, peak_od=3)
    with pytest.raises(ValueError):
        build_comb(params, n_points=2**10, span_hz=8e6)  # grid too coarse


@pytest.mark.parametrize("shape", TOOTH_SHAPES)
def test_overflowing_profile_rejected(shape):
    # teeth that nearly fill the band at the largest float64 depth: the
    # profile's sum overflows, which is an error, not a non-finite comb
    with pytest.raises(ValueError, match="comb_peak_od"):
        _comb(shape=shape, finesse=1.0001, peak_od=1.7e308)


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
    # also with a homogeneous line (T2 100 us) widening the line kernel
    inp = _input()
    for hwhm in (0.0, 1 / (math.pi * 100e-6)):
        for finesse in (2.0, 4.0, 10.0):
            for depth in (0.5, 6.0):
                spec = _comb(shape=shape, finesse=finesse, peak_od=depth,
                             homogeneous_hwhm_hz=hwhm)
                got = propagate(inp, spec).echo_efficiency
                want = oracle(depth, finesse, kernel_hwhm_hz=KERNEL + hwhm,
                              comb_period_hz=40e3)
                assert got == pytest.approx(want, rel=0.05), (
                    shape, hwhm, finesse, depth)
    # a comb far too deep to echo gives 0, not inf * 0
    assert oracle(1e200, 4.0, passes=2) == 0.0


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
