import numpy as np
import pytest

from afcmem.pulses import (CHSH_AMPLITUDE_SCALE, DD_KINDS, ChshSpec, HshSpec,
                           chirp_rate, chsh_crossing_times, chsh_waveform,
                           dd_phases, dd_sequence, half_transfer_rabi,
                           hsh_amplitude, hsh_frequency, hsh_phase,
                           hsh_time_of_frequency, hsh_waveform,
                           reference_transfer_pulse)


def _spec(**kw):
    kw.setdefault("duration_s", 15e-6)
    kw.setdefault("bandwidth_hz", 1.5e6)
    return HshSpec(**kw)


def test_chirp_rate_construction():
    spec = _spec()
    c = spec.sech_cutoff
    denom = spec.duration_s * (1 - 2 * spec.edge_fraction
                               + 2 * spec.edge_fraction * np.tanh(c) / c)
    assert chirp_rate(spec) == pytest.approx(1.5e6 / denom)


def test_amplitude_profile():
    spec = _spec(peak_rabi_hz=1e6)
    t = np.linspace(0, spec.duration_s, 4001)
    amp = hsh_amplitude(spec, t)
    plateau = (t > spec.edge_s) & (t < spec.duration_s - spec.edge_s)
    assert np.all(amp[plateau] == 1e6)
    assert amp[0] == pytest.approx(1e6 / np.cosh(2.6), rel=1e-9)
    assert np.abs(amp).max() == 1e6


def test_frequency_monotone_and_span():
    spec = _spec()
    t = np.linspace(0, spec.duration_s, 20001)
    f = hsh_frequency(spec, t)
    assert f[0] == pytest.approx(-0.75e6, rel=1e-12)
    assert f[-1] == pytest.approx(0.75e6, rel=1e-12)
    assert np.all(np.diff(f) > 0)


def test_phase_is_frequency_integral():
    spec = _spec()
    t = np.linspace(0, spec.duration_s, 60001)
    dph = np.gradient(hsh_phase(spec, t), t) / (2 * np.pi)
    f = hsh_frequency(spec, t)
    assert np.max(np.abs(dph[2:-2] - f[2:-2])) < 1e-4 * spec.bandwidth_hz


def test_time_of_frequency_roundtrip():
    spec = _spec()
    f = np.linspace(-0.749e6, 0.749e6, 101)
    t = hsh_time_of_frequency(spec, f)
    assert np.max(np.abs(hsh_frequency(spec, t) - f)) < 1e-6 * spec.bandwidth_hz
    with pytest.raises(ValueError):
        hsh_time_of_frequency(spec, 0.8e6)


def test_zero_bandwidth_constant_frequency():
    spec = _spec(bandwidth_hz=0.0, peak_rabi_hz=1e5)
    t = np.linspace(0, spec.duration_s, 101)
    assert np.max(np.abs(hsh_frequency(spec, t))) == 0.0
    wf = hsh_waveform(spec, sample_rate_hz=64e6)
    assert np.abs(wf.samples).max() == pytest.approx(1e5)


def test_under_resolved_rate_rejected():
    with pytest.raises(ValueError, match="under-resolves"):
        hsh_waveform(_spec(), sample_rate_hz=1e6)


def test_chsh_crossing_separation_machine_precision():
    spec = ChshSpec(base=_spec(), separation_s=1.65e-6)
    f = np.linspace(-0.74e6, 0.74e6, 301)
    t1, t2 = chsh_crossing_times(spec, f)
    assert np.max(np.abs((t2 - t1) - 1.65e-6)) < 1e-15


def test_chsh_constructive_peak():
    # vanishing separation and zero phase: components add coherently
    base = _spec(peak_rabi_hz=2e5)
    spec = ChshSpec(base=base, separation_s=1e-9, relative_phase_rad=0.0)
    wf = chsh_waveform(spec)
    assert np.abs(wf.samples).max() == pytest.approx(2e5, rel=1e-3)


def test_chsh_destructive_midpoint():
    # at the temporal midpoint both components sit on the plateau with the
    # same instantaneous frequency sum; a pi relative phase cancels there
    base = _spec(peak_rabi_hz=2e5)
    spec = ChshSpec(base=base, separation_s=1.65e-6,
                    relative_phase_rad=np.pi)
    wf = chsh_waveform(spec)
    mid = (base.duration_s + spec.separation_s) / 2
    idx = int(round(mid * wf.sample_rate_hz))
    assert np.abs(wf.samples[idx]) < 1e-3 * 2e5


def test_chsh_beating_envelope():
    base = _spec(peak_rabi_hz=2e5)
    wf = chsh_waveform(ChshSpec(base=base, separation_s=1.65e-6))
    mag = np.abs(wf.samples)
    inner = mag[int(0.3 * mag.size): int(0.7 * mag.size)]
    assert inner.max() > 1.8e5 and inner.min() < 0.2e5


def test_half_transfer_rabi_formula():
    k = 2e11
    omega = half_transfer_rabi(k)
    assert 1 - np.exp(-np.pi**2 * omega**2 / k) == pytest.approx(0.5, abs=1e-12)


def test_reference_pulse_spec():
    spec = reference_transfer_pulse()
    assert spec.duration_s == 15e-6
    assert spec.bandwidth_hz == 1.5e6
    assert spec.peak_rabi_hz == pytest.approx(1.1 * np.sqrt(chirp_rate(spec)))


def test_waveform_csv_export(tmp_path):
    wf = hsh_waveform(_spec(), sample_rate_hz=64e6)
    path = tmp_path / "hsh.csv"
    wf.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t_s,re,im"
    assert len(lines) == wf.n_samples + 1


def test_zero_bandwidth_inverse_rejected():
    spec = ChshSpec(base=_spec(bandwidth_hz=0.0, peak_rabi_hz=1e5),
                    separation_s=1.65e-6)
    with pytest.raises(ValueError, match="zero-bandwidth"):
        hsh_time_of_frequency(spec.base, 0.0)
    with pytest.raises(ValueError, match="zero-bandwidth"):
        chsh_crossing_times(spec, 0.0)


# Piecewise oracle: the pulse written segment by segment (sech rise, linear
# plateau, mirrored fall), each segment integrated on its own.

def _piecewise(spec):
    te, c, T = spec.edge_s, spec.sech_cutoff, spec.duration_s
    k = chirp_rate(spec)
    a = k * te / c
    b2 = spec.bandwidth_hz / 2
    th = np.tanh(c)
    return te, c, T, k, a, b2, th, -b2 + a * th


def _piecewise_amplitude(spec, t):
    te, c, T, *_ = _piecewise(spec)
    out = np.full(t.shape, spec.rabi_hz)
    rise, fall = t < te, t > T - te
    out[rise] = spec.rabi_hz / np.cosh(c * (t[rise] - te) / te)
    out[fall] = spec.rabi_hz / np.cosh(c * (t[fall] - (T - te)) / te)
    return out


def _piecewise_frequency(spec, t):
    te, c, T, k, a, b2, th, f_lo = _piecewise(spec)
    rise, fall = t < te, t > T - te
    mid = ~(rise | fall)
    out = np.empty(t.shape)
    out[rise] = -b2 + a * (np.tanh(c * (t[rise] - te) / te) + th)
    out[mid] = f_lo + k * (t[mid] - te)
    out[fall] = b2 - a * (np.tanh(c * (T - te - t[fall]) / te) + th)
    return out


def _piecewise_phase(spec, t):
    te, c, T, k, a, b2, th, f_lo = _piecewise(spec)
    lc = np.log(np.cosh(c))

    def rise_int(u):
        return f_lo * u + a * (te / c) * (np.log(np.cosh(c * (u - te) / te)) - lc)

    rise, fall = t < te, t > T - te
    mid = ~(rise | fall)
    out = np.empty(t.shape)
    out[rise] = rise_int(t[rise])
    p_te = rise_int(te)
    out[mid] = p_te + f_lo * (t[mid] - te) + 0.5 * k * (t[mid] - te) ** 2
    p_fall = p_te + f_lo * (T - 2 * te) + 0.5 * k * (T - 2 * te) ** 2
    u = t[fall] - (T - te)
    out[fall] = p_fall + (b2 - a * th) * u + a * (te / c) * np.log(np.cosh(c * u / te))
    return 2 * np.pi * out


def _piecewise_time_of_frequency(spec, f):
    te, c, T, k, a, b2, th, f_lo = _piecewise(spec)
    lo, hi = f < f_lo, f > -f_lo
    mid = ~(lo | hi)
    out = np.empty(f.shape)
    out[mid] = te + (f[mid] - f_lo) / k
    out[lo] = te + (te / c) * np.arctanh((f[lo] + b2) / a - th)
    out[hi] = (T - te) - (te / c) * np.arctanh((b2 - f[hi]) / a - th)
    return out


@pytest.mark.parametrize("spec", [
    _spec(), reference_transfer_pulse(), reference_transfer_pulse(50e-6, 3e6)],
    ids=["default", "reference", "reference-50us-3MHz"])
def test_closed_forms_match_piecewise_oracle(spec):
    T, te, b = spec.duration_s, spec.edge_s, spec.bandwidth_hz
    joints = [x for j in (te, T - te)
              for x in (np.nextafter(j, 0), j, np.nextafter(j, T))]
    # the grid holds 0 and T, both joints and their neighbouring doubles
    t = np.sort(np.concatenate([np.linspace(0, T, 4001), joints]))
    f = np.sort(np.concatenate([np.linspace(-b / 2, b / 2, 4001),
                                hsh_frequency(spec, np.array(joints))]))
    for got, want, scale in (
            (hsh_amplitude(spec, t), _piecewise_amplitude(spec, t), spec.rabi_hz),
            (hsh_frequency(spec, t), _piecewise_frequency(spec, t), b),
            (hsh_phase(spec, t), _piecewise_phase(spec, t), 2 * np.pi * b * T),
            (hsh_time_of_frequency(spec, f), _piecewise_time_of_frequency(spec, f), T)):
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


# --- dynamical decoupling ---------------------------------------------------

def test_dd_xx_layout():
    dd = dd_sequence("XX", 20e-3, 4e-6)
    assert dd.n_pulses == 2
    assert np.array_equal(dd.intervals_s, [5e-3, 10e-3, 5e-3])
    assert np.all(dd.phases_rad == 0)


def test_dd_xy4_centers():
    dd = dd_sequence("XY4", 20e-3, 4e-6)
    assert np.array_equal(dd.intervals_s, [2.5e-3, 5e-3, 5e-3, 5e-3, 2.5e-3])
    assert np.allclose(dd.phases_rad, [0, np.pi / 2, 0, np.pi / 2])


def test_dd_xy8_is_xy4_plus_reverse():
    p = dd_phases("XY8")
    assert np.allclose(p[:4], dd_phases("XY4"))
    assert np.allclose(p[4:], dd_phases("XY4")[::-1])


def test_dd_xy16_phase_shift_rule():
    p = dd_phases("XY16")
    assert len(p) == 16
    assert np.allclose(p[8:], p[:8] + np.pi)


@pytest.mark.parametrize("kind", DD_KINDS)
def test_dd_intervals_exact(kind):
    # tau, 2 tau, ..., 2 tau, tau to the bit, tau = T/(2n), at every storage
    # time of a 1 ms grid, where differences of rounded pulse centres would
    # miss by an ulp at most of them
    for t_s in np.arange(1, 301) * 1e-3:
        dd = dd_sequence(kind, t_s, 1e-6)
        tau = t_s / (2 * dd.n_pulses)
        want = np.full(dd.n_pulses + 1, 2 * tau)
        want[[0, -1]] = tau
        assert np.array_equal(dd.intervals_s, want), t_s


def test_dd_overlap_rejected():
    with pytest.raises(ValueError):
        dd_sequence("XY16", 100e-6, 4e-6)


def test_dd_kind_normalization():
    assert np.array_equal(dd_sequence("xy-4", 20e-3, 4e-6).phases_rad,
                          dd_phases("XY4"))
    with pytest.raises(ValueError):
        dd_sequence("YY", 20e-3, 4e-6)


@pytest.mark.parametrize("kind", ["XX", "XY4", "XY8", "XY16"])
def test_ideal_pulse_train_composes_to_identity(kind):
    # product of ideal pi rotations about the listed in-plane axes returns
    # the z populations to themselves (even pulse count)
    u = np.eye(2, dtype=complex)
    for ph in dd_phases(kind):
        sig = np.array([[0, np.exp(-1j * ph)], [np.exp(1j * ph), 0]])
        u = (-1j * sig) @ u
    assert abs(u[0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(u[1, 0]) == pytest.approx(0.0, abs=1e-12)


def _envelope_at(spec, t):
    t = np.array([t])
    return (hsh_amplitude(spec, t) * np.exp(1j * hsh_phase(spec, t)))[0]


def _unclamped_end(duration_s, rate):
    # the last time of the grid before clamping: n / (n / duration_s)
    n = 2 * int(np.ceil(duration_s * rate / 2))
    return n / (n / duration_s)


def test_grid_end_sampled_when_rounding_overshoots():
    # at 882.88 MHz the last grid time n / rate rounds an ulp above the
    # duration; the final sample must still be the envelope's endpoint
    spec = reference_transfer_pulse()
    assert _unclamped_end(spec.duration_s, 882.88e6) > spec.duration_s
    wf = hsh_waveform(spec, 882.88e6)
    assert wf.samples[-1] == _envelope_at(spec, spec.duration_s) != 0


def test_delayed_chsh_copy_end_sampled_when_rounding_overshoots():
    # (15 us + 1.5 us) - 1.5 us rounds above 15 us: the delayed copy's end
    # is the grid's end and must be sampled, not zeroed
    base = reference_transfer_pulse()
    spec = ChshSpec(base=base, separation_s=1.5e-6, relative_phase_rad=1.0)
    total = base.duration_s + spec.separation_s
    assert total - spec.separation_s > base.duration_s
    for rate in (620e6, 882.88e6):
        wf = chsh_waveform(spec, rate)
        end = CHSH_AMPLITUDE_SCALE * (np.exp(1j * spec.relative_phase_rad)
                                      * _envelope_at(base, base.duration_s))
        assert wf.samples[-1] == end != 0


def test_grid_clamp_leaves_exact_grids_bitwise_equal():
    spec = reference_transfer_pulse()
    assert _unclamped_end(spec.duration_s, 884e6) <= spec.duration_s
    wf = hsh_waveform(spec, 884e6)
    t = np.arange(wf.n_samples) / wf.sample_rate_hz
    want = hsh_amplitude(spec, t) * np.exp(1j * hsh_phase(spec, t))
    assert np.array_equal(wf.samples, want)
