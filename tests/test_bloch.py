import numpy as np
import pytest

from afcmem.bloch import (_BLOCK_STEPS, _propagate_spinors,
                          _step_coefficients, bloch_propagate,
                          transfer_profile)
from afcmem.pulses import (NORM_BUDGET, ChshSpec, HshSpec, chirp_rate,
                           chsh_waveform, half_transfer_rabi, hsh_waveform,
                           recommended_sample_rate, reference_transfer_pulse)
from afcmem.waveform import Waveform


def _flat_pulse(rabi_hz, duration_s, sample_rate_hz):
    # even interval count so the grid covers the duration exactly
    n = int(round(duration_s * sample_rate_hz))
    if n % 2:
        n += 1
    rate = n / duration_s
    return Waveform(rate, 0.0, np.full(n + 1, rabi_hz, dtype=complex))


def test_zero_field_leaves_state():
    wf = Waveform(64e6, 0.0, np.zeros(65, dtype=complex))
    v = bloch_propagate(wf, 5e3)
    assert np.allclose(v, [0, 0, -1], atol=1e-12)


def test_resonant_pi_pulse_inverts():
    rabi = 120e3
    wf = _flat_pulse(rabi, 1 / (2 * rabi), 48e6)
    v = bloch_propagate(wf, 0.0)
    assert abs(v[2] - 1.0) < 1e-6


def test_initial_state_roundtrip():
    wf = Waveform(64e6, 0.0, np.zeros(33, dtype=complex))
    start = np.array([np.sqrt(0.5), np.sqrt(0.3), -np.sqrt(0.2)])
    v = bloch_propagate(wf, 0.0, initial_bloch=start)
    assert np.allclose(v, start, atol=1e-12)


def test_norm_conservation_per_pulse():
    wf = hsh_waveform(HshSpec(15e-6, 1.5e6))
    for d in (0.0, 0.6e6, 1.4e6):
        v = bloch_propagate(wf, d)
        assert abs(np.sqrt(np.sum(v**2)) - 1) < 1e-9


def test_non_finite_samples_rejected():
    wf = Waveform(64e6, 0.0, np.array([0.0, np.nan, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        bloch_propagate(wf, 0.0)


def test_halving_step_convergence():
    spec = HshSpec(15e-6, 1.5e6)
    from afcmem.pulses import recommended_sample_rate
    base = recommended_sample_rate(spec)
    d = np.array([0.0, 0.4e6])
    v1 = bloch_propagate(hsh_waveform(spec, base), d)
    v2 = bloch_propagate(hsh_waveform(spec, 2 * base), d)
    assert np.max(np.abs(v1 - v2)) < 1e-6


def test_flat_pi_pulse_bandwidth_is_narrow():
    # a 15 us resonant pi pulse addresses only tens of kHz
    rabi = 1 / (2 * 15e-6)
    wf = _flat_pulse(rabi, 15e-6, 16e6)
    prof = transfer_profile(wf, np.linspace(-0.5e6, 0.5e6, 201))
    assert 10e3 < prof.bandwidth_3db_hz < 150e3


def test_hsh_default_bandwidth():
    wf = hsh_waveform(HshSpec(15e-6, 1.5e6))
    prof = transfer_profile(wf, np.linspace(-1.5e6, 1.5e6, 121),
                            expected_bandwidth_hz=1.5e6)
    assert 1.2e6 <= prof.bandwidth_3db_hz <= 1.5e6


def test_reference_pulse_uniform_inversion():
    # inversion > 0.99 across 80% of the band for the tuned geometry
    spec = reference_transfer_pulse()
    wf = hsh_waveform(spec)
    grid = np.linspace(-0.6e6, 0.6e6, 61)
    prof = transfer_profile(wf, grid)
    assert prof.inversion.min() > 0.99


def test_reference_pulse_bandwidth():
    wf = hsh_waveform(reference_transfer_pulse())
    prof = transfer_profile(wf, np.linspace(-1.6e6, 1.6e6, 161))
    assert 1.2e6 <= prof.bandwidth_3db_hz <= 1.5e6


def test_chsh_component_half_transfer():
    spec = reference_transfer_pulse()
    omega = half_transfer_rabi(chirp_rate(spec))
    comp = HshSpec(spec.duration_s, spec.bandwidth_hz, peak_rabi_hz=omega,
                   edge_fraction=spec.edge_fraction,
                   sech_cutoff=spec.sech_cutoff)
    prof = transfer_profile(hsh_waveform(comp),
                            np.linspace(-0.6e6, 0.6e6, 41))
    assert prof.inversion.mean() == pytest.approx(0.5, abs=0.05)


def test_grid_span_validation():
    wf = hsh_waveform(HshSpec(15e-6, 1.5e6))
    with pytest.raises(ValueError):
        transfer_profile(wf, np.linspace(-1e6, 1e6, 11),
                         expected_bandwidth_hz=1.5e6)


# --- step maps as polynomials in the detuning --------------------------------

def _step_maps_reference(s0, sh, s1, u):
    """Test oracle: the RK4 step maps (a - 1, b) of shape (steps,
    detunings), written out with p = u^2 + |sh|^2 for reduced samples
    s0, sh, s1 (pi h s) and reduced detunings u (pi h d)."""
    s0, sh, s1 = (x[:, None] for x in (s0, sh, s1))
    sh2 = sh.real**2 + sh.imag**2
    p = u * u + sh2
    delta = s1 - s0
    am1 = ((-1j * u - u * u / 2)
           - (np.conj(sh) * s0 + sh2 + np.conj(s1) * sh) / 6
           + p * ((1j / 6) * u + u * u / 24 + np.conj(s1) * s0 / 24))
    b = ((-1j / 6) * (s0 + 4 * sh + s1) - u * (delta / 6)
         + p * ((1j / 12) * (s0 + s1) + u * (delta / 24)))
    return am1, b


@pytest.mark.parametrize("rate_factor", [1.0, 0.25])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_coefficients_match_step_maps(rate_factor, seed):
    # random envelope samples up to the reference pulse's peak Rabi
    # frequency and detunings up to 1.5 bandwidths, at its recommended
    # sample rate and a quarter of it; the error is held against the map's
    # first-order size |u| + |s|
    spec = reference_transfer_pulse()
    h = 2 / (rate_factor * recommended_sample_rate(spec))
    rng = np.random.default_rng(seed)
    s = (np.pi * h * spec.peak_rabi_hz) * (rng.uniform(-1, 1, (3, 400))
                                           + 1j * rng.uniform(-1, 1, (3, 400)))
    u = (np.pi * h * 1.5 * spec.bandwidth_hz) * rng.uniform(-1, 1, 150)
    coef = _step_coefficients(*s)
    assert coef.shape == (2, 400, 5)
    am1, b = coef @ (u ** np.arange(4, -1, -1)[:, None])
    want_am1, want_b = _step_maps_reference(*s, u)
    scale = np.abs(u) + np.abs(s).max(axis=0)[:, None]
    assert np.all(np.abs(am1 - want_am1) <= 1e-15 * scale)
    assert np.all(np.abs(b - want_b) <= 1e-15 * scale)


# --- block step maps against a step-by-step RK4 reference -----------------

def _rk4_reference(waveform, detunings, initial_bloch=(0.0, 0.0, -1.0)):
    """Test oracle: classical RK4 on dpsi/dt = A(t) psi, one step of two
    samples at a time, with A = -i pi [[d, s*], [s, -d]] as 2x2 matrices."""
    s = waveform.samples
    if s.size % 2 == 0:
        s = np.concatenate([s, [0j]])
    h = 2 / waveform.sample_rate_hz
    d = np.atleast_1d(np.asarray(detunings, dtype=float))
    x, y, z = initial_bloch
    psi = np.empty((d.size, 2), dtype=complex)
    psi[:, 0] = np.sqrt((1 + z) / 2)
    psi[:, 1] = np.sqrt((1 - z) / 2) * np.exp(-1j * np.arctan2(y, x))

    def a_of(sample):
        m = np.empty((d.size, 2, 2), dtype=complex)
        m[:, 0, 0], m[:, 0, 1] = d, np.conj(sample)
        m[:, 1, 0], m[:, 1, 1] = sample, -d
        return -1j * np.pi * m

    def apply(m, v):
        return np.einsum("nij,nj->ni", m, v)

    for k in range((s.size - 1) // 2):
        a0, ah, a1 = a_of(s[2 * k]), a_of(s[2 * k + 1]), a_of(s[2 * k + 2])
        k1 = apply(a0, psi)
        k2 = apply(ah, psi + h / 2 * k1)
        k3 = apply(ah, psi + h / 2 * k2)
        k4 = apply(a1, psi + h * k3)
        psi = psi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return psi[:, 0], psi[:, 1]


def _assert_spinors_agree(waveform, detunings, initial_bloch=(0.0, 0.0, -1.0)):
    ce, cg = _propagate_spinors(waveform, detunings, initial_bloch)
    re, rg = _rk4_reference(waveform, detunings, initial_bloch)
    assert np.max(np.abs(ce - re)) <= 1e-12
    assert np.max(np.abs(cg - rg)) <= 1e-12


def test_block_maps_match_reference_hsh():
    spec = reference_transfer_pulse()
    wf = hsh_waveform(spec, 200e6)
    _assert_spinors_agree(wf, np.linspace(-0.6, 0.6, 13) * spec.bandwidth_hz)


def test_block_maps_match_reference_chsh():
    spec = ChshSpec(base=reference_transfer_pulse(), separation_s=7e-6,
                    relative_phase_rad=1.0)
    wf = chsh_waveform(spec, 200e6)
    _assert_spinors_agree(wf, np.linspace(-0.6, 0.6, 13) * 1.5e6)


@pytest.mark.parametrize("steps", [
    1, _BLOCK_STEPS // 2 - 1, _BLOCK_STEPS // 2, _BLOCK_STEPS // 2 + 1,
    _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, 2 * _BLOCK_STEPS,
    2 * _BLOCK_STEPS + 1])
@pytest.mark.parametrize("even", [False, True])
def test_block_maps_match_reference_step_counts(steps, even):
    # odd sample counts take (n - 1) / 2 steps; even counts are padded by
    # one zero sample and take n / 2 steps.  A last block shorter than
    # _BLOCK_STEPS is filled up with identity maps
    n = 2 * steps if even else 2 * steps + 1
    rng = np.random.default_rng(steps + 1000 * even)
    samples = 0.8e6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    wf = Waveform(40e6, 0.0, samples)
    _assert_spinors_agree(wf, np.array([-1.1e6, -0.2e6, 0.0, 0.7e6]))


def test_block_maps_match_reference_scalar_detuning_and_initial_states():
    wf = hsh_waveform(reference_transfer_pulse(), 100e6)
    rng = np.random.default_rng(5)
    for _ in range(3):
        r = rng.standard_normal(3)
        r /= np.linalg.norm(r)
        d = float(rng.uniform(-0.9e6, 0.9e6))
        _assert_spinors_agree(wf, d, r)
        re, rg = _rk4_reference(wf, d, r)
        coh = 2 * re[0] * np.conj(rg[0])
        expected = [coh.real, coh.imag, abs(re[0]) ** 2 - abs(rg[0]) ** 2]
        v = bloch_propagate(wf, d, initial_bloch=r)
        assert v.shape == (3,)
        assert np.max(np.abs(v - expected)) <= 1e-12


def test_norm_drift_within_sample_rate_budget():
    spec = reference_transfer_pulse()
    grid = np.linspace(-0.4, 0.4, 11) * spec.bandwidth_hz
    prof = transfer_profile(hsh_waveform(spec), grid)
    assert 0 <= prof.norm_drift < 1e-8
    coarse = transfer_profile(
        hsh_waveform(spec, recommended_sample_rate(spec) / 4), grid)
    assert coarse.norm_drift > 10 * prof.norm_drift


@pytest.mark.parametrize("duration_s,bandwidth_hz", [
    (10e-6, 1.5e6), (15e-6, 1.5e6), (15e-6, 3e6), (30e-6, 1.5e6),
    (50e-6, 2e6)])
def test_sample_rate_budget_is_tight(duration_s, bandwidth_hz):
    # the recommended rate neither under- nor over-resolves: the drift over
    # the detunings it is sized for lies within a factor 4 of the budget
    spec = reference_transfer_pulse(duration_s, bandwidth_hz)
    grid = np.linspace(-1.5, 1.5, 61) * bandwidth_hz
    prof = transfer_profile(hsh_waveform(spec), grid)
    assert NORM_BUDGET / 4 <= prof.norm_drift <= NORM_BUDGET
