import numpy as np
import pytest
from scipy import integrate

from afcmem.pulses import DDSequence, dd_sequence
from afcmem.spinbath import (FWHM_TO_SIGMA, PulseErrorModel, SpinBathParams,
                             _ou_interval, _ou_interval_law, _propagate,
                             cpmg_ou_chi, efficiency_decay, free_induction,
                             ou_sigma_for_t2,
                             residual_excitation, sample_ensemble,
                             spin_echo_coherence)

PI_DURATION = 1 / (2 * 120e3)


def test_sample_ensemble_width():
    bath = SpinBathParams(inhom_fwhm_hz=60e3, n_atoms=100_000, seed=1)
    d = sample_ensemble(bath)
    assert d.std() == pytest.approx(60e3 * FWHM_TO_SIGMA, rel=0.02)
    assert 60e3 * FWHM_TO_SIGMA == pytest.approx(25.48e3, rel=1e-3)


def test_sample_ensemble_deterministic():
    bath = SpinBathParams(n_atoms=1000, seed=7)
    assert np.array_equal(sample_ensemble(bath), sample_ensemble(bath))


def test_zero_width_line():
    bath = SpinBathParams(inhom_fwhm_hz=0.0, n_atoms=100, seed=1)
    assert np.all(sample_ensemble(bath) == 0)


@pytest.mark.parametrize("u", [1e-7, 1e-4, 1e-3, 9e-3, 1.1e-2, 0.3, 4.0, 60.0])
def test_ou_interval_law_against_quadrature(u):
    # conditional OU covariance given x0, in units sigma = tau = 1:
    # K(s, t) = exp(-|s - t|) - exp(-(s + t)), integrated by quadrature
    def k(s, t):
        return -np.exp(-abs(s - t)) * np.expm1(-2 * min(s, t))

    tol = dict(epsabs=0, epsrel=1e-12)
    var_x = k(u, u)
    cov = integrate.quad(lambda t: k(u, t), 0, u, **tol)[0]
    var_i = 2 * integrate.dblquad(lambda t, s: k(s, t), 0, u, 0, lambda s: s,
                                  **tol)[0]
    mean_i = integrate.quad(lambda t: np.exp(-t), 0, u, **tol)[0]
    sigma, tau = 7.0, 0.3
    e, a, b, c = _ou_interval_law(u * tau, sigma, tau)
    close = dict(rel=1e-9, abs=0)  # the moments scale as u, u^2 and u^3
    assert 1 - e == pytest.approx(np.exp(-u), rel=1e-14)
    assert tau * e == pytest.approx(tau * mean_i, **close)
    assert a * a == pytest.approx(sigma**2 * var_x, **close)
    assert a * b == pytest.approx(sigma**2 * tau * cov, **close)
    assert b * b + c * c == pytest.approx(sigma**2 * tau**2 * var_i, **close)


@pytest.mark.parametrize("h,tau", [(3e-3, 3.0), (0.5, 1.0), (4.0, 1.0)])
def test_ou_interval_sample_moments(h, tau):
    # closed-form conditional moments of (end value, integral) given x0
    sigma, x0, n = 40.0, 25.0, 400_000
    e = -np.expm1(-h / tau)
    mean = np.array([(1 - e) * x0, tau * e * x0])
    var_x = sigma**2 * e * (2 - e)
    var_i = sigma**2 * tau**2 * (2 * (h / tau - e) - e**2)
    cov = sigma**2 * tau * e**2
    x1, integral = _ou_interval(np.random.default_rng(17), np.full(n, x0),
                                h, sigma, tau, np.empty((4, n)))
    # 4-sigma statistical bounds on each estimate
    assert x1.mean() == pytest.approx(mean[0], abs=4 * np.sqrt(var_x / n))
    assert integral.mean() == pytest.approx(mean[1], abs=4 * np.sqrt(var_i / n))
    assert x1.var() == pytest.approx(var_x, rel=4 * np.sqrt(2 / n))
    assert integral.var() == pytest.approx(var_i, rel=4 * np.sqrt(2 / n))
    r = cov / np.sqrt(var_x * var_i)
    assert np.corrcoef(x1, integral)[0, 1] == pytest.approx(
        r, abs=4 * (1 - r * r) / np.sqrt(n))


def ou_filter_chi(bounds, sigma, tau):
    """Exact phase variance of a stationary OU bath under a sign that
    toggles at the interior bounds: the covariance kernel integrated over
    every pair of constant-sign pieces in closed form."""
    h = np.diff(bounds)
    e = -np.expm1(-h / tau)
    s = (-1.0) ** np.arange(h.size)
    total = np.sum(2 * tau**2 * (h / tau - e))
    for j in range(h.size):
        for k in range(j + 1, h.size):
            total += (2 * s[j] * s[k] * tau**2 * e[j] * e[k]
                      * np.exp(-(bounds[k] - bounds[j + 1]) / tau))
    return 0.5 * (2 * np.pi * sigma) ** 2 * total


def test_ou_filter_chi_matches_kernel_quadrature():
    # the closed-form oracle itself, against a midpoint grid of the kernel
    sigma, tau_c, t_s = 40.0, 0.2, 0.05
    bounds = np.concatenate([[0.0], dd_sequence("XY4", t_s, PI_DURATION).centers_s,
                             [t_s]])
    n = 2000
    tg = (np.arange(n) + 0.5) * (t_s / n)
    s = (-1.0) ** np.searchsorted(bounds[1:-1], tg, side="right")
    cov = (2 * np.pi * sigma) ** 2 * np.exp(-np.abs(tg[:, None] - tg[None, :]) / tau_c)
    chi = 0.5 * (s[:, None] * s[None, :] * cov).sum() * (t_s / n) ** 2
    assert ou_filter_chi(bounds, sigma, tau_c) == pytest.approx(chi, rel=1e-4)


@pytest.mark.parametrize("centers,t_s,fwhm", [
    ([0.004, 0.013, 0.019, 0.031, 0.044], 0.05, 60.0),  # uneven, odd count
    ([0.006, 0.021, 0.030, 0.043], 0.05, 60.0),         # uneven, even count
    ([], 0.012, 5.0),                                   # free induction
])
def test_coherence_against_filter_function(centers, t_s, fwhm):
    # ideal pulses at arbitrary, non-CPMG times: the phase is Gaussian, so
    # the coherence is exp(-chi_ou - chi_static) exactly
    sigma, tau_c = 12.0, 0.02
    bounds = np.concatenate([[0.0], centers, [t_s]])
    signs = (-1.0) ** np.arange(len(bounds) - 1)
    static_sd = fwhm * FWHM_TO_SIGMA * np.dot(signs, np.diff(bounds))
    chi = ou_filter_chi(bounds, sigma, tau_c) + 0.5 * (2 * np.pi * static_sd) ** 2
    expected = np.exp(-chi)
    assert 0.2 < expected < 0.8
    bath = SpinBathParams(inhom_fwhm_hz=fwhm, ou_sigma_hz=sigma,
                          ou_tau_c_s=tau_c)
    if centers:
        dd = DDSequence("XY4", t_s, phases_rad=np.zeros(len(centers)),
                        centers_s=np.array(centers))
        res = spin_echo_coherence(dd, bath)
        assert res.coherence == pytest.approx(expected, rel=1e-12, abs=0)
        assert res.coherence_stderr == 0
    else:
        assert free_induction(bath, [t_s])[0] == pytest.approx(
            expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("kind,t_s", [("XX", 0.05), ("XY4", 0.08),
                                      ("XY16", 0.2)])
def test_error_free_pulses_match_closed_form(kind, t_s):
    # the Monte Carlo kernel under OU, with error-free pulses too short to
    # tilt against the line, against the exact ideal-pulse coherence
    bath = SpinBathParams(inhom_fwhm_hz=60e3,
                          ou_sigma_hz=ou_sigma_for_t2(2, 0.070, 3.0),
                          ou_tau_c_s=3.0, n_atoms=40_000, seed=29)
    dd = dd_sequence(kind, t_s, PI_DURATION)
    errors = PulseErrorModel(area_error=0.0, phase_error_rad=0.0,
                             rf_rabi_hz=1e9)
    res = spin_echo_coherence(dd, bath, errors)
    exact = spin_echo_coherence(dd, bath).coherence
    assert 0.1 < exact < 0.9
    assert res.coherence == pytest.approx(exact, abs=4 * res.coherence_stderr)


@pytest.mark.parametrize("kind,t_s", [("XX", 0.02), ("XY4", 0.02),
                                      ("XY8", 0.05), ("XY16", 0.1)])
def test_refocusing_identity(kind, t_s):
    bath = SpinBathParams(inhom_fwhm_hz=60e3, ou_sigma_hz=0.0,
                          n_atoms=4000, seed=2)
    dd = dd_sequence(kind, t_s, PI_DURATION)
    res = spin_echo_coherence(dd, bath)
    assert abs(res.coherence - 1.0) < 1e-6
    assert res.eta_spin == pytest.approx(res.coherence**2)


def test_free_dephasing_time():
    bath = SpinBathParams(inhom_fwhm_hz=60e3, ou_sigma_hz=0.0)
    t_list = np.linspace(2e-6, 16e-6, 15)
    c = free_induction(bath, t_list)
    t_e = np.interp(np.exp(-1), c[::-1], t_list[::-1])
    # the exact curve, read off by linear interpolation on a 1 us grid
    assert t_e == pytest.approx(1 / (np.sqrt(2) * np.pi * 60e3 * FWHM_TO_SIGMA),
                                rel=3e-3)


def test_coherence_against_quadrature_oracle():
    # brute-force phase variance of the OU bath under the toggled sign
    # function, by direct quadrature of the covariance kernel
    sigma, tau_c, t_s = 40.0, 0.2, 0.05
    dd = dd_sequence("XY4", t_s, PI_DURATION)
    bounds = np.concatenate([[0.0], dd.centers_s, [t_s]])

    def sign_of(t):
        return (-1.0) ** np.searchsorted(bounds[1:-1], t, side="right")

    n = 600
    tg = (np.arange(n) + 0.5) * (t_s / n)
    s = sign_of(tg)
    cov = (2 * np.pi * sigma) ** 2 * np.exp(
        -np.abs(tg[:, None] - tg[None, :]) / tau_c)
    chi = 0.5 * (s[:, None] * s[None, :] * cov).sum() * (t_s / n) ** 2
    expected = np.exp(-chi)

    bath = SpinBathParams(inhom_fwhm_hz=60e3, ou_sigma_hz=sigma,
                          ou_tau_c_s=tau_c, n_atoms=40_000, seed=9)
    res = spin_echo_coherence(dd, bath)
    assert res.coherence == pytest.approx(expected,
                                          abs=4 * res.coherence_stderr + 0.01)
    # the slow-bath closed form agrees in this regime as well
    assert cpmg_ou_chi(t_s, 4, sigma, tau_c) == pytest.approx(chi, rel=0.05)


def test_noise_parity_even_perfect_pulses():
    line = SpinBathParams(inhom_fwhm_hz=0.0, n_atoms=64, seed=1)
    for kind in ("XX", "XY4", "XY8", "XY16"):
        dd = dd_sequence(kind, 0.1, PI_DURATION)
        assert residual_excitation(dd, PulseErrorModel(), line) < 1e-20


def test_area_error_suppression_vs_matrix_oracle():
    # independent 2x2 matrix-product oracle over the pulse list
    eps = 0.05
    line = SpinBathParams(inhom_fwhm_hz=0.0, n_atoms=16, seed=1)
    got = {}
    want = {}
    for kind in ("XX", "XY4"):
        dd = dd_sequence(kind, 0.02, PI_DURATION)
        got[kind] = residual_excitation(dd, PulseErrorModel(area_error=eps), line)
        u = np.eye(2, dtype=complex)
        theta = np.pi * (1 + eps)
        for ph in dd.phases_rad:
            axis = np.array([[0, np.exp(-1j * ph)], [np.exp(1j * ph), 0]])
            u = (np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * axis) @ u
        want[kind] = abs(u[0, 1]) ** 2
    for kind in got:
        assert got[kind] == pytest.approx(want[kind], rel=1e-9)
    assert got["XY4"] < got["XX"]


def test_spin_echo_determinism():
    bath = SpinBathParams(inhom_fwhm_hz=60e3, ou_sigma_hz=100.0,
                          ou_tau_c_s=3.0, n_atoms=2000, seed=21)
    dd = dd_sequence("XY4", 0.02, PI_DURATION)
    err = PulseErrorModel(area_error=0.01)
    a = spin_echo_coherence(dd, bath, err)
    b = spin_echo_coherence(dd, bath, err)
    assert a.coherence == b.coherence
    assert a.eta_spin == b.eta_spin


def test_atom_count_convergence():
    dd = dd_sequence("XY4", 0.1, PI_DURATION)
    sigma = ou_sigma_for_t2(4, 0.106, 3.0)
    vals = []
    for n, seed in ((10_000, 31), (20_000, 32)):
        bath = SpinBathParams(inhom_fwhm_hz=60e3, ou_sigma_hz=sigma,
                              ou_tau_c_s=3.0, n_atoms=n, seed=seed)
        res = spin_echo_coherence(dd, bath, PulseErrorModel())
        vals.append((res.eta_spin, 2 * res.coherence * res.coherence_stderr))
    assert abs(vals[0][0] - vals[1][0]) < 4 * (vals[0][1] + vals[1][1]) + 1e-3


def test_efficiency_decay_short_time_limit():
    bath = SpinBathParams(inhom_fwhm_hz=60e3, ou_sigma_hz=100.0,
                          ou_tau_c_s=3.0, n_atoms=3000, seed=12)
    rows = efficiency_decay("XY4", [0.002, 0.02], bath)
    assert rows[0][1] > 0.999
    with pytest.raises(ValueError):
        efficiency_decay("XY4", [0.02, 0.01], bath)


def test_efficiency_decay_pulse_train_at_error_model_rabi():
    # 16 pi pulses of 50 us need more than 0.5 ms of storage
    bath = SpinBathParams(n_atoms=100, seed=1)
    with pytest.raises(ValueError, match="too short for the pulse train"):
        efficiency_decay("XY16", [5e-4], bath,
                         errors=PulseErrorModel(rf_rabi_hz=10e3))
    assert len(efficiency_decay("XY16", [5e-4], bath)) == 1


def test_mims_self_consistency_xy4():
    # bath tuned for T2 = 106 ms under XY4: the e^-2 point of the fitted
    # curve lands near 106 ms
    from afcmem.fitting import fit_mims
    sigma = ou_sigma_for_t2(4, 0.106, 3.0)
    bath = SpinBathParams(inhom_fwhm_hz=60e3, ou_sigma_hz=sigma,
                          ou_tau_c_s=3.0, n_atoms=10_000, seed=13)
    t_list = 0.106 * np.array([0.4, 0.6, 0.8, 1.0, 1.2, 1.4])
    rows = efficiency_decay("XY4", t_list, bath)
    fit = fit_mims([r[0] for r in rows], [r[1] for r in rows])
    assert fit.params[1] == pytest.approx(0.106, rel=0.08)


# --- the Cayley-Klein kernel against the per-interval reference loop --------

def _pulse_unitary_reference(phase_rad, delta_hz, errors):
    """2x2 rotation of a nominal pi pulse at the given drive phase acting on
    a spin detuned by delta_hz, with area and phase errors applied."""
    omega = errors.rf_rabi_hz * (1 + errors.area_error)
    gen = np.hypot(omega, delta_hz)
    t_p = 1.0 / (2.0 * errors.rf_rabi_hz)  # nominal pi duration
    theta = 2 * np.pi * gen * t_p
    ph = phase_rad + errors.phase_error_rad
    nx = omega * np.cos(ph) / gen
    ny = omega * np.sin(ph) / gen
    nz = delta_hz / gen
    c = np.cos(theta / 2)
    s = np.sin(theta / 2)
    return (c - 1j * s * nz, -1j * s * (nx - 1j * ny),
            -1j * s * (nx + 1j * ny), c + 1j * s * nz)


def _propagate_reference(rng, static, bath, dd, errors, spinor):
    """Step-by-step reference for the pulse-error branch of _propagate: per
    interval the full free phase, its exponential, then the pulse unitary,
    each a fresh array; the same draws in the same order."""
    use_ou = bath.ou_sigma_hz > 0
    ou = bath.ou_sigma_hz * rng.standard_normal(static.size) if use_ou else 0.0
    up, dn = spinor
    boundaries = np.concatenate([[0.0], dd.centers_s, [dd.total_time_s]])
    for i, h in enumerate(np.diff(boundaries)):
        phi = 2 * np.pi * static * h
        if use_ou:
            tau = bath.ou_tau_c_s
            e, a, b, c = _ou_interval_law(h, bath.ou_sigma_hz, tau)
            g1, g2 = rng.standard_normal((2, static.size))
            ou, integral = (1 - e) * ou + a * g1, tau * e * ou + b * g1 + c * g2
            phi += 2 * np.pi * integral
        rot = np.exp(-0.5j * phi)
        up, dn = up * rot, dn * np.conj(rot)
        if i < dd.n_pulses:
            uuu, uud, udu, udd = _pulse_unitary_reference(dd.phases_rad[i],
                                                          static + ou, errors)
            up, dn = uuu * up + uud * dn, udu * up + udd * dn
    return up, dn


def _oracle_sequence(name, t_s):
    if name == "uneven":
        # every interval length distinct, the static line still refocused:
        # lengths 0.05, 0.17, 0.30, 0.22, 0.15, 0.11 of t_s
        centers = t_s * np.array([0.05, 0.22, 0.52, 0.74, 0.89])
        return DDSequence("XY4", t_s, centers_s=centers,
                          phases_rad=np.array([0.0, 1.9, 0.4, 3.3, 5.0]))
    if name == "none":
        return DDSequence("none", t_s, phases_rad=np.empty(0),
                          centers_s=np.empty(0))
    return dd_sequence(name, t_s, PI_DURATION)


@pytest.mark.parametrize("ou_sigma_hz", [0.0, 30.0])
@pytest.mark.parametrize("n_atoms", [1, 7, 40_000])
@pytest.mark.parametrize("name", ["XX", "XY4", "XY8", "XY16", "uneven", "none"])
def test_kernel_matches_reference_loop(name, n_atoms, ou_sigma_hz):
    # Free phases of 0.2 s at 4 line sigmas reach 6e4 rad, which double
    # precision holds to 1e-11 rad in either loop.  Large ensembles average
    # that away from a refocused coherence; a few atoms store for 20 ms, and
    # free induction, which nothing refocuses, runs for the line's T2*.
    t_s = 8e-6 if name == "none" else 0.2 if n_atoms > 1000 else 0.02
    dd = _oracle_sequence(name, t_s)
    bath = SpinBathParams(inhom_fwhm_hz=60e3, ou_sigma_hz=ou_sigma_hz,
                          ou_tau_c_s=3.0, n_atoms=n_atoms, seed=5)
    errors = PulseErrorModel(area_error=0.03, phase_error_rad=0.02)

    def reference(rng, spinor_of):
        static = sample_ensemble(bath, rng)
        return _propagate_reference(rng, static, bath, dd, errors,
                                    spinor_of(n_atoms))

    def equal(n):
        return (np.full(n, 1 / np.sqrt(2), dtype=complex),) * 2

    rng_ref = np.random.default_rng(11)
    up_ref, dn_ref = reference(rng_ref, equal)
    rng = np.random.default_rng(11)
    static = sample_ensemble(bath, rng)
    up, dn = _propagate(rng, static, bath, dd, errors, equal(n_atoms))
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert np.abs(up - up_ref).max() <= 1e-10
    assert np.abs(dn - dn_ref).max() <= 1e-10

    rng = np.random.default_rng(11)  # the same draws through the public call
    res = spin_echo_coherence(dd, bath, errors, seed=rng)
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    want = abs(np.mean(2 * up_ref * np.conj(dn_ref)))
    assert res.coherence == pytest.approx(want, rel=1e-12, abs=0)

    if ou_sigma_hz == 0:  # residual_excitation runs the static line only
        got = residual_excitation(dd, errors, bath, seed=13)
        up_ref, _ = reference(np.random.default_rng(13), lambda n: (
            np.zeros(n, dtype=complex), np.ones(n, dtype=complex)))
        want = np.mean(np.abs(up_ref) ** 2)
        if n_atoms > 1000:
            assert got == pytest.approx(want, rel=1e-12, abs=0)
        else:
            # Robust trains leave amplitudes made of canceling terms that
            # carry the phase rounding above; with few atoms nothing averages
            # it, so the rms amplitude is held to the spinor bound.
            assert np.sqrt(got) == pytest.approx(np.sqrt(want), abs=1e-10)
