import inspect
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from afcmem.pulses import DDSequence, dd_sequence
from afcmem.config import DEFAULT_OU_SIGMA_HZ, DEFAULT_OU_TAU_C_S
from afcmem.spinbath import (ATOM_BLOCK, EPS, FWHM_TO_SIGMA,
                             MAX_LINE_PER_RABI, RESIDUAL_RTOL,
                             PulseErrorModel, SpinBathParams,
                             _box_muller, _coherence_stats, _ou_innovations,
                             _ou_interval_law, _phasor, _propagate, _pulse,
                             _residual_quadrature, efficiency_decay,
                             ou_sigma_for_t2, residual_excitation,
                             sample_ensemble, spin_echo_coherence)

PI_DURATION = 1 / (2 * 120e3)


def test_sample_ensemble_width():
    bath = SpinBathParams(inhom_fwhm_hz=60e3, n_atoms=100_000)
    d = sample_ensemble(bath, np.random.default_rng(1))
    assert d.std() == pytest.approx(60e3 * FWHM_TO_SIGMA, rel=0.02)
    assert 60e3 * FWHM_TO_SIGMA == pytest.approx(25.48e3, rel=1e-3)


def test_sample_ensemble_deterministic():
    bath = SpinBathParams(n_atoms=1000)
    assert np.array_equal(sample_ensemble(bath, np.random.default_rng(7)),
                          sample_ensemble(bath, np.random.default_rng(7)))


def test_zero_width_line():
    bath = SpinBathParams(inhom_fwhm_hz=0.0, n_atoms=100)
    assert np.all(sample_ensemble(bath, np.random.default_rng(1)) == 0)


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


def _bounds(h):
    """The times 0, h_0, h_0 + h_1, ... that the intervals h run between."""
    return np.concatenate([[0.0], np.cumsum(h)])


def _integral_covariance(h, sigma, tau):
    """Closed-form covariance of the integrals of a stationary OU value over
    consecutive intervals h: sigma^2 tau^2 e_j e_k exp(-gap_jk/tau) between
    two intervals a gap apart and, on the diagonal, b^2 + c^2 + (sigma tau
    e)^2 from _ou_interval_law, its series form of sigma^2 tau^2 2 (h/tau -
    e) that keeps its precision at small h/tau."""
    bounds = _bounds(h)
    start, end = bounds[:-1], bounds[1:]
    e, _, b, c = _ou_interval_law(h, sigma, tau)
    gap = np.maximum(start[:, None] - end[None, :],
                     start[None, :] - end[:, None])
    cov = sigma**2 * tau**2 * np.outer(e, e) * np.exp(-gap / tau)
    np.fill_diagonal(cov, b * b + c * c + (sigma * tau * e) ** 2)
    return cov


@pytest.mark.parametrize("u", [1e-7, 1e-4, 9e-3, 1.1e-2, 0.3, 4.0, 60.0])
@pytest.mark.parametrize("timing", ["cpmg", "uneven"])
def test_ou_innovations_match_integral_covariance(timing, u):
    # I = L z, z standard normal: row k of L holds tau e_k times the weights
    # of m on the earlier normals, and sqrt(S_k) on the diagonal.  L L^T is
    # the integrals' closed-form covariance, entry by entry; entries that
    # underflow below the smallest normal float are held to it absolutely.
    # Interval lengths u tau under XY16 timing (17 intervals, the outer two
    # halved) or uneven ones that straddle the law's series cutoff.
    sigma, tau = 7.0, 0.3
    if timing == "cpmg":
        h = u * tau * np.concatenate([[0.5], np.ones(15), [0.5]])
    else:
        h = u * tau * np.array([0.3, 1.0, 1.8, 1.3, 0.9, 0.7])
    mean_gain, root_s, gain, decay = _ou_innovations(h, sigma, tau)
    lower, weights = np.zeros((h.size, h.size)), np.zeros(h.size)
    for k in range(h.size):
        lower[k] = mean_gain[k] * weights
        lower[k, k] = root_s[k]
        weights *= decay[k]
        weights[k] += gain[k]
    want = _integral_covariance(h, sigma, tau)
    assert np.all(np.abs(lower @ lower.T - want)
                  <= 1e-12 * want + np.finfo(float).tiny)


def test_ou_variance_survives_cancellation():
    # intervals of 1e-30 s against a 3 s correlation time: the variance
    # update cancels to rounding error and must not go negative (a square
    # root of it would warn and give NaN).  The bath's phase over the train
    # is below 1e-9 rad, so the coherence is the quiet bath's to rounding.
    rabi = 1e150
    dd = dd_sequence("XY4", 1e-30, 1 / (2 * rabi))
    errors = PulseErrorModel(area_error=0.01, rf_rabi_hz=rabi)
    noisy, quiet = (spin_echo_coherence(
        dd, SpinBathParams(inhom_fwhm_hz=0.0, ou_sigma_hz=sigma,
                           ou_tau_c_s=DEFAULT_OU_TAU_C_S, n_atoms=100),
        errors, seed=1).coherence for sigma in (1e20, 0.0))
    assert noisy == pytest.approx(quiet, rel=0, abs=1e-15)


def test_box_muller_pair():
    # the normal pair that the kernel draws per two intervals, against
    # N(0, 1) each and against independence
    n = 400_000
    g1, g2 = _box_muller(np.random.default_rng(23), np.empty((3, n)))
    ks_1pct = special.kolmogi(0.01) / np.sqrt(n)
    for g in (g1, g2):
        cdf = special.ndtr(np.sort(g))
        steps = np.arange(1, n + 1) / n
        ks = max(np.max(steps - cdf), np.max(cdf - (steps - 1 / n)))
        assert ks < ks_1pct
        for edge in (3.0, 4.0):
            p = 2 * special.ndtr(-edge)
            count = np.count_nonzero(np.abs(g) > edge)
            assert abs(count - n * p) <= 4 * np.sqrt(n * p * (1 - p))
    assert abs(np.corrcoef(g1, g2)[0, 1]) <= 4 / np.sqrt(n)


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
    bounds = _bounds(dd_sequence("XY4", t_s, PI_DURATION).intervals_s)
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
    dd = DDSequence(phases_rad=np.zeros(len(centers)),
                    intervals_s=np.diff(bounds))
    res = spin_echo_coherence(dd, bath)
    assert res.coherence == pytest.approx(expected, rel=1e-12, abs=0)
    assert res.coherence_stderr == 0


@pytest.mark.parametrize("kind,t_s,tau_c,sigma", [
    ("XX", 0.05, 3.0, ou_sigma_for_t2(2, 0.070, 3.0)),
    ("XY4", 0.08, 3.0, ou_sigma_for_t2(2, 0.070, 3.0)),
    ("XY16", 0.2, 3.0, ou_sigma_for_t2(2, 0.070, 3.0)),
    ("XX", 0.05, 5e-3, 11.5),   # fast baths, where the Kalman gain
    ("XY4", 0.08, 2e-3, 11.9),  # reweights m most: coherence near 0.5
], ids=["XX-0.05", "XY4-0.08", "XY16-0.2", "XX-0.05-tau_c-5ms",
        "XY4-0.08-tau_c-2ms"])
def test_error_free_pulses_match_closed_form(kind, t_s, tau_c, sigma):
    # the Monte Carlo kernel under OU, with error-free pulses too short to
    # tilt against the line, against the exact ideal-pulse coherence
    bath = SpinBathParams(inhom_fwhm_hz=60e3, ou_sigma_hz=sigma,
                          ou_tau_c_s=tau_c, n_atoms=40_000)
    dd = dd_sequence(kind, t_s, PI_DURATION)
    errors = PulseErrorModel(area_error=0.0, phase_error_rad=0.0,
                             rf_rabi_hz=1e9)
    res = spin_echo_coherence(dd, bath, errors, seed=29)
    exact = spin_echo_coherence(dd, bath).coherence
    assert 0.1 < exact < 0.9
    assert res.coherence == pytest.approx(exact, abs=4 * res.coherence_stderr)


@pytest.mark.parametrize("kind,t_s", [("XX", 0.02), ("XY4", 0.02),
                                      ("XY8", 0.05), ("XY16", 0.1)])
def test_refocusing_identity(kind, t_s):
    bath = SpinBathParams(inhom_fwhm_hz=60e3, ou_sigma_hz=0.0,
                          n_atoms=4000)
    dd = dd_sequence(kind, t_s, PI_DURATION)
    res = spin_echo_coherence(dd, bath)
    assert abs(res.coherence - 1.0) < 1e-6
    assert res.eta_spin == pytest.approx(res.coherence**2)


def test_free_dephasing_time():
    bath = SpinBathParams(inhom_fwhm_hz=60e3, ou_sigma_hz=0.0)
    t_list = np.linspace(2e-6, 16e-6, 15)
    c = np.array([spin_echo_coherence(_oracle_sequence("none", t),
                                      bath).coherence for t in t_list])
    t_e = np.interp(np.exp(-1), c[::-1], t_list[::-1])
    # the exact curve, read off by linear interpolation on a 1 us grid
    assert t_e == pytest.approx(1 / (np.sqrt(2) * np.pi * 60e3 * FWHM_TO_SIGMA),
                                rel=3e-3)


def test_coherence_against_quadrature_oracle():
    # brute-force phase variance of the OU bath under the toggled sign
    # function, by direct quadrature of the covariance kernel
    sigma, tau_c, t_s = 40.0, 0.2, 0.05
    dd = dd_sequence("XY4", t_s, PI_DURATION)
    bounds = _bounds(dd.intervals_s)

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
                          ou_tau_c_s=tau_c, n_atoms=40_000)
    res = spin_echo_coherence(dd, bath)
    assert res.coherence == pytest.approx(expected,
                                          abs=4 * res.coherence_stderr + 0.01)
    # the slow-bath closed form of ou_sigma_for_t2, chi(T) = (2 pi sigma)^2
    # T^3 / (12 n^2 tau_c) for n = 4 pulses, agrees in this regime as well
    slow_bath_chi = (2 * np.pi * sigma) ** 2 * t_s**3 / (12 * 4**2 * tau_c)
    assert slow_bath_chi == pytest.approx(chi, rel=0.05)


def test_noise_parity_even_perfect_pulses():
    line = SpinBathParams(inhom_fwhm_hz=0.0, n_atoms=64)
    for kind in ("XX", "XY4", "XY8", "XY16"):
        dd = dd_sequence(kind, 0.1, PI_DURATION)
        assert residual_excitation(dd, PulseErrorModel(), line) < 1e-20


def test_area_error_suppression_vs_matrix_oracle():
    # independent 2x2 matrix-product oracle over the pulse list
    eps = 0.05
    line = SpinBathParams(inhom_fwhm_hz=0.0, n_atoms=16)
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
                          ou_tau_c_s=3.0, n_atoms=2000)
    dd = dd_sequence("XY4", 0.02, PI_DURATION)
    err = PulseErrorModel(area_error=0.01)
    a = spin_echo_coherence(dd, bath, err, seed=21)
    b = spin_echo_coherence(dd, bath, err, seed=21)
    assert a.coherence == b.coherence
    assert a.eta_spin == b.eta_spin


def test_pulse_errors_need_a_seed():
    # a sampled run draws only from the seed it is given: without one it
    # stops with a one-line error, while the closed-form ideal path needs none
    bath = SpinBathParams(ou_sigma_hz=100.0, ou_tau_c_s=3.0, n_atoms=200)
    dd = dd_sequence("XY4", 0.02, PI_DURATION)
    with pytest.raises(ValueError, match="needs a seed") as info:
        spin_echo_coherence(dd, bath, PulseErrorModel(area_error=0.01))
    assert "\n" not in str(info.value)
    assert 0 < spin_echo_coherence(dd, bath).coherence < 1


def test_atom_count_convergence():
    dd = dd_sequence("XY4", 0.1, PI_DURATION)
    sigma = ou_sigma_for_t2(4, 0.106, 3.0)
    vals = []
    for n, seed in ((10_000, 31), (20_000, 32)):
        bath = SpinBathParams(inhom_fwhm_hz=60e3, ou_sigma_hz=sigma,
                              ou_tau_c_s=3.0, n_atoms=n)
        res = spin_echo_coherence(dd, bath, PulseErrorModel(), seed=seed)
        vals.append((res.eta_spin, 2 * res.coherence * res.coherence_stderr))
    assert abs(vals[0][0] - vals[1][0]) < 4 * (vals[0][1] + vals[1][1]) + 1e-3


def test_efficiency_decay_short_time_limit():
    bath = SpinBathParams(inhom_fwhm_hz=60e3, ou_sigma_hz=100.0,
                          ou_tau_c_s=3.0, n_atoms=3000)
    rows = efficiency_decay("XY4", [0.002, 0.02], bath)
    assert rows[0][1] > 0.999
    with pytest.raises(ValueError):
        efficiency_decay("XY4", [0.02, 0.01], bath)


def test_efficiency_decay_pulse_train_at_error_model_rabi():
    # pi pulses last half a period of the default PulseErrorModel Rabi
    # frequency, 1/(2 x 120 kHz) = 4.17 us, and dd_sequence needs more than
    # 2 x 16 x 4.17 us = 133 us for XY16: 50 us is too short, 0.5 ms is not
    bath = SpinBathParams(n_atoms=100)
    with pytest.raises(ValueError, match="too short for the pulse train"):
        efficiency_decay("XY16", [5e-5], bath)
    assert len(efficiency_decay("XY16", [5e-4], bath)) == 1


def test_mims_self_consistency_xy4():
    # bath tuned for T2 = 106 ms under XY4: the e^-2 point of the fitted
    # curve lands near 106 ms
    from afcmem.fitting import fit_mims
    sigma = ou_sigma_for_t2(4, 0.106, 3.0)
    bath = SpinBathParams(inhom_fwhm_hz=60e3, ou_sigma_hz=sigma,
                          ou_tau_c_s=3.0, n_atoms=10_000)
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


def _ou_integrals_reference(rng, n, h, sigma, tau):
    """The OU integrals of n atoms over the intervals h, interval by
    interval, in the kernel's draw order: a libm Box-Muller pair per two
    intervals, each normal the innovation of one integral about its mean
    given the earlier ones, from a scalar Kalman filter on the OU value
    (mean m, variance p about it)."""
    p, m = sigma**2, np.zeros(n)
    integrals = []
    for k, h_k in enumerate(h):
        if k % 2 == 0:
            u1, u2 = rng.random((2, n))
            pair = np.sqrt(-2 * np.log1p(-u1)) * np.exp(-2j * np.pi * u2)
        z = pair.imag if k % 2 else pair.real
        e, a, b, c = _ou_interval_law(h_k, sigma, tau)
        s = (tau * e) ** 2 * p + b * b + c * c
        cov = (1 - e) * tau * e * p + a * b
        integrals.append(tau * e * m + np.sqrt(s) * z)
        m = (1 - e) * m + cov / np.sqrt(s) * z
        p = (1 - e) ** 2 * p + a * a - cov * cov / s
    return np.array(integrals)


def _ou_at_pulses_given_integrals(bounds, sigma, tau):
    """The stationary OU values x at the interior bounds, given the interval
    integrals I: x = weights @ I + factor @ w with w standard normal, from
    the dense joint Gaussian law of the values and the integrals."""
    h = np.diff(bounds)
    start, end, t = bounds[:-1], bounds[1:], bounds[1:-1]
    dist = np.maximum(start[None, :] - t[:, None], t[:, None] - end[None, :])
    cov_xi = sigma**2 * tau * -np.expm1(-h / tau) * np.exp(-dist / tau)
    cov_xx = sigma**2 * np.exp(-np.abs(t[:, None] - t[None, :]) / tau)
    weights = np.linalg.solve(_integral_covariance(h, sigma, tau), cov_xi.T).T
    cond = cov_xx - weights @ cov_xi.T
    return weights, np.linalg.cholesky((cond + cond.T) / 2)


def _propagate_reference(rng, static, bath, dd, errors, spinor,
                         pulse_rng=None):
    """Step-by-step reference for the pulse-error branch of _propagate: per
    interval the full free phase, its exponential, then the pulse unitary,
    each a fresh array; the same draws in the same order.  The pulse acts at
    the static detuning, as in the kernel, or, given pulse_rng, at the
    static detuning plus the OU value at the pulse, the model the kernel
    leaves out: those values are drawn from pulse_rng by their exact law
    given the same integrals."""
    h = dd.intervals_s
    bounds = _bounds(h)
    integrals = np.zeros((h.size, static.size))
    if bath.ou_sigma_hz > 0:
        integrals = _ou_integrals_reference(rng, static.size, h,
                                            bath.ou_sigma_hz, bath.ou_tau_c_s)
    delta = np.broadcast_to(static, (dd.n_pulses, static.size))
    if pulse_rng is not None:
        weights, factor = _ou_at_pulses_given_integrals(
            bounds, bath.ou_sigma_hz, bath.ou_tau_c_s)
        delta = delta + weights @ integrals + factor @ pulse_rng.standard_normal(
            (dd.n_pulses, static.size))
    up, dn = spinor
    for i, h_i in enumerate(h):
        phi = 2 * np.pi * static * h_i + 2 * np.pi * integrals[i]
        rot = np.exp(-0.5j * phi)
        up, dn = up * rot, dn * np.conj(rot)
        if i < dd.n_pulses:
            uuu, uud, udu, udd = _pulse_unitary_reference(dd.phases_rad[i],
                                                          delta[i], errors)
            up, dn = uuu * up + uud * dn, udu * up + udd * dn
    return up, dn


def _blocked_reference(rng, bath, dd, errors, pulse_rng=None):
    """The phasors 2 up dn* of spin_echo_coherence's draws through
    _propagate_reference: the static line at once, then consecutive slices
    of ATOM_BLOCK atoms, each drawing its interval pairs."""
    static = sample_ensemble(bath, rng)
    phasors = []
    for start in range(0, static.size, ATOM_BLOCK):
        up, dn = _propagate_reference(
            rng, static[start:start + ATOM_BLOCK], bath, dd, errors,
            (1 / np.sqrt(2), 1 / np.sqrt(2)), pulse_rng)
        phasors.append(2 * up * np.conj(dn))
    return np.concatenate(phasors)


def _oracle_sequence(name, t_s):
    if name == "uneven":
        # every interval length distinct, the static line still refocused
        return DDSequence(
            phases_rad=np.array([0.0, 1.9, 0.4, 3.3, 5.0]),
            intervals_s=t_s * np.array([0.05, 0.17, 0.30, 0.22, 0.15, 0.11]))
    if name == "none":
        return DDSequence(phases_rad=np.empty(0), intervals_s=np.array([t_s]))
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
                          ou_tau_c_s=3.0, n_atoms=n_atoms)
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

    # the public call draws block by block: the reference in the same order
    rng_ref = np.random.default_rng(11)
    want = abs(np.mean(_blocked_reference(rng_ref, bath, dd, errors)))
    rng = np.random.default_rng(11)
    res = spin_echo_coherence(dd, bath, errors, seed=rng)
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert res.coherence == pytest.approx(want, rel=1e-12, abs=0)

    if ou_sigma_hz == 0:  # the static line from the ground state
        rng = np.random.default_rng(13)
        up, _ = _propagate(rng, sample_ensemble(bath, rng), bath, dd, errors,
                           (0.0, 1.0))
        got = np.mean(np.abs(up) ** 2)
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


@pytest.mark.parametrize("kind,t_s", [("XX", 0.02), ("XY4", 0.02),
                                      ("XY8", 0.05), ("XY16", 0.1)])
def test_pulse_at_static_detuning_premise(kind, t_s):
    # The kernel's pulses act at the static detuning.  On the default bath,
    # about 100 Hz of OU against a 120 kHz Rabi frequency, the same integrals
    # with the OU value in every pulse, drawn from a second generator by its
    # law given those integrals, move the coherence by less than 1e-5 (here
    # 5.9e-7, 1.8e-6 and 6.0e-6 at 40k atoms).  XY16 100 ms shifts it by
    # 7.7e-6 over 3.2M atoms; its paired noise at 40k atoms, about 2e-6,
    # would leave the bound to chance, so it runs on 200k atoms (7.6e-6
    # here, noise about 0.9e-6).  The shift grows with the OU amplitude:
    # 2.1e-5 at 300 Hz under XY8 50 ms, 200k atoms.
    n_atoms = 200_000 if kind == "XY16" else 40_000
    bath = SpinBathParams(ou_sigma_hz=DEFAULT_OU_SIGMA_HZ,
                          ou_tau_c_s=DEFAULT_OU_TAU_C_S, n_atoms=n_atoms)
    dd = dd_sequence(kind, t_s, PI_DURATION)
    errors = PulseErrorModel(area_error=0.01)
    got = spin_echo_coherence(dd, bath, errors, seed=43).coherence
    shifted = abs(np.mean(_blocked_reference(
        np.random.default_rng(43), bath, dd, errors,
        pulse_rng=np.random.default_rng(44))))
    assert 0 < abs(got - shifted) <= 1e-5


# --- the reduced-turn phasor and the pulse, one tangent each ---------------

def test_phasor_against_libm_exponential():
    edges = [0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 7.0, -12.0, 1.5, -2.5,
             3.75, 1e6, -1e6, 1e6 + 0.5, -1e6 + 0.25, 999_999.5]
    rng = np.random.default_rng(0)
    turns = np.concatenate([edges, rng.uniform(-3, 3, 50_000),
                            rng.uniform(-1e6, 1e6, 50_000)])
    got = _phasor(turns.copy(), np.empty(turns.size),
                  np.empty(turns.size, dtype=complex))
    want = np.exp(-2j * np.pi * (turns - np.rint(turns)))
    assert np.abs(got - want).max() <= 2e-15
    assert np.abs(np.abs(got) - 1).max() <= 2e-15
    assert got[0] == 1 and got[5] == 1  # whole turns are exact


@pytest.mark.parametrize("name", ["none", "XX", "XY4", "XY16"])
def test_kernel_matches_reference_loop_at_large_phases(name):
    # A 1 MHz line stored for 1 s: free phases reach 1.5e6 turns, over a
    # hundred times any preset's.  Per interval the reference rounds
    # pi static h three times (2 pi, static, h) and the kernel rounds
    # static h / 2 once, so their rotations differ by at most
    # 2 eps pi |static| h; libm, the pulses and the spinor products are held
    # to 1e-14 per interval.
    t_s = 1.0
    dd = _oracle_sequence(name, t_s)
    bath = SpinBathParams(inhom_fwhm_hz=1e6, n_atoms=2000)
    errors = PulseErrorModel(area_error=0.03, phase_error_rad=0.02)
    up0 = np.full(bath.n_atoms, 1 / np.sqrt(2), dtype=complex)
    rng = np.random.default_rng(11)
    static = sample_ensemble(bath, rng)
    up, dn = _propagate(rng, static, bath, dd, errors, (up0, up0))
    rng_ref = np.random.default_rng(11)
    up_ref, dn_ref = _propagate_reference(
        rng_ref, sample_ensemble(bath, rng_ref), bath, dd, errors, (up0, up0))
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert np.abs(static).max() * t_s > 1e6  # phases far beyond a preset's
    bound = (2 * np.finfo(float).eps * np.pi * np.abs(static) * t_s
             + 1e-14 * (dd.n_pulses + 1))
    assert np.all(np.abs(up - up_ref) <= bound)
    assert np.all(np.abs(dn - dn_ref) <= bound)


def test_pulse_coefficients_against_libm():
    # x = pi/2 - pi g t_pi from the old form; the kernel's x/2 halves each
    # rounding exactly, so only the tangent form differs from libm here
    errors = PulseErrorModel(area_error=0.03, phase_error_rad=0.02)
    dd = dd_sequence("XY4", 0.02, PI_DURATION)
    omega = errors.rf_rabi_hz * (1 + errors.area_error)
    t_pi = 1 / (2 * errors.rf_rabi_hz)
    delta = np.concatenate([[0.0], np.linspace(-2e6, 2e6, 40_001),
                            np.random.default_rng(0).uniform(-2e6, 2e6, 10_000)])
    g = np.sqrt(np.square(delta) + omega**2)
    x = g * (-np.pi * t_pi) + np.pi / 2
    assert x.min() < -np.pi and np.abs(x[0]) < 0.1  # far detuned and resonant
    ca, sg = np.empty(delta.size, dtype=complex), np.empty(delta.size)
    drive = _pulse(dd, errors, -delta, ca, sg, np.empty(delta.size),
                   np.empty(delta.size))
    phases = dd.phases_rad + errors.phase_error_rad
    assert np.array_equal(drive, -1j * omega * np.exp(1j * phases))
    assert np.abs(ca.real - np.sin(x)).max() <= 1e-15
    assert np.abs(ca.imag + np.cos(x) * delta / g).max() <= 1e-15
    assert np.abs(sg * omega - np.cos(x) * omega / g).max() <= 1e-15


# --- the kernel's work arrays ----------------------------------------------

def _kernel_call(n_atoms, ou_sigma_hz, kind, spinor):
    """One _propagate call on a fixed draw; returns copies of (up, dn)."""
    dd = dd_sequence(kind, 0.05, PI_DURATION)
    bath = SpinBathParams(ou_sigma_hz=ou_sigma_hz, n_atoms=n_atoms)
    errors = PulseErrorModel(area_error=0.03, phase_error_rad=0.02)
    rng = np.random.default_rng(n_atoms)
    up, dn = _propagate(rng, sample_ensemble(bath, rng), bath, dd, errors,
                        spinor)
    return up.copy(), dn.copy()


def test_workspace_reuse_matches_fresh_workspace():
    # a narrow call between two wide ones, the wide ones without and with OU:
    # state carried from one call into the next would show as a bitwise
    # difference from a repeat of the same call
    calls = [(40_000, 30.0, "XY4", (1 / np.sqrt(2), 1 / np.sqrt(2))),
             (7, 0.0, "XY16", (0.0, 1.0)),
             (40_000, 0.0, "XY8", (0.0, 1.0))]
    first = [_kernel_call(*call) for call in calls]
    for call, (up, dn) in zip(calls, first):
        up_again, dn_again = _kernel_call(*call)
        assert np.array_equal(up, up_again) and np.array_equal(dn, dn_again)


def test_propagate_result_owned_by_caller():
    # the (up, dn) of one call survive a later call at another ensemble size
    bath = SpinBathParams(ou_sigma_hz=30.0, n_atoms=4000)
    errors = PulseErrorModel(area_error=0.03, phase_error_rad=0.02)
    rng = np.random.default_rng(1)
    up, dn = _propagate(rng, sample_ensemble(bath, rng), bath,
                        dd_sequence("XY4", 0.05, PI_DURATION), errors,
                        (1 / np.sqrt(2), 1 / np.sqrt(2)))
    kept = up.copy(), dn.copy()
    _kernel_call(7, 0.0, "XY16", (0.0, 1.0))
    assert np.array_equal(up, kept[0]) and np.array_equal(dn, kept[1])


def test_concurrent_calls_match_serial_calls():
    dd = dd_sequence("XY16", 0.1, PI_DURATION)
    bath = SpinBathParams(ou_sigma_hz=30.0, n_atoms=20_000)
    line = SpinBathParams(n_atoms=10_000)
    errors = PulseErrorModel(area_error=0.03, phase_error_rad=0.02)
    jobs = [lambda: spin_echo_coherence(dd, bath, errors, seed=8).coherence,
            lambda: spin_echo_coherence(dd, line, errors, seed=9).coherence]
    want = [job() for job in jobs]
    got = [[], []]
    start = threading.Barrier(2, timeout=30)

    def run(k):
        start.wait()
        got[k].extend(jobs[k]() for _ in range(3))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[want[0]] * 3, [want[1]] * 3]


def test_atom_blocks_match_one_unblocked_pass():
    # Without OU noise the blocks draw nothing after the static line: the
    # public call over two full blocks and a partial one equals, bit for
    # bit, one _propagate over the whole ensemble.  State leaking from one
    # block into the next, or a mishandled last block, would show.
    n = 2 * ATOM_BLOCK + 7
    bath = SpinBathParams(ou_sigma_hz=0.0, n_atoms=n)
    dd = dd_sequence("XY8", 0.05, PI_DURATION)
    errors = PulseErrorModel(area_error=0.03, phase_error_rad=0.02)
    res = spin_echo_coherence(dd, bath, errors, seed=5)
    rng = np.random.default_rng(5)
    up, dn = _propagate(rng, sample_ensemble(bath, rng), bath, dd, errors,
                        (1 / np.sqrt(2), 1 / np.sqrt(2)))
    phasors = np.conj(dn) * up * 2
    assert (res.coherence, res.coherence_stderr) == _coherence_stats(phasors)


def test_working_set_is_block_sized():
    # The static line (8 B per atom) and the phasors (16 B) grow with the
    # ensemble; the work rows, 144 B per atom, only up to ATOM_BLOCK atoms.
    # One unblocked pass over 200k atoms peaked at 169 B per atom.
    n = 200_000
    bath = SpinBathParams(ou_sigma_hz=DEFAULT_OU_SIGMA_HZ,
                          ou_tau_c_s=DEFAULT_OU_TAU_C_S, n_atoms=n)
    dd = dd_sequence("XY16", 0.1, PI_DURATION)
    tracemalloc.start()
    try:
        spin_echo_coherence(dd, bath, PulseErrorModel(area_error=0.01), seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * n


# --- residual excitation by quadrature over the static line ----------------

RESIDUAL_TRAINS = [("XX", 0.02), ("XY4", 0.02), ("XY8", 0.05), ("XY16", 0.1)]


@pytest.mark.parametrize("kind,t_s,want", [
    ("XX", 0.02, 7.61043e-2), ("XY4", 0.02, 2.96913e-3),
    ("XY8", 0.05, 5.53472e-3), ("XY16", 0.1, 2.11706e-4)])
def test_residual_quadrature_values(kind, t_s, want):
    # the default 60 kHz line under a 1 % area error, to six digits; the
    # Monte Carlo test below checks the same trains on 400k atoms
    dd = dd_sequence(kind, t_s, PI_DURATION)
    got = residual_excitation(dd, PulseErrorModel(area_error=0.01),
                              SpinBathParams())
    assert got == pytest.approx(want, rel=1e-5, abs=0)
    assert list(inspect.signature(residual_excitation).parameters) == [
        "dd", "errors", "line"]


def _residual_monte_carlo(dd, errors, line, n_atoms=400_000, batch=40_000):
    """Mean ground-state excitation of n_atoms static-line atoms through the
    interval kernel, in batches, and its standard error."""
    rng = np.random.default_rng(41)
    sigma = line.inhom_fwhm_hz * FWHM_TO_SIGMA
    pops = []
    for _ in range(n_atoms // batch):
        up, _ = _propagate(rng, sigma * rng.standard_normal(batch), line, dd,
                           errors, (0.0, 1.0))
        pops.append(np.square(np.abs(up)))
    pops = np.concatenate(pops)
    return pops.mean(), pops.std(ddof=1) / np.sqrt(n_atoms)


@pytest.mark.parametrize("fwhm", [20.0, 200.0, 2e3, 60e3])
@pytest.mark.parametrize("kind,t_s", RESIDUAL_TRAINS)
def test_residual_quadrature_against_monte_carlo(kind, t_s, fwhm):
    # narrow lines keep every harmonic (20 Hz), some (200 Hz), or the
    # average alone (2 and 60 kHz); the kernel samples the exact detunings
    dd = dd_sequence(kind, t_s, PI_DURATION)
    errors = PulseErrorModel(area_error=0.01, phase_error_rad=0.02)
    line = SpinBathParams(inhom_fwhm_hz=fwhm)
    mean, stderr = _residual_monte_carlo(dd, errors, line)
    assert residual_excitation(dd, errors, line) == pytest.approx(
        mean, abs=4 * stderr)


@pytest.mark.parametrize("kind,t_s", RESIDUAL_TRAINS)
def test_residual_quadrature_zero_width_matrix_oracle(kind, t_s):
    # every atom at delta = 0, where the free rotations are the identity
    dd = dd_sequence(kind, t_s, PI_DURATION)
    errors = PulseErrorModel(area_error=0.01, phase_error_rad=0.02)
    u = np.eye(2, dtype=complex)
    for ph in dd.phases_rad:
        uuu, uud, udu, udd = _pulse_unitary_reference(ph, 0.0, errors)
        u = np.array([[uuu, uud], [udu, udd]]) @ u
    got = residual_excitation(dd, errors, SpinBathParams(inhom_fwhm_hz=0.0))
    want = abs(u[0, 1]) ** 2  # XY16 leaves rounding alone, near 1e-33
    assert abs(got - want) <= 1e-12 * want + dd.n_pulses * EPS * np.sqrt(want)


@pytest.mark.parametrize("fwhm", [0.0, 20.0, 200.0, 2e3, 60e3])
@pytest.mark.parametrize("kind,t_s", RESIDUAL_TRAINS)
def test_residual_quadrature_rule_convergence(kind, t_s, fwhm):
    # the rule the call settles on, against one of step 1/128 (2561
    # nodes), to 1e-12 relative or, for values that the rounding of the
    # amplitudes near n eps dominates, to n eps sqrt(value)
    dd = dd_sequence(kind, t_s, PI_DURATION)
    errors = PulseErrorModel(area_error=0.01, phase_error_rad=0.02)
    line = SpinBathParams(inhom_fwhm_hz=fwhm)
    got = residual_excitation(dd, errors, line)
    fine = _residual_quadrature(dd, errors, line, 1 / 128)
    assert abs(got - fine) <= (RESIDUAL_RTOL * fine
                               + dd.n_pulses * EPS * np.sqrt(fine))


def test_residual_train_edges():
    errors = PulseErrorModel(area_error=0.01)
    line = SpinBathParams()
    assert residual_excitation(_oracle_sequence("none", 0.02), errors,
                               line) == 0.0
    with pytest.raises(ValueError, match="CPMG intervals"):
        residual_excitation(_oracle_sequence("uneven", 0.02), errors, line)
    # a train one ulp off CPMG timing is not one either
    dd = dd_sequence("XY4", 0.02, PI_DURATION)
    h = dd.intervals_s.copy()
    h[2] = np.nextafter(h[2], 1.0)
    with pytest.raises(ValueError, match="CPMG intervals"):
        residual_excitation(DDSequence(dd.phases_rad, h), errors, line)
    # the widest line a config may hold converges under the longest train
    # and extreme errors; one far wider exhausts the finest rule
    dd = dd_sequence("XY16", 0.1, PI_DURATION)
    for area, phase in ((0.49, 0.0), (-0.49, 3.0)):
        wide = residual_excitation(
            dd, PulseErrorModel(area_error=area, phase_error_rad=phase),
            SpinBathParams(inhom_fwhm_hz=MAX_LINE_PER_RABI * 120e3))
        assert 0 < wide < 1
    with pytest.raises(ValueError, match="did not converge at step 0.0078125"):
        residual_excitation(dd, errors, SpinBathParams(inhom_fwhm_hz=1e7))
