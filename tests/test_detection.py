import numpy as np
import pytest

from afcmem.detection import (CountHistogram, DetectionChain, ModeSums,
                              metrics, mode_sums, noise_floor_model,
                              simulate_counts, table_metrics)

CHAIN = DetectionChain()  # 0.57 x 0.185


def _flat_flux(photons_per_mode, t_m=1.65e-6, n_modes=6, dt=None):
    if dt is None:
        dt = 165e-9 / 8
    n = int(round(n_modes * t_m / dt))
    flux = np.full(n, photons_per_mode / t_m)
    return flux, 1.0 / dt


def test_zero_flux_zero_counts():
    flux, rate = _flat_flux(0.0)
    hist = simulate_counts(flux, rate, CHAIN, 1000, seed=1, bin_width_s=165e-9)
    assert hist.counts.sum() == 0


def test_negative_flux_rejected():
    with pytest.raises(ValueError):
        simulate_counts(np.array([-1.0]), 1e6, CHAIN, 10, seed=1,
                        bin_width_s=165e-9)


def test_mean_counts_match_chain():
    # 0.1 photons per mode through 0.57 x 0.185 -> 0.010545 counts/trial/mode
    n_trials = 100_000
    flux, rate = _flat_flux(0.1, n_modes=1)
    hist = simulate_counts(flux, rate, CHAIN, n_trials, seed=2,
                           bin_width_s=165e-9)
    mean = hist.counts.sum() / n_trials
    expect = 0.1 * 0.57 * 0.185
    sigma = np.sqrt(expect / n_trials)
    assert abs(mean - expect) < 3 * sigma


def test_poisson_variance():
    # equal-mean bins: across-bin variance of counts matches the mean
    flux = np.full(4000, 1e5)
    hist = simulate_counts(flux, 1e8, CHAIN, 100, seed=3, bin_width_s=2e-7)
    counts = hist.counts.astype(float)
    mean = counts.mean()
    var = counts.var(ddof=1)
    n = counts.size
    assert abs(var - mean) < 3 * mean * np.sqrt(2.0 / n)


def test_dark_counts():
    chain = DetectionChain(dark_rate_hz=1e4)
    flux, rate = _flat_flux(0.0, n_modes=1)
    hist = simulate_counts(flux, rate, chain, 100_000, seed=4,
                           bin_width_s=165e-9)
    per_bin = hist.counts.mean() / 100_000
    assert per_bin == pytest.approx(1e4 * 165e-9, rel=0.1)


def test_dark_counts_use_realised_bin_width():
    # at 1 GHz a 2.4 ns bin rounds to 2 samples: dark counts accrue over 2 ns
    chain = DetectionChain(dark_rate_hz=1e6)
    n_trials = 1_000_000
    hist = simulate_counts(np.zeros(200), 1e9, chain, n_trials, seed=5,
                           bin_width_s=2.4e-9)
    assert hist.bin_width_s == pytest.approx(2e-9, rel=1e-12)
    expect = 1e6 * 2e-9
    mean = hist.counts.mean() / n_trials
    sigma = np.sqrt(expect / (n_trials * hist.n_bins))
    assert abs(mean - expect) < 5 * sigma


def test_mode_sums_single_mode(tmp_path):
    hist = CountHistogram(bin_width_s=165e-9,
                          counts=np.array([10, 20, 30] + [0] * 7),
                          n_trials=1000)
    out = mode_sums(hist, 1.65e-6, 1, CHAIN)
    assert out.values[0] == pytest.approx(60 / (1000 * 0.57 * 0.185))
    assert out.raw_counts[0] == 60
    # two 3-bin modes on an 8-bin histogram: the trailing bins are ignored
    hist = CountHistogram(bin_width_s=0.5e-6,
                          counts=np.array([1, 2, 3, 40, 50, 60, 700, 800]),
                          n_trials=10)
    out = mode_sums(hist, 1.5e-6, 2, CHAIN)
    assert list(out.raw_counts) == [1 + 2 + 3, 40 + 50 + 60]
    norm = 10 * CHAIN.total_transmission
    assert out.values == pytest.approx([6 / norm, 150 / norm])
    assert out.errors == pytest.approx([np.sqrt(6) / norm,
                                        np.sqrt(150) / norm])
    # counts beyond 32 bits are written as exact integers
    counts = np.array([2**31 + 1, 0, 2**40], dtype=np.int64)
    CountHistogram(bin_width_s=165e-9, counts=counts,
                   n_trials=1).to_csv(tmp_path / "hist.csv")
    assert (tmp_path / "hist.csv").read_text() == (
        "bin_start_s,counts\n0.0,2147483649\n1.65e-07,0\n"
        "3.3e-07,1099511627776\n")


def test_mode_sums_validation():
    hist = CountHistogram(bin_width_s=165e-9,
                          counts=np.zeros(40, dtype=int), n_trials=10)
    with pytest.raises(ValueError, match="divide"):
        mode_sums(hist, 1.6e-6, 2, CHAIN)
    with pytest.raises(ValueError, match="span"):
        mode_sums(hist, 1.65e-6, 9, CHAIN)


def test_unbiasedness():
    injected = 0.3
    flux, rate = _flat_flux(injected, n_modes=6)
    hist = simulate_counts(flux, rate, CHAIN, 50_000, seed=6,
                           bin_width_s=165e-9)
    sums = mode_sums(hist, 1.65e-6, 6, CHAIN)
    for v, e in zip(sums.values, sums.errors):
        assert abs(v - injected) < 3 * e


def test_errors_shrink_with_trials():
    flux, rate = _flat_flux(0.3, n_modes=6)
    h1 = simulate_counts(flux, rate, CHAIN, 10_000, seed=7, bin_width_s=165e-9)
    h2 = simulate_counts(flux, rate, CHAIN, 1_000_000, seed=8,
                         bin_width_s=165e-9)
    e1 = mode_sums(h1, 1.65e-6, 6, CHAIN).errors.mean()
    e2 = mode_sums(h2, 1.65e-6, 6, CHAIN).errors.mean()
    assert e1 / e2 == pytest.approx(10.0, rel=0.2)


def _sums(values, errors=None):
    values = np.asarray(values, dtype=float)
    if errors is None:
        errors = np.zeros_like(values)
    return ModeSums(values=values, errors=np.asarray(errors, dtype=float),
                    raw_counts=np.zeros_like(values, dtype=np.int64))


def test_metrics_reference_rows():
    # the summary-table identities: snr = mu eta / p, mu1 = p / eta
    rows = [
        (0.711, 0.0739, 0.0073, 7.4, 0.5, 0.098, 0.002),
        (1.21, 0.0437, 0.009, 5.6, 0.7, None, None),
        (1.062, 0.0260, 0.0110, 2.5, 0.2, None, None),
    ]
    for mu, eta, p, snr_ref, snr_tol, mu1_ref, mu1_tol in rows:
        mm = metrics(mu, _sums([mu * eta + p]), _sums([p]))
        s = mm["summary"]
        assert s["snr"] == pytest.approx(mu * eta / p, rel=1e-9)
        assert s["eta"] == pytest.approx(eta, rel=1e-9)
        assert s["mu1"] == pytest.approx(p / eta, rel=1e-9)
        assert abs(s["snr"] - snr_ref) <= snr_tol
        if mu1_ref is not None:
            assert abs(s["mu1"] - mu1_ref) <= mu1_tol


def test_metrics_conventions_and_errors():
    mm = metrics(1.0, _sums([0.11], [0.01]), _sums([0.01], [0.001]))
    assert mm["per_mode"]["snr"][0] == pytest.approx(10.0)
    assert mm["per_mode"]["snr_err"][0] > 0
    with pytest.raises(ValueError):
        metrics(0.0, _sums([0.1]), _sums([0.01]))


def test_metrics_zero_noise_and_zero_eta():
    per_mode = metrics(1.0, _sums([0.1]), _sums([0.0]))["per_mode"]
    assert np.isinf(per_mode["snr"][0])
    assert per_mode["mu1"][0] == 0.0
    # eta <= 0 in the second mode: its mu1 is undefined (NaN), not an error
    mm = metrics(1.0, _sums([0.1, 0.0]), _sums([0.01, 0.01]))
    assert mm["per_mode"]["mu1"][0] == pytest.approx(0.01 / 0.09)
    assert np.isnan(mm["per_mode"]["mu1"][1])
    assert np.isnan(mm["per_mode"]["mu1_err"][1])
    assert np.isnan(mm["summary"]["mu1"])


def test_table_metrics_helper():
    out = table_metrics(0.711, 0.0739, 0.0073, 0.006, 0.0004, 0.0012)
    assert out["snr"] == pytest.approx(7.197, abs=0.01)
    assert out["mu1"] == pytest.approx(0.0988, abs=0.001)
    assert out["snr_err"] > 0 and out["mu1_err"] > 0


def test_noise_floor_model():
    assert noise_floor_model(0.0, 0.0073) == pytest.approx(0.0073)
    assert noise_floor_model(1.9e-3, 1.0) == pytest.approx(np.exp(-1))
    ratio = noise_floor_model(200e-6, 1.0) / noise_floor_model(0.0, 1.0)
    assert ratio == pytest.approx(0.900, abs=0.001)
    with pytest.raises(ValueError):
        noise_floor_model(-1e-6, 1.0)


def test_snr_composition_convergence():
    # independently simulated signal and noise: the measured snr converges
    # to mu eta_true / p_true
    eta_true, p_true, mu = 0.0739, 0.0073, 0.711
    sig_flux, rate = _flat_flux(mu * eta_true + p_true, n_modes=6)
    noise_flux, _ = _flat_flux(p_true, n_modes=6)
    n = 2_000_000
    h_sig = simulate_counts(sig_flux, rate, CHAIN, n, seed=9,
                            bin_width_s=165e-9)
    h_noise = simulate_counts(noise_flux, rate, CHAIN, n, seed=10,
                              bin_width_s=165e-9)
    mm = metrics(mu, mode_sums(h_sig, 1.65e-6, 6, CHAIN),
                 mode_sums(h_noise, 1.65e-6, 6, CHAIN))
    snr, snr_err = mm["summary"]["snr"], mm["summary"]["snr_err"]
    assert snr == pytest.approx(mu * eta_true / p_true, abs=3 * snr_err)
    assert snr_err < 0.15


def test_simulate_counts_keeps_origin():
    hist = simulate_counts(np.full(100, 5e4), 1e7, CHAIN, 10_000, seed=11,
                           bin_width_s=2e-6)
    assert hist.bin_starts()[0] == 0.0
    mean = hist.counts.sum() / 10_000
    expect = 5e4 * 1e-5 * CHAIN.total_transmission
    assert mean == pytest.approx(expect, rel=0.1)
