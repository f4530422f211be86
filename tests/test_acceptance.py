"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured values at the stated tolerance."""

import time

import numpy as np

from afcmem.bloch import transfer_profile
from afcmem.comb import CombParams, afc_decay_model, build_comb, propagate
from afcmem.detection import table_metrics
from afcmem.fitting import fit_afc_decay, fit_mims, fit_power_law
from afcmem.harness import reproduce, run_qubit_tomography, run_spinwave
from afcmem.presets import PRESETS, TABLE1
from afcmem.pulses import (ChshSpec, HshSpec, chirp_rate, chsh_crossing_times,
                           dd_sequence, half_transfer_rabi, hsh_waveform,
                           reference_transfer_pulse)
from afcmem.spinbath import (SpinBathParams, efficiency_decay,
                             ou_sigma_for_t2, spin_echo_coherence)
from afcmem.tomography import (TomoCounts, classical_bound_weak_coherent,
                               direct_inversion, max_fidelity_from_purity,
                               pauli_expectations, trace_distance,
                               white_noise_fidelity)
from afcmem.waveform import gaussian_pulse


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_echo_timing():
    """Echo at 1/Delta within 1% for Delta in {20, 40, 100} kHz."""
    details = []
    ok = True
    for delta in (20e3, 40e3, 100e3):
        start = time.time()
        params = CombParams(comb_period_hz=delta, finesse=4.0, peak_od=3.0,
                            bandwidth_hz=3e6, tooth_shape="square", passes=2)
        spectrum = build_comb(params)
        fwhm = min(700e-9, 0.1 / delta)
        res = propagate(gaussian_pulse(fwhm, 0.0, 32e6), spectrum)
        rel_err = abs(res.echo_time_s - 1 / delta) * delta
        elapsed = time.time() - start
        details.append(f"{delta/1e3:.0f}kHz: err {rel_err:.2%} in {elapsed:.1f}s")
        ok &= rel_err < 0.01 and elapsed < 10
    _report(1, ok, "; ".join(details))


def test_criterion_02_afc_decay_fit():
    """Synthetic decay-curve fit recovers eta0 +-0.03 and T2 +-30 us."""
    start = time.time()
    rng = np.random.default_rng(2024)
    t = np.linspace(5e-6, 220e-6, 25)
    truth = afc_decay_model(t, 0.36, 240e-6, 0.3, 41.4e3)
    data = truth * (1 + 0.05 * rng.standard_normal(t.size))
    fit = fit_afc_decay(t, data)
    elapsed = time.time() - start
    ok = (fit.converged and abs(fit.params[0] - 0.36) <= 0.03
          and abs(fit.params[1] - 240e-6) <= 30e-6 and elapsed < 5)
    _report(2, ok, f"eta0 {fit.params[0]:.4f}, T2 {fit.params[1]*1e6:.1f} us, "
                   f"{elapsed:.1f}s")


def test_criterion_03_dd_scaling():
    """OU bath scaling: gamma in [0.60, 0.72], Mims m in [2.5, 3.5],
    and exact refocusing with ideal pulses."""
    start = time.time()
    pi_t = 1 / (2 * 120e3)
    # refocusing identity at machine precision
    static_bath = SpinBathParams(inhom_fwhm_hz=60e3, ou_sigma_hz=0.0,
                                 n_atoms=10_000)
    refocus_ok = True
    for kind, t_s in (("XX", 0.02), ("XY4", 0.02), ("XY8", 0.05),
                      ("XY16", 0.1)):
        res = spin_echo_coherence(dd_sequence(kind, t_s, pi_t), static_bath)
        refocus_ok &= abs(res.coherence - 1) < 1e-6

    tau_c = 3.0
    sigma = ou_sigma_for_t2(2, 0.070, tau_c)
    bath = SpinBathParams(inhom_fwhm_hz=60e3, ou_sigma_hz=sigma,
                          ou_tau_c_s=tau_c, n_atoms=10_000)
    t2_fit, m_fit = {}, {}
    for kind, n_p in (("XX", 2), ("XY4", 4), ("XY8", 8), ("XY16", 16)):
        nominal = 0.070 * (n_p / 2) ** (2 / 3)
        t_list = nominal * np.array([0.4, 0.55, 0.7, 0.85, 1.0, 1.2, 1.4])
        rows = efficiency_decay(kind, t_list, bath)
        fit = fit_mims([r[0] for r in rows], [r[1] for r in rows])
        t2_fit[n_p], m_fit[n_p] = fit.params[1], fit.params[2]
    pl = fit_power_law(sorted(t2_fit), [t2_fit[n] for n in sorted(t2_fit)])
    gamma = pl.params[1]
    elapsed = time.time() - start
    m_ok = all(2.5 <= m <= 3.5 for m in m_fit.values())
    ok = refocus_ok and 0.60 <= gamma <= 0.72 and m_ok and elapsed < 300
    _report(3, ok, f"gamma {gamma:.3f}, m {sorted(round(float(v), 2) for v in m_fit.values())}, "
                   f"refocusing {'exact' if refocus_ok else 'BROKEN'}, {elapsed:.0f}s")


def test_criterion_04_power_law_cross_check():
    """Reference T2 table reproduces T2(1) = 47 +- 2 ms, gamma = 0.57 +- 0.03."""
    fit = fit_power_law([2, 4, 8, 16], [70e-3, 106e-3, 154e-3, 230e-3])
    t2_1, gamma = fit.params
    pred_4 = t2_1 * 4**gamma
    pred_16 = t2_1 * 16**gamma
    ok = (abs(t2_1 - 47e-3) <= 2e-3 and abs(gamma - 0.57) <= 0.03
          and abs(pred_4 - 106e-3) <= 9e-3 and abs(pred_16 - 230e-3) <= 30e-3)
    _report(4, ok, f"T2(1) {t2_1*1e3:.1f} ms, gamma {gamma:.3f}, "
                   f"predicts {pred_4*1e3:.1f} and {pred_16*1e3:.1f} ms")


def test_criterion_05_table_arithmetic():
    """metrics() on the published triples reproduces SNR and mu1 within the
    quoted error bars (mu1 bands widened by the rounded-input uncertainty
    propagated from the published p_n and eta)."""
    details = []
    ok = True
    for name, ref in TABLE1.items():
        out = table_metrics(ref["mu_in"], ref["eta"], ref["p_n"])
        prop = out["mu1"] * np.hypot(
            (ref["p_n_err"] + ref["p_n_round"]) / ref["p_n"],
            ref["eta_err"] / ref["eta"])
        snr_ok = abs(out["snr"] - ref["snr"]) <= ref["snr_err"]
        mu1_ok = abs(out["mu1"] - ref["mu1"]) <= ref["mu1_err"] + prop
        ok &= snr_ok and mu1_ok
        details.append(f"{name}: snr {out['snr']:.2f} mu1 {out['mu1']:.3f}")
    _report(5, ok, "; ".join(details))


def test_criterion_06_end_to_end_single_photon():
    """Calibrated 20 ms preset at 1e5 trials: SNR in [6.9, 7.9], per-mode
    statistics consistent with their Poisson error bars."""
    start = time.time()
    cfg = PRESETS["table1-20ms"].config
    assert cfg.n_trials == 100_000
    report = run_spinwave(cfg)
    s = report.metrics["summary"]
    per = report.metrics["per_mode"]
    eta_dev = np.abs(np.asarray(per["eta"]) - s["eta"]) \
        / np.asarray(per["eta_err"])
    mu_dev = np.abs(np.asarray(report.metrics["mu_in_measured"])
                    - cfg.mu_in_per_mode) \
        / np.asarray(report.metrics["mu_in_measured_err"])
    elapsed = time.time() - start
    ok = (6.9 <= s["snr"] <= 7.9 and np.all(eta_dev < 4) and np.all(mu_dev < 4)
          and elapsed < 600)
    _report(6, ok, f"snr {s['snr']:.2f}, max per-mode eta dev {eta_dev.max():.1f} sigma, "
                   f"max mu_in dev {mu_dev.max():.1f} sigma, {elapsed:.1f}s")


def test_criterion_07_tomography():
    """(a) round trip at 1e6 trials < 0.01 trace distance; (b) calibrated
    qubit preset F and P bands; (c) purity bound value; (d) white-noise
    bound value."""
    rng = np.random.default_rng(7)
    r_true = np.array([0.6, -0.25, 0.15])
    counts, trials = {}, {}
    for axis, (kp, km) in enumerate((("plus", "minus"), ("plus_i", "minus_i"),
                                     ("early", "late"))):
        p_plus = (1 + r_true[axis]) / 2
        counts[kp] = int(rng.poisson(1_000_000 * 0.05 * p_plus))
        counts[km] = int(rng.poisson(1_000_000 * 0.05 * (1 - p_plus)))
        trials[kp] = trials[km] = 1_000_000
    tc = TomoCounts(counts=counts, n_trials=trials)
    dm = direct_inversion(list(pauli_expectations(tc)))
    dist = trace_distance(dm, direct_inversion(r_true))

    cfg = PRESETS["fig4-tomo"].config
    tomo = run_qubit_tomography(cfg).tomography
    f_avg, p_avg = tomo["fidelity_avg"], tomo["purity_avg"]

    c_val = max_fidelity_from_purity(0.76)
    d_val = white_noise_fidelity(7.0)
    ok = (dist < 0.01 and 0.82 <= f_avg <= 0.88 and 0.72 <= p_avg <= 0.80
          and abs(c_val - 0.8606) < 1e-4 and abs(d_val - 0.8889) < 1e-4)
    _report(7, ok, f"trace distance {dist:.4f}, F {f_avg:.3f}, P {p_avg:.3f}, "
                   f"max-F(0.76) {c_val:.4f}, wn-F(7) {d_val:.4f}")


def test_criterion_08_classical_bound():
    """Greedy bound at (0.92, 0.0739) = 0.802 +- 0.005, monotone over a
    grid scan; the gap to the 0.812 reference value is reported."""
    val = classical_bound_weak_coherent(0.92, 0.0739)
    mus = np.linspace(0.3, 2.0, 7)
    etas = np.linspace(0.02, 0.6, 7)
    grid = np.array([[classical_bound_weak_coherent(m, e) for e in etas]
                     for m in mus])
    mono = (np.all(np.diff(grid, axis=0) >= -1e-12)
            and np.all(np.diff(grid, axis=1) <= 1e-12))
    gap = val - 0.812
    ok = abs(val - 0.802) <= 0.005 and mono
    _report(8, ok, f"bound {val:.4f}, gap to reference {gap:+.4f} "
                   f"(reported, not suppressed), monotone {mono}")


def test_criterion_09_chsh_and_bandwidth():
    """Crossing-time separation exact; calibrated composite component
    transfers 0.5 +- 0.05; 15 us pulse transfer bandwidth in [1.2, 1.5] MHz."""
    ref = reference_transfer_pulse()
    comp_spec = ChshSpec(base=ref, separation_s=1.65e-6)
    f = np.linspace(-0.7e6, 0.7e6, 301)
    t1, t2 = chsh_crossing_times(comp_spec, f)
    sep_err = float(np.max(np.abs((t2 - t1) - 1.65e-6)))

    omega = half_transfer_rabi(chirp_rate(ref))
    comp = HshSpec(ref.duration_s, ref.bandwidth_hz, peak_rabi_hz=omega,
                   edge_fraction=ref.edge_fraction, sech_cutoff=ref.sech_cutoff)
    prof_c = transfer_profile(hsh_waveform(comp), np.linspace(-0.6e6, 0.6e6, 41))
    mean_transfer = float(prof_c.inversion.mean())

    widths = {}
    for label, spec in (("reference", ref), ("default", HshSpec(15e-6, 1.5e6))):
        prof = transfer_profile(hsh_waveform(spec),
                                np.linspace(-1.6e6, 1.6e6, 161))
        widths[label] = prof.bandwidth_3db_hz
    ok = (sep_err < 1e-15 and abs(mean_transfer - 0.5) <= 0.05
          and all(1.2e6 <= w <= 1.5e6 for w in widths.values()))
    _report(9, ok, f"separation err {sep_err:.1e} s, component transfer "
                   f"{mean_transfer:.3f}, widths "
                   + ", ".join(f"{k} {v/1e6:.3f} MHz" for k, v in widths.items()))


def test_criterion_10_determinism(tmp_path):
    """Every preset rerun with the same seed produces byte-identical
    numerical outputs."""
    details = []
    ok = True
    for name in ("fig1e", "fig2", "table1-20ms", "table1-50ms",
                 "table1-100ms", "fig4-tomo"):
        outs = []
        for run in ("a", "b"):
            d = tmp_path / f"{name}-{run}"
            reproduce(name, d)
            outs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
        same = outs[0] == outs[1]
        ok &= same
        details.append(f"{name}:{'=' if same else '!='}")
    _report(10, ok, " ".join(details))
