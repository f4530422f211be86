import collections
import dataclasses
import json
import math

import numpy as np
import pytest

from afcmem.comb import square_tooth_efficiency
from afcmem.config import (FLUX_SAMPLES_PER_BIN, ExperimentConfig,
                           provenance, read_config_json)
from afcmem.harness import (RUNS, afc_efficiency, json_text, reproduce,
                            run_qubit_tomography, run_spinwave)
from afcmem.presets import (COMB_PEAK_OD_REFERENCE, ETA_AFC_REFERENCE,
                            MEMORY, PRESET_NAMES, PRESETS, TABLE1)


def _fast_cfg(**kw):
    kw.setdefault("n_atoms", 2000)
    kw.setdefault("n_trials", 20_000)
    kw.setdefault("n_trials_noise", 40_000)
    kw.setdefault("seed", 5)
    return ExperimentConfig(**kw)


def test_config_budget_rejected():
    with pytest.raises(ValueError, match="budget"):
        # 6 x 1.65 us + 20 us > 25 us
        ExperimentConfig(transfer_duration_seconds=20e-6)


def test_config_roundtrip_and_hash(tmp_path):
    cfg = ExperimentConfig(dd_kind="XY8", t_s_seconds=0.05)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = ExperimentConfig.from_dict(read_config_json(path))
    assert again == cfg
    other = ExperimentConfig(dd_kind="XY4")
    cfg_hash, again_hash, other_hash = (
        provenance(c.to_dict())["config_hash"] for c in (cfg, again, other))
    assert again_hash == cfg_hash
    assert other_hash != cfg_hash
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"no_such_key": 1})


def test_config_misc_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(bin_width_seconds=200e-9)  # 1.65us/200ns
    with pytest.raises(ValueError):
        ExperimentConfig(dd_kind="ZZ")
    ExperimentConfig()


def test_transfer_work_bounded_at_config():
    # 4.5e7 samples for the transfer pulse, unless a target backs it out
    with pytest.raises(ValueError, match="transfer_bandwidth_hz"):
        ExperimentConfig(transfer_bandwidth_hz=1e9)
    ExperimentConfig(transfer_bandwidth_hz=1e9, eta_end_to_end_target=0.1)


def test_undefined_value_fails_gated_check():
    from afcmem.harness import RunReport
    from afcmem.presets import _check
    check = _check("mu1_avg", float("nan"), 0.0, 1.0)
    assert check["pass"] is False
    report = RunReport(kind="spinwave", preset="table1-20ms", config={},
                       checks=[check])
    assert not report.passed


def test_stage_composition_identity():
    cfg = _fast_cfg()
    rep = run_spinwave(cfg)
    s = rep.stages
    product = s["eta_afc"] * s["eta_transfer_sq"] * s["eta_spin"]
    assert rep.eta_end_to_end == pytest.approx(product, rel=1e-9)
    # the echo stage is the closed form of the config's own square-tooth
    # comb, decayed over 1/Delta by the optical T2
    want = (square_tooth_efficiency(cfg.comb_peak_od, cfg.comb_finesse,
                                    passes=cfg.comb_passes)
            * math.exp(-4 / (cfg.comb_period_hz * cfg.afc_t2_seconds)))
    assert s["eta_afc"] == pytest.approx(want, rel=0, abs=1e-12)
    assert s["eta_afc"] == pytest.approx(0.2683, abs=1e-4)


def test_forced_spin_and_no_noise_composition():
    cfg = _fast_cfg(p_noise_target_per_mode=0.0,
                    comb_peak_od=COMB_PEAK_OD_REFERENCE)
    rep = run_spinwave(cfg)
    s = rep.stages
    assert s["eta_afc"] == afc_efficiency(cfg)
    assert abs(s["eta_afc"] - ETA_AFC_REFERENCE) < 5e-5
    assert rep.eta_end_to_end == pytest.approx(
        s["eta_afc"] * s["eta_transfer_sq"] * s["eta_spin"], rel=1e-12)
    assert s["p_noise_per_mode"] == 0.0
    # no-noise run reports the snr as an infinity marker (null in JSON)
    assert json.loads(rep.to_json())["metrics"]["summary"]["snr"] is None


def test_end_to_end_target_calibration():
    cfg = _fast_cfg(comb_peak_od=COMB_PEAK_OD_REFERENCE,
                    eta_end_to_end_target=0.0739)
    rep = run_spinwave(cfg)
    assert rep.stages["eta_afc"] == afc_efficiency(cfg)
    assert abs(rep.stages["eta_afc"] - ETA_AFC_REFERENCE) < 5e-5
    assert rep.eta_end_to_end == pytest.approx(0.0739, rel=1e-9)
    assert 0.4 < rep.stages["eta_transfer"] < 0.6


def test_same_seed_identical_report():
    a = run_spinwave(_fast_cfg()).to_json()
    b = run_spinwave(_fast_cfg()).to_json()
    assert a == b
    c = run_spinwave(_fast_cfg(seed=6)).to_json()
    assert c != a


def test_bloch_transfer_stage_when_unpinned():
    # without a calibrated value the transfer stage comes from the pulse
    # integration and sits near unity for the reference geometry
    cfg = _fast_cfg()
    rep = run_spinwave(cfg)
    assert 0.98 < rep.stages["eta_transfer"] <= 1.0


def test_transfer_profile_computed_once_per_pulse(tmp_path, monkeypatch):
    from afcmem import harness
    calls = []
    profile = harness.transfer_profile

    def counting(*args, **kwargs):
        calls.append(args)
        return profile(*args, **kwargs)

    monkeypatch.setattr(harness, "transfer_profile", counting)
    harness._eta_transfer.cache_clear()

    def report_bytes(name, **kw):
        (tmp_path / name).mkdir()
        run_spinwave(_fast_cfg(**kw)).save(tmp_path / name)
        return (tmp_path / name / "report.json").read_bytes()

    report_bytes("first")
    cached = report_bytes("cached", dd_kind="XY8")
    assert len(calls) == 1  # equal transfer fields: one propagation
    harness._eta_transfer.cache_clear()
    assert report_bytes("cold", dd_kind="XY8") == cached
    assert len(calls) == 2
    report_bytes("wider", transfer_bandwidth_hz=1.6e6)
    assert len(calls) == 3  # a new bandwidth is a new pulse


def test_qubit_ideal_chain_high_fidelity():
    cfg = _fast_cfg(p_noise_target_per_mode=0.0, qubit_visibility=1.0,
                    n_trials=200_000)
    rep = run_qubit_tomography(cfg)
    assert rep.tomography["fidelity_avg"] > 0.99


def test_one_config_gives_one_memory():
    cfg = _fast_cfg()
    sw = run_spinwave(cfg).stages
    q = run_qubit_tomography(cfg).stages
    for key in ("eta_afc", "eta_transfer", "p_noise_per_mode"):
        assert q[key] == sw[key]
    # eta_spin from independent atom draws
    err = np.hypot(sw["eta_spin_stderr"], q["eta_spin_stderr"])
    assert abs(q["eta_spin"] - sw["eta_spin"]) <= 4 * err
    cfg = _fast_cfg(eta_end_to_end_target=0.0739)
    eta_sw = run_spinwave(cfg).eta_end_to_end
    assert run_qubit_tomography(cfg).eta_end_to_end == pytest.approx(
        eta_sw, abs=1e-12)
    assert eta_sw == pytest.approx(0.0739, abs=1e-12)


def test_qubit_run_in_a_memory_that_stores_nothing():
    rep = run_qubit_tomography(_fast_cfg(comb_peak_od=0.0))
    assert rep.eta_end_to_end == 0.0
    tomo = json.loads(rep.to_json())["tomography"]
    assert tomo["classical_bound_weak_coherent"] is None
    assert 0 <= tomo["fidelity_avg"] <= 1


def test_qubit_minus_input_destructive():
    cfg = _fast_cfg(n_trials=100_000)
    plus = run_qubit_tomography(cfg)
    minus = run_qubit_tomography(cfg, input_phase_rad=np.pi)
    # theta = 0 interference bin: bright for |+>, dark for |->
    k_plus = plus.tomography["per_qubit"][0]["counts"]["plus"]
    k_minus = minus.tomography["per_qubit"][0]["counts"]["plus"]
    assert k_minus < 0.25 * k_plus
    assert minus.tomography["per_qubit"][0]["expectations"]["sx"] < -0.5


def test_qubit_window_overlap_rejected():
    cfg = _fast_cfg(input_fwhm_seconds=0.9e-6)
    with pytest.raises(ValueError, match="overlap"):
        run_qubit_tomography(cfg)


def test_reproduce_unknown_preset():
    with pytest.raises(ValueError, match="unknown preset"):
        reproduce("nope", "/tmp/never")


def test_presets_are_memory_with_protocol_and_calibration():
    # every preset measures the one sample MEMORY: its config (built, so
    # checked) differs from MEMORY only in the fields of its protocol and
    # calibrated columns, which are config fields; fig1e and fig2
    # calibrate nothing, and the calibrated fields over all presets are
    # these four, each with its reference in the preset's notes
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    memory = MEMORY.to_dict()
    calibrated = set()
    for preset in PRESETS.values():
        own = {**preset.protocol, **preset.calibrated}
        assert len(own) == len(preset.protocol) + len(preset.calibrated)
        assert own.keys() <= fields
        cfg = preset.config.to_dict()
        assert {k: cfg[k] for k in own} == own
        assert {k for k in fields if cfg[k] != memory[k]} <= own.keys()
        assert preset.notes
        calibrated |= preset.calibrated.keys()
    assert calibrated == {"comb_peak_od", "eta_end_to_end_target",
                          "p_noise_target_per_mode", "qubit_visibility"}
    assert PRESETS["fig1e"].calibrated == PRESETS["fig2"].calibrated == {}


def test_reproduce_fig1e_outputs(tmp_path):
    report, passed = reproduce("fig1e", tmp_path)
    assert passed
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "afc_decay.csv").exists()
    assert (tmp_path / "fit_afc.json").exists()
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["preset"] == "fig1e"
    assert all(c["pass"] for c in data["checks"] if c["gated"])


def test_checks_recompute_from_the_saved_report(tmp_path):
    # each preset's checks are a function of its report alone: rerun on
    # the saved report.json they give exactly the stored checks
    for seed in (None, 1, 2, 3):
        gated = []
        for name in PRESET_NAMES:
            out = tmp_path / f"{name}-{seed}"
            reproduce(name, out, seed)
            saved = json.loads((out / "report.json").read_text())
            assert PRESETS[name].checks(saved) == saved["checks"]
            assert saved["kind"] == PRESETS[name].kind
            gated += [c["gated"] for c in saved["checks"]]
        assert (gated.count(True), gated.count(False)) == (26, 6)
    assert set(RUNS) == {preset.kind for preset in PRESETS.values()}


def test_every_gated_check_has_one_class(tmp_path):
    # each gated check of each preset has exactly one class, and no
    # ungated check has one; 2 of the 26 are predictions
    counts = collections.Counter()
    for name, preset in PRESETS.items():
        report, _ = reproduce(name, tmp_path / name)
        gated = [c["name"] for c in report.checks if c["gated"]]
        assert sorted(gated) == sorted(preset.classes)
        counts.update(preset.classes.values())
    assert counts == {"calibration identity": 13, "fit recovery": 3,
                      "model identity": 6, "self-oracle": 1,
                      "simulated value against a formula": 1,
                      "prediction": 2}


def test_null_in_saved_report_fails_its_check(tmp_path):
    # report.json writes a NaN mu1 (a mode with eta <= 0) and an inf snr
    # (a mode with p_n = 0) as null; the checks read null back as NaN and
    # fail as the run's own checks do
    reproduce("table1-20ms", tmp_path)
    saved = json.loads((tmp_path / "report.json").read_text())
    saved["metrics"]["summary"].update(mu1=None, snr=None)
    run = json.loads(json.dumps(saved))
    run["metrics"]["summary"].update(mu1=math.nan, snr=math.inf)
    checks = PRESETS["table1-20ms"].checks
    assert json_text(checks(saved)) == json_text(checks(run))
    failed = [c["name"] for c in checks(saved) if not c["pass"]]
    assert failed == ["snr_avg", "mu1_avg"]


def test_narrowest_input_pulse_keeps_its_photon_number():
    # the config admits a pulse down to sigma = one flux sample step, where
    # the sampled Gaussian still holds its photon number
    from afcmem import harness
    step = ExperimentConfig().bin_width_seconds / FLUX_SAMPLES_PER_BIN
    fwhm = step * 2 * math.sqrt(2 * math.log(2)) * (1 + 1e-12)
    cfg = ExperimentConfig(input_fwhm_seconds=fwhm)
    t, dt = harness._flux_grid(cfg, cfg.mode_count + 2)
    flux = harness._pulse_train(cfg, t, np.zeros_like(t),
                                [(m, 1.0) for m in range(1, 7)])
    assert flux.sum() * dt == pytest.approx(6, rel=1e-8)
    with pytest.raises(ValueError, match="^input_fwhm_seconds"):
        ExperimentConfig(input_fwhm_seconds=0.99 * fwhm)


def test_report_json_structure():
    rep = run_spinwave(_fast_cfg(), preset=None)
    d = json.loads(rep.to_json())
    assert set(d["provenance"]) == {"config_hash", "seed", "version"}
    assert "eta_afc" in d["stages"]
    assert len(d["metrics"]["per_mode"]["eta"]) == 6


def test_stage_failures_carry_stage_tag(monkeypatch):
    from afcmem import harness

    def fail(*args, **kwargs):
        raise ValueError("bath diverged")

    monkeypatch.setattr(harness, "spin_echo_coherence", fail)
    with pytest.raises(harness.StageError, match=r"\[spin\]"):
        run_spinwave(_fast_cfg())


def test_interrupt_in_a_stage_reaches_the_caller(monkeypatch):
    # only exceptions get a stage tag: Ctrl-C is not a simulation failure
    from afcmem import harness

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "spin_echo_coherence", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_spinwave(_fast_cfg())


def test_noise_calibration_example():
    # the conversion gain is whatever maps the residual excitation onto the
    # reference noise level for this sequence and storage time
    s = run_spinwave(_fast_cfg(p_noise_target_per_mode=8.1e-3)).stages
    assert s["p_noise_per_mode"] == 8.1e-3
    assert s["noise_gain_kappa"] * s["residual_excitation"] == pytest.approx(
        8.1e-3, rel=1e-12)


@pytest.mark.parametrize("preset, files", [
    ("table1-20ms", {"report.json", "hist_signal.csv", "hist_noise.csv",
                     "hist_input.csv"}),
    ("fig4-tomo", {"report.json", "hist_sigma_z.csv"}),
])
def test_reproduce_output_files(tmp_path, preset, files):
    reproduce(preset, tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == files


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_reproduce_validates_config_once(tmp_path, monkeypatch, preset):
    # a config is checked when it is built: reproduce builds the preset's
    # config once, and the run neither rebuilds nor re-checks it
    calls = []
    post_init = ExperimentConfig.__post_init__

    def counted(cfg):
        calls.append(cfg)
        post_init(cfg)

    monkeypatch.setattr(ExperimentConfig, "__post_init__", counted)
    report, _ = reproduce(preset, tmp_path)
    [cfg] = calls
    assert cfg.to_dict() == report.config


def test_public_runs_validate():
    # a run cannot be handed an unchecked config: the invalid one is
    # refused when it is built, before either run starts
    for run in (run_spinwave, run_qubit_tomography):
        with pytest.raises(ValueError, match="seed"):
            run(_fast_cfg(seed=-1))


def test_presets_pin_the_echo_stage_through_the_comb():
    # table1 and fig4-tomo fix eta_afc by the comb's peak OD alone: the
    # stage is the config's own closed form, at the reference efficiency
    for name in TABLE1:
        cfg = PRESETS[name].config
        eta_afc = run_spinwave(cfg).stages["eta_afc"]
        assert eta_afc == afc_efficiency(cfg)
        assert abs(eta_afc - ETA_AFC_REFERENCE) < 5e-5
    tomo = PRESETS["fig4-tomo"].config
    assert (run_qubit_tomography(tomo).stages["eta_afc"]
            == afc_efficiency(tomo))
    # fig4-tomo is the table1-20ms config with the qubit run's fields
    qubit = {"mu_in_per_mode", "p_noise_target_per_mode", "qubit_visibility",
             "n_trials"}
    tab = PRESETS["table1-20ms"].config.to_dict()
    differ = {k for k, v in tomo.to_dict().items() if tab[k] != v}
    assert differ == qubit


def test_fig4_tomo_splits_the_20ms_row_like_table1():
    # fig4-tomo stores in the 20 ms row's memory: the same eta_afc, and the
    # transfer backed out of the same eta, so its eta_transfer differs from
    # table1-20ms's only through eta_spin, which each run samples with its
    # own generator; hold it to three combined standard errors
    tab = run_spinwave(PRESETS["table1-20ms"].config).stages
    tomo = run_qubit_tomography(PRESETS["fig4-tomo"].config).stages
    assert tomo["eta_afc"] == tab["eta_afc"]

    # eta_transfer = sqrt(eta / (eta_afc eta_spin)) moves by half eta_spin's
    # relative error
    rel = (0.5 * np.hypot(tab["eta_spin_stderr"], tomo["eta_spin_stderr"])
           / tab["eta_spin"])
    assert tomo["eta_transfer"] == pytest.approx(tab["eta_transfer"],
                                                 rel=3 * rel)
