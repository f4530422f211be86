import json

import numpy as np
import pytest

from afcmem.config import ExperimentConfig
from afcmem.harness import reproduce, run_qubit_tomography, run_spinwave
from afcmem.presets import PRESET_NAMES, preset_config


def _fast_cfg(**kw):
    kw.setdefault("n_atoms", 2000)
    kw.setdefault("n_trials", 20_000)
    kw.setdefault("n_trials_noise", 40_000)
    kw.setdefault("seed", 5)
    return ExperimentConfig(**kw)


def test_config_budget_rejected():
    cfg = ExperimentConfig(transfer_duration_seconds=20e-6)
    with pytest.raises(ValueError, match="budget"):
        cfg.validate()  # 6 x 1.65 us + 20 us > 25 us


def test_config_roundtrip_and_hash(tmp_path):
    cfg = ExperimentConfig(dd_kind="XY8", t_s_seconds=0.05)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = ExperimentConfig.from_json(path)
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
    other = ExperimentConfig(dd_kind="XY4")
    assert other.config_hash() != cfg.config_hash()
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"no_such_key": 1})


def test_config_misc_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(bin_width_seconds=200e-9).validate()  # 1.65us/200ns
    with pytest.raises(ValueError):
        ExperimentConfig(dd_kind="ZZ").validate()
    ExperimentConfig().validate()


def test_transfer_work_bounded_at_config():
    # 4.5e7 samples for the transfer pulse, unless a target backs it out
    with pytest.raises(ValueError, match="transfer_bandwidth_hz"):
        ExperimentConfig(transfer_bandwidth_hz=1e9).validate()
    ExperimentConfig(transfer_bandwidth_hz=1e9,
                     eta_end_to_end_target=0.1).validate()


def test_undefined_value_fails_gated_check():
    from afcmem.harness import RunReport, _check
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


def test_forced_spin_and_no_noise_composition():
    cfg = _fast_cfg(p_noise_target_per_mode=None, eta_afc_fixed=0.28)
    rep = run_spinwave(cfg)
    s = rep.stages
    assert s["eta_afc"] == 0.28
    assert rep.eta_end_to_end == pytest.approx(
        0.28 * s["eta_transfer_sq"] * s["eta_spin"], rel=1e-12)
    assert s["p_noise_per_mode"] == 0.0
    # no-noise run reports the snr as an infinity marker (null in JSON)
    assert json.loads(rep.to_json())["metrics"]["summary"]["snr"] is None


def test_end_to_end_target_calibration():
    cfg = _fast_cfg(eta_afc_fixed=0.28, eta_end_to_end_target=0.0739)
    rep = run_spinwave(cfg)
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
    # eta_spin = coherence^2 from independent atom draws
    err = np.hypot(*(2 * np.sqrt(s["eta_spin"]) * s["eta_spin_stderr"]
                     for s in (sw, q)))
    assert abs(q["eta_spin"] - sw["eta_spin"]) <= 4 * err
    cfg = _fast_cfg(eta_end_to_end_target=0.0739)
    eta_sw = run_spinwave(cfg).eta_end_to_end
    assert run_qubit_tomography(cfg).eta_end_to_end == pytest.approx(
        eta_sw, abs=1e-12)
    assert eta_sw == pytest.approx(0.0739, abs=1e-12)


def test_qubit_run_in_a_memory_that_stores_nothing():
    rep = run_qubit_tomography(_fast_cfg(afc_eta0=0.0))
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


def test_preset_configs_valid():
    for name in PRESET_NAMES:
        cfg, notes = preset_config(name)
        cfg.validate()
        assert notes


def test_reproduce_fig1e_outputs(tmp_path):
    report, passed = reproduce("fig1e", tmp_path)
    assert passed
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "afc_decay.csv").exists()
    assert (tmp_path / "fit_afc.json").exists()
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["preset"] == "fig1e"
    assert all(c["pass"] for c in data["checks"] if c["gated"])


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


def test_noise_calibration_example():
    # the conversion gain is whatever maps the residual excitation onto the
    # reference noise level for this sequence and storage time
    s = run_spinwave(_fast_cfg(p_noise_target_per_mode=8.1e-3)).stages
    assert s["p_noise_per_mode"] == 8.1e-3
    assert s["noise_gain_kappa"] * s["residual_excitation"] == pytest.approx(
        8.1e-3, rel=1e-12)
    s = run_spinwave(_fast_cfg(noise_gain_kappa=2.0,
                               p_noise_target_per_mode=None)).stages
    assert s["p_noise_per_mode"] == 2.0 * s["residual_excitation"]


@pytest.mark.parametrize("preset, files", [
    ("table1-20ms", {"report.json", "hist_signal.csv", "hist_noise.csv",
                     "hist_input.csv"}),
    ("fig4-tomo", {"report.json", "hist_sigma_z.csv"}),
])
def test_reproduce_output_files(tmp_path, preset, files):
    reproduce(preset, tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == files
