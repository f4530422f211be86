import json
import subprocess
import sys

import numpy as np
import pytest

import afcmem
from afcmem.cli import main
from afcmem.fitting import mims_curve


def run_cli(*args):
    return main(list(args))


def test_reproduce_fig1e(tmp_path, capsys):
    code = run_cli("reproduce", "fig1e", "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert (tmp_path / "report.json").exists()


def test_simulate_spinwave(tmp_path, capsys):
    code = run_cli("simulate", "spinwave", "--out", str(tmp_path),
                   "--trials", "20000", "--seed", "3")
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["provenance"]["seed"] == 3
    assert (tmp_path / "hist_signal.csv").exists()


def test_simulate_afc(tmp_path, capsys):
    code = run_cli("simulate", "afc", "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["echo_time_s"] == pytest.approx(25e-6, rel=0.01)
    assert (tmp_path / "echo_waveform.csv").exists()


def test_simulate_qubit(tmp_path, capsys):
    code = run_cli("simulate", "qubit", "--out", str(tmp_path),
                   "--trials", "20000")
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert 0 < report["tomography"]["fidelity_avg"] <= 1


def test_fit_command(tmp_path, capsys):
    t = np.linspace(0.02, 0.3, 12)
    eta = mims_curve(t, 0.08, 0.106, 1.8)
    csv = tmp_path / "decay.csv"
    with open(csv, "w") as fh:
        fh.write("t_s_seconds,eta\n")
        for a, b in zip(t, eta):
            fh.write(f"{float(a)!r},{float(b)!r}\n")
    code = run_cli("fit", "mims", str(csv), "--out", str(tmp_path))
    assert code == 0
    fit = json.loads((tmp_path / "fit_mims.json").read_text())
    assert fit["t2"] == pytest.approx(0.106, rel=1e-4)


def test_tomo_command(tmp_path, capsys):
    counts = {
        "counts": {"early": 500, "late": 500, "plus": 900, "minus": 100,
                   "plus_i": 500, "minus_i": 500},
        "n_trials": {k: 10_000 for k in ("early", "late", "plus", "minus",
                                         "plus_i", "minus_i")},
        "snr": 7.0, "mu_in": 0.92, "eta": 0.0739,
    }
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(counts))
    code = run_cli("tomo", str(path), "--out", str(tmp_path))
    assert code == 0
    rep = json.loads((tmp_path / "tomo_report.json").read_text())
    assert rep["expectations"]["sx"] == pytest.approx(0.8)
    assert rep["white_noise_fidelity"] == pytest.approx(8 / 9, abs=1e-6)
    assert rep["classical_bound_weak_coherent"] == pytest.approx(0.802, abs=0.005)


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"transfer_duration_seconds": 20e-6}))
    code = run_cli("simulate", "spinwave", "--config", str(bad),
                   "--out", str(tmp_path))
    assert code == 2
    code = run_cli("fit", "mims", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize("bad", [
    {"n_atoms": 0}, {"n_atoms": 2.5}, {"bath_ou_tau_c_seconds": -1},
    {"bath_ou_tau_c_seconds": 0}, {"bath_ou_sigma_hz": -5.0},
    {"bath_inhom_fwhm_hz": float("nan")},
])
def test_bath_config_error_exit_code(tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = run_cli("simulate", "spinwave", "--config", str(path),
                   "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert next(iter(bad)) in err


def test_version_is_package_version(tmp_path, capsys):
    with pytest.raises(SystemExit):
        run_cli("--version")
    assert capsys.readouterr().out.strip() == afcmem.__version__
    run_cli("simulate", "afc", "--out", str(tmp_path))
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["provenance"]["version"] == afcmem.__version__


def test_unknown_preset_usage_error():
    # argparse rejects unknown presets with a usage error (exit code 2)
    proc = subprocess.run(
        [sys.executable, "-m", "afcmem.cli", "reproduce", "nosuch"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr
