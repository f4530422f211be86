import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import afcmem
from afcmem import cli, harness, waveform
from afcmem.cli import main
from afcmem.comb import build_comb
from afcmem.config import ExperimentConfig
from afcmem.fitting import mims_curve
from afcmem.presets import PRESET_NAMES
from afcmem.tomography import PROJECTION_KEYS


def run_cli(*args):
    return main(list(args))


def run_python(*args, **kwargs):
    """A fresh interpreter that imports the afcmem under test."""
    src = str(Path(afcmem.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          **kwargs)


def test_reproduce_fig1e(tmp_path, capsys):
    code = run_cli("reproduce", "fig1e", "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert (tmp_path / "report.json").exists()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_reproduce_negative_seed_exit_code(tmp_path, capsys, name):
    out = tmp_path / "out"
    code = run_cli("reproduce", name, "--seed", "-1", "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == \
        "error: seed must be an integer in [0, inf)\n"
    assert not out.exists()


def test_simulate_spinwave(tmp_path, capsys):
    code = run_cli("simulate", "spinwave", "--out", str(tmp_path),
                   "--trials", "20000", "--seed", "3")
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["provenance"]["seed"] == 3
    assert (tmp_path / "hist_signal.csv").exists()


def test_seed_option_overrides_invalid_file_seed(tmp_path, capsys):
    # the file and the options are merged before the config is built
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": -1, "n_atoms": 2000,
                                "n_trials_noise": 40_000}))
    out = tmp_path / "out"
    code = run_cli("simulate", "spinwave", "--config", str(path),
                   "--trials", "20000", "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == \
        "error: seed must be an integer in [0, inf)\n"
    assert not out.exists()
    code = run_cli("simulate", "spinwave", "--config", str(path), "--seed",
                   "3", "--trials", "20000", "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 3
    assert report["config"]["n_trials"] == 20_000


def test_simulate_afc(tmp_path, capsys):
    code = run_cli("simulate", "afc", "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["metrics"]["echo_time_s"] == pytest.approx(25e-6, rel=0.01)
    # the comb's echo is the echo stage's: its grid resolves the line of
    # afc_t2_seconds, so the same closed form to within the grid's error
    assert report["metrics"]["echo_efficiency"] == pytest.approx(
        report["stages"]["eta_afc"], rel=0.015)
    assert (tmp_path / "echo_waveform.csv").exists()


def test_simulate_afc_grid_is_sized_by_the_line(tmp_path, capsys,
                                                monkeypatch):
    # the default comb's homogeneous line, 1/(pi 240 us) = 1.33 kHz, needs
    # a step of at most 332 Hz over the 8 MHz span: 2^15 points
    built = []

    def build(params):
        built.append(build_comb(params))
        return built[-1]

    monkeypatch.setattr(harness, "build_comb", build)
    assert run_cli("simulate", "afc", "--out", str(tmp_path)) == 0
    [spectrum] = built
    assert spectrum.freq_grid_hz.size == 2**14 + 1
    assert spectrum.freq_grid_hz[1] == 8e6 / 2**15


@pytest.mark.parametrize("shape", ["square", "gaussian"])
def test_simulate_afc_echo_matches_closed_form(tmp_path, capsys, shape):
    # with the line as the comb's kernel, the echo is the echo stage's
    # closed form to within the grid's error
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"comb_tooth_shape": shape}))
    code = run_cli("simulate", "afc", "--config", str(path),
                   "--out", str(tmp_path / "out"))
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["metrics"]["echo_efficiency"] == pytest.approx(
        report["stages"]["eta_afc"], rel=1e-3)


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
    {"t_s_seconds": "0.02"}, {"n_trials": 1.5}, {"comb_passes": 2.5},
    {"t_s_seconds": float("nan")}, {"n_trials_noise": True}, {"dd_kind": 4},
    {"seed": -1}, {"detector_efficiency": 1.5}, {"t_s_seconds": 3e-5},
    {"mu_in_per_mode": 1e7}, {"transfer_bandwidth_hz": 1e9},
    {"eta_end_to_end_target": 0.5, "comb_peak_od": 0.0},
    {"p_noise_target_per_mode": None}, {"afc_t2_seconds": 1e-320},
    {"bath_inhom_fwhm_hz": 480_001.0},
    {"comb_finesse": 1e200, "comb_tooth_shape": "gaussian"},
    # a chirp so slow that the transfer pulse's Rabi rate underflows to 0
    {"transfer_bandwidth_hz": 5e-324, "transfer_duration_seconds": 10.0,
     "comb_period_hz": 0.01},
    {"bin_width_seconds": 5e-324},  # the mode/bin ratio overflows
    # a detection chain that detects nothing
    {"detector_efficiency": 0}, {"path_transmission": 0},
    # a pulse narrower than the flux sample step
    {"input_fwhm_seconds": 1e-9},
    # free phases past the turns that float64 resolves
    {"bath_ou_sigma_hz": 1e21}, {"t_s_seconds": 1e16},
    {"bath_ou_sigma_hz": 1e100},
    # an RF Rabi frequency whose pulse squares overflow float64
    {"rf_rabi_hz": 1e155},
    {"rf_rabi_hz": 1e160, "t_s_seconds": 1e-150, "bath_ou_sigma_hz": 1e155,
     "bath_inhom_fwhm_hz": 0, "n_atoms": 100},
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


def test_fast_bath_runs_without_warnings(tmp_path):
    # a correlation time far below every interval: the OU interval law's
    # small-interval series sees no long interval, so nothing overflows
    path = tmp_path / "fast.json"
    path.write_text(json.dumps({"bath_ou_tau_c_seconds": 1e-300}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("simulate", "spinwave", "--config", str(path),
                       "--out", str(tmp_path))
    assert code == 0 and not caught


@pytest.mark.parametrize("argv", [
    ["reproduce", "fig1e", "--out", "a_file"],
    ["simulate", "afc", "--out", "a_file"],
    ["simulate", "afc", "--out", "a_file/sub"],
    ["simulate", "afc", "--config", "a_dir"],
    ["fit", "mims", "a_dir"],
])
def test_bad_path_exit_code(tmp_path, capsys, argv):
    # a path that names a file where a directory is wanted, or the other
    # way round, is bad input: one line and exit 2, not a simulation failure
    (tmp_path / "a_file").write_text("")
    (tmp_path / "a_dir").mkdir()
    argv = [str(tmp_path / a) if a.startswith("a_") else a for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (tmp_path / "a_file").read_text() == ""
    assert not (tmp_path / "out").exists()


def test_bad_out_refused_before_the_run(tmp_path, monkeypatch, capsys):
    # the run would fail with exit 3; --out is refused before it starts
    def run(*args, **kw):
        raise RuntimeError("the run started")
    monkeypatch.setitem(harness.RUNS, "qubit", run)
    (tmp_path / "a_file").write_text("")
    assert run_cli("simulate", "qubit", "--out",
                   str(tmp_path / "a_file" / "sub")) == 2
    assert "a_file is not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"afc_t2_seconds": 1e-320},
    {"comb_peak_od": 1.7e308, "comb_finesse": 1.0001},
])
def test_simulate_afc_overflow_exit_code(tmp_path, capsys, bad):
    # a homogeneous width or a comb profile beyond float64 is a config
    # error, not a run that ends with a non-finite echo
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = run_cli("simulate", "afc", "--config", str(path),
                   "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert next(iter(bad)) in err
    assert not (tmp_path / "report.json").exists()


def test_narrow_comb_grid_error_names_the_fwhm(tmp_path, capsys):
    # a 0.0025 Hz tooth on a 7.6 Hz grid: the one-line error gives the
    # tooth FWHM as it is, not rounded to "0.0 Hz"
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps({"comb_period_hz": 0.01,
                                "eta_end_to_end_target": 0.01}))
    code = run_cli("simulate", "afc", "--config", str(path),
                   "--out", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "too coarse for tooth FWHM 0.0025 Hz" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("what", ["spinwave", "qubit"])
@pytest.mark.parametrize("bad, keys", [
    ({"comb_peak_od": 1.7e308, "comb_finesse": 1.0001,
      "comb_tooth_shape": "gaussian"}, ["comb_peak_od"]),
    ({"comb_peak_od": 1.7e308, "comb_finesse": 1.0001,
      "comb_tooth_shape": "lorentzian_sum"}, ["comb_peak_od"]),
    ({"comb_period_hz": 1e-300, "afc_t2_seconds": 1e-10},
     ["comb_period_hz", "afc_t2_seconds"]),
    ({"comb_period_hz": 1e-300, "afc_t2_seconds": 1e300,
      "zeeman_split_hz": 1e10}, ["comb_period_hz", "zeeman_split_hz"]),
])
def test_echo_stage_overflow_exit_code(tmp_path, capsys, what, bad, keys):
    # the echo stage's closed form beyond float64 is a config error, named
    # at the boundary, not numpy warnings and a late or null result
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("simulate", what, "--config", str(path),
                       "--out", str(tmp_path))
    assert code == 2 and not caught
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(key in err for key in keys)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("name", [
    "qubit_mu_in", "qubit_eta", "qubit_noise_per_mode", "eta_spin_fixed",
    "eta_transfer_fixed", "noise_gain_kappa", "afc_eta0", "eta_afc_fixed"])
def test_deleted_config_key_exit_code(tmp_path, capsys, name):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({name: 0.5}))
    code = run_cli("simulate", "qubit", "--config", str(path),
                   "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: unknown config keys: ['{name}']\n"


def _simulate_spinwave(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = run_cli("simulate", "spinwave", "--config", str(path),
                   "--out", str(tmp_path))
    return code, json.loads((tmp_path / "report.json").read_text())


def test_long_storage_reports_undefined_mu1(tmp_path, capsys):
    # a valid config whose stored signal sinks under the noise floor
    code, report = _simulate_spinwave(tmp_path, {"t_s_seconds": 0.2,
                                                 "dd_kind": "XX"})
    assert code == 0
    assert capsys.readouterr().err == ""
    mu1 = report["metrics"]["per_mode"]["mu1"]
    undefined = [m + 1 for m, eta in enumerate(report["metrics"]["per_mode"]["eta"])
                 if not eta > 0]
    assert undefined and all(mu1[m - 1] is None for m in undefined)
    assert report["metrics"]["summary"]["mu1"] is None
    assert report["notes"] == [f"mu1 undefined in modes {undefined}: "
                               "noise-subtracted signal not positive"]


def test_single_atom_stderr_is_undefined(tmp_path):
    code, report = _simulate_spinwave(tmp_path, {"n_atoms": 1})
    assert code == 0
    assert report["stages"]["eta_spin_stderr"] is None
    assert 0 <= report["stages"]["eta_spin"] <= 1


def test_version_is_package_version(tmp_path, capsys):
    with pytest.raises(SystemExit):
        run_cli("--version")
    assert capsys.readouterr().out.strip() == afcmem.__version__
    run_cli("simulate", "afc", "--out", str(tmp_path))
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["provenance"]["version"] == afcmem.__version__


def test_unknown_preset_usage_error():
    # argparse rejects unknown presets with a usage error (exit code 2)
    proc = run_python("-m", "afcmem.cli", "reproduce", "nosuch")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


_COLD_START = r"""
import json, sys, tempfile
from pathlib import Path
from afcmem.cli import main
from afcmem.tomography import PROJECTION_KEYS

out = Path(tempfile.mkdtemp())
(out / "counts.json").write_text(json.dumps({
    "counts": dict.fromkeys(PROJECTION_KEYS, 50),
    "n_trials": dict.fromkeys(PROJECTION_KEYS, 100)}))
(out / "decay.csv").write_text(
    "t,eta\n0.02,0.078\n0.05,0.07\n0.1,0.045\n0.2,0.01\n")
seen = {}
for argv in (["reproduce", "table1-20ms"], ["simulate", "afc"],
             ["simulate", "spinwave", "--trials", "2000"],
             ["simulate", "qubit", "--trials", "2000"],
             ["tomo", str(out / "counts.json")],
             ["fit", "mims", str(out / "decay.csv")]):
    code = main([*argv, "--out", str(out)])
    seen[" ".join(argv[:2])] = [
        code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]
print(json.dumps(seen))
"""


def test_cold_start_loads_no_scipy():
    # structural, not a timing: no command loads scipy, a fit included
    proc = run_python("-c", _COLD_START, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    for command, (code, modules) in seen.items():
        assert code == 0, command
        assert modules == [], command


_SCIPY_BLOCKED = r"""
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from afcmem.cli import main

out, csv = sys.argv[1:]
codes = [main(["reproduce", "fig1e", "--out", out + "/fig1e"]),
         main(["reproduce", "fig2", "--out", out + "/fig2"]),
         main(["fit", "mims", csv, "--out", out + "/fit"])]
print(json.dumps(codes))
"""


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_runtime_needs_numpy_only(tmp_path, capsys):
    # the fits' intervals need no scipy: with scipy unimportable each run
    # exits 0 and writes what an unblocked run writes
    csv = tmp_path / "decay.csv"
    t = np.linspace(0.02, 0.3, 12)
    waveform.write_csv(csv, "t_s_seconds,eta", t,
                       mims_curve(t, 0.08, 0.106, 1.8))
    blocked, free = tmp_path / "blocked", tmp_path / "free"
    proc = run_python("-c", _SCIPY_BLOCKED, str(blocked), str(csv),
                      check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 0]
    assert run_cli("reproduce", "fig1e", "--out", str(free / "fig1e")) == 0
    assert run_cli("reproduce", "fig2", "--out", str(free / "fig2")) == 0
    assert run_cli("fit", "mims", str(csv), "--out", str(free / "fit")) == 0
    assert _tree(blocked) == _tree(free)
    assert sorted(p.name for p in free.iterdir()) == ["fig1e", "fig2", "fit"]


_NO_NUMPY_MA = r"""
import json, sys
from afcmem.cli import main

out, csv = sys.argv[1:]
codes = [main(["reproduce", "fig2", "--out", out + "/fig2"]),
         main(["fit", "mims", csv, "--out", out + "/fit"])]
print(json.dumps([codes, "numpy.ma" in sys.modules]))
"""


def test_fits_do_not_import_numpy_ma(tmp_path):
    # counting distinct abscissae must not pull in numpy.ma (np.unique
    # does), about 1.2 MiB of resident memory in every process that fits
    csv = tmp_path / "decay.csv"
    t = np.linspace(0.02, 0.3, 12)
    waveform.write_csv(csv, "t_s_seconds,eta", t,
                       mims_curve(t, 0.08, 0.106, 1.8))
    proc = run_python("-c", _NO_NUMPY_MA, str(tmp_path), str(csv),
                      check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0], False]


def _run_quiet(*args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(*args)
    return code, err.getvalue()


def _assert_exit_0_or_one_line_2(code, err):
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


_FIELD_NAMES = [f.name for f in dataclasses.fields(ExperimentConfig)]
_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text("XYxy48-_ .e", max_size=4),
    st.lists(st.integers(), max_size=2),
    st.sampled_from([0, 1, 2, 0.5, 1.5, 1e-6, 0.02, 10**400, "XY8",
                     "gaussian"]))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(_FIELD_NAMES), _VALUES, max_size=4))
def test_any_flat_config_validates_or_exits_2(data):
    # the simulation is stubbed: this checks the config boundary only
    summary = {"summary": {"eta": 0.0, "snr": 0.0, "mu1": 0.0}}
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        mp.setitem(harness.RUNS, "spinwave",
                   lambda cfg: types.SimpleNamespace(
                       metrics=summary, save=lambda out: None))
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(data))
        code, err = _run_quiet("simulate", "spinwave", "--config", str(path),
                               "--out", tmp)
    _assert_exit_0_or_one_line_2(code, err)


_COUNTS = {"counts": {"early": 500, "late": 500, "plus": 900, "minus": 100,
                      "plus_i": 500, "minus_i": 500},
           "n_trials": dict.fromkeys(PROJECTION_KEYS, 10_000)}


@pytest.mark.parametrize("data", [
    [1, 2], 5, None, {**_COUNTS, "n_trials": 5}, {**_COUNTS, "counts": [1]},
    {**_COUNTS, "noise": {"early": "x"}},
    {**_COUNTS, "counts": {**_COUNTS["counts"], "plus": float("nan")}},
    {**_COUNTS, "n_trials": {**_COUNTS["n_trials"], "late": 10**400}},
    {**_COUNTS, "target": [0, 0]}, {**_COUNTS, "target": "xy"},
    {**_COUNTS, "snr": "7"}, {**_COUNTS, "mu_in": 1e12, "eta": 0.1},
])
def test_malformed_counts_json_exits_2(tmp_path, data):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(data))
    code, err = _run_quiet("tomo", str(path), "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("row", ["nan,0.1", "0.1,inf", "1e999,0.1",
                                 "0.1,-inf", "0.2", "0.1,abc"])
def test_malformed_fit_csv_exits_2(tmp_path, row):
    path = tmp_path / "decay.csv"
    path.write_text("t,eta\n0.02,0.08\n0.05,0.06\n" + row + "\n0.1,0.04\n")
    code, err = _run_quiet("fit", "mims", str(path), "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ":4:" in err


@pytest.mark.parametrize("lineno", [1, 3])
def test_non_utf8_fit_csv_names_its_line(tmp_path, lineno):
    lines = [b"t,eta", b"0.02,0.08", b"0.05,0.06", b"0.07,0.05", b"0.1,0.04"]
    lines[lineno - 1] = b"\xff\xfe,1"
    path = tmp_path / "decay.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    code, err = _run_quiet("fit", "afc", str(path), "--out", str(tmp_path))
    assert code == 2
    assert err == f"error: {path}:{lineno}: not UTF-8 text\n"
    assert not list(tmp_path.glob("fit_*.json"))


def _fit_quiet(tmp_path, model, rows):
    path = tmp_path / "data.csv"
    path.write_text("\n".join(["x,y", *rows]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _run_quiet("fit", model, str(path), "--out", str(tmp_path))


@pytest.mark.parametrize("model", ["afc", "mims", "powerlaw"])
@pytest.mark.parametrize("rows", [["1,1"] * 3, ["0,1", "0,0.5", "0,0.2"]])
def test_undetermined_fit_csv_exits_2(tmp_path, model, rows):
    code, err = _fit_quiet(tmp_path, model, rows)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("fit_*.json"))


def test_unconverged_fit_exits_2(tmp_path):
    # a flat decay: the mims minimum lies at t2 -> 0, m -> 0
    code, err = _fit_quiet(tmp_path, "mims",
                           ["0.02,1", "0.02,2", "0.05,1", "0.1,1"])
    assert code == 2
    assert err == f"error: the mims fit did not converge on {tmp_path / 'data.csv'}\n"
    assert not list(tmp_path.glob("fit_*.json"))


_PROJECTION_NAMES = st.sampled_from(PROJECTION_KEYS + ("other",))
_TABLES = st.one_of(
    _VALUES, st.dictionaries(_PROJECTION_NAMES, _VALUES, max_size=7),
    st.fixed_dictionaries({key: st.one_of(st.integers(0, 10**4), _VALUES)
                           for key in PROJECTION_KEYS}))
_COUNTS_JSON = st.one_of(_VALUES, st.fixed_dictionaries(
    {"counts": _TABLES, "n_trials": _TABLES},
    optional={"noise": _TABLES, "target": _VALUES, "snr": _VALUES,
              "mu_in": _VALUES, "eta": _VALUES}))


@settings(max_examples=60, deadline=None)
@given(_COUNTS_JSON, st.booleans())
def test_any_counts_json_reconstructs_or_exits_2(data, subtract_noise):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.json"
        path.write_text(json.dumps(data))
        flag = ("--subtract-noise",) if subtract_noise else ()
        code, err = _run_quiet("tomo", str(path), *flag, "--out", tmp)
    _assert_exit_0_or_one_line_2(code, err)


_CSV_FIELDS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "inf", "-Infinity", "1e999", "", " 3 ", "abc"]))
_CSV_ROWS = st.lists(st.one_of(st.tuples(_CSV_FIELDS, _CSV_FIELDS),
                               st.lists(_CSV_FIELDS, max_size=3)).map(",".join),
                     max_size=8)


@settings(max_examples=60, deadline=None)
@given(_CSV_ROWS)
def test_any_fit_csv_fits_or_exits_2(rows):
    # the fit is stubbed: this checks the CSV boundary only
    stub = types.SimpleNamespace(as_dict=dict, names=[], params=[], ci95=[],
                                 converged=True)
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "fit_mims", lambda x, y: stub)
        path = Path(tmp) / "data.csv"
        path.write_text("\n".join(["x,y", *rows]) + "\n")
        code, err = _run_quiet("fit", "mims", str(path), "--out", tmp)
    _assert_exit_0_or_one_line_2(code, err)
    if code == 0:
        parsed = [[float(v) for v in row.split(",")[:2]] for row in rows
                  if row.strip()]
        assert len(parsed) >= 3 and np.all(np.isfinite(parsed))


_FIT_X = st.one_of(st.just(0.0), st.sampled_from([0.02, 0.05, 0.1, 0.2]),
                   st.floats(1e-3, 1e3))
_FIT_Y = st.floats(1e-4, 10.0)
_FIT_ROWS = st.lists(st.tuples(_FIT_X, _FIT_Y), min_size=3, max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["afc", "mims", "powerlaw"]), _FIT_ROWS)
# steep power laws: t2_1 overflows, or its reciprocal does
@example("powerlaw", [(390.0, 1.0), (391.0, 1.0), (389.0, 2.0)])
@example("powerlaw", [(194.0, 1.0), (194.0, 1.0), (195.0, 2.0)])
def test_any_positive_fit_csv_fits_or_exits_2(model, rows):
    # the real fits: any such CSV fits cleanly or exits 2 with one line,
    # and what is written holds finite numbers only
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _fit_quiet(Path(tmp), model,
                               [f"{x!r},{y!r}" for x, y in rows])
        _assert_exit_0_or_one_line_2(code, err)
        if code == 0:
            assert err == ""
        for written in Path(tmp).glob("fit_*.json"):
            text = written.read_text()
            assert "NaN" not in text and "Infinity" not in text


@pytest.mark.parametrize("what, bad", [
    ("afc", {"comb_bandwidth_hz": 3e5}),  # under 10 comb periods
    ("qubit", {"comb_peak_od": 0}),  # no counts in the analyser bins
])
def test_failed_run_leaves_no_output_directory(tmp_path, capsys, what, bad):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(bad))
    out = tmp_path / "out"
    code = run_cli("simulate", what, "--trials", "2000", "--config",
                   str(path), "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_qubit_run_without_counts_names_stage(tmp_path, capsys):
    # an echo stage that stores nothing leaves the analyser bins empty at a
    # few thousand trials: exit 2, one line naming the stage, the trial
    # count and the composed efficiency
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"comb_peak_od": 0}))
    code = run_cli("simulate", "qubit", "--trials", "2000", "--config",
                   str(path), "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [tomography] no counts in basis")
    assert err.count("\n") == 1
    assert "2000 trials" in err and "eta_end_to_end is 0 " in err
    assert "eta_afc 0 " in err


@pytest.mark.parametrize("modes", [2, 5])
def test_qubit_run_needs_six_modes(tmp_path, capsys, modes):
    # the two qubits sit in modes 2-3 and 5-6: with fewer modes the timing
    # budget the config checked does not hold them
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mode_count": modes}))
    out = tmp_path / "out"
    code = run_cli("simulate", "qubit", "--config", str(path), "--out",
                   str(out))
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: the qubit run stores its qubits in modes 2-3 and 5-6: "
        f"mode_count must be at least 6, not {modes}\n")
    assert not out.exists()
