"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 simulation failure,
4 reproduction-tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .comb import CombParams, build_comb, propagate
from .config import (ExperimentConfig, _is_finite, provenance,
                     read_config_json)
from .fitting import fit_afc_decay, fit_mims, fit_power_law
from .harness import (RunReport, afc_efficiency, json_text, reproduce,
                      run_qubit_tomography, run_spinwave)
from .presets import PRESET_NAMES
from .tomography import (TomoCounts, classical_bound_weak_coherent,
                         reconstruct, white_noise_fidelity)
from .waveform import gaussian_pulse


def _load_config(args) -> ExperimentConfig:
    """The config file's object with --seed and --trials merged in, built
    (and so checked) once."""
    data = read_config_json(args.config) if args.config else {}
    for key, value in (("seed", args.seed), ("n_trials", args.trials)):
        if value is not None:
            data[key] = value
    return ExperimentConfig.from_dict(data)


def _check_out(path) -> None:
    """Refuse an --out that is, or lies under, something other than a
    directory before any run, so that no run is made for nothing."""
    existing = Path(path).absolute()
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir():
        raise ValueError(f"--out {path}: {existing} is not a directory")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(report: RunReport, out: Path) -> None:
    report.save(out)
    print(f"report written to {out / 'report.json'}")


def _cmd_simulate(args) -> int:
    # the output directory is made only once the run has succeeded
    cfg = _load_config(args)
    if args.what == "afc":
        params = CombParams(
            comb_period_hz=cfg.comb_period_hz, finesse=cfg.comb_finesse,
            peak_od=cfg.comb_peak_od, background_od=cfg.comb_background_od,
            bandwidth_hz=cfg.comb_bandwidth_hz, tooth_shape=cfg.comb_tooth_shape,
            passes=cfg.comb_passes,
            homogeneous_hwhm_hz=1.0 / (math.pi * cfg.afc_t2_seconds))
        spectrum = build_comb(params)
        pulse = gaussian_pulse(cfg.input_fwhm_seconds, 0.0, 16e6)
        echo = propagate(pulse, spectrum)
        out = _out_dir(args)
        echo.output_waveform.to_csv(out / "echo_waveform.csv")
        result = {
            "echo_time_s": echo.echo_time_s,
            "echo_efficiency": echo.echo_efficiency,
            # the echo stage's closed form; the comb above leaves out the
            # Zeeman modulation (afc_mod_depth)
            "eta_afc": afc_efficiency(cfg),
            "provenance": provenance(cfg.to_dict()),
        }
        (out / "report.json").write_text(json_text(result))
        print(f"echo at {echo.echo_time_s * 1e6:.3f} us, "
              f"efficiency {echo.echo_efficiency:.4f}")
        return 0
    if args.what == "spinwave":
        report = run_spinwave(cfg)
        _write_report(report, _out_dir(args))
        s = report.metrics["summary"]
        print(f"eta = {s['eta']:.4f}  SNR = {s['snr']:.2f}  mu1 = {s['mu1']:.4f}")
        return 0
    report = run_qubit_tomography(cfg)
    _write_report(report, _out_dir(args))
    t = report.tomography
    print(f"F = {t['fidelity_avg']:.4f}  P = {t['purity_avg']:.4f}")
    return 0


def _read_xy_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """x and y from the first two columns of a CSV with one header line;
    blank lines are skipped and any other malformed row is an error."""
    rows = []
    # undecodable bytes pass as surrogates, so each line can name its own
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None
            if lineno == 1 or not line.strip():
                continue
            parts = line.strip().split(",")
            try:
                if len(parts) < 2:
                    raise ValueError("need two columns")
                x, y = float(parts[0]), float(parts[1])
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError("non-finite value")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            rows.append((x, y))
    if len(rows) < 3:
        raise ValueError(f"not enough data rows in {path}")
    arr = np.array(rows)
    return arr[:, 0], arr[:, 1]


def _cmd_fit(args) -> int:
    x, y = _read_xy_csv(args.data)
    if args.model == "afc":
        fit = fit_afc_decay(x, y)
    elif args.model == "mims":
        fit = fit_mims(x, y)
    else:
        fit = fit_power_law(x, y)
    if not fit.converged:
        raise ValueError(f"the {args.model} fit did not converge on {args.data}")
    out = _out_dir(args)
    (out / f"fit_{args.model}.json").write_text(json_text(fit.as_dict()))
    for name, value, ci in zip(fit.names, fit.params, fit.ci95):
        print(f"{name} = {value:.6g} +- {ci:.3g} (95% CI)")
    return 0


def _check_number(name: str, value) -> None:
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not _is_finite(value)):
        raise ValueError(f"{name} must be a finite number")


def _read_counts_json(path) -> tuple[TomoCounts, np.ndarray, dict]:
    """TomoCounts, target state and the parsed counts JSON object, every
    value checked to be a finite number before any is used."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object")
    tables = {}
    for name in ("counts", "n_trials", "noise"):
        table = data.get(name, {})
        if not isinstance(table, dict):
            raise ValueError(f"{name} must map projection names to numbers")
        for key, value in table.items():
            _check_number(f"{name}[{key!r}]", value)
        tables[name] = table
    tc = TomoCounts(**tables)
    target = data.get("target", [1, 1])
    if not isinstance(target, list) or len(target) != 2:
        raise ValueError("target must be a list of two numbers")
    for i, value in enumerate(target):
        _check_number(f"target[{i}]", value)
    target = np.array(target, dtype=float) / np.sqrt(2)
    if not 0 < np.linalg.norm(target) < math.inf:
        raise ValueError("target must be a nonzero vector of finite norm")
    for name in ("snr", "mu_in", "eta"):
        if name in data:
            _check_number(name, data[name])
    return tc, target, data


def _cmd_tomo(args) -> int:
    tc, target, data = _read_counts_json(args.counts)
    result = reconstruct(tc, target, subtract_noise=args.subtract_noise)
    if "snr" in data:
        result["white_noise_fidelity"] = white_noise_fidelity(data["snr"])
    if "mu_in" in data and "eta" in data:
        result["classical_bound_weak_coherent"] = classical_bound_weak_coherent(
            data["mu_in"], data["eta"])
    (_out_dir(args) / "tomo_report.json").write_text(json_text(result))
    e = result["expectations"]
    print(f"F = {result['fidelity']:.4f}  P = {result['purity']:.4f}  "
          f"<sx,sy,sz> = ({e['sx']:.3f}, {e['sy']:.3f}, {e['sz']:.3f})")
    return 0


def _cmd_reproduce(args) -> int:
    report, passed = reproduce(args.preset, args.out, seed=args.seed)
    for check in report.checks or []:
        status = "PASS" if check["pass"] else ("FAIL" if check.get("gated", True)
                                               else "info")
        print(f"[{status}] {check['name']}: {check['value']:.6g} "
              f"(band {check['lo']:.6g} .. {check['hi']:.6g})")
    print(f"preset {args.preset}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afcmem",
        description="Simulator and analysis toolkit for AFC spin-wave "
                    "optical memories")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a simulation stage")
    sim.add_argument("what", choices=["afc", "spinwave", "qubit"])
    sim.add_argument("--config", help="flat JSON config file")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--trials", type=int)
    sim.add_argument("--out", default="out")
    sim.set_defaults(func=_cmd_simulate)

    fit = sub.add_parser("fit", help="fit a decay law to CSV data")
    fit.add_argument("model", choices=["afc", "mims", "powerlaw"])
    fit.add_argument("data", help="CSV with x in column 1 and y in column 2")
    fit.add_argument("--out", default="out")
    fit.set_defaults(func=_cmd_fit)

    tomo = sub.add_parser("tomo", help="reconstruct a qubit from counts JSON")
    tomo.add_argument("counts", help="JSON with counts/n_trials per projection")
    tomo.add_argument("--subtract-noise", action="store_true")
    tomo.add_argument("--out", default="out")
    tomo.set_defaults(func=_cmd_tomo)

    rep = sub.add_parser("reproduce", help="run a reproduction preset")
    rep.add_argument("preset", choices=list(PRESET_NAMES))
    rep.add_argument("--seed", type=int)
    rep.add_argument("--out", default="out")
    rep.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    # an input path that is missing, a directory or under a file is bad
    # input; any other error writing the output is a failure of the run
    except (ValueError, KeyError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # simulation failure
        print(f"simulation failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
