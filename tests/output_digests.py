"""The byte ledger: for each CLI run, its exit code and one SHA-256 each of
its stdout, its stderr (with the output directory replaced by "<out>" and
the run's directory by "<run>") and every file it writes.

The runs are the six reproduce presets and simulate afc|spinwave|qubit, at
the default seed and at seeds 1, 2, 3, 7 and 11; then, once each, the
commands that must exit 2 on a bad config or path and fit afc|mims|powerlaw
on fixed CSVs.  Each run reads the files named in its key from a
directory of its own, where the ledger writes them first (FILES).  The
digests are kept in output_digests.json next to this file, with the numpy
version they were made under (they depend on numpy's FFT and random
streams).  A change that moves output bytes on purpose rewrites the file:

  PYTHONPATH=src python tests/output_digests.py --write

and names the keys and files that moved.  Without --write the script prints
each key that moved, with the files (or exit, stdout, stderr) that did.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from afcmem.cli import main
from afcmem.presets import PRESET_NAMES

LEDGER = Path(__file__).with_name("output_digests.json")
SEEDS = (None, 1, 2, 3, 7, 11)
COMMANDS = ([("reproduce", name) for name in PRESET_NAMES]
            + [("simulate", what) for what in ("afc", "spinwave", "qubit")])
ONCE = (
    # a config or a path that must exit 2 with one line
    "simulate spinwave --config short_pulse.json",
    "simulate afc --config short_pulse.json",
    "simulate spinwave --config no_detector.json",
    "simulate spinwave --config no_path.json",
    "simulate spinwave --config fast_ou.json",
    "simulate spinwave --config long_storage.json",
    "simulate spinwave --config huge_ou.json",
    "simulate spinwave --config huge_rabi.json",
    "simulate qubit --config huge_rabi.json",
    "simulate spinwave --config huge_rabi_ou.json",
    "simulate qubit --config huge_rabi_ou.json",
    "reproduce fig1e --out a_file",
    "simulate afc --out a_file",
    "simulate afc --out a_file/sub",
    "simulate afc --config a_dir",
    "fit afc a_dir",
    # the three fits on fixed data
    "fit afc afc.csv",
    "fit mims mims.csv",
    "fit powerlaw powerlaw.csv",
)

# The files a key may name, by name: text, or None for an empty directory.
# afc.csv and mims.csv are their models with 3 % noise, rounded to four
# digits; powerlaw.csv holds the reference T2 of each sequence.
FILES = {
    "short_pulse.json": '{"input_fwhm_seconds": 1e-9}\n',
    "no_detector.json": '{"detector_efficiency": 0}\n',
    "no_path.json": '{"path_transmission": 0}\n',
    # free phases past the turns that float64 resolves
    "fast_ou.json": '{"bath_ou_sigma_hz": 1e21}\n',
    "long_storage.json": '{"t_s_seconds": 1e16}\n',
    "huge_ou.json": '{"bath_ou_sigma_hz": 1e100}\n',
    # RF Rabi frequencies whose pulse squares overflow float64
    "huge_rabi.json": '{"rf_rabi_hz": 1e155}\n',
    "huge_rabi_ou.json": '{"t_s_seconds": 1e-150, "rf_rabi_hz": 1e160, '
                         '"bath_ou_sigma_hz": 1e155, "bath_inhom_fwhm_hz": 0, '
                         '"n_atoms": 100}\n',
    "a_file": "",
    "a_dir": None,
    "afc.csv": "one_over_delta_s,eta\n" + "".join(f"{t},{y}\n" for t, y in (
        ("5e-06", "0.2979"), ("1.396e-05", "0.2098"), ("2.292e-05", "0.2462"),
        ("3.188e-05", "0.1599"), ("4.083e-05", "0.1489"),
        ("4.979e-05", "0.1573"), ("5.875e-05", "0.09491"),
        ("6.771e-05", "0.1065"), ("7.667e-05", "0.09319"),
        ("8.563e-05", "0.06153"), ("9.458e-05", "0.07295"),
        ("0.0001035", "0.05315"), ("0.0001125", "0.04144"),
        ("0.0001215", "0.04721"), ("0.0001304", "0.02943"),
        ("0.0001394", "0.0312"), ("0.0001483", "0.02874"),
        ("0.0001573", "0.01817"), ("0.0001663", "0.02115"),
        ("0.0001752", "0.01631"), ("0.0001842", "0.01244"),
        ("0.0001931", "0.01428"), ("0.0002021", "0.009663"),
        ("0.000211", "0.009222"), ("0.00022", "0.008173"))),
    "mims.csv": "t_s_seconds,eta\n" + "".join(f"{t},{y}\n" for t, y in (
        ("0.03", "0.7253"), ("0.04", "0.6164"), ("0.05", "0.4287"),
        ("0.06", "0.2571"), ("0.07", "0.1226"), ("0.08", "0.04836"),
        ("0.09", "0.0124"), ("0.1", "0.002612"))),
    "powerlaw.csv": "n_pulses,t2_s\n2,0.070\n4,0.106\n8,0.154\n16,0.230\n",
}


def run_keys() -> list[str]:
    """The ledger's keys as CLI arguments: one per (command, seed), then
    the runs made once."""
    return [" ".join(cmd) + ("" if seed is None else f" --seed {seed}")
            for cmd in COMMANDS for seed in SEEDS] + list(ONCE)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(key: str, workdir: Path) -> dict:
    """{"exit": code, "stdout": digest, "stderr": digest, file: digest, ...}
    of one run of `afcmem <key>`, each digest a SHA-256 and each output file
    named by its path under the output directory.  The run is made in a
    directory of its own under workdir, which holds the FILES the key
    names, and writes to the key's --out, or else to out/ there."""
    run = workdir / key.replace(" ", "_").replace("/", "_")
    run.mkdir()
    args = key.split()
    for i, arg in enumerate(args):
        name = arg.split("/")[0]
        if name in FILES:
            if FILES[name] is None:
                (run / name).mkdir()
            else:
                (run / name).write_text(FILES[name])
            args[i] = str(run / arg)
    if "--out" not in args:
        args += ["--out", str(run / "out")]
    out = Path(args[args.index("--out") + 1])
    stdout, stderr = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        code = main(args)
    record = {"exit": code}
    for name, stream in (("stdout", stdout), ("stderr", stderr)):
        record[name] = _sha(stream.getvalue().replace(str(out), "<out>")
                            .replace(str(run), "<run>").encode())
    for path in sorted(out.rglob("*")):
        if path.is_file():
            record[path.relative_to(out).as_posix()] = _sha(path.read_bytes())
    return record


def compute() -> dict:
    """Every run's digests, in one process, with the numpy version."""
    with tempfile.TemporaryDirectory() as tmp:
        digests = {key: digest(key, Path(tmp)) for key in run_keys()}
    return {"numpy": np.__version__, "digests": digests}


def load() -> dict:
    return json.loads(LEDGER.read_text())


def moved(recorded: dict, current: dict) -> list[str]:
    """Each key that only one side has, and "key: part, ..." for each other
    key, naming its parts (exit, stdout, stderr or a file) that differ or
    that only one side has."""
    old, new = recorded["digests"], current["digests"]
    out = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            out.append(f"{key} ({'added' if key in new else 'removed'})")
            continue
        a, b = old[key], new[key]
        parts = sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p))
        if parts:
            out.append(f"{key}: {', '.join(parts)}")
    return out


if __name__ == "__main__":
    current = compute()
    if "--write" in sys.argv[1:]:
        LEDGER.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"wrote the digests of {len(current['digests'])} runs to "
              f"{LEDGER}")
    else:
        keys = moved(load(), current)
        print("\n".join(keys) if keys else "no output moved")
