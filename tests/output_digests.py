"""The byte ledger: one SHA-256 per CLI run over its exit code, its stdout
and stderr (with the output directory replaced by "<out>" and the run's
directory by "<run>") and every file it writes.

The runs are the six reproduce presets and simulate afc|spinwave|qubit, at
the default seed and at seeds 1, 2, 3, 7 and 11; then, once each, the
commands that must exit 2 on a bad config or path and fit afc|mims|powerlaw
on fixed CSVs.  Each run reads the files named in its key from a
directory of its own, where the ledger writes them first (FILES).  The
digests are kept in output_digests.json next to this file, with the numpy
version they were made under (they depend on numpy's FFT and random
streams).  A change that moves output bytes on purpose rewrites the file:

  PYTHONPATH=src python tests/output_digests.py --write

and names the keys that moved.  Without --write the script prints the keys
whose digest differs from the file.
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


def digest(key: str, workdir: Path) -> str:
    """SHA-256 of one run of `afcmem <key>` in a directory of its own
    under workdir, which holds the FILES the key names; the run writes to
    the key's --out, or else to out/ there."""
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
    h = hashlib.sha256(f"exit {code}\n".encode())
    for stream in (stdout, stderr):
        h.update(stream.getvalue().replace(str(out), "<out>")
                 .replace(str(run), "<run>").encode())
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(f"\n{path.relative_to(out).as_posix()}\n".encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def compute() -> dict:
    """Every run's digest, in one process, with the numpy version."""
    with tempfile.TemporaryDirectory() as tmp:
        digests = {key: digest(key, Path(tmp)) for key in run_keys()}
    return {"numpy": np.__version__, "digests": digests}


def load() -> dict:
    return json.loads(LEDGER.read_text())


def moved(recorded: dict, current: dict) -> list[str]:
    """Keys whose digest differs, or that only one side has."""
    old, new = recorded["digests"], current["digests"]
    return sorted(k for k in old.keys() | new.keys()
                  if old.get(k) != new.get(k))


if __name__ == "__main__":
    current = compute()
    if "--write" in sys.argv[1:]:
        LEDGER.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(current['digests'])} digests to {LEDGER}")
    else:
        keys = moved(load(), current)
        print("\n".join(keys) if keys else "no output moved")
