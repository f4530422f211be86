"""The byte ledger: one SHA-256 per CLI run over its exit code, its stdout
and stderr (with the output directory replaced by "<out>") and every file
it writes.

The runs are the six reproduce presets and simulate afc|spinwave|qubit, at
the default seed and at seeds 1, 2, 3, 7 and 11.  The digests are kept in
output_digests.json next to this file, with the numpy version they were
made under (they depend on numpy's FFT and random streams).  A change that
moves output bytes on purpose rewrites the file:

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


def run_keys() -> list[str]:
    """The ledger's keys, one per (command, seed), as CLI arguments."""
    return [" ".join(cmd) + ("" if seed is None else f" --seed {seed}")
            for cmd in COMMANDS for seed in SEEDS]


def digest(key: str, workdir: Path) -> str:
    """SHA-256 of one run of `afcmem <key>` writing under workdir."""
    out = workdir / key.replace(" ", "_")
    stdout, stderr = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        code = main([*key.split(), "--out", str(out)])
    h = hashlib.sha256(f"exit {code}\n".encode())
    for stream in (stdout, stderr):
        h.update(stream.getvalue().replace(str(out), "<out>").encode())
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
