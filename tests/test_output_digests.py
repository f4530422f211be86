import numpy as np

from output_digests import compute, load, moved


def test_outputs_match_the_ledger():
    # the same seed gives the same bytes: a change that moves outputs on
    # purpose rewrites tests/output_digests.json and names the moved keys
    # and, for each, the files (or exit code, stdout, stderr) that moved
    recorded = load()
    keys = moved(recorded, compute())
    assert not keys, (
        f"outputs moved: {keys}; the ledger was written under numpy "
        f"{recorded['numpy']}, this is numpy {np.__version__}; "
        f"rewrite it with `python tests/output_digests.py --write` if the "
        f"move is meant")
