"""The knob ledger: which runs each config field moves.

Each field is stepped once from a base config, and every simulate run
(afc, spinwave, qubit) is compared with its run at the base.  A run's
output is its report without config and provenance, plus its files.
"""

import dataclasses
import hashlib

import numpy as np

from afcmem.config import ExperimentConfig
from afcmem.harness import RUNS, json_text

# small enough that the whole ledger runs in under a second
BASE = ExperimentConfig(n_atoms=500, n_trials=5000, n_trials_noise=10_000,
                        seed=1)
ALL = {"afc", "spinwave", "qubit"}
STORED = {"spinwave", "qubit"}

# field: (the runs it moves, its stepped value[, the base's other fields]).
# Steps of the comb period, transfer duration, mode count and duration
# keep the timing budget (6 x 1.65 us + 15 us of the 25 us 1/Delta); steps
# of the mode duration and bin width keep the bin a divisor of the mode.
KNOBS = {
    "comb_period_hz": (ALL, 39e3),
    "comb_finesse": (ALL, 5.0),
    "comb_peak_od": (ALL, 2.5),
    "comb_background_od": (ALL, 0.1),
    "comb_bandwidth_hz": ({"afc"}, 2.5e6),
    "comb_tooth_shape": (ALL, "gaussian"),
    "comb_passes": (ALL, 1),
    # the splitting acts only through the modulation, 0 by default
    "zeeman_split_hz": (ALL, 30e3, {"afc_mod_depth": 0.3}),
    "afc_t2_seconds": (ALL, 200e-6),
    "afc_mod_depth": (ALL, 0.3),
    "transfer_duration_seconds": (STORED, 14e-6),
    "transfer_bandwidth_hz": (STORED, 1.4e6),
    "eta_end_to_end_target": (STORED, 0.05),
    "dd_kind": (STORED, "XY8"),
    "t_s_seconds": (STORED, 0.03),
    "rf_rabi_hz": (STORED, 100e3),
    "rf_area_error": (STORED, 0.02),
    "rf_phase_error_rad": (STORED, 0.01),
    "p_noise_target_per_mode": (STORED, 0.005),
    "bath_inhom_fwhm_hz": (STORED, 50e3),
    "bath_ou_sigma_hz": (STORED, 5.0),
    "bath_ou_tau_c_seconds": (STORED, 1.0),
    "n_atoms": (STORED, 400),
    # the qubit run reads modes 1-9 whatever the count; 7 modes fit a
    # 35 kHz comb
    "mode_count": ({"spinwave"}, 7, {"comb_period_hz": 35e3}),
    "mode_duration_seconds": (STORED, 1.485e-6),
    "input_fwhm_seconds": (ALL, 600e-9),
    "mu_in_per_mode": (STORED, 0.8),
    "detector_efficiency": (STORED, 0.5),
    "path_transmission": (STORED, 0.2),
    "dark_rate_hz": (STORED, 100.0),
    "bin_width_seconds": (STORED, 82.5e-9),
    "qubit_visibility": ({"qubit"}, 0.9),
    "n_trials": (STORED, 6000),
    "n_trials_noise": ({"spinwave"}, 12_000),
    "seed": (STORED, 2),
}


def _output(report) -> str:
    """Digest of the report without config and provenance, and of its
    CSV tables."""
    fields = report.to_dict()
    del fields["config"], fields["provenance"]
    digest = hashlib.sha256(json_text(fields).encode())
    for name, (header, *columns) in sorted(report.files.items()):
        digest.update(f"{name}\0{header}\0".encode())
        for column in columns:
            digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def test_every_config_field_moves_an_output():
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert sorted(KNOBS) == sorted(fields)
    assert all(moves for moves, *_ in KNOBS.values())
    outputs = {}

    def output(cfg, kind):
        if (cfg, kind) not in outputs:
            outputs[cfg, kind] = _output(RUNS[kind](cfg))
        return outputs[cfg, kind]

    moved = {}
    for name, (_, value, *base) in KNOBS.items():
        cfg = dataclasses.replace(BASE, **(base[0] if base else {}))
        stepped = dataclasses.replace(cfg, **{name: value})
        moved[name] = {kind for kind in sorted(ALL)
                       if output(stepped, kind) != output(cfg, kind)}
    assert moved == {name: moves for name, (moves, *_) in KNOBS.items()}
