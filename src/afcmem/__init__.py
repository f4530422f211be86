"""Seeded simulator and analysis toolkit for AFC spin-wave optical memories."""

__version__ = "0.1.0"

from .waveform import Waveform, gaussian_pulse
from .comb import (CombParams, CombSpectrum, EchoResult, afc_decay_model,
                   build_comb, propagate)
from .pulses import (ChshSpec, DDSequence, HshSpec, chirp_rate, chsh_waveform,
                     chsh_crossing_times, dd_sequence, half_transfer_rabi,
                     hsh_waveform, reference_transfer_pulse)
from .bloch import TransferProfile, bloch_propagate, transfer_profile
from .spinbath import (PulseErrorModel, SpinBathParams, SpinStorageResult,
                       efficiency_decay, ou_sigma_for_t2, residual_excitation,
                       sample_ensemble, spin_echo_coherence)
from .detection import (CountHistogram, DetectionChain, ModeSums, metrics,
                        mode_sums, noise_floor_model, simulate_counts,
                        table_metrics)
from .tomography import (DensityMatrix, TomoCounts, classical_bound_weak_coherent,
                         direct_inversion, fidelity, max_fidelity_from_purity,
                         pauli_expectations, purity, trace_distance,
                         white_noise_fidelity)
from .fitting import (FitResult, fit_afc_decay, fit_mims, fit_power_law,
                      levenberg_marquardt)
from .config import ExperimentConfig
from .harness import RunReport, reproduce, run_qubit_tomography, run_spinwave
