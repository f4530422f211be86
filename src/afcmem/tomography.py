"""Single-qubit state reconstruction, fidelity metrics and storage bounds."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PROJECTION_KEYS = ("early", "late", "plus", "minus", "plus_i", "minus_i")

# Largest mean photon number the classical bound accepts: its Poisson
# table has about mu entries, and beyond this the bound is within 1e-6 of 1.
MAX_MEAN_PHOTONS = 1e6


@dataclass
class TomoCounts:
    """Raw counts for the six time-bin projections.

    counts maps projection name to summed detector counts; n_trials maps
    to the repetitions of that projection; noise holds per-projection
    background estimates in the same normalization as counts/trials.
    """

    counts: dict
    n_trials: dict
    noise: dict = field(default_factory=dict)

    def validate(self) -> None:
        for key in PROJECTION_KEYS:
            if key not in self.counts or key not in self.n_trials:
                raise ValueError(f"missing projection {key!r}")
            if self.counts[key] < 0:
                raise ValueError("counts must be nonnegative")
            if self.n_trials[key] <= 0:
                raise ValueError("n_trials must be positive")

    def rate(self, key: str) -> float:
        r = self.counts[key] / self.n_trials[key]
        if self.noise:
            return r - self.noise.get(key, 0.0)
        return r


@dataclass
class DensityMatrix:
    """2x2 state with its Bloch vector; rescaled flags a nonphysical
    reconstruction pulled back to the Bloch sphere."""

    matrix: np.ndarray
    bloch: np.ndarray
    rescaled: bool = False

    def validate(self) -> None:
        m = self.matrix
        if not np.allclose(m, m.conj().T, atol=1e-10):
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(m).real - 1) > 1e-12:
            raise ValueError("density matrix must have unit trace")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise ValueError("density matrix must be positive semidefinite")


def pauli_expectations(tc: TomoCounts, subtract_noise: bool = False):
    """(<sx>, <sy>, <sz>) from projection counts.

    Each expectation is (N+ - N-)/(N+ + N-) on per-trial rates; raw counts
    by default (no background subtraction), matching the raw-fidelity
    convention.
    """
    tc.validate()

    def one(plus, minus):
        if subtract_noise:
            a = tc.rate(plus)
            b = tc.rate(minus)
        else:
            a = tc.counts[plus] / tc.n_trials[plus]
            b = tc.counts[minus] / tc.n_trials[minus]
        tot = a + b
        if tot <= 0:
            raise ValueError(f"no counts in basis ({plus}, {minus})")
        return (a - b) / tot

    sx = one("plus", "minus")
    sy = one("plus_i", "minus_i")
    sz = one("early", "late")
    return sx, sy, sz


def direct_inversion(r) -> DensityMatrix:
    """rho = (I + r . sigma)/2; a Bloch vector outside the unit ball is
    rescaled onto it and flagged."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,) or not np.all(np.isfinite(r)):
        raise ValueError("Bloch vector must be three finite components")
    norm = float(np.linalg.norm(r))
    rescaled = norm > 1.0
    if rescaled:
        r = r / norm
    rho = 0.5 * (np.eye(2, dtype=complex)
                 + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z)
    return DensityMatrix(matrix=rho, bloch=r, rescaled=rescaled)


def reconstruct(tc: TomoCounts, target, subtract_noise: bool = False) -> dict:
    """Pauli expectations of tc, their direct inversion, and its fidelity
    to the pure target state and purity, as a JSON-ready dict; rho holds
    each element as [real, imag]."""
    sx, sy, sz = pauli_expectations(tc, subtract_noise=subtract_noise)
    dm = direct_inversion([sx, sy, sz])
    return {
        "expectations": {"sx": sx, "sy": sy, "sz": sz},
        "rho": [[[dm.matrix[i, j].real, dm.matrix[i, j].imag]
                 for j in range(2)] for i in range(2)],
        "rescaled": dm.rescaled,
        "fidelity": fidelity(dm, target),
        "purity": purity(dm),
    }


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return np.asarray(rho, dtype=complex)


def fidelity(rho, psi) -> float:
    """<psi|rho|psi> for a pure target state psi (2-vector)."""
    m = _as_matrix(rho)
    v = np.asarray(psi, dtype=complex)
    v = v / np.linalg.norm(v)
    return float(np.real(np.conj(v) @ m @ v))


def purity(rho) -> float:
    m = _as_matrix(rho)
    return float(np.real(np.trace(m @ m)))


def trace_distance(rho_a, rho_b) -> float:
    d = _as_matrix(rho_a) - _as_matrix(rho_b)
    eig = np.linalg.eigvalsh(d)
    return float(0.5 * np.sum(np.abs(eig)))


def max_fidelity_from_purity(p: float) -> float:
    """Largest fidelity to any pure state compatible with purity p in the
    absence of unitary errors: (1 + sqrt(2p - 1))/2."""
    if not 0.5 <= p <= 1.0:
        raise ValueError("purity must lie in [0.5, 1]")
    return 0.5 * (1.0 + np.sqrt(2.0 * p - 1.0))


def white_noise_fidelity(snr: float) -> float:
    """Fidelity bound (snr + 1)/(snr + 2) for signal on a white noise
    background."""
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    return (snr + 1.0) / (snr + 2.0)


def classical_bound_weak_coherent(mu: float, eta: float) -> float:
    """Best classical (measure-and-prepare) fidelity for a qubit carried by
    a weak coherent state of mean photon number mu through a memory of
    efficiency eta.

    A cheating strategy accepts a total probability budget eta, filling it
    greedily from the largest photon numbers downward (where the state is
    easiest to estimate) and scoring each accepted n with (n+1)/(n+2);
    vacuum contributes a random guess at fidelity 1/2.
    """
    if not 0 < mu <= MAX_MEAN_PHOTONS:
        raise ValueError(f"mu must lie in (0, {MAX_MEAN_PHOTONS:g}]")
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    # Poisson tail small enough to ignore beyond n_max
    n_max = int(mu + 12 * np.sqrt(mu) + 30)
    n = np.arange(n_max + 1)
    log_p = -mu + n * np.log(mu) - np.cumsum(np.concatenate([[0.0], np.log(np.maximum(n[1:], 1))]))
    p = np.exp(log_p)
    scores = np.where(n == 0, 0.5, (n + 1.0) / (n + 2.0))
    budget = eta
    total = 0.0
    for i in range(n_max, -1, -1):
        take = min(p[i], budget)
        total += take * scores[i]
        budget -= take
        if budget <= 0:
            break
    return float(total / eta)
