import numpy as np
import pytest

from afcmem.tomography import (PROJECTION_KEYS, TomoCounts,
                               classical_bound_weak_coherent, direct_inversion,
                               fidelity, max_fidelity_from_purity,
                               pauli_expectations, purity, trace_distance,
                               white_noise_fidelity)

PLUS = np.array([1, 1]) / np.sqrt(2)


def _tc(plus, minus, plus_i=1, minus_i=1, early=1, late=1, trials=1):
    counts = {"early": early, "late": late, "plus": plus, "minus": minus,
              "plus_i": plus_i, "minus_i": minus_i}
    return TomoCounts(counts=counts,
                      n_trials={k: trials for k in PROJECTION_KEYS})


def test_expectation_balanced_and_one_sided():
    sx, sy, sz = pauli_expectations(_tc(plus=50, minus=50))
    assert sx == 0.0
    sx, _, _ = pauli_expectations(_tc(plus=80, minus=0))
    assert sx == 1.0


def test_expectation_empty_basis_rejected():
    with pytest.raises(ValueError):
        pauli_expectations(_tc(plus=0, minus=0))
    with pytest.raises(ValueError):
        pauli_expectations(TomoCounts(counts={"early": 1}, n_trials={"early": 1}))


def test_white_noise_expectation_closed_form():
    # interference bins hold signal (1 +- V)/2 plus background: for an
    # ideal-visibility input the asymptotic expectation is s/(s + 2)
    for s in (1.0, 3.48, 7.0, 50.0):
        signal, background = s, 1.0
        n_plus = signal + background
        n_minus = background
        tc = _tc(plus=n_plus, minus=n_minus)
        sx, _, _ = pauli_expectations(tc)
        assert sx == pytest.approx(s / (s + 2), rel=1e-12)


def test_direct_inversion_cases():
    dm = direct_inversion([0, 0, 0])
    assert np.allclose(dm.matrix, np.eye(2) / 2)
    dm = direct_inversion([1, 0, 0])
    assert fidelity(dm, PLUS) == pytest.approx(1.0)
    dm = direct_inversion([0.7, 0, 0])
    assert np.linalg.eigvalsh(dm.matrix) == pytest.approx([0.15, 0.85])


def test_direct_inversion_physicality_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        r = rng.uniform(-1.4, 1.4, size=3)
        dm = direct_inversion(r)
        dm.validate()
        assert dm.rescaled == (np.linalg.norm(r) > 1)
    with pytest.raises(ValueError):
        direct_inversion([np.inf, 0, 0])


def test_fidelity_purity_cases():
    pure = direct_inversion([1, 0, 0])
    assert purity(pure) == pytest.approx(1.0)
    mixed = direct_inversion([0, 0, 0])
    assert fidelity(mixed, PLUS) == pytest.approx(0.5)
    assert purity(mixed) == pytest.approx(0.5)


def test_fidelity_bloch_identity():
    # F = (1 + r . n)/2 for a pure target along n
    rng = np.random.default_rng(4)
    for _ in range(20):
        r = rng.uniform(-1, 1, 3)
        r /= max(1.0, np.linalg.norm(r) + 1e-12)
        dm = direct_inversion(r)
        f = fidelity(dm, PLUS)  # target along +x
        assert f == pytest.approx((1 + r[0]) / 2, abs=1e-12)
        p = purity(dm)
        assert 0.5 - 1e-12 <= p <= 1 + 1e-12


def test_max_fidelity_from_purity():
    assert max_fidelity_from_purity(1.0) == pytest.approx(1.0)
    assert max_fidelity_from_purity(0.5) == pytest.approx(0.5)
    assert max_fidelity_from_purity(0.76) == pytest.approx(0.8606, abs=1e-4)
    for bad in (0.49, 1.01):
        with pytest.raises(ValueError):
            max_fidelity_from_purity(bad)


def test_white_noise_fidelity():
    assert white_noise_fidelity(0.0) == pytest.approx(0.5)
    assert white_noise_fidelity(7.0) == pytest.approx(0.888889, abs=1e-6)
    assert white_noise_fidelity(1e9) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        white_noise_fidelity(-1)


def measure_prepare_fidelity(n: int) -> float:
    """Optimal measure-and-prepare fidelity on n qubit copies: (n+1)/(n+2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (n + 1.0) / (n + 2.0)


def test_measure_prepare_scores():
    assert measure_prepare_fidelity(0) == pytest.approx(0.5)
    assert measure_prepare_fidelity(1) == pytest.approx(2 / 3)
    assert measure_prepare_fidelity(10) == pytest.approx(11 / 12)


def test_classical_bound_reference_point():
    assert classical_bound_weak_coherent(0.92, 0.0739) == pytest.approx(
        0.802, abs=0.005)


def test_classical_bound_full_budget_limit():
    # full acceptance budget at vanishing mu: dominated by the vacuum guess
    assert classical_bound_weak_coherent(1e-8, 1.0) == pytest.approx(0.5,
                                                                     abs=1e-6)
    # full budget at finite mu returns the Poisson-mixture mean
    mu = 0.8
    n = np.arange(60)
    import math
    p = np.exp(-mu) * mu**n / np.array([math.factorial(int(k)) for k in n])
    scores = np.array([measure_prepare_fidelity(k) for k in n])
    assert classical_bound_weak_coherent(mu, 1.0) == pytest.approx(
        float(np.sum(p * scores)), abs=1e-9)


def test_classical_bound_monotonicity():
    mus = np.linspace(0.2, 2.5, 9)
    etas = np.linspace(0.01, 0.9, 9)
    grid = np.array([[classical_bound_weak_coherent(m, e) for e in etas]
                     for m in mus])
    assert np.all(np.diff(grid, axis=0) >= -1e-12)   # non-decreasing in mu
    assert np.all(np.diff(grid, axis=1) <= 1e-12)    # non-increasing in eta


def test_classical_bound_validation():
    with pytest.raises(ValueError):
        classical_bound_weak_coherent(0.0, 0.5)
    with pytest.raises(ValueError):
        classical_bound_weak_coherent(1.0, 0.0)


def test_tomography_round_trip():
    # counts synthesized from a known state reconstruct it closely
    rng = np.random.default_rng(5)
    r_true = np.array([0.55, -0.3, 0.2])
    n_trials = 1_000_000
    scale = 0.05  # detected photons per trial per projection pair
    counts = {}
    for axis, (kp, km) in enumerate((("plus", "minus"),
                                     ("plus_i", "minus_i"),
                                     ("early", "late"))):
        p_plus = (1 + r_true[axis]) / 2
        counts[kp] = int(rng.poisson(n_trials * scale * p_plus))
        counts[km] = int(rng.poisson(n_trials * scale * (1 - p_plus)))
    tc = TomoCounts(counts=counts,
                    n_trials={k: n_trials for k in PROJECTION_KEYS})
    sx, sy, sz = pauli_expectations(tc)
    dm = direct_inversion([sx, sy, sz])
    dm_true = direct_inversion(r_true)
    assert trace_distance(dm, dm_true) < 0.01


def test_trace_distance_basic():
    a = direct_inversion([1, 0, 0])
    b = direct_inversion([-1, 0, 0])
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)
