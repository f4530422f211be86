import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from afcmem import fitting
from afcmem.comb import afc_decay_model
from afcmem.fitting import (fit_afc_decay, fit_mims, fit_power_law,
                            levenberg_marquardt, mims_curve)


def test_mims_exact_recovery():
    # noise-free data, the second set at the fig2 storage times: a zero
    # residual must leave finite, non-negative intervals and no NaN
    for t, truth in ((np.linspace(0.02, 0.3, 12), (0.08, 0.106, 1.8)),
                     (0.070 * np.array([0.4, 0.55, 0.7, 0.85, 1.0, 1.2, 1.4]),
                      (1.0, 0.070, 3.0))):
        fit = fit_mims(t, mims_curve(t, *truth))
        assert fit.converged
        for got, want in zip(fit.params, truth):
            assert got == pytest.approx(want, rel=1e-6)
        assert np.all(np.isfinite(fit.ci95)) and np.all(fit.ci95 >= 0)
        assert not np.isnan(list(fit.as_dict().values())).any()


def test_power_law_reference_data():
    fit = fit_power_law([2, 4, 8, 16], [70e-3, 106e-3, 154e-3, 230e-3])
    t2_1, gamma = fit.params
    assert t2_1 * 1e3 == pytest.approx(47, abs=2)
    assert gamma == pytest.approx(0.57, abs=0.03)
    # predictions against the measured points
    assert t2_1 * 4**gamma * 1e3 == pytest.approx(106, abs=9)
    assert t2_1 * 16**gamma * 1e3 == pytest.approx(230, abs=30)
    assert np.all(fit.ci95 > 0)


def test_afc_noisy_recovery():
    rng = np.random.default_rng(17)
    t = np.linspace(5e-6, 220e-6, 25)
    truth = afc_decay_model(t, 0.36, 240e-6, 0.3, 41.4e3)
    data = truth * (1 + 0.05 * rng.standard_normal(t.size))
    fit = fit_afc_decay(t, data)
    assert fit.converged
    assert fit.params[0] == pytest.approx(0.36, abs=0.03)
    assert fit.params[1] == pytest.approx(240e-6, abs=30e-6)
    assert 0 <= fit.params[2] <= 1


@pytest.mark.parametrize("case", ["afc", "mims", "power"])
def test_jacobians_match_finite_differences(case):
    rng = np.random.default_rng(23)
    if case == "afc":
        t = np.linspace(5e-6, 220e-6, 9)

        def model(x):
            return afc_decay_model(t, x[0], x[1], x[2], 41.4e3)

        def jac_from_fit(x):
            from afcmem.fitting import fit_afc_decay  # noqa: F401
            # rebuild the analytic Jacobian used by the fitter
            e0, t2, m = x
            decay = np.exp(-4 * t / t2)
            s2 = np.sin(np.pi * 41.4e3 * t) ** 2
            mod = 1 - m * s2
            J = np.empty((t.size, 3))
            J[:, 0] = decay * mod
            J[:, 1] = e0 * decay * mod * (4 * t / t2**2)
            J[:, 2] = -e0 * decay * s2
            return J

        points = [np.array([0.3 + 0.1 * rng.random(), 2e-4 + 1e-4 * rng.random(),
                            0.5 * rng.random()]) for _ in range(3)]
    elif case == "mims":
        t = np.linspace(0.02, 0.3, 9)

        def model(x):
            return mims_curve(t, *x)

        def jac_from_fit(x):
            e0, t2, m = x
            u = (t / t2) ** m
            f = np.exp(-2 * u)
            J = np.empty((t.size, 3))
            J[:, 0] = f
            J[:, 1] = e0 * f * (2 * m * u / t2)
            J[:, 2] = e0 * f * (-2 * u * np.log(t / t2))
            return J

        points = [np.array([0.05 + 0.1 * rng.random(), 0.05 + 0.2 * rng.random(),
                            1.0 + 2 * rng.random()]) for _ in range(3)]
    else:
        n = np.array([2.0, 4.0, 8.0, 16.0])

        def model(x):
            return np.log(x[0]) + x[1] * np.log(n)

        def jac_from_fit(x):
            J = np.empty((n.size, 2))
            J[:, 0] = 1 / x[0]
            J[:, 1] = np.log(n)
            return J

        points = [np.array([0.02 + 0.08 * rng.random(), 0.3 + 0.5 * rng.random()])
                  for _ in range(3)]

    for x in points:
        J = jac_from_fit(x)
        for j in range(x.size):
            h = 1e-6 * max(abs(x[j]), 1e-8)
            xp = x.copy()
            xm = x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (model(xp) - model(xm)) / (2 * h)
            scale = np.max(np.abs(J[:, j])) + 1e-12
            assert np.max(np.abs(J[:, j] - fd)) / scale < 1e-6


def test_lm_monotone_accepted_cost():
    rng = np.random.default_rng(29)
    t = np.linspace(0.02, 0.3, 15)
    data = mims_curve(t, 0.08, 0.106, 1.8) * (1 + 0.1 * rng.standard_normal(15))

    def resid(x):
        if x[1] <= 0 or x[0] <= 0 or x[2] <= 0:
            return np.full(t.size, np.inf)
        return mims_curve(t, *x) - data

    def jac(x):
        e0, t2, m = x
        u = (t / t2) ** m
        f = np.exp(-2 * u)
        J = np.empty((t.size, 3))
        J[:, 0] = f
        J[:, 1] = e0 * f * (2 * m * u / t2)
        J[:, 2] = e0 * f * (-2 * u * np.log(t / t2))
        return J

    costs = []
    levenberg_marquardt(resid, jac, [0.2, 0.2, 1.0],
                        on_accept=lambda x, c: costs.append(c))
    assert len(costs) >= 2
    assert np.all(np.diff(costs) <= 1e-15)


def test_non_convergence_is_flagged():
    t = np.linspace(0.02, 0.3, 8)
    data = mims_curve(t, 0.08, 0.106, 1.8)
    fit = fit_mims(t, data)
    assert fit.converged
    # starve the iteration budget: the flag must report the failure
    from afcmem import fitting

    def resid(x):
        return mims_curve(t, *x) - data

    def jac(x):
        e0, t2, m = x
        u = (t / t2) ** m
        f = np.exp(-2 * u)
        J = np.empty((t.size, 3))
        J[:, 0] = f
        J[:, 1] = e0 * f * (2 * m * u / t2)
        J[:, 2] = e0 * f * (-2 * u * np.log(t / t2))
        return J

    x, r, converged, n_iter = fitting.levenberg_marquardt(
        resid, jac, [0.5, 0.9, 4.0], max_iter=1)
    assert not converged


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_mims([0.1, 0.2], [0.5, -0.1])
    with pytest.raises(ValueError):
        fit_power_law([2, 4], [1.0, -1.0])
    with pytest.raises(ValueError):
        fit_afc_decay([1e-6, 2e-6], [0.1, 0.0])


def test_ci_quantile_is_student_t():
    # unit residuals and a unit Jacobian column make sigma^2 and the
    # covariance exactly 1, so the interval is the bare quantile.  scipy is
    # an independent oracle here: the two agree to rounding, not bit for bit
    for dof in [*range(1, 2001), 10**4, 10**5, 10**6]:
        r = np.r_[np.ones(dof), 0.0]
        J = np.zeros((dof + 1, 1))
        J[0, 0] = 1.0
        fit = fitting._finish(("a",), np.zeros(1), r, True, 0, lambda x: J)
        assert fit.ci95[0] == pytest.approx(stats.t.ppf(0.975, dof),
                                            rel=1e-14), dof


def test_power_law_is_the_least_squares_minimiser():
    n = np.array([2.0, 4.0, 8.0, 16.0])
    t2 = np.array([70e-3, 106e-3, 154e-3, 230e-3])
    fit = fit_power_law(n, t2)
    assert fit.converged and fit.n_iter == 0

    def resid(x):
        return np.log(x[0]) + x[1] * np.log(n) - np.log(t2)

    def jac(x):
        return np.column_stack([np.full(n.size, 1.0 / x[0]), np.log(n)])

    x, r, converged, _ = levenberg_marquardt(resid, jac, [0.03, 0.4])
    assert converged
    np.testing.assert_allclose(fit.params, x, rtol=1e-12)
    assert fit.residual_norm == pytest.approx(np.linalg.norm(r), rel=1e-12)


@pytest.mark.parametrize("fit, t", [
    *[(fit, t) for fit in (fit_afc_decay, fit_mims)
      for t in ([1.0, 1.0, 1.0], [1.0, 2.0, 2.0, 1.0], [0.1, 0.2, 0.3])],
    (fit_power_law, [1.0, 1.0, 1.0]), (fit_power_law, [0.1, 0.2])])
def test_underdetermined_data_raise(fit, t):
    # fewer distinct x values than parameters, or no degrees of freedom left
    with pytest.raises(ValueError, match="parameters need"):
        fit(t, np.ones(len(t)))


@given(st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True)), max_size=12))
def test_distinct_count_matches_unique(values):
    # the fits count distinct abscissae as np.unique does: -0.0 equals
    # 0.0, every NaN is one value, and +-inf are values of their own
    x = np.array(values, dtype=float)
    assert fitting._n_distinct(x) == np.unique(x).size
