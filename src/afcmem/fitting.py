"""Least-squares fits of the three decay laws with analytic Jacobians and
95% confidence intervals from the Jacobian covariance.

The echo and spin decays are fitted by damped least squares; the power law
is a straight line in log-log space, solved in closed form.  Data with
fewer distinct x values than parameters, or no degrees of freedom left,
are rejected before any arithmetic.  The Student-t quantile of the
intervals comes from ``scipy.special.stdtrit``, imported when a fit runs,
so importing the package loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comb import ZEEMAN_SPLIT_HZ, afc_decay_model


@dataclass
class FitResult:
    names: tuple
    params: np.ndarray
    ci95: np.ndarray
    residual_norm: float
    converged: bool
    n_iter: int
    cov: np.ndarray

    def as_dict(self) -> dict:
        out = {}
        for i, name in enumerate(self.names):
            out[name] = float(self.params[i])
            out[f"{name}_ci95"] = float(self.ci95[i])
        out["residual_norm"] = self.residual_norm
        out["converged"] = bool(self.converged)
        out["n_iter"] = self.n_iter
        return out


def levenberg_marquardt(residual_fn, jac_fn, x0, max_iter: int = 200,
                        step_tol: float = 1e-9, grad_tol: float = 1e-12,
                        on_accept=None):
    """Minimize ||r(x)||^2 with Marquardt damping.

    The damping factor grows until a trial step lowers the cost, so the
    cost is non-increasing across accepted steps.  Convergence is declared
    when the relative step or the gradient falls below tolerance.
    on_accept(x, cost) is invoked after every accepted step.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = residual_fn(x)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        J = jac_fn(x)
        g = J.T @ r
        if np.max(np.abs(g)) < grad_tol:
            converged = True
            break
        A = J.T @ J
        diag = np.diag(np.maximum(np.diag(A), 1e-30))
        accepted = False
        for _ in range(60):
            try:
                dx = np.linalg.solve(A + lam * diag, -g)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            x_new = x + dx
            r_new = residual_fn(x_new)
            cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                rel_step = np.max(np.abs(dx) / np.maximum(np.abs(x), 1e-30))
                x, r, cost = x_new, r_new, cost_new
                lam = max(lam / 3, 1e-14)
                accepted = True
                if on_accept is not None:
                    on_accept(x.copy(), cost)
                if rel_step < step_tol:
                    converged = True
                break
            lam *= 4
        if not accepted or converged:
            break
    return x, r, converged, n_iter


def _check_determined(x, n_params: int) -> None:
    """Raise ValueError unless the abscissae x can determine n_params."""
    if x.size <= n_params:
        raise ValueError(f"{n_params} parameters need more than {n_params} "
                         f"data points, got {x.size}")
    if np.unique(x).size < n_params:
        raise ValueError(f"{n_params} parameters need at least {n_params} "
                         f"distinct x values")


def _finish(names, x, r, converged, n_iter, jac_fn) -> FitResult:
    from scipy.special import stdtrit  # heavy import, needed only here

    J = jac_fn(x)
    dof = len(r) - len(x)
    try:
        cov = float(r @ r) / dof * np.linalg.inv(J.T @ J)
    except np.linalg.LinAlgError:
        cov = None
    if cov is None or not np.all(np.isfinite(cov)):
        raise ValueError("the data do not determine the fit parameters")
    ci = stdtrit(dof, 0.975) * np.sqrt(np.maximum(np.diag(cov), 0.0))
    return FitResult(names=tuple(names), params=x, ci95=ci,
                     residual_norm=float(np.linalg.norm(r)),
                     converged=converged, n_iter=n_iter, cov=cov)


def _damped_fit(names, resid, jac, x0) -> FitResult:
    # trial steps may overflow the model: levenberg_marquardt rejects a
    # non-finite cost and _finish a non-finite covariance
    with np.errstate(over="ignore", invalid="ignore"):
        x, r, conv, it = levenberg_marquardt(resid, jac, x0)
        return _finish(names, x, r, conv, it, jac)


# --- AFC echo decay ---------------------------------------------------------

def fit_afc_decay(t, eta,
                  zeeman_split_hz: float = ZEEMAN_SPLIT_HZ) -> FitResult:
    """Fit eta0 exp(-4t/T2) [1 - m sin^2(pi f_z t)] to echo-decay data.

    The modulation depth is a fitted parameter (it is not predicted); the
    splitting frequency is fixed.
    """
    t = np.asarray(t, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if np.any(eta <= 0):
        raise ValueError("eta values must be positive")
    if np.any(t < 0):
        raise ValueError("t values must not be negative")
    names = ("eta0", "t2", "mod_depth")
    _check_determined(t, len(names))

    def resid(x):
        e0, t2, m = x
        if t2 <= 0 or e0 <= 0 or not 0 <= m <= 1:
            return np.full(t.size, np.inf)
        return afc_decay_model(t, e0, t2, m, zeeman_split_hz) - eta

    def jac(x):
        e0, t2, m = x
        decay = np.exp(-4.0 * t / t2)
        s2 = np.sin(np.pi * zeeman_split_hz * t) ** 2
        mod = 1.0 - m * s2
        J = np.empty((t.size, 3))
        J[:, 0] = decay * mod
        J[:, 1] = e0 * decay * mod * (4.0 * t / t2**2)
        J[:, 2] = -e0 * decay * s2
        return J

    # start from the log-linear envelope through the earliest/latest points
    first, last = np.argmin(t), np.argmax(t)
    e0_guess = float(eta.max())
    slope = (np.log(eta[last]) - np.log(eta[first])) / (t[last] - t[first])
    t2_guess = -4.0 / slope if slope < 0 else 4.0 * t[last]
    return _damped_fit(names, resid, jac, [e0_guess, t2_guess, 0.1])


# --- Mims (stretched-exponential) spin decay --------------------------------

def mims_curve(t, eta0, t2, m):
    return eta0 * np.exp(-2.0 * (t / t2) ** m)


def fit_mims(t, eta) -> FitResult:
    """Fit eta0 exp[-2 (T/T2)^m] to spin storage decay data."""
    t = np.asarray(t, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if np.any(eta <= 0) or np.any(t <= 0):
        raise ValueError("data must be positive")
    names = ("eta0", "t2", "m")
    _check_determined(t, len(names))

    def resid(x):
        e0, t2, m = x
        if t2 <= 0 or e0 <= 0 or m <= 0:
            return np.full(t.size, np.inf)
        return mims_curve(t, e0, t2, m) - eta

    def jac(x):
        e0, t2, m = x
        u = (t / t2) ** m
        f = np.exp(-2.0 * u)
        J = np.empty((t.size, 3))
        J[:, 0] = f
        J[:, 1] = e0 * f * (2.0 * m * u / t2)
        J[:, 2] = e0 * f * (-2.0 * u * np.log(t / t2))
        return J

    e0_guess = float(eta.max())
    # crude T2 guess: where the curve crosses e0/e^2
    target = e0_guess * np.exp(-2.0)
    idx = int(np.argmin(np.abs(eta - target)))
    x0 = [e0_guess, float(t[idx]), 2.0]
    return _damped_fit(names, resid, jac, x0)


# --- power law T2(n) = T2(1) n^gamma ----------------------------------------

def fit_power_law(n_pulses, t2_values) -> FitResult:
    """Fit T2(n) = T2(1) n^gamma in log-log space.

    Parameters are reported as (t2_1, gamma); fitting the straight line in
    log space equalizes relative errors across the decade span.  The model
    is linear in (ln t2_1, gamma), so ordinary least squares gives the
    exact minimiser.
    """
    n = np.asarray(n_pulses, dtype=float)
    t2 = np.asarray(t2_values, dtype=float)
    if np.any(n <= 0) or np.any(t2 <= 0):
        raise ValueError("data must be positive")
    names = ("t2_1", "gamma")
    _check_determined(n, len(names))
    ln_n = np.log(n)
    ln_t2 = np.log(t2)
    design = np.column_stack([np.ones_like(ln_n), ln_n])
    (ln_a, gamma), *_ = np.linalg.lstsq(design, ln_t2)
    r = design @ [ln_a, gamma] - ln_t2

    def jac(x):
        J = np.empty((n.size, 2))
        J[:, 0] = 1.0 / x[0]
        J[:, 1] = ln_n
        return J

    # a steep law may put t2_1 = exp(ln_a) or its Jacobian 1/t2_1 beyond
    # the float range: _finish rejects the non-finite covariance
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = np.array([np.exp(ln_a), gamma])
        return _finish(names, x, r, True, 0, jac)
