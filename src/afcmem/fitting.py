"""Least-squares fits of the three decay laws with analytic Jacobians and
95% confidence intervals from the Jacobian covariance.

The echo and spin decays are fitted by damped least squares; the power law
is a straight line in log-log space, solved in closed form.  Data with
fewer distinct x values than parameters, or no degrees of freedom left,
are rejected before any arithmetic.  The Student-t quantile of the
intervals is solved in closed form from the finite Student-t CDF of an
integer dof, so the fits need numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comb import ZEEMAN_SPLIT_HZ, afc_decay_model

# levenberg_marquardt converges when an accepted step moves every parameter
# by less than STEP_TOL relative, or when the gradient falls below GRAD_TOL
STEP_TOL = 1e-9
GRAD_TOL = 1e-12


@dataclass
class FitResult:
    names: tuple
    params: np.ndarray
    ci95: np.ndarray
    residual_norm: float
    converged: bool
    n_iter: int

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
        if np.max(np.abs(g)) < GRAD_TOL:
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
                if rel_step < STEP_TOL:
                    converged = True
                break
            lam *= 4
        if not accepted or converged:
            break
    return x, r, converged, n_iter


def _n_distinct(x) -> int:
    """np.unique(x).size, without np.unique, which imports numpy.ma: -0.0
    equals 0.0 and all NaNs count as one value."""
    s = np.sort(x, axis=None)
    values = s[~np.isnan(s)]
    return (int(values.size > 0) + int(values.size < s.size)
            + int(np.count_nonzero(values[1:] != values[:-1])))


def _check_determined(x, n_params: int) -> None:
    """Raise ValueError unless the abscissae x can determine n_params."""
    if x.size <= n_params:
        raise ValueError(f"{n_params} parameters need more than {n_params} "
                         f"data points, got {x.size}")
    if _n_distinct(x) < n_params:
        raise ValueError(f"{n_params} parameters need at least {n_params} "
                         f"distinct x values")


# --- Student-t quantile -----------------------------------------------------
#
# For an integer dof the Student-t CDF is a finite sum (Abramowitz & Stegun
# 26.7.3-4).  With u = t^2/dof, x = 1/(1+u) = cos^2(theta), theta =
# atan(t/sqrt(dof)), m = dof // 2 and c_k = C(2k, k)/4^k,
#   P(|T| <= t) = sin(theta) sum_{k<m} c_k x^k                      (dof even)
#   P(|T| <= t) = (2/pi) [theta + sin(theta) cos(theta)
#                         sum_{k<m} x^k / ((2k+1) c_k)]              (dof odd)
# Newton's method solves P = 0.95 from the Cornish-Fisher expansion
# (A&S 26.7.5; cf. Hill, CACM 13, 619 (1970)).  P is concave in t > 0, so
# after the first step the iterates rise to the root.  x^k is taken as
# exp(-k log1p(u)): a product of k rounded x's carries k times the rounding.

_Z975 = 1.959963984540054  # the standard normal 0.975 quantile
# t = z + g1/dof + g2/dof^2 + g3/dof^3 + g4/dof^4
_CORNISH_FISHER = (
    (_Z975**3 + _Z975) / 4,
    (5 * _Z975**5 + 16 * _Z975**3 + 3 * _Z975) / 96,
    (3 * _Z975**7 + 19 * _Z975**5 + 17 * _Z975**3 - 15 * _Z975) / 384,
    (79 * _Z975**9 + 776 * _Z975**7 + 1482 * _Z975**5 - 1920 * _Z975**3
     - 945 * _Z975) / 92160)
# the sums' weights for k < _HEAD, each correctly rounded
_HEAD = 64
_WEIGHTS_EVEN = np.array([math.comb(2 * k, k) / 4**k for k in range(_HEAD)])
_WEIGHTS_ODD = np.array([4**k / ((2 * k + 1) * math.comb(2 * k, k))
                         for k in range(_HEAD)])
_BLOCK = 8192  # terms per pass: 64 KiB arrays stay in cache


def _log_c_stirling(k):
    """ln(c_k sqrt(pi k)) for k >= _HEAD: the Stirling series -1/(8k)
    + 1/(192k^3) - 1/(640k^5) + 17/(14336k^7), whose next term is below
    1e-19."""
    r = 1.0 / k
    y = r * r
    return r * (y * (1 / 192 + y * (17 / 14336 * y - 1 / 640)) - 1 / 8)


def _weighted_powers(m: int, odd: bool, log1p_u: float) -> float:
    """The CDF's sum over k < m of its weights times x^k = exp(-k log1p_u)."""
    head = (_WEIGHTS_ODD if odd else _WEIGHTS_EVEN)[:m]
    total = float(head @ np.exp(-log1p_u * np.arange(head.size)))
    sign = -1.0 if odd else 1.0
    for start in range(_HEAD, m, _BLOCK):
        k = np.arange(start, min(start + _BLOCK, m), dtype=float)
        root = np.sqrt(np.pi * k)
        weights = root / (2 * k + 1) if odd else 1 / root
        total += float(weights @ np.exp(sign * _log_c_stirling(k)
                                        - log1p_u * k))
    return total


def _t975(dof: int) -> float:
    """The 0.975 quantile of Student's t for an integer dof >= 1; it agrees
    with scipy.special.stdtrit to 1e-14 relative."""
    m, odd = divmod(dof, 2)
    c_m = (float(_WEIGHTS_EVEN[m]) if m < _HEAD
           else math.exp(_log_c_stirling(m)) / math.sqrt(math.pi * m))
    # the density of |T| is scale * (1 + u)^(-(dof + 1)/2)
    scale = (2 / (math.pi * c_m) if odd else 2 * m * c_m) / math.sqrt(dof)
    t = _Z975 + sum(g / dof**i for i, g in enumerate(_CORNISH_FISHER, 1))
    step = t
    while abs(step) > 1e-8 * t:
        u = t * t / dof
        log1p_u = math.log1p(u)
        s = _weighted_powers(m, odd, log1p_u)
        if odd:
            p = (math.atan(t / math.sqrt(dof))
                 + math.sqrt(u) / (1 + u) * s) * (2 / math.pi)
        else:
            p = math.sqrt(u / (1 + u)) * s
        step = (0.95 - p) / (scale * math.exp(-0.5 * (dof + 1) * log1p_u))
        t += step
    return t


def _finish(names, x, r, converged, n_iter, jac_fn) -> FitResult:
    J = jac_fn(x)
    dof = len(r) - len(x)
    try:
        cov = float(r @ r) / dof * np.linalg.inv(J.T @ J)
    except np.linalg.LinAlgError:
        cov = None
    if cov is None or not np.all(np.isfinite(cov)):
        raise ValueError("the data do not determine the fit parameters")
    ci = _t975(dof) * np.sqrt(np.maximum(np.diag(cov), 0.0))
    return FitResult(names=tuple(names), params=x, ci95=ci,
                     residual_norm=float(np.linalg.norm(r)),
                     converged=converged, n_iter=n_iter)


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
