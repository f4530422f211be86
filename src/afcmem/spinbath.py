"""Spin-wave storage under dynamical decoupling.

Each atom carries a static detuning drawn from the inhomogeneous spin line
plus an Ornstein-Uhlenbeck (OU) frequency fluctuation.  With ideal
instantaneous pi pulses the stored phase changes sign at each pulse center
and is Gaussian, so the coherence is exp(-chi_static - chi_OU) in closed
form, chi_OU being the filter-function integral of the OU kernel
(Cywinski, Lutchyn, Nave & Das Sarma, Phys. Rev. B 77, 174509 (2008)).
Imperfect pulses are sampled by Monte Carlo: between pulses the OU value at
the interval's end and its integral over the interval are drawn exactly, as
one jointly Gaussian pair per atom (Gillespie, Phys. Rev. E 54, 2084
(1996)), so an interval costs the same whatever its length, and each pulse
is a finite-Rabi SU(2) rotation in Cayley-Klein form, [[A, -B*], [B, A*]]
(Gullion, Baker & Conradi, J. Magn. Reson. 89, 479 (1990)); each interval
applies its free rotation and the pulse that ends it as one such map.
residual_excitation gives the storage-state population that the imperfect
RF train excites out of the ground state; read-out noise is proportional
to it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .pulses import DDSequence, dd_sequence

FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


@dataclass
class SpinBathParams:
    """Static inhomogeneous line plus OU spectral-diffusion parameters."""

    inhom_fwhm_hz: float = 60e3
    ou_sigma_hz: float = 0.0
    ou_tau_c_s: float = 1.0
    n_atoms: int = 10_000
    seed: int = 0

    def validate(self) -> None:
        if self.inhom_fwhm_hz < 0 or self.ou_sigma_hz < 0:
            raise ValueError("widths must be nonnegative")
        if self.ou_tau_c_s <= 0:
            raise ValueError("ou_tau_c_s must be positive")
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be positive")


@dataclass
class PulseErrorModel:
    """Imperfections of the RF pi pulses.

    rf_rabi_hz sets the rotation-axis tilt and angle for a detuned spin
    (finite-Rabi rotation fidelity).
    """

    area_error: float = 0.0
    phase_error_rad: float = 0.0
    rf_rabi_hz: float = 120e3

    def validate(self) -> None:
        if abs(self.area_error) >= 0.5:
            raise ValueError("area_error must satisfy |e| < 0.5")
        if self.rf_rabi_hz <= 0:
            raise ValueError("rf_rabi_hz must be positive")


@dataclass
class SpinStorageResult:
    coherence: float
    eta_spin: float
    coherence_stderr: float = 0.0


def sample_ensemble(params: SpinBathParams,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Static detunings: n_atoms Gaussian draws with the line FWHM."""
    params.validate()
    if rng is None:
        rng = np.random.default_rng(params.seed)
    sigma = params.inhom_fwhm_hz * FWHM_TO_SIGMA
    return sigma * rng.standard_normal(params.n_atoms)


def _rng(seed, default_seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(default_seed if seed is None else seed)


def _ou_interval_law(h, sigma, tau):
    """Law of the OU value x1 at the end of an interval h and of the OU
    integral I over it, given the value x0 at its start:

        x1 = (1 - e) x0 + a g1,   I = tau e x0 + b g1 + c g2,

    with g1, g2 independent standard normals and e = 1 - exp(-h/tau).
    Returns (e, a, b, c): Var x1 = a^2 = sigma^2 e (2 - e),
    Cov(x1, I) = a b = sigma^2 tau e^2 and
    Var I = b^2 + c^2 = sigma^2 tau^2 (2 (h/tau - e) - e^2).
    """
    u = h / tau
    e = -np.expm1(-u)
    if u < 1e-2:  # 2 (u - e) - e^2 cancels down to 2 u^3 / 3: use its series
        w = u**3 * (2 / 3 - u / 2 + 7 * u**2 / 30 - u**3 / 12 + 31 * u**4 / 1260)
    else:
        w = 2 * (u - e) - e * e
    a = sigma * np.sqrt(e * (2 - e))
    b = sigma * tau * e * np.sqrt(e / (2 - e))
    c = sigma * tau * np.sqrt(w - e**3 / (2 - e))
    return e, a, b, c


def _ou_interval(rng, x0, h, sigma, tau, work):
    """One exact joint draw of (x1, I) per atom (see _ou_interval_law) in the
    (4, n) scratch array work: x0 is overwritten by x1, I is work[2]."""
    e, a, b, c = _ou_interval_law(h, sigma, tau)
    rng.standard_normal(out=work[:2])
    g1, g2, integral, tmp = work
    np.multiply(x0, tau * e, out=integral)
    integral += np.multiply(g1, b, out=tmp)
    integral += np.multiply(g2, c, out=g2)
    x0 *= 1 - e
    x0 += np.multiply(g1, a, out=g1)
    return x0, integral


def _ideal_coherence(bounds, bath: SpinBathParams) -> float:
    """Coherence exp(-chi) of the ideal-pulse sequence whose stored phase
    changes sign at the interior bounds of [0, centers..., T].

    With s_j = (-1)^j the sign and h_j the length of interval j,
    chi_static = (1/2) (2 pi sigma_line sum_j s_j h_j)^2 and chi_OU =
    (1/2) (2 pi sigma)^2 [sum_j 2 tau^2 (h_j/tau - e_j) + sum_{j<k} 2 s_j s_k
    tau^2 e_j e_k exp(-(b_k - b_{j+1})/tau)], e_j = 1 - exp(-h_j/tau).  The
    pair sum runs as acc <- acc (1 - e_k) + s_k e_k, acc holding
    sum_{j<k} s_j e_j exp(-(b_k - b_{j+1})/tau).
    """
    h = np.diff(bounds)
    s = (-1.0) ** np.arange(h.size)
    tau = bath.ou_tau_c_s
    e = -np.expm1(-h / tau)
    total = np.sum(2 * tau**2 * (h / tau - e))
    acc = 0.0
    for s_k, e_k in zip(s, e):
        total += 2 * s_k * e_k * tau**2 * acc
        acc = acc * (1 - e_k) + s_k * e_k
    line = 2 * np.pi * bath.inhom_fwhm_hz * FWHM_TO_SIGMA * np.dot(s, h)
    chi = 0.5 * line**2 + 0.5 * (2 * np.pi * bath.ou_sigma_hz) ** 2 * total
    return float(np.exp(-chi))


def _propagate(rng, static, bath, dd, errors, spinor):
    """Carry every atom's spinor (up, dn) through the free intervals and
    imperfect pulses of dd.

    This is the one interval loop of the module.  Over each interval the
    free phase 2 pi * integral of (static + OU) dt takes one exact OU draw
    per atom, and the spinor takes one SU(2) map [[a, -b*], [b, a*]]: the
    free rotation r = exp(-i pi integral of delta dt), then the pulse that
    ends the interval, A = c - i s delta/g and B = -i s (omega/g)
    e^(i phase), so a = A r and b = B r, with g = hypot(omega, delta) and
    (c, s) = (cos, sin)(pi g t_pi) at delta = static + OU.
    exp(-i pi static h) is recomputed only for a new interval length h, the
    pulse only where the OU detuning moves; all work arrays are allocated
    once.  Returns the final (up, dn).
    """
    n = static.size
    use_ou = bath.ou_sigma_hz > 0
    ou = bath.ou_sigma_hz * rng.standard_normal(n) if use_ou else 0.0
    work = np.empty((4, n))
    psi = np.array(spinor, dtype=np.complex128)  # a copy: rows up, dn
    omega = errors.rf_rabi_hz * (1 + errors.area_error)
    t_pi = 1.0 / (2.0 * errors.rf_rabi_hz)  # nominal pi duration
    drive = -1j * omega * np.exp(1j * (dd.phases_rad + errors.phase_error_rad))
    minus_static, h_rs = -static, np.inf
    rs, r, ca, a, b = np.empty((5, n), dtype=np.complex128)
    sg, g = np.empty((2, n))
    boundaries = np.concatenate([[0.0], dd.centers_s, [dd.total_time_s]])
    for i, h in enumerate(np.diff(boundaries)):
        if use_ou:
            ou, integral = _ou_interval(rng, ou, h, bath.ou_sigma_hz,
                                        bath.ou_tau_c_s, work)
        d = h - h_rs
        if abs(d) > 2 * np.spacing(dd.total_time_s):  # beyond time rounding
            h_rs, d = h, 0.0
            np.multiply(minus_static, np.pi * h, out=rs.imag)
            np.cos(rs.imag, out=rs.real)
            np.sin(rs.imag, out=rs.imag)
        rot = rs
        if use_ou or d:  # the small phases: OU and static over h - h_rs
            x = np.multiply(minus_static, np.pi * d, out=work[3])
            if use_ou:
                x -= np.multiply(integral, np.pi, out=integral)
            np.cos(x, out=r.real)
            np.sin(x, out=r.imag)
            rot = np.multiply(r, rs, out=r)
        up, dn = psi
        if i == dd.n_pulses:  # no pulse ends the last interval
            up *= rot
            dn *= np.conj(rot, out=rot)
            break
        if use_ou or i == 0:  # ca = A; sg = s/g, so B = sg * drive
            minus_delta = np.subtract(minus_static, ou, out=work[3])
            np.hypot(omega, minus_delta, out=g)
            np.multiply(g, -np.pi * t_pi, out=sg)
            sg += np.pi / 2  # pi/2 - pi g t_pi, small near resonance
            np.sin(sg, out=ca.real)
            np.cos(sg, out=sg)
            sg /= g
            np.multiply(sg, minus_delta, out=ca.imag)
        np.multiply(ca, rot, out=a)
        np.multiply(np.multiply(rot, drive[i], out=b), sg, out=b)
        np.multiply(b, up, out=r)  # rot is used up: r is scratch
        up *= a
        up -= np.multiply(np.conj(b, out=b), dn, out=b)
        dn *= np.conj(a, out=a)
        dn += r
    return psi[0], psi[1]


def _coherence_stats(phasors: np.ndarray, n_blocks: int = 10):
    coherence = float(np.abs(phasors.mean()))
    if phasors.size >= 2 * n_blocks:
        blocks = np.array_split(phasors, n_blocks)
        vals = np.array([np.abs(b.mean()) for b in blocks])
        stderr = float(vals.std(ddof=1) / np.sqrt(n_blocks))
    else:
        stderr = float("nan")  # undefined with fewer than two atoms per block
    return coherence, stderr


def spin_echo_coherence(dd: DDSequence, bath: SpinBathParams,
                        errors: PulseErrorModel | None = None,
                        seed=None) -> SpinStorageResult:
    """Ensemble-averaged stored coherence surviving the DD sequence.

    With errors=None the pulses are ideal instantaneous pi flips and the
    coherence is the closed form of _ideal_coherence, with zero standard
    error; with an error model each pulse is a full finite-Rabi unitary,
    sampled over bath.n_atoms atoms.
    """
    bath.validate()
    if errors is None:
        coherence = _ideal_coherence(
            np.concatenate([[0.0], dd.centers_s, [dd.total_time_s]]), bath)
        return SpinStorageResult(coherence=coherence, eta_spin=coherence**2)
    errors.validate()
    rng = _rng(seed, bath.seed)
    static = sample_ensemble(bath, rng)
    up = np.full(bath.n_atoms, 1 / np.sqrt(2), dtype=np.complex128)
    up, dn = _propagate(rng, static, bath, dd, errors, (up, up))
    coherence, stderr = _coherence_stats(2 * up * np.conj(dn))
    return SpinStorageResult(coherence=coherence, eta_spin=coherence**2,
                             coherence_stderr=stderr)


def residual_excitation(dd: DDSequence, errors: PulseErrorModel,
                        line: SpinBathParams, seed=None) -> float:
    """Mean storage-state population left by the imperfect RF train acting
    on spins of the static line (no spectral diffusion) initialized in the
    ground state."""
    errors.validate()
    rng = _rng(seed, line.seed)
    static = sample_ensemble(line, rng)
    ground = (np.zeros(line.n_atoms, dtype=np.complex128),
              np.ones(line.n_atoms, dtype=np.complex128))
    up, _ = _propagate(rng, static, replace(line, ou_sigma_hz=0.0), dd, errors,
                       ground)
    return float(np.mean(np.abs(up) ** 2))


def free_induction(bath: SpinBathParams, t_list) -> np.ndarray:
    """Free-dephasing coherence |<exp(i phi)>| at each time (no pulses)."""
    bath.validate()
    return np.array([_ideal_coherence([0.0, t], bath) for t in t_list])


def efficiency_decay(dd_kind: str, t_list, bath: SpinBathParams,
                     errors: PulseErrorModel | None = None, seed=None):
    """Spin storage efficiency versus storage time, one independent
    sub-seeded bath per point; each pi pulse lasts half a period of the
    Rabi frequency of errors.  Returns a list of (t_s, eta, stderr)."""
    t_arr = np.asarray(t_list, dtype=float)
    if np.any(np.diff(t_arr) <= 0):
        raise ValueError("t_list must be sorted ascending")
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(bath.seed if seed is None else seed)
    pulse_s = 1.0 / (2.0 * (errors or PulseErrorModel()).rf_rabi_hz)
    rows = []
    for child, t_s in zip(ss.spawn(len(t_arr)), t_arr):
        dd = dd_sequence(dd_kind, t_s, pulse_s)
        res = spin_echo_coherence(dd, bath, errors,
                                  seed=np.random.default_rng(child))
        eta_err = 2 * res.coherence * res.coherence_stderr
        rows.append((float(t_s), res.eta_spin, eta_err))
    return rows


def decay_table_to_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("t_s_seconds,eta,stderr\n")
        for t_s, eta, err in rows:
            fh.write(f"{float(t_s)!r},{float(eta)!r},{float(err)!r}\n")


# Slow-bath CPMG relations used for calibration: the phase variance of an
# OU bath under an n-pulse CPMG train with tau << tau_c is
# chi(T) = (2 pi sigma)^2 T^3 / (12 n^2 tau_c), and eta = exp(-2 chi).

def cpmg_ou_chi(t_s, n_pulses: int, sigma_hz: float, tau_c_s: float):
    return (2 * np.pi * sigma_hz) ** 2 * np.asarray(t_s, float) ** 3 / (
        12 * n_pulses**2 * tau_c_s)


def ou_sigma_for_t2(n_pulses: int, t2_s: float, tau_c_s: float) -> float:
    """OU amplitude that puts the coherence 1/e point (chi = 1) at t2_s."""
    sigma_rad = np.sqrt(12.0 * n_pulses**2 * tau_c_s / t2_s**3)
    return float(sigma_rad / (2 * np.pi))
