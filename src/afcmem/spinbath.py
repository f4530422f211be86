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
(1996)) made from one Box-Muller draw of two uniforms, so an interval costs
the same whatever its length.  Its free rotation is one phasor of its phase
in turns, reduced exactly to at most half a turn; with the finite-Rabi
pulse that ends it, an SU(2) rotation [[A, -B*], [B, A*]] (Gullion, Baker &
Conradi, J. Magn. Reson. 89, 479 (1990)), it forms one Cayley-Klein map.
The phasor and the pulse each take one tangent of a half angle, from which
the rational half-angle forms give the cosine and the sine.  The interval
loop runs in place in work arrays allocated once per call.
residual_excitation gives the storage-state population that the imperfect
RF train excites out of the ground state, as an exact quadrature over the
static line rather than a sample of it; the harness reports the gain that
maps it onto the read-out noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pulses import DDSequence, dd_sequence

FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))

# residual_excitation's rule over the line: trapezoid nodes z = j h in line
# sigmas out to |z| = LINE_SPAN (beyond lies P < 2e-23), h halving from 1/2
# to MIN_STEP until two rules agree to RESIDUAL_RTOL
LINE_SPAN = 10.0
MIN_STEP = 1 / 128
RESIDUAL_RTOL = 1e-12
EPS = np.finfo(float).eps
# Lines up to this FWHM in units of the RF Rabi frequency converged by
# h = 2 MIN_STEP for every DD kind, storage time and pulse error tried (the
# tests hold the extremes); ExperimentConfig rejects wider ones
MAX_LINE_PER_RABI = 4.0
# spin_echo_coherence's standard error: the spread of |mean| over this many
# equal blocks of the ensemble
N_BLOCKS = 10


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


def _ou_interval(rng, x0, h, sigma, tau, work, phasor):
    """One exact joint draw of (x1, I) per atom (see _ou_interval_law) in the
    (4, n) real scratch array work and the complex scratch row phasor: x0 is
    overwritten by x1, I is work[2].  The normal pair is one Box-Muller draw
    (Box & Muller, Ann. Math. Stat. 29, 610 (1958)) from two uniforms,
    g1 + i g2 = sqrt(-2 log(1 - u1)) exp(-2 pi i u2), its phasor from
    _phasor."""
    e, a, b, c = _ou_interval_law(h, sigma, tau)
    rng.random(out=work[:2])
    u1, u2, integral, tmp = work
    _phasor(u2, tmp, phasor)
    radius = np.log1p(np.negative(u1, out=u1), out=u1)
    radius *= -2
    np.sqrt(radius, out=radius)
    g1 = np.multiply(radius, phasor.real, out=u2)
    g2 = np.multiply(radius, phasor.imag, out=u1)
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


def _phasor(turns, scratch, out):
    """exp(-2 pi i turns) into the complex array out, overwriting the real
    arrays turns and scratch: c = turns - rint(turns) is exact and at most
    1/2, and with t = tan(-pi c), cos = (1 - t^2)/(1 + t^2) and
    sin = 2 t/(1 + t^2), one tangent per rotation in place of a cos/sin
    pair.  Whole turns give t = 0 and an exact 1."""
    turns -= np.rint(turns, out=scratch)
    turns *= -np.pi
    t = np.tan(turns, out=turns)
    np.square(t, out=scratch)
    scratch += 1
    np.divide(2, scratch, out=scratch)  # 2/(1 + t^2) = 1 + cos
    np.multiply(t, scratch, out=out.imag)
    np.subtract(scratch, 1, out=out.real)
    return out


def _pulse(minus_delta, omega, t_pi, ca, sg, g, q):
    """Coefficients of the finite-Rabi pi pulse at detunings delta, given as
    minus_delta: A = C - i S delta/g into the complex ca and S/g into sg
    (see _propagate); g and q are scratch.  With x = pi/2 - pi g t_pi,
    small near resonance, and t = tan(x/2), C = sin x = 2 t/(1 + t^2) and
    S/g = cos x/g = (1 - t^2)/((1 + t^2) g): one tangent in place of a
    sin/cos pair, and tan is pi-periodic, so a far-detuned atom (x < -pi)
    needs no range reduction."""
    np.add(np.square(minus_delta, out=g), omega**2, out=g)
    np.sqrt(g, out=g)
    t = np.multiply(g, -np.pi * t_pi / 2, out=sg)
    t += np.pi / 4  # x/2
    np.tan(t, out=t)
    np.square(t, out=q)
    q += 1
    np.divide(2, q, out=q)  # 2/(1 + t^2) = 1 + cos x
    np.multiply(t, q, out=ca.real)
    np.subtract(q, 1, out=sg)
    sg /= g
    np.multiply(sg, minus_delta, out=ca.imag)


def _propagate(rng, static, bath, dd, errors, spinor):
    """Carry every atom's spinor (up, dn), starting from the scalars (or
    arrays) in spinor, through the free intervals and imperfect pulses of
    dd: the module's one interval loop.

    Over an interval h each atom takes one exact OU draw of the integral I
    and a free phase of (static h + I) / 2 turns, whose rotation r comes from
    _phasor.  With the pulse that ends the interval, A = C - i S delta/g and
    B = -i S (omega/g) e^(i phase), the spinor takes one SU(2) map
    [[a, -b*], [b, a*]], a = A r and b = B r, where g = sqrt(omega^2 +
    delta^2) and (C, S) = (cos, sin)(pi g t_pi) at delta = static + OU, from
    _pulse.  The pulse is recomputed only where the OU detuning moves.
    """
    n = static.size
    up, dn, r, ca, a, b = np.empty((6, n), dtype=np.complex128)
    real = np.empty((8, n))
    ou, minus_static, g, sg = real[:4]
    work = real[4:]
    use_ou = bath.ou_sigma_hz > 0
    if use_ou:
        rng.standard_normal(out=ou)
        ou *= bath.ou_sigma_hz
    else:
        ou = 0.0
    up[...], dn[...] = spinor
    omega = errors.rf_rabi_hz * (1 + errors.area_error)
    t_pi = 1.0 / (2.0 * errors.rf_rabi_hz)  # nominal pi duration
    drive = -1j * omega * np.exp(1j * (dd.phases_rad + errors.phase_error_rad))
    np.negative(static, out=minus_static)
    boundaries = np.concatenate([[0.0], dd.centers_s, [dd.total_time_s]])
    for i, h in enumerate(np.diff(boundaries)):
        turns = np.multiply(static, h / 2, out=g)  # g is free until the pulse
        if use_ou:  # r is free until the rotation below
            ou, integral = _ou_interval(rng, ou, h, bath.ou_sigma_hz,
                                        bath.ou_tau_c_s, work, r)
            turns += np.multiply(integral, 0.5, out=integral)
        rot = _phasor(turns, work[0], r)
        if i == dd.n_pulses:  # no pulse ends the last interval
            up *= rot
            dn *= np.conj(rot, out=rot)
            break
        if use_ou or i == 0:  # ca = A; sg = S/g, so B = sg * drive
            minus_delta = np.subtract(minus_static, ou, out=work[3])
            _pulse(minus_delta, omega, t_pi, ca, sg, g, work[0])
        np.multiply(ca, rot, out=a)
        np.multiply(np.multiply(rot, drive[i], out=b), sg, out=b)
        np.multiply(b, up, out=r)  # rot is used up: r is scratch
        up *= a
        up -= np.multiply(np.conj(b, out=b), dn, out=b)
        dn *= np.conj(a, out=a)
        dn += r
    return up, dn


def _coherence_stats(phasors: np.ndarray):
    coherence = float(np.abs(phasors.mean()))
    if phasors.size >= 2 * N_BLOCKS:
        blocks = np.array_split(phasors, N_BLOCKS)
        vals = np.array([np.abs(b.mean()) for b in blocks])
        stderr = float(vals.std(ddof=1) / np.sqrt(N_BLOCKS))
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
    rng = np.random.default_rng(bath.seed if seed is None else seed)
    static = sample_ensemble(bath, rng)
    up, dn = _propagate(rng, static, bath, dd, errors,
                        (1 / np.sqrt(2), 1 / np.sqrt(2)))
    phasors = np.conj(dn, out=dn)  # 2 up dn*, in place
    phasors *= up
    phasors *= 2
    coherence, stderr = _coherence_stats(phasors)
    return SpinStorageResult(coherence=coherence, eta_spin=coherence**2,
                             coherence_stderr=stderr)


def residual_excitation(dd: DDSequence, errors: PulseErrorModel,
                        line: SpinBathParams) -> float:
    """Mean storage-state population left by the imperfect RF train acting
    on spins of the static line (no spectral diffusion) initialized in the
    ground state: an exact quadrature over the line, with no sampling.

    Under a CPMG train of n pulses at tau = T/(2n) the free rotations enter
    only through theta = 4 pi delta tau per middle interval (the first and
    last add a global phase), while each pulse depends on delta slowly, on
    the Rabi scale.  Written diag(e^(-i theta), 1), a rotation raises each
    power of e^(-i theta) in the up amplitude by one, so the train carries
    the amplitude's coefficients a_q(delta), q < n, exactly, and the
    population is sum_k c_k e^(-i k theta) with c_k = sum_q a_(q+k) a_q*.
    Over the Gaussian line, delta = sigma z, the trapezoid rule of step h
    in z averages each harmonic kept, |k| beta <= pi/h with beta = 4 pi
    sigma tau, to within about e^(-(pi/h)^2/2) of |c_k| (its aliases lie
    2 pi/h away), and each harmonic dropped averages to below that.  h
    halves from 1/2 until two rules agree to RESIDUAL_RTOL, or to the
    n eps sqrt(value) rounding of the amplitudes; a line too wide against
    the Rabi frequency to agree at MIN_STEP raises ValueError.
    """
    errors.validate()
    line.validate()
    n = dd.n_pulses
    if n == 0:
        return 0.0
    tau = dd.total_time_s / (2 * n)
    cpmg = tau * (2 * np.arange(n) + 1)
    if (np.shape(dd.centers_s) != cpmg.shape or np.abs(
            dd.centers_s - cpmg).max() > 1e-12 * dd.total_time_s):
        raise ValueError("residual_excitation needs CPMG pulse centers "
                         "(2k + 1) T/(2 n_pulses)")
    step, value = 0.5, None
    while True:
        last, value = value, _residual_quadrature(dd, errors, line, tau, step)
        if last is not None and abs(value - last) <= (
                RESIDUAL_RTOL * value + n * EPS * np.sqrt(abs(value))):
            return value
        if step == MIN_STEP:
            raise ValueError(
                f"residual_excitation: the quadrature over the spin line did "
                f"not converge at step {step:g} sigma (line FWHM "
                f"{line.inhom_fwhm_hz:g} Hz, Rabi {errors.rf_rabi_hz:g} Hz)")
        step /= 2


def _residual_quadrature(dd, errors, line, tau, step):
    """residual_excitation's population average on the rule of one step."""
    n = dd.n_pulses
    half = round(LINE_SPAN / step)
    z = step * np.arange(-half, half + 1)
    sigma = line.inhom_fwhm_hz * FWHM_TO_SIGMA
    omega = errors.rf_rabi_hz * (1 + errors.area_error)
    t_pi = 1.0 / (2.0 * errors.rf_rabi_hz)  # nominal pi duration
    ca = np.empty(z.size, dtype=complex)
    sg = np.empty(z.size)
    _pulse(-sigma * z, omega, t_pi, ca, sg, np.empty(z.size), np.empty(z.size))
    ca, sg = ca[:, None], sg[:, None]
    drive = -1j * omega * np.exp(1j * (dd.phases_rad + errors.phase_error_rad))
    up = np.zeros((z.size, n), dtype=complex)  # a_q, q = 0 ... n - 1
    dn = np.zeros((z.size, n), dtype=complex)
    dn[:, 0] = 1
    for i in range(n):  # the rotation, then [[A, -B*], [B, A*]], B = sg drive
        up[:, 1:] = up[:, :-1]  # the first acts on up = 0: a global phase
        up[:, 0] = 0
        b = sg * drive[i]
        up, dn = ca * up - np.conj(b) * dn, b * up + np.conj(ca) * dn
    population = np.sum(np.square(np.abs(up)), axis=1)  # c_0
    beta = 4 * np.pi * sigma * tau
    k_max = (n - 1 if step * beta * (n - 1) <= np.pi
             else int(np.pi / (step * beta)))
    for k in range(1, k_max + 1):
        c_k = np.sum(up[:, k:] * np.conj(up[:, :n - k]), axis=1)
        population += 2 * np.real(c_k * np.exp(-1j * k * beta * z))
    weights = step / np.sqrt(2 * np.pi) * np.exp(-0.5 * np.square(z))
    return float(weights @ population)


def efficiency_decay(dd_kind: str, t_list, bath: SpinBathParams):
    """Ideal-pulse spin storage efficiency versus storage time, in closed
    form; each pi pulse lasts half a period of the default RF Rabi
    frequency.  Returns a list of (t_s, eta, 0.0): the third column is the
    standard error, zero for a closed form."""
    t_arr = np.asarray(t_list, dtype=float)
    if np.any(np.diff(t_arr) <= 0):
        raise ValueError("t_list must be sorted ascending")
    pulse_s = 1.0 / (2.0 * PulseErrorModel().rf_rabi_hz)
    return [(float(t_s),
             spin_echo_coherence(dd_sequence(dd_kind, t_s, pulse_s),
                                 bath).eta_spin, 0.0)
            for t_s in t_arr]


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
