"""Spin-wave storage under dynamical decoupling.

Each atom carries a static detuning drawn from the inhomogeneous spin line
plus an Ornstein-Uhlenbeck (OU) frequency fluctuation.  With ideal
instantaneous pi pulses the stored phase changes sign at each pulse center
and is Gaussian, so the coherence is exp(-chi_static - chi_OU) in closed
form, chi_OU being the filter-function integral of the OU kernel
(Cywinski, Lutchyn, Nave & Das Sarma, Phys. Rev. B 77, 174509 (2008)).
Imperfect pulses are sampled by Monte Carlo: the OU integral over each
interval between pulses is drawn exactly, from the interval law of the OU
value and its integral (Gillespie, Phys. Rev. E 54, 2084 (1996)) carried
as a scalar Kalman filter on the OU value, so that each integral takes one
standard normal, its innovation, whatever the interval's length; one
Box-Muller draw of two uniforms gives the normals of two consecutive
intervals.  Its free rotation is one phasor of its phase
in turns, reduced exactly to at most half a turn; with the finite-Rabi
pulse that ends it, an SU(2) rotation [[A, -B*], [B, A*]] (Gullion, Baker &
Conradi, J. Magn. Reson. 89, 479 (1990)), it forms one Cayley-Klein map.
The phasor and the pulse each take one tangent of a half angle, from which
the rational half-angle forms give the cosine and the sine.  The pulse acts
at the atom's static detuning: the OU shift, about 100 Hz against a 120 kHz
Rabi frequency, moves the coherence by less than 1e-5 on the default bath.
The atoms run in consecutive blocks of at most ATOM_BLOCK, each drawing its
interval pairs in turn; the interval loop runs in place
in work arrays allocated once per call at block size, small enough to stay
in a core's L2 cache.
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
# Most (line FWHM + OU sigma) x storage time the config allows: N turns round
# to eps N, so an atom 10 line sigmas out keeps its phase to 2 pi eps 4.25e9
# / 2 < 3e-6 rad, and the coherence moves by 1.4e-9 at the bound under XY4
# 20 ms (past 2^52 turns a phase's fraction of a turn is lost)
MAX_PHASE_TURNS = 1e9
# spin_echo_coherence's standard error: the spread of |mean| over this many
# equal blocks of the ensemble
N_BLOCKS = 10
# _propagate's work rows, six complex and six real, in floats per atom
WORK_FLOATS = 18
# spin_echo_coherence carries at most this many atoms through the interval
# loop at a time, so that the work rows (144 B per atom, 0.6 MiB) stay in a
# core's L2 cache
ATOM_BLOCK = 4096


@dataclass(frozen=True)
class SpinBathParams:
    """Static inhomogeneous line plus OU spectral-diffusion parameters."""

    inhom_fwhm_hz: float = 60e3
    ou_sigma_hz: float = 0.0
    ou_tau_c_s: float = 1.0
    n_atoms: int = 10_000

    def __post_init__(self) -> None:
        if self.inhom_fwhm_hz < 0 or self.ou_sigma_hz < 0:
            raise ValueError("widths must be nonnegative")
        if self.ou_tau_c_s <= 0:
            raise ValueError("ou_tau_c_s must be positive")
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be positive")


@dataclass(frozen=True)
class PulseErrorModel:
    """Imperfections of the RF pi pulses.

    rf_rabi_hz sets the rotation-axis tilt and angle for a detuned spin
    (finite-Rabi rotation fidelity).
    """

    area_error: float = 0.0
    phase_error_rad: float = 0.0
    rf_rabi_hz: float = 120e3

    def __post_init__(self) -> None:
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
                    rng: np.random.Generator) -> np.ndarray:
    """Static detunings: n_atoms Gaussian draws with the line FWHM."""
    sigma = params.inhom_fwhm_hz * FWHM_TO_SIGMA
    return sigma * rng.standard_normal(params.n_atoms)


def _ou_interval_law(h, sigma, tau):
    """Law of the OU value x1 at the end of an interval h and of the OU
    integral I over it, given the value x0 at its start:

        x1 = (1 - e) x0 + a g1,   I = tau e x0 + b g1 + c g2,

    with g1, g2 independent standard normals and e = 1 - exp(-h/tau).
    Returns (e, a, b, c): Var x1 = a^2 = sigma^2 e (2 - e),
    Cov(x1, I) = a b = sigma^2 tau e^2 and
    Var I = b^2 + c^2 = sigma^2 tau^2 (2 (h/tau - e) - e^2).  h may be an
    array of interval lengths.
    """
    u = h / tau
    e = -np.expm1(-u)
    # 2 (u - e) - e^2 cancels down to 2 u^3 / 3 at small u: use its series,
    # on u clipped to 1e-2 so that a long interval cannot overflow it
    v = np.minimum(u, 1e-2)
    w = np.where(u < 1e-2,
                 v**3 * (2 / 3 - v / 2 + 7 * v**2 / 30 - v**3 / 12
                         + 31 * v**4 / 1260),
                 2 * (u - e) - e * e)
    a = sigma * np.sqrt(e * (2 - e))
    b = sigma * tau * e * np.sqrt(e / (2 - e))
    c = sigma * tau * np.sqrt(w - e**3 / (2 - e))
    return e, a, b, c


def _ou_innovations(h, sigma, tau):
    """The integrals I_k of a stationary OU value over consecutive intervals
    h_k, drawn exactly from one standard normal z_k each through their
    innovations form (Kalman, J. Basic Eng. 82, 35 (1960)):

        I_k = tau e_k m + sqrt(S_k) z_k,   m <- d_k m + (C_k / sqrt(S_k)) z_k,

    where m, zero at the start, is the mean of the OU value at the start of
    interval k given the earlier integrals, and d_k = exp(-h_k/tau) =
    1 - e_k.  A scalar Kalman filter gives the coefficients: with P the
    variance of the OU value about m, sigma^2 at the start, and (e, a, b,
    c) from _ou_interval_law, I_k has variance S = (tau e)^2 P + b^2 + c^2
    about tau e m and covariance C = d tau e P + a b with the value at the
    interval's end, and P <- d^2 P + a^2 - C^2/S.  h is an array; returns
    the arrays (tau e, sqrt(S), C/sqrt(S), d) over its intervals.
    """
    e, a, b, c = _ou_interval_law(h, sigma, tau)
    decay = np.exp(-h / tau)
    p, var, cov = sigma * sigma, [], []
    for e_k, a_k, b_k, c_k, d_k in zip(e.tolist(), a.tolist(), b.tolist(),
                                       c.tolist(), decay.tolist()):
        var.append((tau * e_k) ** 2 * p + b_k * b_k + c_k * c_k)
        cov.append(d_k * tau * e_k * p + a_k * b_k)
        p = d_k * d_k * p + a_k * a_k - cov[-1] ** 2 / var[-1]
    root_s = np.sqrt(var)
    return tau * e, root_s, np.divide(cov, root_s), decay


def _box_muller(rng, work):
    """Two independent standard normals per atom, g1 + i g2 =
    sqrt(-2 log(1 - u1)) exp(-2 pi i u2), from one Box-Muller draw (Box &
    Muller, Ann. Math. Stat. 29, 610 (1958)) of two uniforms into the
    (3, n) real scratch array work, the cosine and sine from _half_angle
    as in _phasor.  Returns the views g1 = work[2] and g2 = work[1]; work[0]
    is free again."""
    rng.random(out=work[:2])
    u1, u2, tmp = work
    t, q = _half_angle(u2, tmp)
    g2 = np.multiply(t, q, out=u2)  # the sine, then g2
    g1 = np.subtract(q, 1, out=tmp)  # the cosine, then g1
    radius = np.log1p(np.negative(u1, out=u1), out=u1)
    radius *= -2
    np.sqrt(radius, out=radius)
    g1 *= radius
    g2 *= radius
    return g1, g2


def _ideal_coherence(h, bath: SpinBathParams) -> float:
    """Coherence exp(-chi) of the ideal-pulse sequence whose stored phase
    changes sign between consecutive free intervals h.

    With s_j = (-1)^j the sign, chi_static = (1/2) (2 pi sigma_line
    sum_j s_j h_j)^2 and chi_OU = (1/2) (2 pi sigma)^2 [sum_j 2 tau^2 (h_j/tau
    - e_j) + sum_{j<k} 2 s_j s_k tau^2 e_j e_k exp(-g_jk/tau)], e_j = 1 -
    exp(-h_j/tau), g_jk = h_(j+1) + ... + h_(k-1).  The pair sum runs as
    acc <- acc (1 - e_k) + s_k e_k, acc holding sum_{j<k} s_j e_j e^(-g_jk/tau).
    """
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


def _half_angle(turns, scratch):
    """The half-angle tangent t = tan(-pi c) of the angle -2 pi turns into
    turns and q = 2/(1 + t^2) into scratch, so that cos = q - 1 and
    sin = t q: c = turns - rint(turns) is exact and at most 1/2, and one
    tangent replaces a cos/sin pair.  Whole turns give t = 0 and an exact
    cosine of 1."""
    turns -= np.rint(turns, out=scratch)
    turns *= -np.pi
    t = np.tan(turns, out=turns)
    np.square(t, out=scratch)
    scratch += 1
    np.divide(2, scratch, out=scratch)  # 2/(1 + t^2) = 1 + cos
    return t, scratch


def _phasor(turns, scratch, out):
    """exp(-2 pi i turns) into the complex array out from _half_angle,
    overwriting the real arrays turns and scratch."""
    t, q = _half_angle(turns, scratch)
    np.multiply(t, q, out=out.imag)
    np.subtract(q, 1, out=out.real)
    return out


def _pulse(dd, errors, minus_delta, ca, sg, g, q):
    """The finite-Rabi pi pulses of dd under errors at detunings delta,
    given as minus_delta: A = C - i S delta/g into the complex ca and S/g
    into sg, and returns each pulse's drive -i omega e^(i (phase + error)),
    so that B = sg drive (see _propagate); g and q are scratch.  With
    x = pi/2 - pi g t_pi, small near resonance, and t = tan(x/2), C = sin x
    = 2 t/(1 + t^2) and S/g = cos x/g = (1 - t^2)/((1 + t^2) g): one
    tangent in place of a sin/cos pair, and tan is pi-periodic, so a
    far-detuned atom (x < -pi) needs no range reduction."""
    omega = errors.rf_rabi_hz * (1 + errors.area_error)
    t_pi = 1.0 / (2.0 * errors.rf_rabi_hz)  # nominal pi duration
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
    return -1j * omega * np.exp(1j * (dd.phases_rad + errors.phase_error_rad))


def _propagate(rng, static, bath, dd, errors, spinor, work=None, ou=None):
    """Carry every atom's spinor (up, dn), starting from the scalars (or
    arrays) in spinor, through the free intervals and imperfect pulses of
    dd: the module's one interval loop.  spin_echo_coherence runs it once
    per block of at most ATOM_BLOCK atoms.  With OU noise it draws one
    Box-Muller pair for every atom at the start of each pair of intervals.
    work is a float array of at least WORK_FLOATS * static.size items to run
    in (the returned up and dn are views of it); None allocates one.  ou is
    _ou_innovations over dd's intervals, the same for every block; None
    computes it.

    Over an interval h each atom takes its OU integral I from one normal of
    the pair, through _ou_innovations, and a free phase of (static h + I) / 2
    turns, whose rotation r comes from _phasor.  With the pulse that ends
    the interval, A = C - i S delta/g and B = -i S (omega/g) e^(i phase), the
    spinor takes one SU(2) map [[a, -b*], [b, a*]], a = A r and b = B r,
    where g = sqrt(omega^2 + delta^2) and (C, S) = (cos, sin)(pi g t_pi).
    The pulse acts at the static detuning delta, without the OU shift, so
    _pulse runs once, before the loop.
    """
    n = static.size
    if work is None:
        work = np.empty(WORK_FLOATS * n)
    up, dn, r, ca, a, b = work[:12 * n].view(np.complex128).reshape(6, n)
    m, g, sg = work[12 * n:15 * n].reshape(3, n)
    scratch = work[15 * n:WORK_FLOATS * n].reshape(3, n)
    h = dd.intervals_s
    use_ou = bath.ou_sigma_hz > 0
    if use_ou:
        mean_gain, root_s, gain, decay = ou or _ou_innovations(
            h, bath.ou_sigma_hz, bath.ou_tau_c_s)
        m[...] = 0
    up[...], dn[...] = spinor
    drive = _pulse(dd, errors, np.negative(static, out=scratch[1]), ca, sg, g,
                   scratch[0])
    for i, h_i in enumerate(h):
        turns = np.multiply(static, h_i / 2, out=g)
        if use_ou:  # turns += I/2, then m moves to the next interval
            if i % 2 == 0:
                z, z_next = _box_muller(rng, scratch)
            else:
                z = z_next
            turns += np.multiply(m, mean_gain[i] / 2, out=scratch[0])
            m *= decay[i]
            m += np.multiply(z, gain[i], out=scratch[0])
            turns += np.multiply(z, root_s[i] / 2, out=z)
        rot = _phasor(turns, scratch[0], r)
        if i == dd.n_pulses:  # no pulse ends the last interval
            up *= rot
            dn *= np.conj(rot, out=rot)
            break
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
    sampled over bath.n_atoms atoms drawn from seed (anything
    np.random.default_rng takes but None), which the ideal path ignores.
    The static detunings are drawn at once, then _propagate runs over
    consecutive blocks of at most ATOM_BLOCK atoms.
    """
    if errors is None:
        coherence = _ideal_coherence(dd.intervals_s, bath)
        return SpinStorageResult(coherence=coherence, eta_spin=coherence**2)
    if seed is None:
        raise ValueError("spin_echo_coherence needs a seed to sample pulse "
                         "errors")
    rng = np.random.default_rng(seed)
    ou = None
    if bath.ou_sigma_hz > 0:
        ou = _ou_innovations(dd.intervals_s, bath.ou_sigma_hz,
                             bath.ou_tau_c_s)
    static = sample_ensemble(bath, rng)
    phasors = np.empty(static.size, dtype=np.complex128)
    work = np.empty(WORK_FLOATS * min(static.size, ATOM_BLOCK))
    for start in range(0, static.size, ATOM_BLOCK):
        block = slice(start, start + ATOM_BLOCK)
        up, dn = _propagate(rng, static[block], bath, dd, errors,
                            (1 / np.sqrt(2), 1 / np.sqrt(2)), work, ou)
        np.multiply(np.conj(dn, out=dn), up, out=phasors[block])  # 2 up dn*
    phasors *= 2
    coherence, stderr = _coherence_stats(phasors)
    return SpinStorageResult(coherence=coherence, eta_spin=coherence**2,
                             coherence_stderr=stderr)


def residual_excitation(dd: DDSequence, errors: PulseErrorModel,
                        line: SpinBathParams) -> float:
    """Mean storage-state population left by the imperfect RF train acting
    on spins of the static line (no spectral diffusion) initialized in the
    ground state: an exact quadrature over the line, with no sampling.

    Under a CPMG train of n pulses, free intervals tau, 2 tau, ..., 2 tau,
    tau, the free rotations enter only through theta = 4 pi delta tau per
    middle interval (the first and last add a global phase), while each
    pulse depends on delta slowly, on the Rabi scale.  Written
    diag(e^(-i theta), 1), a rotation raises each power of e^(-i theta) in
    the up amplitude by one, so the train carries the amplitude's
    coefficients a_q(delta), q < n, exactly, and the population is
    sum_k c_k e^(-i k theta) with c_k = sum_q a_(q+k) a_q*.
    Over the Gaussian line, delta = sigma z, the trapezoid rule of step h
    in z averages each harmonic kept, |k| beta <= pi/h with beta = 4 pi
    sigma tau, to within about e^(-(pi/h)^2/2) of |c_k| (its aliases lie
    2 pi/h away), and each harmonic dropped averages to below that.  h
    halves from 1/2 until two rules agree to RESIDUAL_RTOL, or to the
    n eps sqrt(value) rounding of the amplitudes; a line too wide against
    the Rabi frequency to agree at MIN_STEP raises ValueError.
    """
    n = dd.n_pulses
    if n == 0:
        return 0.0
    tau = dd.intervals_s[0]
    if not np.array_equal(dd.intervals_s,
                          np.r_[tau, np.full(n - 1, 2 * tau), tau]):
        raise ValueError("residual_excitation needs CPMG intervals tau, "
                         "2 tau, ..., 2 tau, tau")
    step, value = 0.5, None
    while True:
        last, value = value, _residual_quadrature(dd, errors, line, step)
        if last is not None and abs(value - last) <= (
                RESIDUAL_RTOL * value + n * EPS * np.sqrt(abs(value))):
            return value
        if step == MIN_STEP:
            raise ValueError(
                f"residual_excitation: the quadrature over the spin line did "
                f"not converge at step {step:g} sigma (line FWHM "
                f"{line.inhom_fwhm_hz:g} Hz, Rabi {errors.rf_rabi_hz:g} Hz)")
        step /= 2


def _residual_quadrature(dd, errors, line, step):
    """residual_excitation's population average on the rule of one step."""
    n = dd.n_pulses
    half = round(LINE_SPAN / step)
    z = step * np.arange(-half, half + 1)
    sigma = line.inhom_fwhm_hz * FWHM_TO_SIGMA
    ca = np.empty(z.size, dtype=complex)
    sg = np.empty(z.size)
    drive = _pulse(dd, errors, -sigma * z, ca, sg, np.empty(z.size),
                   np.empty(z.size))
    ca, sg = ca[:, None], sg[:, None]
    up = np.zeros((z.size, n), dtype=complex)  # a_q, q = 0 ... n - 1
    dn = np.zeros((z.size, n), dtype=complex)
    dn[:, 0] = 1
    for i in range(n):  # the rotation, then [[A, -B*], [B, A*]], B = sg drive
        up[:, 1:] = up[:, :-1]  # the first acts on up = 0: a global phase
        up[:, 0] = 0
        b = sg * drive[i]
        up, dn = ca * up - np.conj(b) * dn, b * up + np.conj(ca) * dn
    population = np.sum(np.square(np.abs(up)), axis=1)  # c_0
    beta = 4 * np.pi * sigma * dd.intervals_s[0]
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
    frequency.  Returns a list of (t_s, eta)."""
    t_arr = np.asarray(t_list, dtype=float)
    if np.any(np.diff(t_arr) <= 0):
        raise ValueError("t_list must be sorted ascending")
    pulse_s = 1.0 / (2.0 * PulseErrorModel().rf_rabi_hz)
    return [(float(t_s),
             spin_echo_coherence(dd_sequence(dd_kind, t_s, pulse_s),
                                 bath).eta_spin)
            for t_s in t_arr]


def ou_sigma_for_t2(n_pulses: int, t2_s: float, tau_c_s: float) -> float:
    """OU amplitude that puts the coherence 1/e point (chi = 1) at t2_s.

    In a slow bath (pulse spacing << tau_c) the phase variance of an OU bath
    under an n-pulse CPMG train is chi(T) = (2 pi sigma)^2 T^3 / (12 n^2
    tau_c), and eta = exp(-2 chi); this solves chi(t2_s) = 1 for sigma.
    """
    sigma_rad = np.sqrt(12.0 * n_pulses**2 * tau_c_s / t2_s**3)
    return float(sigma_rad / (2 * np.pi))
