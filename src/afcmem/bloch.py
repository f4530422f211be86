"""Two-level rotating-frame dynamics under sampled drive envelopes.

States are propagated as spinors with the classical 4th-order Runge-Kutta
(RK4) step, two waveform samples long, so envelope values at half steps
come straight from the sampling grid.  On the linear two-level equation one
RK4 step is itself a linear map of the spinor, of the Cayley-Klein form
[[a, -b*], [b, a*]], whose entries are polynomials of degree 4 in the
detuning.  Their coefficients are computed once per pulse; the maps of a
block of steps come for every detuning from one matrix product against
the detuning's powers and are multiplied pairwise in place, level by
level, into one block map (a log-depth product tree, as in Blelloch's
prefix-sum reduction), which is then applied to the spinors.  The result
is the step-by-step RK4 result up to rounding.  No renormalization is applied;
the norm drift | |c_e|^2 + |c_g|^2 - 1 | is a direct accuracy diagnostic
and is reported by transfer_profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .waveform import Waveform

# RK4 steps per block map, a power of two.  A block's maps, a - 1 and b,
# hold 8 KiB per detuning and the product's two work arrays 4 KiB: 732 KiB
# in all for a 61-detuning transfer grid.
_BLOCK_STEPS = 256


def _bloch_to_spinor(r) -> tuple[complex, complex]:
    x, y, z = (float(v) for v in r)
    norm = np.sqrt(x * x + y * y + z * z)
    if norm > 1 + 1e-9:
        raise ValueError("initial Bloch vector must have |r| <= 1 (pure state)")
    ce = np.sqrt(max((1 + z) / 2, 0.0))
    cg = np.sqrt(max((1 - z) / 2, 0.0))
    phi = np.arctan2(y, x)
    return ce + 0j, cg * np.exp(-1j * phi)


def _step_coefficients(s0, sh, s1):
    """Coefficients of the RK4 step maps as polynomials in u = pi h d.

    s0, sh, s1 are the reduced envelope samples pi h s at the start, middle
    and end of each step, and d the detuning.  For dpsi/dt = A psi with
    A = -i pi [[d, s*], [s, -d]], A_h^2 = -pi^2 (d^2 + |s_h|^2) I is scalar,
    so one RK4 step is the map
    M = I + h/6 (A0 + 4 A_h + A1) + h^2/6 (A_h A0 + A_h^2 + A1 A_h)
        + h^3/12 A_h^2 (A0 + A1) + h^4/24 A_h^2 A1 A0
      = [[a, -b*], [b, a*]].
    With sh2 = |sh|^2, c = conj(s1) s0 / 24, A = (conj(sh) s0 + sh2 +
    conj(s1) sh) / 6 and D = s1 - s0 it is, in powers of u,
    a - 1 = (sh2 c - A) + (-i + i sh2/6) u + (-1/2 + c + sh2/24) u^2
            + (i/6) u^3 + u^4/24,
    b = (-i/6)(s0 + 4 sh + s1) + (i/12) sh2 (s0 + s1) + (-D/6 + sh2 D/24) u
        + (i/12)(s0 + s1) u^2 + (D/24) u^3.
    Returns shape (2, steps, 5): the coefficients of a - 1 and of b at
    u^4 ... u^0, so that a sum over them in order adds the small terms
    first.  Carrying a - 1 instead of a keeps the small part of a
    near-identity map to full relative precision; rounding 1 + O(h) at
    every step would bias the norm by an ulp per step.
    """
    sh2 = sh.real**2 + sh.imag**2
    c = np.conj(s1) * s0 / 24
    delta = s1 - s0
    total = s0 + s1
    coef = np.zeros((2, s0.size, 5), dtype=complex)
    coef[0, :, 0] = 1 / 24
    coef[0, :, 1] = 1j / 6
    coef[0, :, 2] = -0.5 + c + sh2 / 24
    coef[0, :, 3] = -1j + (1j / 6) * sh2
    coef[0, :, 4] = sh2 * c - (np.conj(sh) * s0 + sh2 + np.conj(s1) * sh) / 6
    coef[1, :, 1] = delta / 24
    coef[1, :, 2] = (1j / 12) * total
    coef[1, :, 3] = -delta / 6 + sh2 * delta / 24
    coef[1, :, 4] = (-1j / 6) * (s0 + 4 * sh + s1) + (1j / 12) * sh2 * total
    return coef


def _bit_reversed(n: int) -> np.ndarray:
    """0 ... n - 1 in bit-reversed order, for n a power of two."""
    order = np.zeros(1, dtype=int)
    while order.size < n:
        order = np.concatenate([2 * order, 2 * order + 1])
    return order


_BIT_REVERSED = _bit_reversed(_BLOCK_STEPS)


def _product(am1, b):
    """Ordered product M[n-1] ... M[1] M[0] of n = 2^L maps (a - 1, b)
    stacked along axis 0 in bit-reversed order of their index, multiplying
    neighbouring pairs level by level (log-depth tree).  In that order a
    level's pairs are its first half and its second half, row by row, and
    their products, written over the first half in place, are the next
    level in the same order.  The inputs are overwritten."""
    n = len(am1) // 2
    work = np.empty((2, n) + am1.shape[1:], dtype=complex)
    while n:
        a0, b0, a1, b1 = am1[:n], b[:n], am1[n:2 * n], b[n:2 * n]
        pa, t = work[0, :n], work[1, :n]
        # a1 + a0 + (a1 a0 - conj(b1) b0) and b1 + b0 + (b1 a0 + conj(a1) b0)
        np.multiply(a1, a0, out=pa)
        np.conjugate(b1, out=t)
        t *= b0
        pa -= t
        np.conjugate(a1, out=t)
        t *= b0
        b0 += b1
        b1 *= a0
        b1 += t
        b0 += b1
        a0 += a1
        a0 += pa
        n //= 2
    return am1[0], b[0]


def _propagate_spinors(waveform: Waveform, detunings: np.ndarray,
                       initial_bloch=(0.0, 0.0, -1.0)) -> tuple[np.ndarray, np.ndarray]:
    """Propagate one spinor per detuning; returns (c_e, c_g) arrays."""
    s = waveform.samples
    if not np.all(np.isfinite(s)):
        raise ValueError("waveform contains non-finite samples")
    if s.size % 2 == 0:
        s = np.concatenate([s, [0.0 + 0.0j]])
    n_steps = (s.size - 1) // 2
    h = 2 * waveform.dt_s

    d = np.asarray(detunings, dtype=float).ravel()
    ce0, cg0 = _bloch_to_spinor(initial_bloch)
    ce = np.full(d.shape, ce0, dtype=np.complex128)
    cg = np.full(d.shape, cg0, dtype=np.complex128)
    # the steps' coefficients, block by block in bit-reversed order; the
    # last block is filled up with zero rows, identity maps
    sig = (np.pi * h) * s
    n_blocks = -(-n_steps // _BLOCK_STEPS)
    coef = np.zeros((2, n_blocks * _BLOCK_STEPS, 5), dtype=complex)
    coef[:, :n_steps] = _step_coefficients(sig[0:-1:2], sig[1::2], sig[2::2])
    coef = coef.reshape(2, n_blocks, _BLOCK_STEPS, 5)[:, :, _BIT_REVERSED]
    u = (np.pi * h) * d
    powers = np.ones((5, d.size), dtype=complex)  # u^4 ... u^0
    for j in range(3, -1, -1):
        powers[j] = powers[j + 1].real * u
    for block in range(n_blocks):
        am1, b = _product(*(coef[:, block] @ powers))
        ce, cg = (ce + (am1 * ce - np.conj(b) * cg),
                  cg + (b * ce + np.conj(am1) * cg))
    return ce, cg


def bloch_propagate(waveform: Waveform, detuning_hz,
                    initial_bloch=(0.0, 0.0, -1.0)) -> np.ndarray:
    """Final Bloch vector(s) after the pulse at the given detuning(s).

    Scalar detuning returns shape (3,); an array returns shape (n, 3).
    """
    d = np.atleast_1d(np.asarray(detuning_hz, dtype=float))
    ce, cg = _propagate_spinors(waveform, d, initial_bloch)
    coh = 2 * ce * np.conj(cg)
    out = np.stack([coh.real, coh.imag,
                    np.abs(ce) ** 2 - np.abs(cg) ** 2], axis=-1)
    return out[0] if np.isscalar(detuning_hz) or np.ndim(detuning_hz) == 0 else out


@dataclass
class TransferProfile:
    inversion: np.ndarray
    bandwidth_3db_hz: float
    # largest | |c_e|^2 + |c_g|^2 - 1 | over the grid after the pulse
    norm_drift: float


def transfer_profile(waveform: Waveform, detuning_grid,
                     expected_bandwidth_hz: float | None = None) -> TransferProfile:
    """Ground-state inversion probability versus detuning, the -3 dB
    (half-maximum) width of the profile and the largest norm drift."""
    d = np.asarray(detuning_grid, dtype=float)
    if expected_bandwidth_hz is not None:
        span = d.max() - d.min()
        if span < 2 * expected_bandwidth_hz:
            raise ValueError("detuning grid must span at least twice the bandwidth")
    ce, cg = _propagate_spinors(waveform, d)
    pe, pg = np.abs(ce) ** 2, np.abs(cg) ** 2
    inversion = (pe - pg + 1) / 2
    return TransferProfile(inversion=inversion,
                           bandwidth_3db_hz=_half_max_width(d, inversion),
                           norm_drift=float(np.max(np.abs(pe + pg - 1))))


def _half_max_width(x: np.ndarray, y: np.ndarray) -> float:
    """Width between the outermost half-maximum crossings (linear interp)."""
    top = float(y.max())
    if top <= 0:
        return 0.0
    half = top / 2
    above = y >= half
    if not above.any():
        return 0.0
    i_lo = int(np.argmax(above))
    i_hi = int(len(y) - 1 - np.argmax(above[::-1]))
    lo = x[i_lo]
    if i_lo > 0:
        f = (half - y[i_lo - 1]) / (y[i_lo] - y[i_lo - 1])
        lo = x[i_lo - 1] + f * (x[i_lo] - x[i_lo - 1])
    hi = x[i_hi]
    if i_hi < len(y) - 1:
        f = (half - y[i_hi + 1]) / (y[i_hi] - y[i_hi + 1])
        hi = x[i_hi + 1] - f * (x[i_hi + 1] - x[i_hi])
    return float(hi - lo)
