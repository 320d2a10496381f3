"""Fokker-Planck drift/diffusion coefficients from Bloch-equation solutions.

The per-pulse coefficients are weighted integrals of <sigma_y(t)> and of
Re<sigma_y(t) sigma_y(t')> over one pulse.  Both are exact blocks of one
matrix exponential each (C. F. Van Loan, IEEE TAC 23:395, 1978), built on
the affine Bloch generator A = [[M, Gamma m], [0, 0]] acting on (s, 1): the
trap-frequency weights phi = (sin nu t, cos nu t) obey phi' = [[0, nu],
[-nu, 0]] phi, so products of phi with the Bloch vector and the integrals of
those products solve one larger linear system.  The Doppler damping rate g
is the exact detuning derivative of the momentum drift, a Frechet derivative
of the single-integral exponential; the detuning slope of the diffusion is
the same kind of derivative of the double-integral exponential.  Both come
from `_expm.expm_frechet`, a block of the exponential of the doubled block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._expm import expm, expm_frechet
from .bloch import _REGRESS, _Z0, PulseParams, affine_generator
from .errors import ConvergenceError

_SQRT2 = math.sqrt(2.0)
_I2, _I4 = np.eye(2), np.eye(4)
_Y = 1                                   # index of s_y in (s, 1)
_DA = np.zeros((4, 4))                   # d A / d Delta
_DA[0, 1], _DA[1, 0] = -1.0, 1.0


@dataclass(frozen=True)
class DriftDiffusion:
    """Per-pulse drift/diffusion coefficients in zero-point units.

    alpha_p is reported as the magnitude of the momentum drift per pulse;
    the displacement direction is fixed in the phase-space module.
    """

    alpha_x: float
    alpha_p: float
    d_xx: float
    d_pp: float
    d_xp: float
    g: float
    n1: float

    @property
    def epsilon(self) -> float:
        """Diffusion-to-drift ratio D_pp / alpha_p.

        Zero drift gives 0 when the diffusion also vanishes (no scattering
        at all) and +inf otherwise.
        """
        if self.alpha_p == 0.0:
            return 0.0 if self.d_pp == 0.0 else math.inf
        return self.d_pp / self.alpha_p

    def per_second(self, p: PulseParams) -> dict:
        """Coefficients per unit wall-clock time (one pulse per trap period)."""
        rate = p.mode_freq / (2.0 * math.pi)
        return {
            "alpha_x": self.alpha_x * rate,
            "alpha_p": self.alpha_p * rate,
            "d_xx": self.d_xx * rate,
            "d_pp": self.d_pp * rate,
            "d_xp": self.d_xp * rate,
            "g": self.g * rate,
            "n1": self.n1 * rate,
        }


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron for 2-D arrays, with the same products and a fraction of its
    call overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _scaled_generators(p: PulseParams):
    """tau A for the affine Bloch generator A, and tau times phi's generator."""
    a = affine_generator(p)
    phi = np.array([[0.0, p.mode_freq], [-p.mode_freq, 0.0]])
    with np.errstate(over="ignore"):
        a, phi = a * p.pulse_duration, phi * p.pulse_duration
    if not (np.isfinite(a).all() and np.isfinite(phi).all()):
        raise ConvergenceError(f"pulse generator overflows for {p}")
    return a, phi


def _single_block(p: PulseParams):
    """The 15x15 block whose exponential holds the single integrals, and its
    detuning derivative times the pulse length.

    State (I[3], phi (x) s~[8], s~[4]) with s~ = (s, 1).
    """
    a, phi = _scaled_generators(p)
    b = np.zeros((15, 15))
    b[3:11, 3:11] = _kron(phi, _I4) + _kron(_I2, a)
    b[11:, 11:] = a
    b[0, 3 + _Y] = b[1, 7 + _Y] = b[2, 11 + _Y] = p.pulse_duration
    db = np.zeros((15, 15))
    db[3:11, 3:11] = _kron(_I2, _DA)
    db[11:, 11:] = _DA
    return b, db * p.pulse_duration


def _single_integrals(p: PulseParams):
    """(I_sin, I_cos, I_one) and their detuning derivatives, where
    I_f = int_0^tau f(nu t) <sy(t)> dt and I_one = int_0^tau <sy(t)> dt."""
    x0 = np.concatenate((np.zeros(7), _Z0, _Z0))      # phi(0) = (0, 1)
    with np.errstate(all="ignore"):
        big, dbig = expm_frechet(*_single_block(p))
    return big[:3] @ x0, dbig[:3] @ x0


def _double_block(p: PulseParams):
    """The 36x36 block whose exponential holds the double integrals.

    State (J[4], W[16], S[16]): S = phi (x) phi (x) s~ and W_g = phi (x) u_g
    with u_g' = A u_g + R g(nu t) s~, so that e_y . u_g(t) is the inner
    integral.
    """
    a, phi = _scaled_generators(p)
    step = _kron(_I2, _kron(phi, _I4)) + _kron(_I4, a)
    b = np.zeros((36, 36))
    b[4:20, 4:20] = step
    b[4:20, 20:] = _kron(_I4, p.pulse_duration * _REGRESS)
    b[20:, 20:] = step + _kron(phi, np.eye(8))
    for f, g in np.ndindex(2, 2):
        b[2 * f + g, 4 + 8 * g + 4 * f + _Y] = p.pulse_duration
    return b


def compute_coefficients(p: PulseParams) -> DriftDiffusion:
    """All per-pulse Fokker-Planck coefficients at the pulse detuning.

    Raises ConvergenceError, naming the pulse, when a coefficient is not
    finite.
    """
    with np.errstate(all="ignore"):
        j = expm(_double_block(p))[:4, 32:] @ _Z0     # S(0) = cos cos z0
    return _assemble(p, _single_integrals(p), j)


def coefficients_with_slopes(
        p: PulseParams) -> tuple[DriftDiffusion, tuple[float, float]]:
    """`compute_coefficients` and `detuning_slopes` from one evaluation of
    each pulse block: the Frechet derivative of the 36x36 double-integral
    block returns its exponential too.
    """
    single = _single_integrals(p)
    db = np.zeros((36, 36))
    db[4:20, 4:20] = db[20:, 20:] = _kron(_I4, _DA * p.pulse_duration)
    with np.errstate(all="ignore"):
        big, dbig = expm_frechet(_double_block(p), db)
    coeffs = _assemble(p, single, big[:4, 32:] @ _Z0)
    (_, i_cos, _), (_, di_cos, _) = single
    # D_pp = (eta Omega)^2 J_cc - alpha_p^2, and d J_cc / d Delta is the
    # Frechet derivative of the double-integral exponential along dA/dDelta
    dj_cc = dbig[3, 32:] @ _Z0
    eta_rabi = p.lamb_dicke * p.rabi
    slope = _slope(p, i_cos, di_cos)
    return coeffs, (slope, float(eta_rabi * eta_rabi * dj_cc
                                 - 2.0 * coeffs.alpha_p * slope))


def _assemble(p: PulseParams, single, j) -> DriftDiffusion:
    """The coefficients from the single integrals with their detuning
    derivatives and the double integrals (J_ss, J_sc, J_cs, J_cc), where
    J_fg = int_0^tau dt int_0^t dt' f(nu t) g(nu t') Re<sy(t) sy(t')>."""
    (i_sin, i_cos, i_one), (_, di_cos, _) = single
    j_ss, j_sc, j_cs, j_cc = j
    eta_rabi = p.lamb_dicke * p.rabi
    with np.errstate(all="ignore"):
        ax, ap = eta_rabi / _SQRT2 * i_sin, -eta_rabi / _SQRT2 * i_cos
        pref2 = eta_rabi * eta_rabi
        vals = {"alpha_x": ax, "alpha_p": abs(ap),
                "d_xx": pref2 * j_ss - ax * ax, "d_pp": pref2 * j_cc - ap * ap,
                "d_xp": -0.5 * pref2 * (j_sc - j_cs) - ax * ap,
                "g": p.eta_bar * p.mode_freq * _slope(p, i_cos, di_cos),
                "n1": 0.5 * p.rabi * i_one}
    vals = {k: float(v) for k, v in vals.items()}
    if not all(map(math.isfinite, vals.values())):
        raise ConvergenceError(f"pulse coefficients are not finite for {p}")
    return DriftDiffusion(**vals)


def _slope(p: PulseParams, i_cos: float, di_cos: float) -> float:
    """d alpha_p / d Delta, alpha_p = |pref I_cos| with pref = -eta Omega/sqrt(2)."""
    pref = -p.lamb_dicke * p.rabi / _SQRT2
    return float(np.sign(pref * i_cos) * pref * di_cos)


def detuning_slopes(p: PulseParams) -> tuple[float, float]:
    """Exact (d alpha_p / d Delta, d D_pp / d Delta)."""
    return coefficients_with_slopes(p)[1]
