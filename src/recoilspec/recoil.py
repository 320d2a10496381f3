"""Fokker-Planck drift/diffusion coefficients from Bloch-equation solutions.

The per-pulse coefficients are integrals of <sy(t)> and of C(t, t') =
Re<sy(t) sy(t')> against the trap-frequency weights, Re and Im of
e^{i nu t}, built on the affine Bloch generator A = [[M, Gamma m], [0, 0]]
acting on (s, 1) from the ground state z0.  So each is a block of the
exponential of a small complex block with A shifted by i nu (C. F. Van
Loan, IEEE TAC 23:395, 1978): I_cos + i I_sin = int e^{i nu t} <sy> dt and
K(1, b) = int dt int_0^t dt' e^{i nu t} e^{i b nu t'} C(t, t').  C is real,
so b = +1 and -1 give all four J_fg = int dt int_0^t dt' f(nu t) g(nu t') C:
J_cc = Re(K11 + K1-1)/2, J_ss = -Re(K11 - K1-1)/2, J_sc = Im(K11 + K1-1)/2
and J_cs = Im(K11 - K1-1)/2.  One 10x10 block per b holds its single and
double integral (the b = -1 block also I_one = int <sy> dt), and one
`_expm.expm_frechet` call on the stack of both, along dA/dDelta, gives
every integral and the exact detuning slopes of the drift (so the Doppler
damping rate g) and of the diffusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._expm import expm_frechet
from .bloch import _REGRESS, _Z0, PulseParams, affine_generator
from .errors import ConvergenceError

_SQRT2 = math.sqrt(2.0)
_I4 = np.eye(4)
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


def _pulse_blocks(p: PulseParams):
    """The complex 10x10 blocks for b = +1 and b = -1 as a (2, 10, 10)
    stack, and their detuning derivative times the pulse length.

    Each block is [[0, 0, y, 0], [0, 0, 0, y], [0, 0, X, R], [0, 0, 0, Y]]
    times tau, with y = e_y^T, X = A + i nu, Y = A + i (1 + b) nu and R the
    regression map; both parts move with A, so the derivative holds dA/dDelta
    on both diagonal parts.
    """
    tau, a = p.pulse_duration, affine_generator(p)
    with np.errstate(over="ignore"):
        a, nu = a * tau, p.mode_freq * tau
    if not (np.isfinite(a).all() and math.isfinite(nu)):
        raise ConvergenceError(f"pulse generator overflows for {p}")
    blocks = np.zeros((2, 10, 10), dtype=complex)
    blocks[:, 0, 2 + _Y] = blocks[:, 1, 6 + _Y] = tau
    blocks[:, 2:6, 2:6] = a + 1j * nu * _I4
    blocks[:, 2:6, 6:] = tau * _REGRESS
    blocks[0, 6:, 6:] = a + 2j * nu * _I4
    blocks[1, 6:, 6:] = a
    direction = np.zeros((10, 10))
    direction[2:6, 2:6] = direction[6:, 6:] = tau * _DA
    return blocks, direction


def compute_coefficients(p: PulseParams) -> DriftDiffusion:
    """All per-pulse Fokker-Planck coefficients at the pulse detuning.

    Raises ConvergenceError, naming the pulse, when a coefficient is not
    finite.
    """
    return coefficients_with_slopes(p)[0]


def coefficients_with_slopes(
        p: PulseParams) -> tuple[DriftDiffusion, tuple[float, float]]:
    """`compute_coefficients` and `detuning_slopes` from one Frechet
    derivative of the stack of both pulse blocks, whose exponential holds
    every integral.
    """
    with np.errstate(all="ignore"):
        big, dbig = expm_frechet(*_pulse_blocks(p))
        # rows 0 and 1 of each block read against z0 in parts 1 and 2,
        # indexed [b, row, part]
        x, dx = (m[:, :2, 2:].reshape(2, 2, 2, 4) @ _Z0 for m in (big, dbig))
        i_cos, i_sin = x[0, 0, 0].real, x[0, 0, 0].imag
        k_sum, k_diff = x[0, 0, 1] + x[1, 0, 1], x[0, 0, 1] - x[1, 0, 1]
        j = (-0.5 * k_diff.real, 0.5 * k_sum.imag, 0.5 * k_diff.imag,
             0.5 * k_sum.real)
        # d alpha_p / d Delta, alpha_p = |pref I_cos|, pref = -eta Omega/sqrt2
        pref = -p.lamb_dicke * p.rabi / _SQRT2
        slope = float(np.sign(pref * i_cos) * pref * dx[0, 0, 0].real)
    coeffs = _assemble(p, (i_sin, i_cos, x[1, 1, 1].real), j, slope)
    # D_pp = (eta Omega)^2 J_cc - alpha_p^2, and d J_cc / d Delta is the
    # Frechet derivative of the double integrals along dA/dDelta
    dj_cc = 0.5 * (dx[0, 0, 1] + dx[1, 0, 1]).real
    eta_rabi = p.lamb_dicke * p.rabi
    return coeffs, (slope, float(eta_rabi * eta_rabi * dj_cc
                                 - 2.0 * coeffs.alpha_p * slope))


def _assemble(p: PulseParams, single, j, slope: float) -> DriftDiffusion:
    """The coefficients from the single integrals (I_sin, I_cos, I_one),
    the double integrals (J_ss, J_sc, J_cs, J_cc) and d alpha_p / d Delta,
    where I_f = int_0^tau f(nu t) <sy(t)> dt and
    J_fg = int_0^tau dt int_0^t dt' f(nu t) g(nu t') Re<sy(t) sy(t')>."""
    i_sin, i_cos, i_one = single
    j_ss, j_sc, j_cs, j_cc = j
    eta_rabi = p.lamb_dicke * p.rabi
    with np.errstate(all="ignore"):
        ax, ap = eta_rabi / _SQRT2 * i_sin, -eta_rabi / _SQRT2 * i_cos
        pref2 = eta_rabi * eta_rabi
        vals = {"alpha_x": ax, "alpha_p": abs(ap),
                "d_xx": pref2 * j_ss - ax * ax, "d_pp": pref2 * j_cc - ap * ap,
                "d_xp": -0.5 * pref2 * (j_sc - j_cs) - ax * ap,
                "g": p.eta_bar * p.mode_freq * slope,
                "n1": 0.5 * p.rabi * i_one}
    vals = {k: float(v) for k, v in vals.items()}
    if not all(map(math.isfinite, vals.values())):
        raise ConvergenceError(f"pulse coefficients are not finite for {p}")
    return DriftDiffusion(**vals)


def detuning_slopes(p: PulseParams) -> tuple[float, float]:
    """Exact (d alpha_p / d Delta, d D_pp / d Delta)."""
    return coefficients_with_slopes(p)[1]
