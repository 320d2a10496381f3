"""Doppler-induced systematic shift of the two-point-sampled resonance.

The velocity dependence of the probe detuning adds a weak damping term g
to the momentum dynamics.  To first order in g the remain probability
acquires an odd-in-detuning component deltaP, which a two-point sampling
scheme converts into a frequency offset delta_omega = -deltaP / (dP/dDelta)
on the flank of the resonance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import PulseParams
from .errors import ConfigError, FlatFlankError, PerturbativeRegimeError
from .metrology import find_working_point
from .phasespace import FPParams, GaussianState, overlap_slopes
from .recoil import compute_coefficients, detuning_slopes

MAX_GTBAR = 0.1


@dataclass(frozen=True)
class ShiftResult:
    delta_p_asym: float
    c_const: float
    shift: float
    shift_analytic: float
    tstar: float
    p_sym: float
    dp_ddelta: float


def _first_order_moments(s: GaussianState, fp: FPParams):
    """Evolved mean/cov at g=0 plus their derivatives with respect to g."""
    a, d, t = fp.alpha, fp.d, fp.tbar
    mean = s.mean.copy()
    mean[1] -= a * t
    cov = s.cov + np.diag([0.0, d * t])
    # a * t * t, not a * t**2: a float power raises where a product gives inf
    dmean = np.array([0.0, -s.mean[1] * t + 0.5 * a * t * t])
    dcov = np.array([[0.0, -t * s.cov[0, 1]],
                     [-t * s.cov[0, 1], -2.0 * t * s.cov[1, 1] - d * t * t]])
    return mean, cov, dmean, dcov


def asymmetric_overlap(state: GaussianState, fp: FPParams):
    """(P_sym, deltaP, c): symmetric overlap, first-order-in-g odd part and
    the order-unity constant c = deltaP / ((g tbar / 2) P_sym)."""
    if not isinstance(state, GaussianState):
        raise ConfigError("asymmetric overlap implemented for Gaussian states")
    if abs(fp.g * fp.tbar) > MAX_GTBAR:
        raise PerturbativeRegimeError(
            f"|g tbar| = {abs(fp.g * fp.tbar):.3g} beyond perturbative range")
    mt, ct, dmt, dct = _first_order_moments(state, fp)
    sigma = state.cov + ct
    dm = state.mean - mt
    inv = np.linalg.inv(sigma)
    p_sym = float(np.linalg.det(sigma) ** -0.5
                  * math.exp(-0.5 * dm @ inv @ dm))
    # d/dg of log P: determinant term, quadratic-form metric term, mean term
    dlogp = (-0.5 * float(np.trace(inv @ dct))
             + 0.5 * float(dm @ inv @ dct @ inv @ dm)
             + float(dm @ inv @ dmt))
    delta_p = fp.g * p_sym * dlogp
    # c = 2 (d log P / dg) / tbar holds at every g, g = 0 included
    c = 2.0 * dlogp / fp.tbar if fp.tbar > 0.0 else 0.0
    return p_sym, delta_p, c


def two_point_shift(state: GaussianState, pulse: PulseParams,
                    p0: float = 0.5, neglect_diffusion: bool = False,
                    slope_floor: float = 1e-18) -> ShiftResult:
    """Systematic frequency offset of the resonance sampled at P = p0.

    Coefficients are evaluated at the pulse detuning and the working point
    is found in per-pulse units.  The detuning slope of P at fixed
    interrogation time is exact: dP/dalpha d alpha_p/dDelta
    + dP/dd d D_pp/dDelta.
    """
    if not 0.0 < p0 < 1.0:
        raise ConfigError("p0 must lie in (0, 1)")
    coeffs = compute_coefficients(pulse)
    alpha0 = coeffs.alpha_p
    d0 = 0.0 if neglect_diffusion else coeffs.d_pp
    if alpha0 <= 0.0:
        raise ConfigError("drift must be positive at the chosen detuning")
    tstar = find_working_point(state, d0 / alpha0, p0=p0, alpha=alpha0,
                               allow_large_epsilon=True).tstar
    if abs(coeffs.g * tstar) > MAX_GTBAR:
        raise PerturbativeRegimeError(
            f"|g tbar*| = {abs(coeffs.g * tstar):.3g} beyond perturbative "
            "range")

    p_sym, delta_p, c = asymmetric_overlap(
        state, FPParams(alpha=alpha0, d=d0, tbar=tstar, g=coeffs.g))
    _, dp_da, dp_dd = overlap_slopes(
        state, FPParams(alpha=alpha0, d=d0, tbar=tstar))
    da_ddelta, dd_ddelta = detuning_slopes(pulse)
    dp_ddelta = dp_da * da_ddelta + (0.0 if neglect_diffusion
                                     else dp_dd * dd_ddelta)
    if abs(dp_ddelta) < slope_floor:
        raise FlatFlankError("overlap slope too small to define a shift")
    shift = -delta_p / dp_ddelta
    shift_analytic = (pulse.lamb_dicke * pulse.mode_freq
                      / (2.0 * math.sqrt(math.log(1.0 / p0))))
    return ShiftResult(delta_p_asym=delta_p, c_const=c, shift=shift,
                       shift_analytic=shift_analytic, tstar=tstar,
                       p_sym=p_sym, dp_ddelta=dp_ddelta)
