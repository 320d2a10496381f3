"""Doppler-induced systematic shift of the two-point-sampled resonance.

The velocity dependence of the probe detuning adds a weak damping term g
to the momentum dynamics.  To first order in g the remain probability
acquires an odd-in-detuning component deltaP, which a two-point sampling
scheme converts into a frequency offset delta_omega = -deltaP / (dP/dDelta)
on the flank of the resonance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .bloch import PulseParams
from .errors import ConfigError, FlatFlankError, PerturbativeRegimeError
from .metrology import find_working_point
from .phasespace import FPParams, MotionalState, overlap_slopes
from .recoil import coefficients_with_slopes

MAX_GTBAR = 0.1
# |dP/dDelta| below this leaves the sampled flank too flat to define a shift
_SLOPE_FLOOR = 1e-18


@dataclass(frozen=True)
class ShiftResult:
    delta_p_asym: float
    c_const: float
    shift: float
    shift_analytic: float
    tstar: float
    p_sym: float
    dp_ddelta: float


def asymmetric_overlap(state: MotionalState, fp: FPParams):
    """(P_sym, deltaP, c): symmetric overlap, first-order-in-g odd part and
    the order-unity constant c = deltaP / ((g tbar / 2) P_sym).

    For a reflection-symmetric probe dP/dg = (tbar / 2) P exactly at g = 0,
    so deltaP = (g tbar / 2) P_sym and c = 1: in the characteristic-function
    overlap the g-derivative integrates by parts in k_p to tbar / 2 plus
    drift and diffusion terms that the symmetry cancels.
    """
    if abs(fp.g * fp.tbar) > MAX_GTBAR:
        raise PerturbativeRegimeError(
            f"|g tbar| = {abs(fp.g * fp.tbar):.3g} beyond perturbative range")
    p_sym = overlap_slopes(state, replace(fp, g=0.0))[0]   # rejects non-states
    if not state.reflection_symmetric():
        raise ConfigError(
            "the first-order Doppler term needs a probe whose Wigner function "
            "is even under p -> -p or under a point reflection "
            "(x, p) -> (x0 - x, -p)")
    return p_sym, 0.5 * fp.g * fp.tbar * p_sym, 1.0


def two_point_shift(state: MotionalState, pulse: PulseParams,
                    p0: float = 0.5,
                    neglect_diffusion: bool = False) -> ShiftResult:
    """Systematic frequency offset of the resonance sampled at P = p0.

    Coefficients are evaluated at the pulse detuning and the working point
    is found in per-pulse units.  The detuning slope of P at fixed
    interrogation time is exact: dP/dalpha d alpha_p/dDelta
    + dP/dd d D_pp/dDelta.
    """
    if not 0.0 < p0 < 1.0:
        raise ConfigError("p0 must lie in (0, 1)")
    coeffs, (da_ddelta, dd_ddelta) = coefficients_with_slopes(pulse)
    alpha0 = coeffs.alpha_p
    d0 = 0.0 if neglect_diffusion else coeffs.d_pp
    if alpha0 <= 0.0:
        raise ConfigError("drift must be positive at the chosen detuning")
    tstar = find_working_point(state, d0 / alpha0, p0=p0, alpha=alpha0,
                               allow_large_epsilon=True).tstar
    # asymmetric_overlap refuses |g t*| > MAX_GTBAR before any work
    p_sym, delta_p, c = asymmetric_overlap(
        state, FPParams(alpha=alpha0, d=d0, tbar=tstar, g=coeffs.g))
    _, dp_da, dp_dd = overlap_slopes(
        state, FPParams(alpha=alpha0, d=d0, tbar=tstar))
    dp_ddelta = dp_da * da_ddelta + (0.0 if neglect_diffusion
                                     else dp_dd * dd_ddelta)
    if abs(dp_ddelta) < _SLOPE_FLOOR:
        raise FlatFlankError("overlap slope too small to define a shift")
    shift = -delta_p / dp_ddelta
    shift_analytic = (pulse.lamb_dicke * pulse.mode_freq
                      / (2.0 * math.sqrt(math.log(1.0 / p0))))
    return ShiftResult(delta_p_asym=delta_p, c_const=c, shift=shift,
                       shift_analytic=shift_analytic, tstar=tstar,
                       p_sym=p_sym, dp_ddelta=dp_ddelta)
