"""Working points, recoil sensitivity, Fisher information and bounds.

All quantities here live in the normalized per-pulse units of the
drift/diffusion model: the drift slope with respect to detuning is divided
out, so sensitivities depend only on the probe state, the diffusion ratio
epsilon = d/alpha, and the target probability p0.  Physical-unit numbers
are recovered by the callers that hold a pulse configuration.  The slopes
of the overlap are exact (`phasespace.overlap_slopes`); nothing here takes
a finite difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigError, ConvergenceError, NoCrossingError
from .phasespace import (CatState, FPParams, FockSuperposition, GaussianState,
                         MotionalState, _gaussian_slopes, overlap_after,
                         overlap_slopes, state_qfi)

_LN2 = math.log(2.0)
DEFAULT_EPS_MAX = 0.3
# The working-point march gives up after 640 half-widths sqrt(2 ln 2)/alpha
# of the vacuum overlap (scaled by e^r for squeezed probes).
_MARCH_SPAN = 640.0
# Factor by which a crossing inside the first march step is bracketed
# away from 0.
_SHRINK = 2.0**-8


@dataclass(frozen=True)
class WorkingPoint:
    """Dimensionless interrogation time where the overlap hits p0."""

    tstar: float
    p0: float = 0.5
    delta0: float | None = None


@dataclass(frozen=True)
class SensitivityResult:
    s_abs: float
    s_drift_term: float
    s_diff_term: float
    fisher: float
    qfi_bound: float
    tstar: float


def _check_epsilon(epsilon: float, allow_large: bool):
    if epsilon < 0.0:
        raise ConfigError("epsilon must be non-negative")
    if epsilon > DEFAULT_EPS_MAX and not allow_large:
        raise ConfigError(
            f"epsilon={epsilon} beyond validated range {DEFAULT_EPS_MAX}; "
            "pass allow_large_epsilon=True to override")


def _march_step(state: MotionalState, alpha: float) -> float:
    """March step small enough to resolve the fastest overlap oscillation."""
    step = 0.05 * math.sqrt(2.0 * _LN2) / alpha
    if isinstance(state, CatState) and state.beta > 0.0:
        step = min(step, 0.25 / (math.sqrt(2.0) * state.beta * alpha))
    elif isinstance(state, FockSuperposition):
        n_top = len(state.coeffs) - 1
        step = min(step, 0.25 / (math.sqrt(2.0 * n_top + 1.0) * alpha))
    elif isinstance(state, GaussianState):
        sig = math.sqrt(min(np.linalg.eigvalsh(state.cov)))
        step = min(step, 0.5 * sig / alpha)
    return step


def find_root_tbar(prob: Callable[[float], float], p0: float,
                   step: float, t_max: float) -> float:
    """First downward crossing of prob(t) = p0, marching then refining.

    A crossing in the first step has no lower bound but 0, and brentq's
    absolute tolerance would swamp a small root.  That step is shrunk
    geometrically to [q t, t] and refined in s = t' / t, so the tolerance
    is relative to the root, also where the root is subnormal.
    """
    if not 0.0 < p0 < 1.0:
        raise ConfigError("p0 must lie in (0, 1)")
    t_prev, p_prev = 0.0, prob(0.0)
    if p_prev < p0:
        raise NoCrossingError("overlap already below p0 at tbar = 0")
    t = step
    while t <= t_max:
        p = prob(t)
        if p < p0:
            if t_prev > 0.0:
                return float(brentq(lambda u: prob(u) - p0, t_prev, t,
                                    xtol=1e-14, rtol=8.9e-16))
            while prob(_SHRINK * t) < p0:   # ends: prob(0) >= p0
                t *= _SHRINK
            s = brentq(lambda s: prob(s * t) - p0, _SHRINK, 1.0,
                       xtol=1e-14 * _SHRINK, rtol=8.9e-16)
            if s * t == 0.0:   # below the tbar resolution: nothing to use
                raise ConvergenceError(
                    f"overlap falls to p0={p0} below the tbar resolution")
            return float(s * t)
        t_prev, p_prev = t, p
        t += step
    raise NoCrossingError(
        f"overlap stays above p0={p0} for tbar up to {t_max:.3g}")


def find_working_point(state: MotionalState, epsilon: float,
                       p0: float = 0.5, alpha: float = 1.0,
                       allow_large_epsilon: bool = False,
                       delta0: float | None = None) -> WorkingPoint:
    """Smallest tbar with overlap p0 under drift alpha and diffusion
    d = epsilon * alpha."""
    _check_epsilon(epsilon, allow_large_epsilon)
    d = epsilon * alpha

    def prob(t):
        return overlap_after(state, FPParams(alpha=alpha, d=d, tbar=t))

    r_eff = 0.0
    if isinstance(state, GaussianState):
        r_eff = 0.5 * math.log(2.0 * float(np.max(np.linalg.eigvalsh(state.cov))))
    t_max = _MARCH_SPAN * math.exp(abs(r_eff)) * math.sqrt(2.0 * _LN2) / alpha
    root = find_root_tbar(prob, p0, _march_step(state, alpha), t_max)
    return WorkingPoint(tstar=root, p0=p0, delta0=delta0)


def recoil_sensitivity(state: MotionalState, epsilon: float,
                       p0: float = 0.5, mode: str = "drift-only",
                       alpha: float = 1.0,
                       allow_large_epsilon: bool = False,
                       dalpha_ddelta: float = 1.0) -> SensitivityResult:
    """Figure of merit |S| at the working point, plus Fisher quantities.

    `mode` selects the drift-only definition (1/tbar)|dP/dalpha| or the
    extended one that adds epsilon * dP/dd at fixed diffusion ratio.
    """
    if mode not in ("drift-only", "extended"):
        raise ConfigError(f"unknown sensitivity mode {mode!r}")
    _check_epsilon(epsilon, allow_large_epsilon)
    wp = find_working_point(state, epsilon, p0=p0, alpha=alpha,
                            allow_large_epsilon=allow_large_epsilon)
    t = wp.tstar
    _, dp_da, dp_dd = overlap_slopes(
        state, FPParams(alpha=alpha, d=epsilon * alpha, tbar=t))
    s_drift = dp_da / t
    s_diff = epsilon * dp_dd / t if mode == "extended" else 0.0
    s_abs = abs(s_drift + s_diff)
    slope = t * (s_drift + s_diff) * dalpha_ddelta
    fisher = fisher_binary(p0, slope)
    bound = qfi_sensitivity_bound(state_qfi(state), t, dalpha_ddelta)
    return SensitivityResult(s_abs=s_abs, s_drift_term=s_drift,
                             s_diff_term=s_diff, fisher=fisher,
                             qfi_bound=bound, tstar=t)


def snr(slope: float, p0: float, n: int = 1) -> float:
    """Signal-to-noise ratio of the binary measurement after n repetitions."""
    if n < 1:
        raise ConfigError("n must be at least 1")
    if not 0.0 < p0 < 1.0:
        raise ConfigError("p0 must lie in (0, 1)")
    return abs(slope) / math.sqrt(p0 * (1.0 - p0) / n)


def fisher_binary(p: float, slope: float) -> float:
    """Fisher information of a two-outcome measurement with success
    probability p and parameter slope dp/dtheta."""
    if slope == 0.0:
        return 0.0
    var = p * (1.0 - p)
    if var <= 0.0:
        raise ConfigError("fisher_binary undefined at p in {0, 1}")
    return slope**2 / var


def qfi_sensitivity_bound(fq: float, tstar: float,
                          dalpha_ddelta: float = 1.0) -> float:
    """Upper bound on |S| implied by the quantum Cramer-Rao inequality."""
    if tstar <= 0.0:
        raise ConfigError("tstar must be positive")
    return math.sqrt(fq) / (2.0 * tstar * abs(dalpha_ddelta))


def fisher_imperfect(p: float, slope: float, eta: float) -> float:
    """Fisher information with success/dark-count imbalance eta.

    The detector reports 1 with probability (1 - 2 eta) p + eta; the
    information follows from that measured probability.
    """
    if not 0.0 <= eta < 0.5:
        raise ConfigError("eta must lie in [0, 1/2)")
    p_meas = (1.0 - 2.0 * eta) * p + eta
    var = p_meas * (1.0 - p_meas)
    if var <= 0.0:
        raise ConfigError("degenerate measured probability")
    return (1.0 - 2.0 * eta) ** 2 * slope**2 / var


def phase_mismatch_sensitivity(r: float, dphi: float, epsilon: float,
                               p0: float = 0.5, alpha: float = 1.0,
                               allow_large_epsilon: bool = False) -> float:
    """|S| when the projector's squeezing axis is rotated by dphi from the
    probe's (both squeezed by r, drift-only definition)."""
    if r < 0.0:
        raise ConfigError("r must be non-negative")
    _check_epsilon(epsilon, allow_large_epsilon)
    probe = GaussianState.squeezed(r, math.pi / 2)
    proj = GaussianState.squeezed(r, math.pi / 2 - dphi)
    sigma = probe.cov + proj.cov
    d = epsilon * alpha

    def slopes(t):
        return _gaussian_slopes(sigma, alpha * t, d * t)

    t_max = _MARCH_SPAN * math.exp(r) * math.sqrt(2.0 * _LN2) / alpha
    tstar = find_root_tbar(lambda t: slopes(t)[0], p0,
                           _march_step(probe, alpha), t_max)
    # |S| = |dP/dalpha| / tstar = |dP/du|
    return abs(slopes(tstar)[1])
