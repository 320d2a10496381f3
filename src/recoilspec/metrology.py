"""Working points, recoil sensitivity, Fisher information and bounds.

All quantities here live in the normalized per-pulse units of the
drift/diffusion model: the drift slope with respect to detuning is divided
out, so sensitivities depend only on the probe state, the diffusion ratio
epsilon = d/alpha, and the target probability p0.  Physical-unit numbers
are recovered by the callers that hold a pulse configuration.  The slopes
of the overlap are exact (each probe state's `slopes`, the route behind
`phasespace.overlap_slopes`, evaluated on arrays); nothing here takes a
finite difference, and the working point is found by Newton on them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ConvergenceError, NoCrossingError
from .phasespace import FPParams, GaussianState, MotionalState

_LN2 = math.log(2.0)
DEFAULT_EPS_MAX = 0.3
# The working-point march gives up after 640 half-widths sqrt(2 ln 2)/alpha
# of the vacuum overlap (scaled by the state's `march_scale`, e^r for
# squeezed probes).
_MARCH_SPAN = 640.0
# Factor by which a crossing inside the first march step is bracketed
# away from 0.
_SHRINK = 2.0**-8
# Nodes per march block, evaluated as one array.
_BLOCK = 12
# Newton stops once a step moves the root by less than this, relative.
_RTOL = 4.0 * sys.float_info.epsilon
_MAX_NEWTON = 100


@dataclass(frozen=True)
class WorkingPoint:
    """Dimensionless interrogation time where the overlap hits p0."""

    tstar: float
    p0: float = 0.5


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
    """March step small enough to resolve the fastest overlap oscillation:
    1/20 of the vacuum half-width, or the state's own step if shorter."""
    return min(0.05 * math.sqrt(2.0 * _LN2) / alpha, state.march_step(alpha))


def _bracketed_newton(f: Callable[[float], tuple[float, float]],
                      a: float, b: float, fa: float, x: float) -> float:
    """Root of f in the bracket a < b, from the start x; f(a) = fa != 0
    and f(b) differ in sign, and f(x) returns (f, df/dx).

    Newton stops at the first iterate whose step is below _RTOL relative
    to it, or takes its last step unevaluated once two Newton steps in a
    row show the next one will be: Newton's error squares, so a step d
    after a longer step d_prev predicts a next step of d (d / d_prev)^2.  It
    keeps the bracket and bisects whenever a step would leave it; the
    bracket ends at neighbouring floats at the latest.
    """
    d_prev = 0.0   # the last Newton step; 0 after a bisection
    for _ in range(_MAX_NEWTON):
        fx, dfx = f(x)
        step = fx / dfx if dfx != 0.0 else math.nan
        d, new = abs(step), x - step
        if d <= _RTOL * abs(x):
            return x
        if (fx > 0.0) == (fa > 0.0):
            a = x
        else:
            b = x
        if not a < new < b:
            new, d = 0.5 * (a + b), 0.0
            if not a < new < b:
                return x
        elif d < d_prev and d * (d / d_prev) ** 2 <= _RTOL * abs(new):
            return new
        x, d_prev = new, d
    raise ConvergenceError(f"Newton refinement did not settle in "
                           f"[{a!r}, {b!r}] after {_MAX_NEWTON} steps")


def _hermite_newton(f: Callable[[float], tuple[float, float]],
                    a: float, b: float, fa: float, fb: float,
                    da: float, db: float) -> float:
    """Root of f in the bracket a < b, where f(a) = fa >= 0 > f(b) = fb
    or the reverse, and da, db are the slopes there.  Newton on f starts
    from the root of the cubic Hermite interpolant of the two ends, itself
    found by Newton from the secant point."""
    a, b = float(a), float(b)
    if fa == 0.0:
        return a
    h = b - a
    c1 = h * da
    c2 = 3.0 * (fb - fa) - h * (2.0 * da + db)
    c3 = 2.0 * (fa - fb) + h * (da + db)

    def cubic(s):
        return (fa + s * (c1 + s * (c2 + s * c3)),
                c1 + s * (2.0 * c2 + 3.0 * s * c3))

    s = _bracketed_newton(cubic, 0.0, 1.0, fa, float(fa / (fa - fb)))
    return _bracketed_newton(f, a, b, fa, a + s * h)


def _along_tbar(uv_slopes: Callable, alpha: float, d: float) -> Callable:
    """slopes(t) = (P, dP/dtbar) at drift u = alpha t and diffusion
    v = d t, from uv_slopes(u, v) = (P, dP/du, dP/dv); t may be an array."""
    def slopes(t):
        p, p_u, p_v = uv_slopes(alpha * t, d * t)
        return p, alpha * p_u + d * p_v
    return slopes


def find_root_tbar(slopes: Callable, p0: float, step: float,
                   t_max: float) -> float:
    """First downward crossing of P(t) = p0.

    slopes(t) returns (P, dP/dt) at an array of t, or at one float.  The march
    evaluates blocks of _BLOCK nodes t_k = k step up to t_max, one array
    each; the first node below p0 and the node before it bracket the
    crossing, which a safeguarded Newton on the exact slope refines.  A
    crossing in the first step has no lower bound but 0: that step is
    shrunk geometrically to [q t, t], a block of rungs at a time, and
    refined in s = t' / t, so the tolerance is relative to the root, also
    where the root is subnormal.
    """
    if not 0.0 < p0 < 1.0:
        raise ConfigError("p0 must lie in (0, 1)")

    def gap(t):
        p, dp = slopes(t)
        return float(p) - p0, float(dp)

    # t_max overflows where alpha is tiny; the nodes stay finite
    k0, t_end = 0, min(t_max, sys.float_info.max)
    while k0 * step <= t_end:
        with np.errstate(over="ignore"):
            t = np.arange(k0, k0 + _BLOCK) * step
        t = t[t <= t_end]
        p, dp = slopes(t)
        below = np.flatnonzero(p < p0)
        if len(below):
            k = below[0]
            if k0 + k == 0:
                raise NoCrossingError("overlap already below p0 at tbar = 0")
            if k0 + k == 1:
                return _first_step_root(slopes, p0, step, p[1], dp[1])
            return _hermite_newton(gap, t[k - 1], t[k], p[k - 1] - p0,
                                   p[k] - p0, dp[k - 1], dp[k])
        # consecutive blocks share a node, so a bracket never spans two
        k0 += _BLOCK - 1
    raise NoCrossingError(
        f"overlap stays above p0={p0} for tbar up to {t_max:.3g}")


def _first_step_root(slopes: Callable, p0: float, t: float, p_t: float,
                     dp_t: float) -> float:
    """Crossing in (0, t], where P(t) < p0 <= P(0): rungs t q^j bracket it
    in [q t_hi, t_hi], refined in s = t' / t_hi."""
    while True:   # ends: the rungs reach t = 0, where P >= p0
        rungs = t * _SHRINK ** np.arange(1, _BLOCK + 1)
        p, dp = slopes(rungs)
        above = np.flatnonzero(p >= p0)
        if len(above):
            break
        t, p_t, dp_t = rungs[-1], p[-1], dp[-1]
    j = above[0]
    if j > 0:
        t, p_t, dp_t = rungs[j - 1], p[j - 1], dp[j - 1]

    def gap(s):
        p_s, dp_s = slopes(s * t)
        return float(p_s) - p0, t * float(dp_s)

    s = _hermite_newton(gap, _SHRINK, 1.0, p[j] - p0, p_t - p0,
                        t * dp[j], t * dp_t)
    if s * t == 0.0:   # below the tbar resolution: nothing to use
        raise ConvergenceError(
            f"overlap falls to p0={p0} below the tbar resolution")
    return float(s * t)


def find_working_point(state: MotionalState, epsilon: float,
                       p0: float = 0.5, alpha: float = 1.0,
                       allow_large_epsilon: bool = False) -> WorkingPoint:
    """Smallest tbar with overlap p0 under drift alpha and diffusion
    d = epsilon * alpha."""
    if not isinstance(state, MotionalState):
        raise ConfigError(f"unsupported state type {type(state).__name__}")
    _check_epsilon(epsilon, allow_large_epsilon)
    if alpha <= 0.0:
        raise ConfigError(f"alpha must be positive, got {alpha!r}")
    fp = FPParams(alpha=alpha, d=epsilon * alpha, tbar=0.0)   # validates
    t_max = _MARCH_SPAN * state.march_scale() * math.sqrt(2.0 * _LN2) / alpha
    slopes = _along_tbar(state.slopes, fp.alpha, fp.d)
    root = find_root_tbar(slopes, p0, _march_step(state, alpha), t_max)
    return WorkingPoint(tstar=root, p0=p0)


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
    # S = (1/t) dP/dalpha = dP/du, read directly: t dP/du underflows
    # where t* is tiny
    _, p_u, p_v = state.slopes(alpha * t, epsilon * alpha * t)
    s_drift = float(p_u)
    s_diff = epsilon * float(p_v) if mode == "extended" else 0.0
    s_abs = abs(s_drift + s_diff)
    slope = t * (s_drift + s_diff) * dalpha_ddelta
    fisher = fisher_binary(p0, slope)
    bound = qfi_sensitivity_bound(state.qfi_displacement(), t,
                                  dalpha_ddelta)
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


def phase_mismatch_sensitivity(r: float, dphi: float, epsilon: float) -> float:
    """|S| when the projector's squeezing axis is rotated by dphi from the
    probe's (both squeezed by r, drift-only definition)."""
    if r < 0.0:
        raise ConfigError("r must be non-negative")
    probe = GaussianState.squeezed(r, math.pi / 2)
    proj = GaussianState.squeezed(r, math.pi / 2 - dphi)
    # the overlap sees only probe.cov + proj.cov
    pair = GaussianState(np.zeros(2), 0.5 * (probe.cov + proj.cov))
    return recoil_sensitivity(pair, epsilon).s_abs
