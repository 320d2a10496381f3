"""Probe-state optimization and the single-photon squeezing budget.

Two separate questions share the machinery here: which finite Fock
superposition maximizes the recoil sensitivity under an energy bound, and
how much squeezing a dipole-transition measurement needs so that a single
scattered photon on average moves the overlap to the working point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bloch import PulseParams
from .errors import (ConfigError, ConvergenceError, NoCrossingError,
                     OptimizerError)
from .metrology import _hermite_newton, find_working_point
from .phasespace import (FockSuperposition, GaussianState, check_fock_levels,
                         real_fock_derivatives)
from .recoil import DriftDiffusion, compute_coefficients


# Gradient tolerance of the optimizer on -|S|.  Where |S| itself is smaller,
# every start meets it at once, so the optimizer cannot locate an optimum.
_GTOL = 1e-9
# Relative decrease of the objective over one step that ends a restart as
# converged: (f_k - f_k+1) <= _FTOL max(|f_k|, |f_k+1|, 1).
_FTOL = 1e-12
_MAX_ITER = 200       # iterations before a restart ends as not converged
_ARMIJO = 1e-4        # sufficient-decrease constant of the line search
_MAX_HALVINGS = 30    # backtracking halvings before the line search fails
_PLATEAU = 1e3        # objective of a point without a working point
_R_MAX = 20.0         # squeezing searched by the single-photon budget

# NumPy's SeedSequence hash constants, and the PCG64 multiplier
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = (0x43B0D7E5, 0x931E8875, 0x8B51F9DD,
                                      0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


@dataclass(frozen=True)
class OptimizationProblem:
    basis: tuple[int, ...] = (2, 4)
    nbar_max: float = 4.0
    epsilon: float = 0.1
    p0: float = 0.5
    mode: str = "drift-only"

    def __post_init__(self):
        if not self.basis:
            raise ConfigError("basis must name at least one Fock level")
        check_fock_levels(self.basis, "basis")
        if len(set(self.basis)) != len(self.basis):
            raise ConfigError("basis indices must be distinct")
        if any(n < 0 for n in self.basis):
            raise ConfigError("basis indices must be non-negative")
        if not self.nbar_max > 0.0:
            raise ConfigError("nbar_max must be positive")
        if min(self.basis) > self.nbar_max:
            raise ConfigError(f"nbar_max={self.nbar_max} is below "
                              f"min(basis)={min(self.basis)}: no state of "
                              f"the basis meets the bound")
        if self.mode not in ("drift-only", "extended"):
            raise ConfigError(f"unknown sensitivity mode {self.mode!r}")


@dataclass(frozen=True)
class OptimizationResult:
    coeffs: np.ndarray
    s_abs: float
    nbar_used: float
    constraint_slack: float
    n_converged: int


@dataclass(frozen=True)
class SinglePhotonBudget:
    pulse: PulseParams
    coeffs: DriftDiffusion
    tstar: float
    r_required: float
    nbar: float
    enhancement: float

    @property
    def squeezing_db(self) -> float:
        return squeezing_db(self.r_required)


def squeezing_db(r: float) -> float:
    """Squeezing strength in dB, 10 log10 of the variance ratio e^{2r}."""
    return 10.0 * math.log10(math.exp(2.0 * r))


def _seed_state(seed: int) -> list[int]:
    """numpy.random.SeedSequence(seed).generate_state(4, np.uint64) for a
    non-negative integer seed: its 32-bit words hashed into a pool of four,
    then eight words hashed out of the pool, paired low word first."""
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, out = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _uniform_angles(seed, count: int) -> np.ndarray:
    """The first `count` draws of numpy.random.default_rng(seed).uniform(
    0, pi), bit for bit: PCG64 (XSL-RR 128/64) seeded through NumPy's
    SeedSequence, each double (next64 >> 11) 2^-53 times pi."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ConfigError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    s = _seed_state(seed)
    initstate, initseq = s[0] << 64 | s[1], s[2] << 64 | s[3]
    inc = (initseq << 1 | 1) & _MASK128
    state = (inc + initstate) * _PCG_MULT + inc & _MASK128
    out = []
    for _ in range(count):
        state = state * _PCG_MULT + inc & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        word = (word >> rot | word << (64 - rot)) & _MASK64
        out.append((word >> 11) * 2.0 ** -53 * math.pi)
    return np.array(out, dtype=float)


def _hypersphere(angles: np.ndarray):
    """Unit vector of hypersphere angles, exactly normalized for any
    angles, and its Jacobian in them."""
    dim = len(angles) + 1
    c = np.ones(dim)
    jac = np.zeros((dim, dim - 1))
    for i, a in enumerate(angles):
        cos, sin = math.cos(a), math.sin(a)
        jac[i, i] = -sin * c[i]
        jac[i + 1:, i] = cos * c[i + 1:]
        jac[i, :i] *= cos
        jac[i + 1:, :i] *= sin
        c[i] *= cos
        c[i + 1:] *= sin
    return c, jac


def _feasible_coeffs(prob: OptimizationProblem):
    """angles -> (c, dc/dangles): len(basis) - 1 angles onto the
    normalized real coefficients with nbar <= nbar_max, every such state
    reached, the bound held exactly by construction.

    Without a level above nbar_max every state qualifies: hypersphere
    angles.  Otherwise, with a_i = sqrt(nbar_max - n_i) c_i on the levels
    below the bound and b_i = sqrt(n_i - nbar_max) c_i on those above,
    nbar <= nbar_max is |b| <= |a|.  So a = a_hat and b = sin(chi) b_hat,
    each unit vector from its own hypersphere angles, are normalized
    together, and a level at nbar_max enters by one more angle psi.  The
    bound is active at sin(chi) = +-1, inside the angle space, where an
    optimum is a smooth stationary point like any other.
    """
    gap = np.asarray(prob.basis, dtype=float) - prob.nbar_max
    hi = np.flatnonzero(gap > 0.0)
    if not len(hi):
        return _hypersphere
    lo, on = np.flatnonzero(gap < 0.0), np.flatnonzero(gap == 0.0)
    w_lo, w_hi = (-gap[lo]) ** -0.5, gap[hi] ** -0.5
    # c does not depend on a common factor; at most 1, |w|^2 cannot
    # overflow where the bound lies within rounding above a level
    top = max(w_lo.max(), w_hi.max())
    w_lo, w_hi, na = w_lo / top, w_hi / top, len(lo)

    def coeffs(angles):
        a, ja = _hypersphere(angles[:na - 1])
        b, jb = _hypersphere(angles[na:na + len(hi) - 1])
        sin, cos = math.sin(angles[na - 1]), math.cos(angles[na - 1])
        w = np.zeros(len(gap))
        jw = np.zeros((len(gap), na + len(hi) - 1))
        w[lo], jw[lo, :na - 1] = w_lo * a, w_lo[:, None] * ja
        w[hi], jw[hi, na - 1] = sin * w_hi * b, cos * w_hi * b
        jw[hi, na:] = sin * w_hi[:, None] * jb
        norm = math.sqrt(w @ w)
        c = w / norm
        jac = (jw - np.outer(c, c @ jw)) / norm
        if len(on):
            psi = angles[-1]
            jac = np.column_stack([math.cos(psi) * jac, -math.sin(psi) * c])
            c = math.cos(psi) * c
            c[on], jac[on, -1] = math.sin(psi), math.cos(psi)
        return c, jac
    return coeffs


def _state_from_coeffs(basis, c) -> FockSuperposition:
    return FockSuperposition.from_dict(
        {n: float(ci) for n, ci in zip(basis, c)})


def _minimize(fun, x0):
    """Dense BFGS on a smooth unconstrained objective: (x, f, converged).

    fun(x) returns f and its gradient, and each step backtracks until the
    Armijo condition holds.  It stays put if no such step is found, or once
    a trial changes f by at most _FTOL relative, below what the stop rule
    resolves.  A restart converges when max|grad| <= _GTOL or a step lowers
    f by at most _FTOL relative; a quasi-Newton step that does so without
    lowering f is first retried along -grad with the inverse Hessian
    discarded.  It fails when _MAX_ITER iterations run out.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    h = None                      # inverse Hessian; None steps along -grad
    for _ in range(_MAX_ITER):
        if np.max(np.abs(g)) <= _GTOL:
            return x, f, True
        step = -g if h is None else -(h @ g)
        slope = float(g @ step)
        t = 1.0
        x_new, f_new, g_new = x, f, g
        for _ in range(_MAX_HALVINGS):
            x_t = x + t * step
            f_t, g_t = fun(x_t)
            if f_t <= f + _ARMIJO * t * slope:
                x_new, f_new, g_new = x_t, f_t, g_t
                break
            if abs(f_t - f) <= _FTOL * max(abs(f), abs(f_t), 1.0):
                break
            t *= 0.5
        if f - f_new <= _FTOL * max(abs(f), abs(f_new), 1.0):
            if h is None or f_new < f:
                return x_new, f_new, True
            h = None
            continue
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            if h is None:
                h = np.eye(len(x)) * (sy / float(y @ y))
            hy = h @ y
            h += ((sy + y @ hy) * np.outer(s, s) / sy
                  - np.outer(hy, s) - np.outer(s, hy)) / sy
        x, f, g = x_new, f_new, g_new
    return x, f, False


def _signed_sensitivity(prob: OptimizationProblem, c: np.ndarray):
    """S of the basis superposition with normalized real coefficients c,
    and its gradient in c through the working point t*(c).

    P(t*, eps t*) = p0 gives dt*/dc = -(dP/dc) / (dP/dt), so
    dS/dc = dS/dc|_t + dS/dt dt*/dc, with every derivative from one
    `real_fock_derivatives` call at t*.
    """
    eps = prob.epsilon
    state = _state_from_coeffs(prob.basis, c)
    t = find_working_point(state, eps, p0=prob.p0,
                           allow_large_epsilon=True).tstar
    m, dm = real_fock_derivatives(prob.basis, c, t, eps * t)
    p_t = m[1] + 0.5 * eps * m[2]           # dP/dt along (u, v) = (t, eps t)
    if prob.mode == "extended":             # S = P_u + eps P_v = dP/dt
        s, ds = p_t, dm[1] + 0.5 * eps * dm[2]
        s_t = m[2] + eps * m[3] + 0.25 * eps * eps * m[4]
    else:                                   # S = P_u
        s, ds = m[1], dm[1]
        s_t = m[2] + 0.5 * eps * m[3]
    return float(s), ds - (s_t / p_t) * dm[0]


def optimize_fock_superposition(prob: OptimizationProblem,
                                n_restarts: int = 8,
                                seed: int = 0) -> OptimizationResult:
    """Best-found coefficients maximizing |S| subject to nbar <= nbar_max.

    The restarts start from the angles numpy.random.default_rng(seed)
    would draw; seed must be a non-negative integer, and n_restarts at
    least 1."""
    if not n_restarts >= 1:
        raise ConfigError(f"n_restarts must be at least 1, got {n_restarts}")
    dim = len(prob.basis) - 1
    starts = _uniform_angles(seed, n_restarts * dim)   # checks the seed
    ns = np.asarray(prob.basis, dtype=float)
    low = min(prob.basis)
    if len(prob.basis) == 1 or low == prob.nbar_max:
        # the lowest level is the only state within the bound
        c = (ns == low).astype(float)
        s = abs(_signed_sensitivity(prob, c)[0])
        return OptimizationResult(coeffs=c, s_abs=s, nbar_used=float(low),
                                  constraint_slack=prob.nbar_max - low,
                                  n_converged=1)
    coeffs_of = _feasible_coeffs(prob)

    def objective(angles):
        c, jac = coeffs_of(angles)
        try:
            s, ds = _signed_sensitivity(prob, c)
        except NoCrossingError:
            return _PLATEAU, np.zeros(len(angles))
        return -abs(s), -math.copysign(1.0, s) * (ds @ jac)

    best = None
    n_converged = 0
    for x0 in starts.reshape(-1, dim):
        x, f, converged = _minimize(objective, x0)
        n_converged += converged
        if best is None or f < best[1]:
            best = (x, f)
    if n_converged == 0:
        raise OptimizerError("no restart reached the gradient tolerance")
    if best[1] == _PLATEAU:
        raise NoCrossingError(f"no restart reached the working point "
                              f"P = {prob.p0} at epsilon = {prob.epsilon}")
    c = coeffs_of(best[0])[0]
    # canonical sign: first nonzero coefficient positive
    nz = np.flatnonzero(np.abs(c) > 1e-12)
    if len(nz) and c[nz[0]] < 0:
        c = -c
    nbar = float(ns @ c**2)
    # |S| of the best restart's c, which the sign flip leaves unchanged
    s_abs = -best[1]
    if s_abs < _GTOL:
        raise OptimizerError(f"best |S| = {s_abs:.3g} is below the gradient "
                             f"tolerance {_GTOL:g}: the objective is flat")
    return OptimizationResult(coeffs=c, s_abs=s_abs, nbar_used=nbar,
                              constraint_slack=prob.nbar_max - nbar,
                              n_converged=n_converged)


def single_photon_budget(pulse: PulseParams,
                         p0: float = 0.5) -> SinglePhotonBudget:
    """Squeezing needed so one scattered photon on average reaches P = p0."""
    if not 0.0 < p0 < 1.0:
        raise ConfigError("p0 must lie in (0, 1)")
    coeffs = compute_coefficients(pulse)
    if coeffs.n1 <= 0.0:
        raise ConfigError("mean photon number per pulse must be positive")
    tstar = 1.0 / coeffs.n1
    u, v = coeffs.alpha_p * tstar, coeffs.d_pp * tstar
    origin = np.zeros(2)

    def gap(r):   # momentum-squeezed vacuum, r in [0, _R_MAX]: valid
        cov = 0.5 * np.diag([math.exp(2 * r), math.exp(-2 * r)])
        p, p_u, p_v = GaussianState._unchecked(origin, cov).slopes(u, v)
        # P depends on r only through u e^r and v e^{2r}
        return float(p) - p0, float(u * p_u + 2.0 * v * p_v)

    (gap_lo, slope_lo), (gap_hi, slope_hi) = gap(0.0), gap(_R_MAX)
    if not (math.isfinite(gap_lo) and math.isfinite(gap_hi)):
        raise ConvergenceError(f"single-photon budget overlap is not finite "
                               f"for {pulse}")
    if gap_lo <= 0.0:
        r_req = 0.0
    else:
        if gap_hi > 0.0:
            raise NoCrossingError(
                "overlap cannot be brought to p0 by squeezing alone")
        r_req = _hermite_newton(gap, 0.0, _R_MAX, gap_lo, gap_hi,
                                slope_lo, slope_hi)
    return SinglePhotonBudget(pulse=pulse, coeffs=coeffs, tstar=tstar,
                              r_required=r_req, nbar=math.sinh(r_req) ** 2,
                              enhancement=math.exp(r_req))
