"""Driven-damped two-level dynamics during one rectangular laser pulse.

The internal state of the probed ion follows d<s>/dt = M <s> + Gamma*m with a
3x3 real matrix M that depends on the Doppler-shifted detuning.  Everything
downstream (drift/diffusion coefficients, photon numbers) is built from the
closed-form solution of this linear system and from two-time correlators of
sigma_y obtained through the quantum regression theorem, so no time-stepping
error enters the pipeline.  `recoil` integrates the same system over a pulse
with block matrix exponentials; the propagator here serves pointwise
evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .errors import ConfigError

_SQRT2 = math.sqrt(2.0)

# Drive vector: spontaneous decay pushes the Bloch vector toward (0, 0, -1).
_M_VEC = np.array([0.0, 0.0, -1.0])


@dataclass(frozen=True)
class PulseParams:
    """Laser/ion parameters of one rectangular spectroscopy pulse.

    All frequencies are angular (rad/s).
    """

    rabi: float
    linewidth: float
    detuning: float
    lamb_dicke: float
    mode_freq: float
    pulse_duration: float

    def __post_init__(self):
        bad = [f.name for f in fields(self)
               if not math.isfinite(getattr(self, f.name))]
        if bad:
            raise ConfigError(f"pulse parameters must be finite: {bad}")
        if not self.linewidth > 0.0:
            raise ConfigError("linewidth must be positive (decay is required)")
        if not self.pulse_duration > 0.0:
            raise ConfigError("pulse_duration must be positive")
        if not self.mode_freq > 0.0:
            raise ConfigError("mode_freq must be positive")
        if self.lamb_dicke < 0.0:
            raise ConfigError("lamb_dicke must be non-negative")

    @property
    def eta_bar(self) -> float:
        """Re-scaled Lamb-Dicke parameter sqrt(2)*eta."""
        return _SQRT2 * self.lamb_dicke

    def with_detuning(self, detuning: float) -> "PulseParams":
        return replace(self, detuning=detuning)


@dataclass(frozen=True)
class BlochVector:
    sx: float
    sy: float
    sz: float

    def as_array(self) -> np.ndarray:
        return np.array([self.sx, self.sy, self.sz])

    @property
    def norm(self) -> float:
        return math.sqrt(self.sx**2 + self.sy**2 + self.sz**2)


def bloch_matrix(p: PulseParams, doppler_momentum: float = 0.0):
    """Coefficient matrix M and drive vector m of the Bloch equations.

    `doppler_momentum` is the dimensionless momentum coordinate; the ion sees
    the Doppler-shifted detuning Delta - eta_bar*nu*p.
    """
    delta_p = p.detuning - p.eta_bar * p.mode_freq * doppler_momentum
    half = 0.5 * p.linewidth
    m = np.array([
        [-half, -delta_p, 0.0],
        [delta_p, -half, -p.rabi],
        [0.0, p.rabi, -p.linewidth],
    ])
    return m, _M_VEC.copy()


class _Propagator:
    """Closed-form e^{Mt} evaluator for a fixed pulse configuration.

    Uses the eigendecomposition of the 3x3 matrix; falls back to
    scaling-and-squaring when the eigenvalues are nearly degenerate.
    """

    def __init__(self, p: PulseParams, doppler_momentum: float = 0.0):
        self.params = p
        self.matrix, self.drive = bloch_matrix(p, doppler_momentum)
        # Gamma * M^{-1} m appears in both the one-time and two-time solutions.
        self.q = p.linewidth * np.linalg.solve(self.matrix, self.drive)
        eigvals, eigvecs = np.linalg.eig(self.matrix)
        gaps = np.abs(eigvals[:, None] - eigvals[None, :])
        np.fill_diagonal(gaps, np.inf)
        scale = np.max(np.abs(eigvals))
        self._use_eig = scale == 0.0 or gaps.min() / scale > 1e-8
        if self._use_eig:
            self._lam = eigvals
            self._v = eigvecs
            self._vinv = np.linalg.inv(eigvecs)

    def expm_apply(self, taus: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """Real part of e^{M tau_k} v_k for matching arrays of lags/vectors.

        `taus` has shape (k,), `vecs` shape (k, 3); returns shape (k, 3).
        """
        taus = np.asarray(taus, dtype=float)
        vecs = np.asarray(vecs)
        if self._use_eig:
            w = vecs @ self._vinv.T
            w = w * np.exp(np.outer(taus, self._lam))
            return (w @ self._v.T).real
        out = np.empty((len(taus), 3))
        for k, tau in enumerate(taus):
            out[k] = expm(self.matrix * tau) @ vecs[k]
        return out

    def sigma(self, times: np.ndarray) -> np.ndarray:
        """<s(t)> for ground-state start, shape (n, 3)."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        v0 = np.broadcast_to(self.drive + self.q, (len(times), 3))
        return self.expm_apply(times, v0) - self.q

    def steady_state(self) -> np.ndarray:
        return -self.q

    def corr_yy(self, t: np.ndarray, t_prime: np.ndarray) -> np.ndarray:
        """Re<sy(t) sy(t')> for arrays of times with t >= t' elementwise.

        The regression initial condition (i<sz>, 1, -i<sx>) has a real part
        (0, 1, 0); M is real, so the real part of the correlator closes on
        real vectors only.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        t_prime = np.atleast_1d(np.asarray(t_prime, dtype=float))
        sy = self.sigma(t_prime)[:, 1]
        v0 = np.zeros((len(t_prime), 3))
        v0[:, 1] = 1.0
        v0 += sy[:, None] * self.q[None, :]
        out = self.expm_apply(t - t_prime, v0) - sy[:, None] * self.q[None, :]
        return out[:, 1]


@lru_cache(maxsize=256)
def _cached_propagator(p: PulseParams, doppler_momentum: float) -> _Propagator:
    return _Propagator(p, doppler_momentum)


def solve_bloch(p: PulseParams, t, doppler_momentum: float = 0.0):
    """Bloch vector at time t (scalar -> BlochVector, array -> (n, 3))."""
    prop = _cached_propagator(p, doppler_momentum)
    if np.ndim(t) == 0:
        if t < 0.0 or t > p.pulse_duration * (1.0 + 1e-12):
            raise ConfigError("time outside [0, pulse_duration]")
        return BlochVector(*prop.sigma(np.array([float(t)]))[0])
    return prop.sigma(np.asarray(t, dtype=float))


def steady_state(p: PulseParams, doppler_momentum: float = 0.0) -> np.ndarray:
    return _cached_propagator(p, doppler_momentum).steady_state()


def correlation_yy(p: PulseParams, t: float, t_prime: float,
                   doppler_momentum: float = 0.0) -> float:
    """Re<sigma_y(t) sigma_y(t')> for 0 <= t' <= t <= tau_p."""
    if t_prime > t:
        raise ConfigError("correlation_yy requires t_prime <= t")
    if t_prime < 0.0 or t > p.pulse_duration * (1.0 + 1e-12):
        raise ConfigError("times outside [0, pulse_duration]")
    prop = _cached_propagator(p, doppler_momentum)
    return float(prop.corr_yy(np.array([t]), np.array([t_prime]))[0])
