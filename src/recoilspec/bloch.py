"""Driven-damped two-level dynamics during one rectangular laser pulse.

The internal state of the probed ion follows d<s>/dt = M <s> + Gamma*m with a
3x3 real matrix M that depends on the Doppler-shifted detuning, that is
d/dt (s, 1) = A (s, 1) with the affine generator A = [[M, Gamma m], [0, 0]].
Everything downstream (drift/diffusion coefficients, photon numbers) is built
from e^{tA} and from two-time correlators of sigma_y obtained through the
quantum regression theorem, so no time-stepping error enters the pipeline:
`recoil` integrates e^{tA} over a pulse, the functions here evaluate it
pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from ._expm import expm
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


def bloch_matrix(p: PulseParams):
    """Coefficient matrix M and drive vector m of the Bloch equations.

    Motion enters through the detuning alone: at dimensionless momentum p'
    the ion sees `p.with_detuning(p.detuning - p.eta_bar * p.mode_freq * p')`.
    """
    half = 0.5 * p.linewidth
    m = np.array([
        [-half, -p.detuning, 0.0],
        [p.detuning, -half, -p.rabi],
        [0.0, p.rabi, -p.linewidth],
    ])
    return m, _M_VEC.copy()


# Ground state in (s, 1) form, and the regression map (s, 1) -> (e_y, s_y)
# that starts Re<sy(t) sy(t')> from the state at t': the regression start
# (i<sz>, 1, -i<sx>) has real part (0, 1, 0), and M is real.
_Z0 = np.array([0.0, 0.0, -1.0, 1.0])
_REGRESS = np.zeros((4, 4))
_REGRESS[1, 3] = _REGRESS[3, 1] = 1.0


def affine_generator(p: PulseParams):
    """A = [[M, Gamma m], [0, 0]], so that d/dt (s, 1) = A (s, 1)."""
    m, drive = bloch_matrix(p)
    a = np.zeros((4, 4))
    a[:3, :3], a[:3, 3] = m, p.linewidth * drive
    return a


@lru_cache(maxsize=256)
def _cached_propagator(p: PulseParams):
    """(taus, vecs) -> e^{tau A} v row by row, vecs shaped taus + (4,): a
    stack of 4x4 products, so a batch equals single calls bit for bit."""
    a = affine_generator(p)
    return lambda taus, v: (expm(taus[..., None, None] * a)
                            @ v[..., None])[..., 0]


def _checked_inputs(p: PulseParams, *times):
    """The times, broadcast, once they lie in [0, pulse_duration]."""
    times = np.broadcast_arrays(*(np.asarray(t, dtype=float) for t in times))
    t_max = p.pulse_duration * (1.0 + 1e-12)       # NaN fails both tests
    if not all(np.all((t >= 0.0) & (t <= t_max)) for t in times):
        raise ConfigError("times must lie in [0, pulse_duration]")
    return times


def solve_bloch(p: PulseParams, t):
    """Bloch vector after a ground-state start, shape np.shape(t) + (3,)."""
    (t,) = _checked_inputs(p, t)
    return _cached_propagator(p)(t, _Z0)[..., :3]


def steady_state(p: PulseParams) -> np.ndarray:
    """Fixed point -Gamma M^{-1} m of the Bloch equations."""
    return -p.linewidth * np.linalg.solve(*bloch_matrix(p))


def correlation_yy(p: PulseParams, t, t_prime):
    """Re<sigma_y(t) sigma_y(t')> for 0 <= t' <= t <= tau_p, broadcast."""
    t, t_prime = _checked_inputs(p, t, t_prime)
    if np.any(t_prime > t):
        raise ConfigError("correlation_yy requires t_prime <= t")
    prop = _cached_propagator(p)
    start = prop(t_prime, _Z0) @ _REGRESS.T   # exact in any order: 0s and 1s
    return prop(t - t_prime, start)[..., 1][()]
