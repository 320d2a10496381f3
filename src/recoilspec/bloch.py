"""Driven-damped two-level dynamics during one rectangular laser pulse.

The internal state of the probed ion follows d<s>/dt = M <s> + Gamma*m with a
3x3 real matrix M that depends on the Doppler-shifted detuning, that is
d/dt (s, 1) = A (s, 1) with the affine generator A = [[M, Gamma m], [0, 0]].
Everything downstream (drift/diffusion coefficients, photon numbers) is built
from e^{tA} and from two-time correlators of sigma_y obtained through the
quantum regression theorem, so no time-stepping error enters the pipeline:
`recoil` integrates e^{tA} over a pulse in closed form from
`affine_generator`, the one production route.  `_cached_propagator`
evaluates e^{tA} pointwise; only the tests' oracles use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from ._expm import expm
from .errors import ConfigError

_SQRT2 = math.sqrt(2.0)


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


# Ground state in (s, 1) form, and the regression map (s, 1) -> (e_y, s_y)
# that starts Re<sy(t) sy(t')> from the state at t': the regression start
# (i<sz>, 1, -i<sx>) has real part (0, 1, 0), and M is real.
_Z0 = np.array([0.0, 0.0, -1.0, 1.0])
_REGRESS = np.zeros((4, 4))
_REGRESS[1, 3] = _REGRESS[3, 1] = 1.0


def affine_generator(p: PulseParams):
    """A = [[M, Gamma m], [0, 0]], so that d/dt (s, 1) = A (s, 1), with the
    drive m = (0, 0, -1) of spontaneous decay toward the ground state.

    Motion enters through the detuning alone: at dimensionless momentum p'
    the ion sees `p.with_detuning(p.detuning - p.eta_bar * p.mode_freq * p')`.
    """
    half = 0.5 * p.linewidth
    return np.array([
        [-half, -p.detuning, 0.0, 0.0],
        [p.detuning, -half, -p.rabi, 0.0],
        [0.0, p.rabi, -p.linewidth, -p.linewidth],
        [0.0, 0.0, 0.0, 0.0],
    ])


@lru_cache(maxsize=256)
def _cached_propagator(p: PulseParams):
    """(taus, vecs) -> e^{tau A} v row by row, vecs shaped taus + (4,): a
    stack of 4x4 products, so a batch equals single calls bit for bit."""
    a = affine_generator(p)
    return lambda taus, v: (expm(taus[..., None, None] * a)
                            @ v[..., None])[..., 0]
