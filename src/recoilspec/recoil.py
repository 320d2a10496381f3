"""Fokker-Planck drift/diffusion coefficients from Bloch-equation solutions.

The five per-pulse coefficients are weighted integrals of <sigma_y(t)> and of
Re<sigma_y(t) sigma_y(t')> over one pulse, evaluated on tensor Gauss-Legendre
grids (inner integral mapped to [0, t] per outer node).  The Doppler damping
rate g is the detuning derivative of the momentum drift, obtained by adaptive
central differences with Richardson extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import (PulseParams, _cached_propagator, _leggauss,
                    gauss_legendre_grid)
from .errors import QuadratureConvergenceError, StepSizeError

_SQRT2 = math.sqrt(2.0)


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


def _raw_integrals(p: PulseParams, n: int):
    """Single and double pulse integrals on an n-node Gauss-Legendre grid.

    Returns (I_sin, I_cos, J_ss, J_cc, J_sc_asym) where
      I_f  = int_0^tau f(nu t) <sy(t)> dt
      J_fg = int_0^tau dt int_0^t dt' f(nu t) g(nu t') Re<sy(t) sy(t')>
    and J_sc_asym uses the antisymmetric kernel [sin cos' - cos sin']/2.
    Also returns int <sy> dt for the photon number.
    """
    prop = _cached_propagator(p, 0.0)
    nu = p.mode_freq
    t_out, w_out = gauss_legendre_grid(p, n)

    sy_out = prop.sigma(t_out)[:, 1]
    i_sin = float(np.sum(w_out * np.sin(nu * t_out) * sy_out))
    i_cos = float(np.sum(w_out * np.cos(nu * t_out) * sy_out))
    i_one = float(np.sum(w_out * sy_out))

    # Inner nodes: map the reference rule onto [0, t_i] for each outer node.
    x_ref, w_ref = _leggauss(n)
    t_in = 0.5 * t_out[:, None] * (x_ref[None, :] + 1.0)      # (n, n)
    w_in = 0.5 * t_out[:, None] * w_ref[None, :]

    tt = np.broadcast_to(t_out[:, None], t_in.shape)
    corr = prop.corr_yy(tt.ravel(), t_in.ravel()).reshape(t_in.shape)

    sin_o = np.sin(nu * t_out)[:, None]
    cos_o = np.cos(nu * t_out)[:, None]
    sin_i = np.sin(nu * t_in)
    cos_i = np.cos(nu * t_in)

    wgt = w_out[:, None] * w_in
    j_ss = float(np.sum(wgt * sin_o * sin_i * corr))
    j_cc = float(np.sum(wgt * cos_o * cos_i * corr))
    j_asym = float(np.sum(wgt * 0.5 * (sin_o * cos_i - cos_o * sin_i) * corr))
    return i_sin, i_cos, i_one, j_ss, j_cc, j_asym


def _coefficients_at(p: PulseParams, n: int):
    i_sin, i_cos, i_one, j_ss, j_cc, j_asym = _raw_integrals(p, n)
    pref = p.lamb_dicke * p.rabi / _SQRT2
    pref2 = (p.lamb_dicke * p.rabi) ** 2
    alpha_x = pref * i_sin
    alpha_p_signed = -pref * i_cos
    d_xx = pref2 * j_ss - alpha_x**2
    d_pp = pref2 * j_cc - alpha_p_signed**2
    d_xp = -pref2 * j_asym - alpha_x * alpha_p_signed
    n1 = 0.5 * p.rabi * i_one
    return alpha_x, abs(alpha_p_signed), d_xx, d_pp, d_xp, n1


def compute_coefficients(p: PulseParams, n_nodes: int = 64,
                         check_convergence: bool = True,
                         with_damping: bool = True) -> DriftDiffusion:
    """All per-pulse Fokker-Planck coefficients at the pulse detuning.

    Raises QuadratureConvergenceError when doubling the node count moves any
    coefficient by more than 1e-6 relative (scale set by the drift).
    """
    vals = _coefficients_at(p, n_nodes)
    if check_convergence:
        ref = _coefficients_at(p, 2 * n_nodes)
        scale = max(abs(ref[1]), abs(ref[3]), 1e-300)
        err = max(abs(a - b) for a, b in zip(vals, ref))
        if err > 1e-6 * scale:
            raise QuadratureConvergenceError(
                f"coefficient quadrature not converged at {n_nodes} nodes "
                f"(change {err:.3e} vs scale {scale:.3e})")
        vals = ref
    g = doppler_damping(p, n_nodes=n_nodes) if with_damping else 0.0
    ax, ap, dxx, dpp, dxp, n1 = vals
    return DriftDiffusion(alpha_x=ax, alpha_p=ap, d_xx=dxx, d_pp=dpp,
                          d_xp=dxp, g=g, n1=n1)


def drift_p(p: PulseParams, n_nodes: int = 64) -> float:
    """Magnitude of the momentum drift per pulse (cheap single integral)."""
    prop = _cached_propagator(p, 0.0)
    t, w = gauss_legendre_grid(p, n_nodes)
    sy = prop.sigma(t)[:, 1]
    pref = p.lamb_dicke * p.rabi / _SQRT2
    return abs(pref * float(np.sum(w * np.cos(p.mode_freq * t) * sy)))


def drift_slope(p: PulseParams, n_nodes: int = 64,
                rel_tol: float = 1e-5, init_step: float | None = None) -> float:
    """d alpha_p / d Delta by adaptive central differences with Richardson."""
    h = init_step if init_step is not None else 1e-3 * p.linewidth

    def central(step):
        up = drift_p(p.with_detuning(p.detuning + step), n_nodes)
        dn = drift_p(p.with_detuning(p.detuning - step), n_nodes)
        return (up - dn) / (2.0 * step)

    prev = central(h)
    for _ in range(8):
        h *= 0.5
        cur = central(h)
        rich = (4.0 * cur - prev) / 3.0
        scale = max(abs(rich), abs(drift_p(p, n_nodes) / p.linewidth), 1e-300)
        if abs(rich - cur) <= rel_tol * scale:
            return rich
        prev = cur
    raise StepSizeError("drift-slope Richardson extrapolation did not converge")


def doppler_damping(p: PulseParams, n_nodes: int = 64) -> float:
    """Doppler damping rate g = eta_bar * nu * d alpha_p / d Delta."""
    return p.eta_bar * p.mode_freq * drift_slope(p, n_nodes)


def mean_photons_per_pulse(p: PulseParams, n_nodes: int = 64) -> float:
    """Average number of photons absorbed during one pulse."""
    prop = _cached_propagator(p, 0.0)
    t, w = gauss_legendre_grid(p, n_nodes)
    sy = prop.sigma(t)[:, 1]
    return 0.5 * p.rabi * float(np.sum(w * sy))
