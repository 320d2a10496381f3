"""Reference values computed apart from recoilspec.

Nothing here imports recoilspec.  The routes are deliberately different
from the program's:

* Pulse coefficients come from the Lindblad master equation of the driven
  two-level ion in Liouville space, with every single and double pulse
  integral evaluated exactly as one block-triangular matrix exponential
  (C. F. Van Loan, IEEE Trans. Autom. Control 23, 395 (1978)).  The program
  uses the 3x3 Bloch equations on Gauss-Legendre grids.
* Overlaps after momentum drift u = alpha*tbar and diffusion v = d*tbar use
  the 1-D displacement fidelity: a random momentum kick y ~ N(u, v) acts as
  exp(i y x), so P(u, v) = E_y |<psi| exp(i y x) |psi>|^2 and only the
  position density |psi(x)|^2 is needed.  Gaussian and cat states have a
  closed form with closed-form u and v derivatives; Fock superpositions use
  trapezoid quadrature in x and Gauss-Hermite averaging in y.  The program
  uses 2-D characteristic-function quadrature, Richardson differences and a
  Crank-Nicolson PDE.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

SQRT2 = math.sqrt(2.0)

# Pauli matrices in the basis (|e>, |g>): sigma_z |e> = +|e>.
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SMINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |g><e|
GROUND = np.array([[0, 0], [0, 1]], dtype=complex)
I2 = np.eye(2)
I4 = np.eye(4)


def _vec(m):
    """Column-stacking vectorization, vec(A X B) = (B^T kron A) vec(X)."""
    return np.asarray(m).reshape(-1, order="F")


def liouvillian(rabi, linewidth, detuning):
    """Lindblad generator for H = (Delta/2) sz + (Omega/2) sx, L = sqrt(G) s-."""
    h = 0.5 * detuning * SZ + 0.5 * rabi * SX
    nn = SMINUS.conj().T @ SMINUS
    return (-1j * (np.kron(I2, h) - np.kron(h.T, I2))
            + linewidth * (np.kron(SMINUS.conj(), SMINUS)
                           - 0.5 * np.kron(I2, nn) - 0.5 * np.kron(nn.T, I2)))


def _oscillator(nu):
    """Generator of phi(t) = (sin nu t, cos nu t)."""
    return np.array([[0.0, nu], [-nu, 0.0]])


def pulse_integrals(rabi, linewidth, detuning, mode_freq, duration):
    """Exact (I_sin, I_cos, I_one, J_ss, J_cc, J_asym) of one pulse.

    I_f = int_0^tau f(nu t) <sy(t)> dt and
    J_fg = int_0^tau dt int_0^t dt' f(nu t) g(nu t') Re<sy(t) sy(t')>,
    with the two-time correlator from the quantum regression theorem,
    <sy(t) sy(t')> = tr[sy e^{L(t-t')} (sy rho(t'))].
    """
    lv = liouvillian(rabi, linewidth, detuning)
    w = _oscillator(mode_freq)
    rho0 = _vec(GROUND)
    phi0 = np.array([0.0, 1.0])
    read_y = _vec(SY.T)                      # tr(sy rho) = read_y . vec(rho)
    left_y = np.kron(I2, SY)                 # vec(sy rho)

    # Single integrals: state (z[3], phi x rho [8], rho [4]).
    a1 = np.kron(w, I4) + np.kron(I2, lv)
    gen = np.zeros((15, 15), dtype=complex)
    gen[0, 3:11] = np.kron([1.0, 0.0], read_y)
    gen[1, 3:11] = np.kron([0.0, 1.0], read_y)
    gen[2, 11:15] = read_y
    gen[3:11, 3:11] = a1
    gen[11:15, 11:15] = lv
    x0 = np.concatenate([np.zeros(3), np.kron(phi0, rho0), rho0])
    i_sin, i_cos, i_one = (expm(gen * duration) @ x0)[:3].real

    # Double integrals: state (z[4], Y[16], X[16]) with X = phi x phi x rho
    # before the inner time t', and Y_k = phi x (sy rho) after it, weighted
    # by the inner trig factor k in (sin, cos).
    ax = (np.kron(np.kron(w, I2), I4) + np.kron(np.kron(I2, w), I4)
          + np.kron(np.kron(I2, I2), lv))
    gen = np.zeros((36, 36), dtype=complex)
    unit = np.eye(2)
    for k in range(2):
        ys = slice(4 + 8 * k, 12 + 8 * k)
        gen[ys, ys] = a1
        gen[ys, 20:36] = np.kron(np.kron(I2, unit[k][None, :]), left_y)
        for j in range(2):
            gen[2 * j + k, ys] = np.kron(unit[j], read_y)
    gen[20:36, 20:36] = ax
    x0 = np.concatenate([np.zeros(20), np.kron(np.kron(phi0, phi0), rho0)])
    z = (expm(gen * duration) @ x0)[:4].real
    j_ss, j_sc, j_cs, j_cc = z
    return i_sin, i_cos, i_one, j_ss, j_cc, 0.5 * (j_sc - j_cs)


def coefficients(rabi, linewidth, detuning, lamb_dicke, mode_freq, duration):
    """Per-pulse (alpha_x, alpha_p, d_xx, d_pp, d_xp, n1), alpha_p >= 0."""
    i_sin, i_cos, i_one, j_ss, j_cc, j_asym = pulse_integrals(
        rabi, linewidth, detuning, mode_freq, duration)
    pref = lamb_dicke * rabi / SQRT2
    pref2 = (lamb_dicke * rabi) ** 2
    alpha_x = pref * i_sin
    alpha_p = -pref * i_cos
    return {"alpha_x": alpha_x, "alpha_p": abs(alpha_p),
            "d_xx": pref2 * j_ss - alpha_x**2,
            "d_pp": pref2 * j_cc - alpha_p**2,
            "d_xp": -pref2 * j_asym - alpha_x * alpha_p,
            "n1": 0.5 * rabi * i_one}


def damping(rabi, linewidth, detuning, lamb_dicke, mode_freq, duration):
    """g = sqrt(2) eta nu d alpha_p / d Delta by a central difference."""
    h = 1e-3 * linewidth
    up = coefficients(rabi, linewidth, detuning + h, lamb_dicke, mode_freq,
                      duration)["alpha_p"]
    dn = coefficients(rabi, linewidth, detuning - h, lamb_dicke, mode_freq,
                      duration)["alpha_p"]
    return SQRT2 * lamb_dicke * mode_freq * (up - dn) / (2.0 * h)


# --- Gaussian moments -------------------------------------------------------

def squeezed_cov(r, angle=math.pi / 2):
    """Covariance of squeezed vacuum; angle pi/2 squeezes momentum."""
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    return rot @ np.diag([0.5 * math.exp(-2 * r), 0.5 * math.exp(2 * r)]) @ rot.T


def gaussian_overlap(mean_a, cov_a, mean_b, cov_b):
    """tr(rho_a rho_b) for Gaussian states (vacuum covariance I/2)."""
    s = np.asarray(cov_a) + np.asarray(cov_b)
    dm = np.asarray(mean_a) - np.asarray(mean_b)
    return float(np.linalg.det(s) ** -0.5
                 * math.exp(-0.5 * dm @ np.linalg.solve(s, dm)))


def damped_gaussian_overlap(cov, alpha, d, tbar, g):
    """Overlap of a zero-mean Gaussian with itself after drift, diffusion and
    linear damping g, from the exact Ornstein-Uhlenbeck moments."""
    if g == 0.0:
        e1, f1, f2 = 1.0, tbar, tbar
    else:
        e1 = math.exp(-g * tbar)
        f1 = (1.0 - e1) / g
        f2 = (1.0 - e1 * e1) / (2.0 * g)
    cov = np.asarray(cov, dtype=float)
    cov_t = np.array([[cov[0, 0], cov[0, 1] * e1],
                      [cov[0, 1] * e1, cov[1, 1] * e1 * e1 + d * f2]])
    return gaussian_overlap([0.0, 0.0], cov, [0.0, -alpha * f1], cov_t)


# --- Displacement fidelity --------------------------------------------------

def _gauss_avg(a, k, u, v):
    """E_y[exp(-a y^2 + i k y)] for y ~ N(u, v), with d/du and d/dv."""
    den = 1.0 + 2.0 * a * v
    ex = -a * u * u + 1j * k * u - 0.5 * k * k * v
    h = den**-0.5 * np.exp(ex / den)
    h_u = h * (-2.0 * a * u + 1j * k) / den
    h_v = h * (-a / den - 0.5 * k * k / den - 2.0 * a * ex / den**2)
    return h, h_u, h_v


class GaussianProbe:
    """Zero-mean Gaussian probe; only Var(x) enters the fidelity."""

    def __init__(self, var_x):
        self.var_x = var_x

    def fidelity(self, u, v):
        h = _gauss_avg(self.var_x, 0.0, u, v)
        return tuple(float(np.real(q)) for q in h)


class CatProbe:
    """Even cat N(|beta> + |-beta>) with lobes at x = +-sqrt(2) beta."""

    def __init__(self, beta):
        q = math.exp(-2.0 * beta * beta)
        x0 = SQRT2 * beta
        n4 = (2.0 + 2.0 * q) ** -2
        self.var_x = 2.0 * x0 * x0 / (2.0 + 2.0 * q) + 0.5
        # |G(y)|^2 = 4 N^4 e^{-y^2/2} (cos(x0 y) + q)^2, expanded in cosines.
        self._terms = [(0.0, 4 * n4 * (0.5 + q * q)), (2 * x0, 4 * n4 * 0.5),
                       (x0, 4 * n4 * 2 * q)]

    def fidelity(self, u, v):
        out = np.zeros(3)
        for k, c in self._terms:
            out += c * np.real(_gauss_avg(0.5, k, u, v))
        return tuple(float(q) for q in out)


class FockProbe:
    """Real superposition sum_n c_n |n> by quadrature of |psi(x)|^2."""

    _X = np.linspace(-10.0, 10.0, 801)
    _Z, _WZ = np.polynomial.hermite_e.hermegauss(64)

    def __init__(self, coeffs: dict):
        x = self._X
        psi = np.zeros_like(x)
        phi_prev = np.zeros_like(x)
        phi = math.pi**-0.25 * np.exp(-0.5 * x * x)
        for n in range(max(coeffs) + 1):
            psi += coeffs.get(n, 0.0) * phi
            phi_prev, phi = phi, (math.sqrt(2.0 / (n + 1)) * x * phi
                                  - math.sqrt(n / (n + 1)) * phi_prev)
        self.density = psi * psi * (x[1] - x[0])
        self.norm = float(self.density.sum())
        mean = float(self.density @ x)
        self.var_x = float(self.density @ (x * x)) - mean * mean
        self.n_top = max(coeffs)

    def _f_derivs(self, y):
        """F(y) = |G(y)|^2 and its first two derivatives."""
        x = self._X
        ph = np.exp(1j * np.outer(y, x)) * self.density
        g0 = ph.sum(axis=1)
        g1 = 1j * (ph @ x)
        g2 = -(ph @ (x * x))
        f0 = np.abs(g0) ** 2
        f1 = 2.0 * np.real(np.conj(g0) * g1)
        f2 = 2.0 * np.real(np.abs(g1) ** 2 + np.conj(g0) * g2)
        return f0, f1, f2

    def fidelity(self, u, v):
        """(P, dP/du, dP/dv); dP/dv = (1/2) d2P/du2 (heat equation)."""
        y = u + math.sqrt(v) * self._Z
        f0, f1, f2 = self._f_derivs(y)
        w = self._WZ / math.sqrt(2.0 * math.pi)
        return float(w @ f0), float(w @ f1), 0.5 * float(w @ f2)


def first_crossing(fidelity, epsilon, p0, step, t_max=200.0):
    """Smallest t with P(u=t, v=epsilon t) = p0, marching then bisecting."""
    def gap(t):
        return fidelity(t, epsilon * t)[0] - p0
    lo = 0.0
    while lo < t_max:
        hi = lo + step
        if gap(hi) < 0.0:
            return brentq(gap, lo, hi, xtol=1e-15, rtol=1e-15)
        lo = hi
    raise ValueError("no crossing")


def vacuum_working_point(alpha, d, p0):
    """t* with (1 + d t)^{-1/2} exp(-(alpha t)^2 / (2 (1 + d t))) = p0."""
    def gap(t):
        return (1.0 + d * t) ** -0.5 * math.exp(
            -0.5 * (alpha * t) ** 2 / (1.0 + d * t)) - p0
    hi = 1.0 / alpha
    while gap(hi) > 0.0:
        hi *= 2.0
    return brentq(gap, 0.0, hi, xtol=1e-15 * hi, rtol=1e-15)


def mismatch_sensitivity(r, dphi, epsilon, p0):
    """|S| for a momentum-squeezed probe read out by a projector rotated by
    dphi, at alpha = 1; the overlap and its alpha-derivative are closed form."""
    base = squeezed_cov(r) + squeezed_cov(r, math.pi / 2 - dphi)

    def parts(t, alpha=1.0):
        s = base + np.diag([0.0, epsilon * t])
        inv_pp = np.linalg.inv(s)[1, 1]
        p = np.linalg.det(s) ** -0.5 * math.exp(-0.5 * (alpha * t) ** 2 * inv_pp)
        return p, inv_pp

    hi = 1.0
    while parts(hi)[0] > p0:
        hi *= 2.0
    t = brentq(lambda x: parts(x)[0] - p0, 0.0, hi, xtol=1e-15, rtol=1e-15)
    p, inv_pp = parts(t)
    return p * t * inv_pp, t
