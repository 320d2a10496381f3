"""Motional states, their drift/diffusion propagation and overlap signals.

Phase-space convention: x = (a + a^dag)/sqrt(2), p = -i(a - a^dag)/sqrt(2),
vacuum covariance diag(1/2, 1/2).  The momentum drift displaces states along
-p by alpha*tbar; only the magnitude of the displacement enters any overlap,
so the choice is fixed purely for reproducibility.

Gaussian states evolve by closed-form moment solutions (exact also with the
Doppler damping g).  At g = 0 every overlap and its exact drift and
diffusion slopes come from one route, the 1-D displacement fidelity: each
state family's `slopes(u, v)` on arrays of points (closed forms for
Gaussian and cat states, exact Gauss-Hermite quadrature for Fock
superpositions), and `overlap_slopes` at one point.  One kernel,
`_fock_derivatives`, gives every Fock-superposition derivative: the slopes,
and through `real_fock_derivatives` the higher drift derivatives and the
coefficient gradients that the probe-state optimizer needs.  Each family
also owns what the working-point march and the Doppler term need to know
about it: `march_step`, `march_scale` and `reflection_symmetric`.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import ConfigError, UnsupportedDampingError

_SQRT2 = math.sqrt(2.0)
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class FPParams:
    """Constant-coefficient momentum drift/diffusion for a time tbar (pulses)."""

    alpha: float
    d: float
    tbar: float
    g: float = 0.0

    def __post_init__(self):
        bad = [f.name for f in fields(self)
               if not math.isfinite(getattr(self, f.name))]
        if bad:
            raise ConfigError(f"drift/diffusion parameters must be finite: "
                              f"{bad}")
        if self.d < 0.0:
            raise ConfigError("diffusion coefficient must be non-negative")
        if self.tbar < 0.0:
            raise ConfigError("tbar must be non-negative")


class GaussianState:
    """Gaussian motional state with mean vector and covariance matrix."""

    __slots__ = ("mean", "cov")

    def __init__(self, mean, cov):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise ConfigError("mean must be length 2, cov 2x2")
        with np.errstate(over="ignore"):
            sym = 0.5 * (cov + cov.T)
        if not (np.isfinite(mean).all() and np.isfinite(sym).all()):
            raise ConfigError("mean and covariance must be finite")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ConfigError("covariance must be symmetric")
        if not np.linalg.det(cov) >= 0.25 * (1.0 - 1e-9):
            raise ConfigError("covariance violates the uncertainty relation")
        self.mean = mean
        self.cov = sym

    @classmethod
    def _unchecked(cls, mean, cov) -> "GaussianState":
        """Skip the uncertainty-relation check.

        The drift/diffusion/damping map is a classical evolution of the
        Wigner function and may compress the covariance below vacuum noise
        for strong damping; evolved states must not be rejected for that.
        """
        out = object.__new__(cls)
        out.mean = np.asarray(mean, dtype=float)
        out.cov = np.asarray(cov, dtype=float)
        return out

    @classmethod
    def vacuum(cls) -> "GaussianState":
        return cls(np.zeros(2), 0.5 * np.eye(2))

    @classmethod
    def squeezed(cls, r: float, phase: float = math.pi / 2) -> "GaussianState":
        """Squeezed vacuum; phase pi/2 squeezes the momentum quadrature.

        The covariance is rotated from the momentum-squeezed frame by
        phase - pi/2, so the default phase gives diag(e^{2r}, e^{-2r})/2
        exactly: a rounded cos(pi/2) would leak e^{2r} into Var(p)."""
        if not abs(2.0 * r) <= _LOG_MAX:
            raise ConfigError(f"squeezing r={r} overflows the covariance")
        if not math.isfinite(phase):
            raise ConfigError(f"squeezing phase={phase} must be finite")
        theta = phase - math.pi / 2
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        core = 0.5 * np.diag([math.exp(2 * r), math.exp(-2 * r)])
        return cls(np.zeros(2), rot @ core @ rot.T)

    @property
    def nbar(self) -> float:
        # nbar = (tr(cov) - 1)/2 + |mean|^2/2 for our convention.
        return float(0.5 * (np.trace(self.cov) - 1.0)
                     + 0.5 * self.mean @ self.mean)

    def qfi_displacement(self) -> float:
        """QFI for momentum displacements: 4 Var(x)."""
        return 4.0 * self.cov[0, 0]

    def slopes(self, u, v):
        """(P, dP/du, dP/dv) for P = det S^{-1/2} exp(-u^2 q / 2), where
        S = 2 cov + diag(0, v) and q = S_xx / det S: the overlap of the
        state with itself after a momentum kick drawn from N(u, v).  It
        depends on the two covariances only through their sum, so a probe
        and a different projector act as one state of their mean
        covariance.  Arrays u, v broadcast."""
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        sigma = 2.0 * self.cov
        sxx = float(sigma[0, 0])
        det = (sxx * (float(sigma[1, 1]) + v)
               - float(sigma[0, 1] * sigma[1, 0]))
        q = sxx / det
        with np.errstate(over="ignore", invalid="ignore"):
            p = det**-0.5 * np.exp(-0.5 * u * u * q)
            # P = 0 on underflow, and inf * 0 once u * u or v overflows
            live = p > 0.0
            return tuple(np.where(live, w, 0.0) for w in
                         (p, -p * u * q, 0.5 * p * (u * u * q * q - q)))

    def march_step(self, alpha: float) -> float:
        """Half the narrowest standard deviation, as a drift time."""
        sig = math.sqrt(min(np.linalg.eigvalsh(self.cov)))
        return 0.5 * sig / alpha

    def march_scale(self) -> float:
        """e^{|r|} for the largest variance e^{2r}/2: how much longer than
        the vacuum's the overlap may take to decay."""
        top = float(np.max(np.linalg.eigvalsh(self.cov)))
        return math.exp(abs(0.5 * math.log(2.0 * top)))

    def reflection_symmetric(self) -> bool:
        """<p> = 0: the Wigner function is even under a point reflection."""
        return bool(self.mean[1] == 0.0)


@dataclass(frozen=True)
class CatState:
    """Even superposition of coherent states |beta> and |-beta>, beta real."""

    beta: float

    def __post_init__(self):
        if not (self.beta >= 0.0 and math.isfinite(self.beta * self.beta)):
            raise ConfigError(f"beta={self.beta} must be non-negative with "
                              "a finite square")

    @property
    def normalization(self) -> float:
        return (2.0 + 2.0 * math.exp(-2.0 * self.beta**2)) ** -0.5

    @property
    def nbar(self) -> float:
        return self.beta**2 * math.tanh(self.beta**2)

    def qfi_displacement(self) -> float:
        n2 = self.normalization**2
        return 2.0 * (1.0 + 8.0 * self.beta**2 * n2)

    def slopes(self, u, v):
        """(P, dP/du, dP/dv) from the three cosine terms of
        |G(y)|^2 = 4 N^4 e^{-y^2/2} (cos(sqrt2 beta y) + e^{-2 beta^2})^2.

        Each term's average E[e^{-y^2/2 + i k y}] over y ~ N(u, v) is
        (1+v)^{-1/2} exp(e / (1+v)) with e = -u^2/2 + i k u - k^2 v / 2.
        Arrays u, v broadcast; the terms run along a trailing axis.
        """
        q = math.exp(-2.0 * self.beta**2)
        n4 = self.normalization**4
        k = _SQRT2 * self.beta * np.array([0.0, 2.0, 1.0])
        amp = 4.0 * n4 * np.array([0.5 + q * q, 0.5, 2.0 * q])
        u = np.asarray(u, dtype=float)[..., None]
        v = np.asarray(v, dtype=float)[..., None]
        den = 1.0 + v
        with np.errstate(over="ignore", invalid="ignore"):
            # every term underflows, and u * u may overflow: 0 * inf
            live = np.exp(-0.5 * u * u / den)[..., 0] > 0.0
            ex = -0.5 * u * u + 1j * k * u - 0.5 * k * k * v
            h = amp * np.exp(ex / den) / np.sqrt(den)
            h_u = h * (1j * k - u) / den
            # ex / den / den, not ex / den**2, which overflows sooner
            h_v = -h * (0.5 * (1.0 + k * k) / den + ex / den / den)
            return tuple(np.where(live, np.sum(w, axis=-1).real, 0.0)
                         for w in (h, h_u, h_v))

    def march_step(self, alpha: float) -> float:
        """A step that resolves the fringe cos(sqrt2 beta alpha tbar);
        unbounded where beta alpha leaves no fringe."""
        if self.beta * alpha > 0.0:
            return 0.25 / (math.sqrt(2.0) * self.beta * alpha)
        return math.inf

    def march_scale(self) -> float:
        return 1.0

    def reflection_symmetric(self) -> bool:
        """Every real-beta cat is even under p -> -p."""
        return True


def check_fock_levels(levels, name: str) -> None:
    """Refuse Fock levels that are not integers, bools among them."""
    if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
               for n in levels):
        raise ConfigError(f"{name} must hold integer Fock levels, got "
                          f"{list(levels)}")


class FockSuperposition:
    """Finite superposition sum_n c_n |n>, truncated at n_max <= 64."""

    __slots__ = ("coeffs", "_support", "_layout")

    MAX_N = 64

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 1 or len(coeffs) == 0:
            raise ConfigError("coeffs must be a non-empty 1-D sequence")
        if len(coeffs) - 1 > self.MAX_N:
            raise ConfigError(f"truncation above n_max={self.MAX_N}")
        norm = np.sum(np.abs(coeffs) ** 2)
        if not abs(norm - 1.0) <= 1e-12:   # NaN included
            raise ConfigError("coefficients must be normalized to 1e-12")
        self.coeffs = coeffs
        levels = np.flatnonzero(coeffs)
        self._support = coeffs[levels]
        self._layout = _padded_levels(tuple(levels.tolist()), 2)

    @classmethod
    def from_dict(cls, entries: dict[int, complex]) -> "FockSuperposition":
        check_fock_levels(entries, "a superposition")
        if not entries or min(entries) < 0 or max(entries) > cls.MAX_N:
            raise ConfigError(f"need Fock levels in [0, {cls.MAX_N}], "
                              f"got {sorted(entries)}")
        c = np.zeros(max(entries) + 1, dtype=complex)
        for n, v in entries.items():
            c[n] = v
        return cls(c)

    @classmethod
    def fock(cls, n: int) -> "FockSuperposition":
        return cls.from_dict({n: 1.0})

    @property
    def nbar(self) -> float:
        n = np.arange(len(self.coeffs))
        return float(np.sum(n * np.abs(self.coeffs) ** 2))

    def qfi_displacement(self) -> float:
        """4 Var(x), with <x> = Re c^dag x c and <x^2> = |x c|^2 on c padded
        by one level, which x c reaches."""
        c = np.append(self.coeffs, 0.0)
        xc = _position_times(c)
        ex = float(np.sum(np.conj(c) * xc).real)
        return 4.0 * (float(np.sum(np.abs(xc) ** 2)) - ex**2)

    def slopes(self, u, v):
        """(P, dP/du, dP/dv), exact: the first three u-derivatives of
        `_fock_derivatives`, with dP/dv = (d^2P/du^2) / 2 by the heat
        equation.  Arrays u, v broadcast."""
        m = _fock_derivatives(self._layout, self._support, u, v)
        return m[0], m[1], 0.5 * m[2]

    def march_step(self, alpha: float) -> float:
        """A step that resolves the fastest oscillation, set by the top
        level n as 1/(sqrt(2n+1) alpha)."""
        n_top = len(self.coeffs) - 1
        return 0.25 / (math.sqrt(2.0 * n_top + 1.0) * alpha)

    def march_scale(self) -> float:
        return 1.0

    def reflection_symmetric(self) -> bool:
        """Real coefficients up to a global phase (even under p -> -p),
        or a single parity (even under a point reflection)."""
        c = self.coeffs
        top = c[np.argmax(np.abs(c))]
        real = np.all(np.abs((c * np.conj(top)).imag) <= 1e-12 * abs(top))
        return bool(real) or len(set(np.flatnonzero(c) % 2)) == 1


MotionalState = GaussianState | CatState | FockSuperposition


def _relative_decay(x: float) -> float:
    """(1 - e^{-x}) / x, by its series where |x| is tiny or zero."""
    if abs(x) < 1e-10:
        return 1.0 - 0.5 * x
    return -math.expm1(-x) / x


def _damping_factors(g: float, tbar: float):
    """(e^{-g t}, (1-e^{-g t})/g, (1-e^{-2g t})/(2g)) with safe g -> 0.

    Both fractions are formed from x = g t, never by dividing by g: for
    subnormal g the product g t rounds and the quotient by g loses tbar.
    """
    x = g * tbar
    return (math.exp(-x), tbar * _relative_decay(x),
            tbar * _relative_decay(2.0 * x))


def evolve_gaussian(s: GaussianState, fp: FPParams) -> GaussianState:
    """Closed-form moment evolution under drift, diffusion and damping."""
    e1, f1, f2 = _damping_factors(fp.g, fp.tbar)
    mean = s.mean.copy()
    mean[1] = mean[1] * e1 - fp.alpha * f1
    cov = s.cov.copy()
    cov[0, 1] = cov[1, 0] = cov[0, 1] * e1
    cov[1, 1] = cov[1, 1] * e1**2 + fp.d * f2
    return GaussianState._unchecked(mean, cov)


def overlap_gaussian(a: GaussianState, b: GaussianState) -> float:
    """tr(rho_a rho_b) for two Gaussian states."""
    sigma = a.cov + b.cov
    det = np.linalg.det(sigma)
    if det <= 0.0:
        raise ConfigError("singular covariance sum")
    dm = a.mean - b.mean
    return float(det**-0.5 * math.exp(-0.5 * dm @ np.linalg.solve(sigma, dm)))


# log n! for every level a Fock state and its x^2 c can reach, and i^k
_LOG_FACTORIAL = np.array([math.lgamma(n + 1.0)
                           for n in range(FockSuperposition.MAX_N + 3)])
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


def _level_tables(levels: tuple[int, ...]):
    """What `_kick_elements` needs of the level pairs m, n of one cached
    `_padded_levels` layout: the distinct k = |m - n|, their recurrence
    terms, and for each pair lo = min(m, n), the index of its k and factor."""
    idx = np.array(levels)
    lo = np.minimum.outer(idx, idx)
    k = np.abs(np.subtract.outer(idx, idx))
    ks = np.array(sorted(set(k.ravel().tolist())))
    k_at = np.searchsorted(ks, k)
    # (n + 1) L_{n+1} = (2n + 1 + k - x) L_n - (n + k) L_{n-1} becomes
    # Q_{n+1} = r_n Q_n - Q_{n-1} for L_n = s_n Q_n with s_0 = s_1 = 1 and
    # s_{n+1} = s_{n-1} (n + k) / (n + 1)
    top = int(lo.max())
    scale = np.ones((top + 1, len(ks)))
    for n in range(1, top):
        scale[n + 1] = scale[n - 1] * (n + ks) / (n + 1)
    n = np.arange(top)[:, None]
    r_x = -scale[:-1] / ((n + 1) * scale[1:])    # r_n = r_one + r_x x
    r_one = -(2 * n + 1 + ks) * r_x
    factor = (np.exp(0.5 * (_LOG_FACTORIAL[lo] - _LOG_FACTORIAL[lo + k]))
              * _I_POWERS[k % 4] * scale[lo, k_at])
    return (ks.astype(float), r_one[:, None], r_x[:, None], lo, k_at,
            factor)


def _kick_elements(tables, z: np.ndarray) -> np.ndarray:
    """<m| e^{i z x} |n> for every node z and pair m, n of a level set, from
    its `_level_tables`; shape (nodes, levels, levels).

    e^{i z x} = D(lam) with lam = i z / sqrt2 imaginary, so -conj(lam) = lam
    and both orderings share, with lo = min(m, n) and k = |m - n|,
    sqrt(lo! / (lo + k)!) e^{-|lam|^2/2} lam^k L_lo^(k)(|lam|^2).  With
    a = z / sqrt2, the products e^{-a^2/2} a^k L_n^(k)(a^2) come from the
    upward three-term recurrence in n, for every k at once.
    """
    ks, r_one, r_x, lo, k_at, factor = tables
    a = z / _SQRT2
    x = (a * a)[:, None]
    q = np.empty((len(r_one) + 1, len(z), len(ks)))
    with np.errstate(invalid="ignore", over="ignore"):
        np.multiply(np.exp(-0.5 * x), a[:, None] ** ks, out=q[0])
        r = r_one + r_x * x
        for n in range(len(r)):
            np.multiply(r[n], q[n], out=q[n + 1])
            if n:
                q[n + 1] -= q[n - 1]
    dmat = q[lo, :, k_at].transpose(2, 0, 1)
    # NaN only where the envelope underflowed against an overflowing
    # power or polynomial: the element is 0 there
    dmat[np.isnan(dmat)] = 0.0
    return dmat * factor


def _normed_hermite_e(x, n: int):
    """He_n(x) / sqrt(sqrt(2 pi) n!) by the normalised three-term
    recurrence, run downwards in the degree as numpy.polynomial does."""
    c0, c1 = 0.0, 1.0 / math.sqrt(math.sqrt(2.0 * math.pi))
    if n == 0:
        return np.full(x.shape, c1)
    nd = float(n)
    for _ in range(n - 1):
        c0, c1 = (-c1 * math.sqrt((nd - 1.0) / nd),
                  c0 + c1 * x * math.sqrt(1.0 / nd))
        nd -= 1.0
    return c0 + c1 * x


@lru_cache(maxsize=16)
def _hermite_e_rule(n: int):
    """Probabilists' Gauss-Hermite nodes and weights normalised to N(0, 1),
    with the bits of numpy.polynomial.hermite_e.hermegauss(n): eigenvalues
    of the symmetric tridiagonal companion matrix, one Newton step, and
    weights 1/He_{n-1}^2, symmetrised."""
    # eigvalsh reads the lower triangle only
    z = np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1.0, n)), -1))
    z -= _normed_hermite_e(z, n) / (_normed_hermite_e(z, n - 1)
                                    * math.sqrt(n))
    fm = _normed_hermite_e(z, n - 1)
    fm /= np.abs(fm).max()
    w = 1.0 / (fm * fm)
    w = (w + w[::-1]) / 2.0
    z = (z - z[::-1]) / 2.0
    # scaled to sum to sqrt(2 pi) first, as hermegauss, for its bits
    w *= math.sqrt(2.0 * math.pi) / w.sum()
    return z, w / math.sqrt(2.0 * math.pi)


def _folded_rule(n: int, u, v):
    """Nodes z and weights wz with E_{y~N(u,v)}[e^{-y^2/2} q(y)] =
    sum wz q(z), exact for polynomials q of degree < 2n: the envelope
    folds into the kick distribution, which leaves the expectation of q
    over N(u/(1+v), v/(1+v)) for n Gauss-Hermite nodes.  u and v broadcast
    against the nodes."""
    den = 1.0 + v
    z, w = _hermite_e_rule(n)
    z = u / den + np.sqrt(v / den) * z
    # one exponent: F underflows gracefully where e^{z^2/2} alone overflows
    return z, w * np.exp(0.5 * (z * z - u * u / den)) / np.sqrt(den)


@lru_cache(maxsize=16)
def _padded_levels(basis: tuple[int, ...], order: int):
    """The layout `_fock_derivatives` works on for the superpositions of a
    basis, up to the u-derivative `order` (2 or 4): the places of the basis
    levels among those the basis and its x^k c, k <= order/2, reach (each
    level padded by order/2 on either side, whatever the values of c);
    their `_level_tables`; the maps x^k from the basis coefficients onto
    them, shape (order/2 + 1, levels, basis); and the node count
    2 n_max + order/2 + 1 that integrates F^(order), of degree
    4 n_max + order, exactly."""
    pad = order // 2
    levels = sorted({m for n in basis
                     for m in range(max(n - pad, 0), n + pad + 1)})
    powers = np.zeros((pad + 1, levels[-1] + 1, len(basis)))
    for i, n in enumerate(basis):
        powers[0, n, i] = 1.0
        for k in range(1, pad + 1):
            powers[k, :, i] = _position_times(powers[k - 1, :, i])
    return (np.searchsorted(levels, basis), _level_tables(tuple(levels)),
            powers[:, levels], 2 * max(basis) + pad + 1)


# G^(k) = i^k g[a, b] with a + b = k, and _LEIBNIZ[k, a, k - a] =
# binomial(k, a): F^(k) = sum_a of it times conj(G^(a)) G^(k-a)
_G_ROWS, _G_COLS = np.array([0, 0, 1, 1, 2]), np.array([0, 1, 1, 2, 2])
_I_K = _I_POWERS[np.arange(5) % 4]
_LEIBNIZ = np.array([[[math.comb(k, a) * (a + b == k) for b in range(5)]
                      for a in range(5)] for k in range(5)], dtype=float)


def _position_times(c: np.ndarray) -> np.ndarray:
    """x c in the Fock basis, from the two off-diagonals of the
    tridiagonal x = (a + a^dag) / sqrt2; slices keep this small product out
    of BLAS, whose threads cost more than it."""
    off = np.sqrt(np.arange(1, len(c)) / 2.0)
    xc = np.zeros_like(c)
    xc[:-1] = off * c[1:]
    xc[1:] += off * c[:-1]
    return xc


# Complex elements per `_kick_elements` call: a block of points shares one
# call up to this size; a dense 65-level state takes one call per point.
_KICK_BUDGET = 2**20


def _fock_derivatives(layout, c, u, v, grad=False):
    """m[k] = d^k P/du^k for k = 0..order, exact, for the superposition
    sum_i c_i |basis_i> on the `_padded_levels(basis, order)` layout, whose
    order/2 + 1 maps x^k set the order.  Arrays u, v broadcast, and m has
    shape (order + 1, *shape).  With `grad`, for real c, also
    dm[k, i] = d m[k]/dc_i for k <= order/2, of shape
    (order/2 + 1, basis, *shape).

    G(y) = <psi|e^{iyx}|psi> is e^{-y^2/4} times a polynomial of degree
    <= 2 n_max, and its derivatives are G^(k) = i^k (x^a c)^dag D (x^b c),
    a + b = k, for D = e^{iyx}, which commutes with x.  F = |G|^2 has
    F^(k) = sum_a binomial(k, a) conj(G^(a)) G^(k-a) by the Leibniz rule:
    e^{-y^2/2} times a polynomial of degree <= 4 n_max + k.  The envelope
    folds into the kick distribution (`_folded_rule`), whose Gauss-Hermite
    nodes integrate the rest exactly, so m[k] = E_{N(u,v)}[F^(k)].  For
    real c the symmetric D gives dG^(k)/dc_i = 2 i^k (D x^k c)_i.  The
    points' nodes share `_kick_elements` calls up to _KICK_BUDGET
    elements each.

    G(-y) = conj G(y), so P is even in u, and m[2j+1] = u m[2j+2] + O(u^3).
    Where u < 1e-8 sqrt(1 + v) that O(u^3) term, and the O(u^2) change of
    m[2j+2] from u = 0, are below rounding, while the quadrature's O(1)
    terms of the odd derivatives would cancel to noise: there the odd
    derivatives are read from that series.
    """
    rows, tables, powers, nodes = layout
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float),
                               np.asarray(v, dtype=float))
    shape = u.shape
    u, v = u.reshape(-1, 1), v.reshape(-1, 1)
    half = len(powers)                  # order/2 + 1
    top = 2 * half - 1                  # order + 1
    # einsum keeps these small complex products out of BLAS, whose complex
    # kernels alone add ~0.4 MB of resident memory to a process
    vecs = np.einsum("kab,b->ka", powers, c)        # x^k c on the levels
    z, wz = _folded_rule(nodes, u, v)
    step = max(1, _KICK_BUDGET // (z.shape[1] * vecs.shape[1] ** 2))
    gk, dgk = [], []
    for r in range(0, len(z), step):
        # h[z, :, b] = D x^b c and g[z, a, b] = (x^a c)^dag D x^b c
        h = np.einsum("zab,kb->zak",
                      _kick_elements(tables, z[r:r + step].ravel()), vecs)
        g = np.einsum("ka,zab->zkb", np.conj(vecs), h)
        gk.append(g[:, _G_ROWS[:top], _G_COLS[:top]])
        if grad:
            dgk.append(h[:, rows])
    gk = np.concatenate(gk).reshape(*z.shape, top) * _I_K[:top]
    wg = wz[..., None] * np.conj(gk)
    m = np.einsum("kab,pza,pzb->kp", _LEIBNIZ[:top, :top, :top], wg,
                  gk).real.reshape(top, *shape)
    if grad:
        # dG^(b)/dc_i = 2 i^b h[z, i, b], and conj(G^(a)) dG^(b) and its
        # mirror term are complex conjugates
        dgk = np.concatenate(dgk).reshape(*z.shape, len(rows), half)
        dm = 4.0 * np.einsum("kab,pza,pzib->kip",
                             _LEIBNIZ[:half, :half, :half], wg[..., :half],
                             dgk * _I_K[:half]).real.reshape(
                                 half, len(rows), *shape)
    series = (u * u < 1e-16 * (1.0 + v)).reshape(shape)
    if np.count_nonzero(series):        # cheaper than .any()
        u = u.reshape(shape)
        for k in range(1, top - 1, 2):
            m[k] = np.where(series, u * m[k + 1], m[k])
            if grad and k + 1 < half:
                dm[k] = np.where(series, u * dm[k + 1], dm[k])
    return (m, dm) if grad else m


def overlap_slopes(state: MotionalState, fp: FPParams):
    """(P, dP/dalpha, dP/dd): the remain probability after drift and
    diffusion and its exact slopes, for g = 0.

    Drift and diffusion act only along p, so P(u, v) = E_{y~N(u,v)}
    |<psi|e^{iyx}|psi>|^2 with u = alpha tbar and v = d tbar; the slopes
    are tbar dP/du and tbar dP/dv.
    """
    if fp.g != 0.0:
        raise UnsupportedDampingError("exact overlap slopes require g = 0")
    if not isinstance(state, MotionalState):
        raise ConfigError(f"unsupported state type {type(state).__name__}")
    p, p_u, p_v = (float(x) for x in state.slopes(
        fp.alpha * fp.tbar, fp.d * fp.tbar))
    return p, p_u * fp.tbar, p_v * fp.tbar


def real_fock_derivatives(basis, c, u: float, v: float):
    """u-derivatives of P at one point (u, v) for the real superposition
    sum_i c_i |basis_i>, and the gradients of the first three in c.

    Returns m with m[k] = d^k P/du^k for k = 0..4, so that, by the heat
    equation, dP/dv = m[2]/2, d2P/dudv = m[3]/2 and d2P/dv2 = m[4]/4; and
    dm with dm[k, i] = d m[k]/dc_i for k = 0..2: the order-4 call of
    `_fock_derivatives` with its coefficient gradient.
    """
    return _fock_derivatives(_padded_levels(tuple(basis), 4), c, u, v,
                             grad=True)


def overlap_after(state: MotionalState, fp: FPParams) -> float:
    """Probability to remain in the initial state after drift/diffusion;
    Gaussian states also under damping g."""
    if isinstance(state, GaussianState) and fp.g != 0.0:
        return overlap_gaussian(state, evolve_gaussian(state, fp))
    return overlap_slopes(state, fp)[0]
