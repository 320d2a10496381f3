"""Independent drift/diffusion propagation on a Wigner-function grid.

A Crank-Nicolson scheme, Richardson-extrapolated in the time step,
integrates

    dW/dtbar = alpha dW/dp + (d/2) d2W/dp2 + g d(p W)/dp

along p, where x enters only as a parameter.  Sixth-order central
differences on a p grid of spacing feature/16 (second and fourth order on
the two rows next to each Dirichlet edge) discretise the right-hand side.
The momentum factors of a thin SVD of the initial Wigner matrix are
propagated, then the remain probability is the 2 pi weighted trapezoidal
overlap with the initial Wigner function.  This route shares nothing with
the closed-form and characteristic-function evaluations and serves as
their cross-check.

Each leg of the extrapolation, n steps of Crank-Nicolson, overlaps as
<v, W M^n v> for the step matrix M and the momentum factors v, and is
computed as <R M^(n-b) R v, W M^b v>: the ket after b steps and the bra,
the reflection R v (R reverses the p grid) after n - b steps, reflected
back.  One run of max(b, n - b) steps from an orthonormal basis of
span{v, R v} gives both sides, and a state whose Wigner function is even
in p spans its own reflection and adds no rows.  Without damping (g = 0)
the operator's bands depend only on alpha, d and the p spacing, and
transposing it or reflecting it in p both flip the sign of the odd
first-derivative stencil: op^T = R op R, and so M^T = R M R.  There
b = floor(n/2) and the run takes half the steps: exact for the interior
stencil, broken by the graded rows next to the edges only in the deep
tails.  With damping the drift g p depends on p and the identity fails;
there b = n, the ket takes all n steps and the bra is R v at step 0, so
the overlap is <v, W M^n v> itself.  The mass guard checks the ket and the
reflected bra of both legs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError, GridUnderflowError
from .phasespace import (CatState, FockSuperposition, FPParams, GaussianState,
                         MotionalState)

# Singular values of the initial Wigner matrix below this fraction of the
# largest are dropped: rounding noise for the built-in families, and far
# below the scheme's discretisation error for a rotated squeezed state.
_SVD_RTOL = 1e-13
# How far from 1 the initial Wigner mass on the grid may lie.
_MASS_TOL = 1e-6
# The Fock Wigner transform's y grid keeps the spacing of _Y_NODES nodes
# over |y| <= _Y_HALF and reaches _Y_TAIL past the top level's turning
# point: Fock 2's margin, 6 - sqrt(5), rounded down, so Fock 0-2 keep it.
_Y_HALF = 6.0
_Y_NODES = 512
_Y_TAIL = 3.76


@dataclass(frozen=True)
class GridSpec:
    """Uniform phase-space grid, symmetric about the origin."""

    half_width_x: float
    half_width_p: float
    nx: int
    np_: int

    def __post_init__(self):
        for name in ("half_width_x", "half_width_p"):
            h = getattr(self, name)
            if not (isinstance(h, Real) and math.isfinite(h) and h > 0):
                raise ConfigError(
                    f"{name} must be finite and positive, got {h!r}")
        # two x points for the trapezoid, seven p points for the stencil
        for name, least in (("nx", 2), ("np_", 7)):
            n = getattr(self, name)
            if (isinstance(n, bool) or not isinstance(n, Integral)
                    or n < least):
                raise ConfigError(
                    f"{name} must be an integer >= {least}, got {n!r}")

    def axes(self):
        x = np.linspace(-self.half_width_x, self.half_width_x, self.nx)
        p = np.linspace(-self.half_width_p, self.half_width_p, self.np_)
        return x, p


def wigner_gaussian(s: GaussianState, x, p):
    """The Gaussian exp(-dv^T cov^-1 dv / 2) / (2 pi sqrt(det cov)), its
    quadratic form built in place by broadcasting the column x - mean_x
    against the row p - mean_p."""
    inv = np.linalg.inv(s.cov)
    dx = (x - s.mean[0])[:, None]
    dp = p - s.mean[1]
    quad = (inv[0, 1] + inv[1, 0]) * dp + inv[0, 0] * dx
    quad *= dx
    quad += inv[1, 1] * dp**2
    quad *= -0.5
    np.exp(quad, out=quad)
    quad *= 1.0 / (2.0 * math.pi * math.sqrt(np.linalg.det(s.cov)))
    return quad


def wigner_cat(c: CatState, x, p):
    """One (nx x 2) @ (2 x np) product of 1-D factors: the two lobes share
    e^{-p^2}, and the fringe term is e^{-x^2} times e^{-p^2} cos(2 s p)."""
    s = math.sqrt(2.0) * c.beta
    gp = np.exp(-p**2)
    scale = c.normalization**2 / math.pi
    xs = np.stack((scale * (np.exp(-(x - s) ** 2) + np.exp(-(x + s) ** 2)),
                   2.0 * scale * np.exp(-x**2)), axis=1)
    return xs @ np.stack((gp, gp * np.cos(2.0 * s * p)))


def _fock_wavefunction(coeffs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """psi(y) = sum_n c_n phi_n(y) via the Hermite-function recurrence."""
    out = np.zeros_like(y, dtype=complex)
    phi_prev = np.zeros_like(y)
    phi = math.pi**-0.25 * np.exp(-0.5 * y**2)
    for n, c in enumerate(coeffs):
        if c != 0.0:
            out += c * phi
        nxt = (math.sqrt(2.0 / (n + 1)) * y * phi
               - math.sqrt(n / (n + 1)) * phi_prev)
        phi_prev, phi = phi, nxt
    return out


def _y_axis(f: FockSuperposition) -> np.ndarray:
    """The even, symmetric y grid of `wigner_fock`, out to
    max(_Y_HALF, sqrt(2 n_top + 1) + _Y_TAIL)."""
    n_top = len(f.coeffs) - 1
    reach = math.sqrt(2.0 * n_top + 1.0) + _Y_TAIL
    ny = 2 * max(_Y_NODES // 2,
                 math.ceil(reach * (_Y_NODES - 1) / (2.0 * _Y_HALF) + 0.5))
    half = _Y_HALF * (ny - 1) / (_Y_NODES - 1)
    return np.linspace(-half, half, ny)


def wigner_fock(f: FockSuperposition, x, p):
    """W(x, p) = (1/pi) int dy h(x, y) e^{-2ipy}, h = psi(x+y) conj(psi(x-y)),
    on the nodes of `_y_axis`.

    h(x, -y) = conj h(x, y), so the sum over the symmetric y grid is twice
    the real sum over its y > 0 half, Re h cos(2py) + Im h sin(2py).  Real
    coefficients make Im h exactly 0, and the sine term is skipped.
    """
    y = _y_axis(f)
    weight = 2.0 * (y[1] - y[0]) / math.pi
    y = y[len(y) // 2:]
    h = _fock_wavefunction(f.coeffs, x[:, None] + y)
    h *= np.conj(_fock_wavefunction(f.coeffs, x[:, None] - y))
    h *= weight
    arg = np.multiply.outer(2.0 * y, p)
    w = h.real @ np.cos(arg)
    if h.imag.any():
        np.sin(arg, out=arg)
        w += h.imag @ arg
    return w


def initial_wigner(state: MotionalState, x, p):
    if isinstance(state, GaussianState):
        return wigner_gaussian(state, x, p)
    if isinstance(state, CatState):
        return wigner_cat(state, x, p)
    if isinstance(state, FockSuperposition):
        return wigner_fock(state, x, p)
    raise ConfigError(f"unsupported state type {type(state).__name__}")


def default_grid(state: MotionalState, fp: FPParams) -> GridSpec:
    """Resolution tight enough for the smallest momentum feature."""
    sig = 1.0 / math.sqrt(2.0)
    feat_p = sig  # smallest structure to resolve along p
    feat_x = sig
    ext_x = sig  # half-width scale of the state along each axis
    ext_p = sig
    if isinstance(state, GaussianState):
        ext_x = math.sqrt(state.cov[0, 0]) + abs(state.mean[0]) / 6.0
        ext_p = math.sqrt(state.cov[1, 1]) + abs(state.mean[1]) / 6.0
        if abs(state.cov[0, 1]) > 1e-12:
            feat_p = feat_x = math.sqrt(min(np.linalg.eigvalsh(state.cov)))
        else:
            feat_x = math.sqrt(state.cov[0, 0])
            feat_p = math.sqrt(state.cov[1, 1])
    elif isinstance(state, CatState):
        # interference fringe period pi / (sqrt(2) beta) along p
        if state.beta > 0.0:
            feat_p = min(sig, 1.0 / (2.0 * math.sqrt(2.0) * state.beta))
        ext_x = sig + math.sqrt(2.0) * state.beta / 6.0
    elif isinstance(state, FockSuperposition):
        n_top = len(state.coeffs) - 1
        radius = math.sqrt(2.0 * n_top + 1.0)
        ext_x = ext_p = max(sig, radius / 6.0 + sig)
        if n_top > 0:
            feat_p = feat_x = min(sig, 1.5 / radius)
    shift = abs(fp.alpha) * fp.tbar
    spread = math.sqrt(max(fp.d * fp.tbar, 0.0))
    half_p = 6.0 * ext_p + shift + 5.0 * spread + 1.0
    half_x = 6.0 * ext_x + 1.0
    # hp controls the finite-difference truncation error; hx only enters the
    # trapezoidal overlap, which converges much faster for smooth integrands.
    hp = feat_p / 16.0
    hx = feat_x / 3.0
    np_ = int(2 * math.ceil(half_p / hp) + 1)
    nx = int(2 * math.ceil(half_x / hx) + 1)
    return GridSpec(half_x, half_p, nx, np_)


def _osc_wavenumber(state: MotionalState) -> float:
    """Largest momentum-fringe wavenumber carried by the Wigner function."""
    if isinstance(state, CatState):
        return 2.0 * math.sqrt(2.0) * state.beta
    if isinstance(state, FockSuperposition):
        return 2.0 * math.sqrt(2.0 * (len(state.coeffs) - 1) + 1.0)
    return 0.0


# Central-difference weights of half-width k = 1, 2, 3 (orders 2, 4, 6;
# Fornberg, Math. Comp. 51:699, 1988): h^2 f''(p_i) ~ c0 f_i
# + sum_j c_j (f_{i+j} + f_{i-j}) and h f'(p_i) ~ sum_j b_j (f_{i+j} - f_{i-j}).
_STENCILS = {1: (-2.0, (1.0,), (1.0 / 2.0,)),
             2: (-5.0 / 2.0, (4.0 / 3.0, -1.0 / 12.0),
                 (2.0 / 3.0, -1.0 / 12.0)),
             3: (-49.0 / 18.0, (3.0 / 2.0, -3.0 / 20.0, 1.0 / 90.0),
                 (3.0 / 4.0, -3.0 / 20.0, 1.0 / 60.0))}


def _pde_operator(p: np.ndarray, fp: FPParams) -> np.ndarray:
    """Finite-difference form of the PDE's right-hand side as its seven
    bands: row 3 + o holds op[i, i + o] for every row i, zero where i + o
    leaves the grid.

    Sixth-order central differences in the interior (heptadiagonal).  Next
    to the (deep-tail) Dirichlet rows 0 and m-1, which stay zero, rows 1 and
    m-2 are second order and rows 2 and m-3 fourth order.
    """
    hp = p[1] - p[0]
    m = len(p)
    cd = 0.5 * fp.d / hp**2
    adv = (fp.alpha + fp.g * p) / hp
    bands = np.zeros((7, m))
    for k, rows in ((1, np.array([1, m - 2])), (2, np.array([2, m - 3])),
                    (3, np.arange(3, m - 3))):
        c0, c, b = _STENCILS[k]
        bands[3, rows] = c0 * cd + fp.g
        for j in range(1, k + 1):
            bands[3 + j, rows] = c[j - 1] * cd + b[j - 1] * adv[rows]
            bands[3 - j, rows] = c[j - 1] * cd - b[j - 1] * adv[rows]
    return bands


def _fine_steps(p: np.ndarray, fp: FPParams, osc_k: float,
                n_steps: int | None) -> int:
    """Fine-run step count for the extrapolated result: an explicit
    `n_steps`, which must be an even integer >= 2, or by default even and
    at least 50.

    Crank-Nicolson is unconditionally stable, but its phase error grows as
    (k alpha dt)^3 per step on fringes of wavenumber k.  The extrapolation
    cancels the dt^2 term of the accumulated overlap error, so the fringe
    step can be 1/(20 k alpha), three times plain Crank-Nicolson's
    1/(60 k alpha), at a lower overlap error.
    """
    if n_steps is not None:
        if (isinstance(n_steps, bool) or not isinstance(n_steps, Integral)
                or n_steps < 2 or n_steps % 2):
            raise ConfigError(
                f"n_steps must be an even integer >= 2, got {n_steps!r}")
        return n_steps
    adv = abs(fp.alpha) + abs(fp.g) * float(np.max(np.abs(p)))
    dt = 0.04
    if adv > 0:
        dt = min(dt, 12.0 * (p[1] - p[0]) / adv)
        if osc_k > 0.0:
            dt = min(dt, 1.0 / (20.0 * osc_k * adv))
    n_steps = max(50, int(math.ceil(fp.tbar / dt)))
    return n_steps + n_steps % 2


# Rows per diagonal block of the partitioned banded solve.
_BLOCK = 64
# Rows of a block that couple to its neighbours: the first and last three.
_EDGES = np.array([0, 1, 2, -3, -2, -1])


def _spike_solver(bands: np.ndarray):
    """x = L^-1 f for the heptadiagonal L with L[i, i + o] = bands[3 + o, i],
    by the SPIKE partition (E. Polizzi and A. H. Sameh, Parallel Computing
    32:177, 2006).

    L, padded with identity rows to K blocks of s rows, is D + C with D the
    block diagonal and C the 3 x 3 corners coupling neighbouring blocks.
    Then x_j = g_j - Z_j u_j, where g = D^-1 f, Z_j = D_j^-1 C_j are the
    block's spikes and u_j = (first three rows of x_{j+1}, last three rows
    of x_{j-1}); the first and last three rows of every block form a
    reduced system of 6K unknowns, inverted here once.  Returns (solve, K,
    s), where solve maps f of shape (K, s, r) to x of the same shape.
    """
    m = bands.shape[1]
    s = min(_BLOCK, m)
    k = -(-m // s)
    # the band columns of each block's rows, identity rows past m
    cols = np.zeros((7, k * s))
    cols[:, :m] = bands
    cols[3, m:] = 1.0
    cols = cols.reshape(7, k, s).transpose(1, 0, 2)
    # With the drift and diffusion constant in p (g = 0) the interior blocks
    # are equal; a block's rows, and so its diagonal block and corners, are
    # set by its band columns.  Build, invert and spike each run once.
    first = np.ones(k, dtype=bool)
    first[1:] = np.any(cols[1:] != cols[:-1], axis=(1, 2))
    run = np.cumsum(first) - 1
    cols = cols[first].reshape(-1, 7 * s)
    # band entry (o, a) of a block sits in row a, column a + o - 3 of the
    # block, or, outside it, in a corner laid out as the columns of the
    # unknowns u_j it multiplies: the next block's first rows, then the
    # previous block's last rows
    o, a = np.divmod(np.arange(7 * s), s)
    b = a + o - 3
    inside = (b >= 0) & (b < s)
    diag = np.zeros((len(cols), s * s))
    diag[:, (a * s + b)[inside]] = cols[:, inside]
    corner = np.zeros((len(cols), s * 6))
    corner[:, (a * 6 + np.where(b < 0, b + 6, b - s))[~inside]] = \
        cols[:, ~inside]
    inv = np.linalg.inv(diag.reshape(-1, s, s))
    spikes = (inv @ corner.reshape(-1, s, 6))[run]
    inv = inv[run]
    # the reduced system y + Z[edges] u = g[edges] in the edge rows y of x,
    # where u_j = y[src_j] (row 6k, past the end, reads 0); its inverse's
    # rows src map g[edges] straight to u
    src = np.arange(6 * k).reshape(k, 6)
    src[:, :3] += 6
    src[:, 3:] -= 6
    src[-1, :3] = src[0, 3:] = 6 * k
    reduced = np.zeros((6 * k, 6 * k + 1))
    reduced[np.arange(6 * k).reshape(k, 6, 1), src[:, None, :]] = \
        spikes[:, _EDGES]
    reduced = reduced[:, :-1] + np.eye(6 * k)
    to_u = np.vstack((np.linalg.inv(reduced), np.zeros(6 * k)))[src.ravel()]

    def solve(f):
        g = inv @ f
        u = to_u @ g[:, _EDGES].reshape(6 * k, -1)
        return g - spikes @ u.reshape(k, 6, -1)

    return solve, k, s


def _steps(w0: np.ndarray, op: np.ndarray, dt: float):
    """Crank-Nicolson for dW/dtbar = op W in steps of `dt`: yields the rows
    of `w0` after 0, 1, 2, ... steps.

    Each row of `w0` is a function of p on the grid of the banded operator
    `op` (see `_pde_operator`); all rows are propagated together.  Each
    yield is a view that the next step overwrites.
    """
    # With L = I - dt/2 op the step L w' = (I + dt/2 op) w = (2I - L) w
    # reads w' = (L/2)^-1 w - w: one solve and no matrix product per step.
    # Halving is exact, so (L/2)^-1 w has the bits of 2 L^-1 w.
    half = -0.25 * dt * op
    half[3] += 0.5
    solve, k, s = _spike_solver(half)
    m, rows = op.shape[1], w0.shape[0]
    flat = np.zeros((k * s, rows))
    flat[:m] = w0.T
    w = flat.reshape(k, s, rows)
    yield flat[:m].T
    while True:
        np.subtract(solve(w), w, out=w)
        # the Dirichlet edge rows, and the padding past them, stay zero
        flat[0] = 0.0
        flat[m - 1:] = 0.0
        yield flat[:m].T


def _split_run(q: np.ndarray, op: np.ndarray, tbar: float, n: int,
               b: int):
    """The rows of `q` after b and after n - b of the n Crank-Nicolson steps
    to `tbar`, from one run of max(b, n - b) steps."""
    steps = _steps(q, op, tbar / n)
    lo, hi = sorted((b, n - b))
    early = next(islice(steps, lo, None)).copy()
    late = next(islice(steps, hi - lo - 1, None)) if hi > lo else early
    return (early, late) if b == lo else (late, early)


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    w = np.full(len(axis), axis[1] - axis[0])
    w[[0, -1]] *= 0.5
    return w


def overlap_pde_batch(state: MotionalState, fps: list[FPParams],
                      grid: GridSpec | None = None,
                      n_steps: int | None = None) -> list[float]:
    """Remain probabilities for several drift/diffusion settings.

    The grid and initial Wigner function are built once; without an explicit
    grid it is sized for the worst-case drift and diffusion in the batch.
    The PDE acts on p only, so with the thin SVD W0 = U S V only the
    momentum factors V are propagated, W(t) = U S V(t), and the trapezoidal
    overlap and mass contract exactly through the small factor matrices.
    Each leg of the Richardson extrapolation (4 P(n) - P(n/2)) / 3, for the
    fine step count n (`n_steps`, even and at least 2; by default
    `_fine_steps`), is one Crank-Nicolson run: the ket is read after b
    steps and the reflected bra after n - b, with b = floor(n/2) at g = 0
    and b = n with damping (see the module docstring).  Crank-Nicolson's
    global error is even in dt, so the combination cancels its dt^2 term.
    The ket and the reflected bra of both legs must keep the mass on the
    grid, and the initial Wigner mass must lie within _MASS_TOL of 1.
    """
    if not fps:
        return []
    if grid is None:
        worst = FPParams(alpha=max(abs(f.alpha) for f in fps),
                         d=max(f.d for f in fps),
                         tbar=max(f.tbar for f in fps),
                         g=0.0)
        grid = default_grid(state, worst)
    x, p = grid.axes()
    wx = _trapezoid_weights(x)
    wp = _trapezoid_weights(p)
    w0 = initial_wigner(state, x, p)
    mass = float(wx @ w0 @ wp)
    if not abs(mass - 1.0) <= _MASS_TOL:
        raise GridUnderflowError(
            f"initial Wigner mass {mass:.8f} is not within {_MASS_TOL:g} of 1;"
            " enlarge or refine the grid")
    # W0 is short and wide (nx << np_): with W0^T = Q R and the SVD
    # R^T = U S Vr of the small factor, W0 = U S V with V = Vr Q^T =
    # S^-1 U^T W0 over the kept rank, so Q is never formed.
    u, s, _ = np.linalg.svd(np.linalg.qr(w0.T, mode="r").T,
                            full_matrices=False)
    rank = int(np.count_nonzero(s > _SVD_RTOL * s[0]))
    u, s = u[:, :rank], s[:rank]
    sv = u.T @ w0
    del w0
    us = u * s
    gram_x = us.T @ (wx[:, None] * us)
    mass_x = wx @ us
    osc_k = _osc_wavenumber(state)

    # v = ket @ q and R v = bra @ q over the orthonormal rows q, from the
    # SVD of the momentum factors S V and their reflections
    c, sq, q = np.linalg.svd(np.vstack((sv, sv[:, ::-1])),
                             full_matrices=False)
    keep = sq > _SVD_RTOL * sq[0]
    c, q = c[:, keep] * sq[keep], q[keep]
    ket, bra = c[:rank] / s[:, None], c[rank:] / s[:, None]

    out = []
    for fp in fps:
        fine = _fine_steps(p, fp, osc_k, n_steps)
        op = _pde_operator(p, fp)
        runs = []
        for n in (fine, fine // 2):
            qb, qa = _split_run(q, op, fp.tbar, n, n if fp.g else n // 2)
            vb, va = ket @ qb, bra @ qa
            mass_t = min(float(mass_x @ (vt @ wp)) for vt in (vb, va))
            if mass_t < 1.0 - 1e-4:
                raise GridUnderflowError(
                    f"propagated Wigner mass {mass_t:.8f} in the {n}-step run"
                    f" (dt = {fp.tbar / n:g}) at alpha = {fp.alpha:g}, d ="
                    f" {fp.d:g}, g = {fp.g:g}, tbar = {fp.tbar:g}: the state"
                    " left the grid, or the step is too coarse for it")
            runs.append(np.sum(gram_x * ((va[:, ::-1] * wp) @ vb.T)))
        out.append(float(2.0 * math.pi * (4.0 * runs[0] - runs[1]) / 3.0))
    return out
