"""Grid propagation cross-checks: the Crank-Nicolson route shares nothing
with the closed-form and characteristic-function overlap evaluations."""

import math

import numpy as np
import pytest
from scipy.sparse import diags, identity
from scipy.sparse.linalg import splu

from recoilspec import (CatState, ConfigError, FPParams, FockSuperposition,
                        GaussianState, GridUnderflowError, overlap_after,
                        overlap_pde, overlap_pde_batch)
from recoilspec.pdeoracle import (GridSpec, _crank_nicolson, _osc_wavenumber,
                                  _pde_operator, default_grid, initial_wigner,
                                  propagate)


def test_vacuum_point():
    fp = FPParams(alpha=1.0, d=0.1, tbar=1.0)
    vac = GaussianState.vacuum()
    assert overlap_pde(vac, fp) == pytest.approx(overlap_after(vac, fp), abs=1e-4)


def test_squeezed_point():
    fp = FPParams(alpha=0.8, d=0.15, tbar=1.0)
    sq = GaussianState.squeezed(1.44)
    assert overlap_pde(sq, fp) == pytest.approx(overlap_after(sq, fp), abs=1e-4)


def test_cat_reference_point():
    cat = CatState(2.0)
    fp = FPParams(alpha=0.5, d=0.05, tbar=1.0)
    assert overlap_pde(cat, fp) == pytest.approx(
        overlap_after(cat, fp), abs=1e-4)


def test_fock_superposition_reference_point():
    f24 = FockSuperposition.from_dict({2: 0.5, 4: math.sqrt(3) / 2})
    fp = FPParams(alpha=0.3, d=0.03, tbar=1.0)
    assert overlap_pde(f24, fp) == pytest.approx(
        overlap_after(f24, fp), abs=1e-4)


def test_cat_small_diffusion_edge_batch():
    """The grid is sized for (1.1, 0.3); at (0.9, 0) the fringes need the
    finer time step to meet the oracle tolerance."""
    cat = CatState(2.0)
    fps = [FPParams(alpha=1.1, d=0.3, tbar=1.0),
           FPParams(alpha=0.9, d=0.0, tbar=1.0)]
    for fp, got in zip(fps, overlap_pde_batch(cat, fps)):
        assert got == pytest.approx(overlap_after(cat, fp), abs=1e-4)


def test_fock_superposition_diffusion_free_batch():
    """Diffusion-free settings up to alpha = 2 in a grid sized for
    (2, 0.3), as in acceptance criterion 5."""
    f24 = FockSuperposition.from_dict({2: 0.5, 4: math.sqrt(3) / 2})
    fps = [FPParams(alpha=a, d=0.0, tbar=1.0) for a in (1.0, 1.5, 2.0)]
    fps.append(FPParams(alpha=2.0, d=0.3, tbar=1.0))
    for fp, got in zip(fps, overlap_pde_batch(f24, fps)):
        assert got == pytest.approx(overlap_after(f24, fp), abs=1e-4)


def test_damped_gaussian_point():
    sq = GaussianState.squeezed(0.7)
    fp = FPParams(alpha=0.8, d=0.2, tbar=1.0, g=0.05)
    assert overlap_pde(sq, fp) == pytest.approx(
        overlap_after(sq, fp), abs=1e-4)


def test_zero_time_returns_unity():
    fp = FPParams(alpha=1.5, d=0.2, tbar=0.0)
    assert overlap_pde(GaussianState.vacuum(), fp) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("n_steps", [0, -3, 3, 2.5])
def test_bad_step_count_is_rejected(n_steps):
    with pytest.raises(ConfigError, match="n_steps"):
        overlap_pde(GaussianState.vacuum(),
                    FPParams(alpha=1.0, d=0.1, tbar=1.0), n_steps=n_steps)


def test_two_steps_is_the_smallest_step_count():
    """One fine run of two steps and one coarse run of one step."""
    fp = FPParams(alpha=1.0, d=0.1, tbar=1.0)
    vac = GaussianState.vacuum()
    assert overlap_pde(vac, fp, n_steps=2) == pytest.approx(
        overlap_after(vac, fp), abs=1e-2)


def test_undersized_grid_is_rejected():
    grid = GridSpec(half_width_x=1.0, half_width_p=1.0, nx=41, np_=41)
    with pytest.raises(GridUnderflowError):
        overlap_pde(GaussianState.squeezed(1.44),
                    FPParams(alpha=0.5, d=0.05, tbar=1.0), grid=grid)


def test_wigner_normalization_all_families():
    x = np.linspace(-12, 12, 301)
    p = np.linspace(-12, 12, 601)
    for state in [GaussianState.vacuum(), GaussianState.squeezed(1.0),
                  CatState(1.5), FockSuperposition.fock(3)]:
        w = initial_wigner(state, x, p)
        mass = np.trapezoid(np.trapezoid(w, p, axis=1), x)
        assert mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("state, min_rank", [
    (GaussianState.vacuum(), 1),
    (GaussianState.squeezed(1.44), 1),
    (CatState(2.0), 2),
    (FockSuperposition.fock(2), 3),
    (GaussianState.squeezed(0.5, phase=math.pi / 5), 2),
], ids=["vacuum", "squeezed", "cat", "fock2", "rotated-squeezed"])
def test_low_rank_batch_matches_full_column_propagation(state, min_rank):
    """Propagating the SVD momentum factors and contracting them gives the
    overlap of propagating every x column of the Wigner matrix."""
    fps = [FPParams(alpha=0.4, d=0.1, tbar=1.0),
           FPParams(alpha=0.3, d=0.0, tbar=1.0, g=0.05)]
    x, p = default_grid(state, FPParams(alpha=0.4, d=0.1, tbar=1.0)).axes()
    w0 = initial_wigner(state, x, p)
    sv = np.linalg.svd(w0, compute_uv=False)
    assert np.count_nonzero(sv > 1e-13 * sv[0]) >= min_rank
    full = []
    for fp in fps:
        wt = propagate(w0, p, fp, osc_k=_osc_wavenumber(state))
        full.append(2.0 * math.pi * np.trapezoid(
            np.trapezoid(w0 * wt, dx=p[1] - p[0], axis=1), dx=x[1] - x[0]))
    assert overlap_pde_batch(state, fps) == pytest.approx(full, rel=0,
                                                          abs=1e-12)


def _sparse_operator(p, fp):
    """`_pde_operator` as a scipy sparse matrix, from its seven bands."""
    bands = _pde_operator(p, fp)
    m = len(p)
    return diags([bands[3 + o, max(-o, 0):m - max(o, 0)]
                  for o in range(-3, 4)], range(-3, 4), format="csc")


def _propagate_with_explicit_rhs(w0, p, fp, n_steps):
    """The Crank-Nicolson loop with (I + dt/2 op) built and applied."""
    dt = fp.tbar / n_steps
    op = _sparse_operator(p, fp)
    ident = identity(len(p), format="csc")
    lhs = splu(ident - 0.5 * dt * op)
    rhs = (ident + 0.5 * dt * op).tocsr()
    w = w0.T.copy()
    for _ in range(n_steps):
        w = lhs.solve(rhs @ w)
        w[0, :] = 0.0
        w[-1, :] = 0.0
    return w.T


@pytest.mark.parametrize("state", [CatState(2.0), FockSuperposition.fock(2)],
                         ids=["cat", "fock2"])
@pytest.mark.parametrize("alpha, d", [(0.5, 0.05), (1.5, 0.0)])
def test_step_equals_the_explicit_right_hand_side(state, alpha, d):
    """w' = 2 L^-1 w - w is the step L w' = (I + dt/2 op) w, L = I - dt/2 op,
    on the SVD momentum factors that overlap_pde_batch propagates, and
    propagate extrapolates the runs of n and n/2 such steps."""
    fp = FPParams(alpha=alpha, d=d, tbar=1.0)
    x, p = default_grid(state, fp).axes()
    u, s, v = np.linalg.svd(initial_wigner(state, x, p), full_matrices=False)
    v = v[s > 1e-13 * s[0]]
    got = propagate(v, p, fp, n_steps=200)
    want = (4.0 * _propagate_with_explicit_rhs(v, p, fp, n_steps=200)
            - _propagate_with_explicit_rhs(v, p, fp, n_steps=100)) / 3.0
    assert np.max(np.abs(got)) > 1e-2
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _splu_crank_nicolson(w0, p, fp, n_steps):
    """`_crank_nicolson` with the step w' = 2 L^-1 w - w solved by SuperLU,
    the solver the banded SPIKE solve replaced."""
    dt = fp.tbar / n_steps
    lhs = splu(identity(len(p), format="csc")
               - 0.5 * dt * _sparse_operator(p, fp), permc_spec="NATURAL")
    w = w0.T.copy()
    for _ in range(n_steps):
        w = 2.0 * lhs.solve(w) - w
        w[0, :] = 0.0
        w[-1, :] = 0.0
    return w.T


@pytest.mark.parametrize("state, fp", [
    (CatState(2.0), FPParams(alpha=1.1, d=0.3, tbar=1.0)),
    (FockSuperposition.fock(2), FPParams(alpha=0.9, d=0.1, tbar=1.0)),
    (GaussianState.squeezed(0.7), FPParams(alpha=0.3, d=0.1, tbar=1.0,
                                           g=0.05)),
], ids=["cat", "fock2", "damped"])
def test_banded_solve_matches_superlu(state, fp):
    """The partitioned solve gives SuperLU's Crank-Nicolson run on the
    default grids (1645, 477 and 313 rows; the cat's spans 26 blocks, and
    the damped grid's blocks all differ)."""
    x, p = default_grid(state, fp).axes()
    u, s, v = np.linalg.svd(initial_wigner(state, x, p), full_matrices=False)
    v = v[s > 1e-13 * s[0]]
    n = 60
    got = _crank_nicolson(v, _pde_operator(p, fp), fp.tbar, n)
    want = _splu_crank_nicolson(v, p, fp, n)
    assert np.max(np.abs(want)) > 1e-2
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-11 * np.max(np.abs(want)))


def test_check_sees_both_runs_before_they_are_combined():
    fp = FPParams(alpha=1.0, d=0.1, tbar=1.0)
    x, p = default_grid(GaussianState.vacuum(), fp).axes()
    w0 = initial_wigner(GaussianState.vacuum(), x[::8], p)
    seen = []
    got = propagate(w0, p, fp, n_steps=40, check=seen.append)
    assert [run.shape for run in seen] == [w0.shape, w0.shape]
    np.testing.assert_allclose(got, (4.0 * seen[0] - seen[1]) / 3.0,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        seen[1], _crank_nicolson(w0, _pde_operator(p, fp), fp.tbar, 20),
        rtol=0, atol=1e-15)


def _factor_overlap(state, fp, run):
    """Remain probability, contracted as in overlap_pde_batch, after `run`
    maps the SVD momentum factors of the initial Wigner matrix to time
    fp.tbar on overlap_pde's default grid."""
    x, p = default_grid(state, fp).axes()
    dx, dp = x[1] - x[0], p[1] - p[0]
    u, s, v = np.linalg.svd(initial_wigner(state, x, p), full_matrices=False)
    keep = s > 1e-13 * s[0]
    us, v = u[:, keep] * s[keep], v[keep]
    vt = run(v, p)
    gram_x = np.trapezoid(us[:, :, None] * us[:, None, :], dx=dx, axis=0)
    gram_p = np.trapezoid(v[:, None, :] * vt[None, :, :], dx=dp, axis=2)
    return 2.0 * math.pi * np.sum(gram_x * gram_p)


ORDER_STATES = [GaussianState.vacuum(), GaussianState.squeezed(1.44),
                CatState(2.0), FockSuperposition.fock(2)]
ORDER_IDS = ["vacuum", "squeezed", "cat", "fock2"]


@pytest.mark.parametrize("state", ORDER_STATES, ids=ORDER_IDS)
@pytest.mark.parametrize("alpha, d", [(1.1, 0.3), (0.5, 0.1)])
def test_plain_crank_nicolson_is_second_order(state, alpha, d):
    """(P_N - P_N/2) / (P_N/2 - P_N/4) = 1/4 for an error even in dt with a
    leading dt^2 term, which the extrapolation in propagate cancels."""
    fp = FPParams(alpha=alpha, d=d, tbar=1.0)
    p_n = [_factor_overlap(
        state, fp, lambda v, p, n=n: _crank_nicolson(
            v, _pde_operator(p, fp), fp.tbar, n)) for n in (400, 200, 100)]
    ratio = (p_n[0] - p_n[1]) / (p_n[1] - p_n[2])
    assert ratio == pytest.approx(0.25, abs=0.02)


def _plain_default_steps(p, fp, osc_k):
    """The step rule of the unextrapolated oracle."""
    adv = abs(fp.alpha) + abs(fp.g) * float(np.max(np.abs(p)))
    dt = min(0.02, 12.0 * (p[1] - p[0]) / adv)
    if osc_k > 0.0:
        dt = min(dt, 1.0 / (60.0 * osc_k * adv))
    return max(100, math.ceil(fp.tbar / dt))


@pytest.mark.parametrize("state, alpha", [
    (CatState(2.0), 0.9), (CatState(2.0), 2.0),
    (GaussianState.squeezed(1.44), 0.5), (FockSuperposition.fock(2), 2.0),
], ids=["cat-0.9", "cat-2.0", "squeezed-0.5", "fock2-2.0"])
def test_extrapolation_beats_plain_crank_nicolson(state, alpha):
    """At the diffusion-free points where plain Crank-Nicolson at its own
    default step errs most, the extrapolated default errs less."""
    fp = FPParams(alpha=alpha, d=0.0, tbar=1.0)
    want = overlap_after(state, fp)
    osc_k = _osc_wavenumber(state)
    plain = _factor_overlap(state, fp, lambda v, p: _crank_nicolson(
        v, _pde_operator(p, fp), fp.tbar, _plain_default_steps(p, fp, osc_k)))
    assert abs(overlap_pde(state, fp) - want) < abs(plain - want)


@pytest.mark.parametrize("kwargs", [
    dict(half_width_x=math.nan), dict(half_width_x=math.inf),
    dict(half_width_p=0.0), dict(half_width_p=-6.0),
    dict(nx=0), dict(nx=1), dict(nx=41.0), dict(np_=3), dict(np_=5),
    dict(np_=6), dict(np_=True),
], ids=lambda kw: ",".join(f"{k}={v!r}" for k, v in kw.items()))
def test_bad_grid_is_a_config_error(kwargs):
    """Non-finite or non-positive half-widths, fewer than two x points and
    fewer than the seven p points of the stencil are rejected."""
    spec = dict(half_width_x=6.0, half_width_p=6.0, nx=41, np_=41)
    spec.update(kwargs)
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        GridSpec(**spec)


def test_smallest_grid_is_accepted():
    x, p = GridSpec(6.0, 6.0, 2, 7).axes()
    assert (len(x), len(p)) == (2, 7)


@pytest.mark.parametrize("np_", [7, 9, 15])
def test_coarse_grid_with_excess_mass_is_rejected(np_):
    """A p grid too coarse for the vacuum puts trapezoid mass above 1
    (1.17 at 7 points); the mass check is two-sided."""
    grid = GridSpec(half_width_x=6.0, half_width_p=6.0, nx=41, np_=np_)
    with pytest.raises(GridUnderflowError, match="initial Wigner mass 1"):
        overlap_pde(GaussianState.vacuum(),
                    FPParams(alpha=0.5, d=0.1, tbar=1.0), grid=grid)


@pytest.mark.parametrize("beta", [0.0, 0.7, 2.0, 3.5])
def test_cat_wigner_equals_the_grid_formula(beta):
    """The 1-D factor form of wigner_cat is the three-exponential formula."""
    cat = CatState(beta)
    x, p = default_grid(cat, FPParams(alpha=1.1, d=0.3, tbar=1.0)).axes()
    xx, pp = np.meshgrid(x, p, indexing="ij")
    s = math.sqrt(2.0) * beta
    want = (cat.normalization**2 / math.pi) * (
        np.exp(-(xx - s) ** 2 - pp**2) + np.exp(-(xx + s) ** 2 - pp**2)
        + 2.0 * np.exp(-xx**2 - pp**2) * np.cos(2.0 * s * pp))
    got = initial_wigner(cat, x, p)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("alpha, d, g", [(0.7, 0.3, 0.05), (-1.2, 0.05, -0.2)])
def test_stencil_is_sixth_order(alpha, d, g):
    """On the rows away from the boundary, halving h divides the error of
    the operator on a smooth function by 2^6."""
    fp = FPParams(alpha=alpha, d=d, tbar=1.0, g=g)
    errors = []
    for m in (161, 321):
        p = np.linspace(-8.0, 8.0, m)
        z = (p - 0.3) / 0.9
        f = np.exp(-0.5 * z**2)
        df = -z / 0.9 * f
        d2f = (z**2 - 1.0) / 0.81 * f
        want = alpha * df + 0.5 * d * d2f + g * (f + p * df)
        got = _sparse_operator(p, fp) @ f
        errors.append(np.max(np.abs(got - want)[3:-3]))
    assert errors[0] / errors[1] == pytest.approx(64.0, rel=0.1)


# Worst |dP| against overlap_after on the (alpha, d) corners of acceptance
# criterion 5's grid, a little above the oracle's errors there (1.7e-7 to
# 1.3e-6): a silent loss of accuracy fails, criterion 5's 1e-4 does not.
@pytest.mark.parametrize("state, bound", [
    (GaussianState.vacuum(), 5e-7),
    (GaussianState.squeezed(1.44), 2e-7),
    (CatState(2.0), 1.5e-6),
    (FockSuperposition.fock(2), 2e-7),
    (FockSuperposition.from_dict({2: 0.5, 4: math.sqrt(3) / 2}), 1e-6),
    (GaussianState.squeezed(0.5, phase=math.pi / 5), 1.3e-7),
], ids=["vacuum", "squeezed", "cat", "fock2", "fock24", "rotated-squeezed"])
def test_accuracy_on_the_criterion_5_corners(state, bound):
    fps = [FPParams(alpha=a, d=d, tbar=1.0) for a in (0.0, 2.0)
           for d in (0.0, 0.3)]
    worst = max(abs(got - overlap_after(state, fp))
                for fp, got in zip(fps, overlap_pde_batch(state, fps)))
    assert worst <= bound
