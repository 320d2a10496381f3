"""Grid propagation cross-checks: the Crank-Nicolson route shares nothing
with the closed-form and characteristic-function overlap evaluations."""

import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from scipy.sparse import diags, identity
from scipy.sparse.linalg import splu
from scipy.special import eval_genlaguerre

from recoilspec import (CatState, ConfigError, FPParams, FockSuperposition,
                        GaussianState, GridUnderflowError, overlap_after,
                        overlap_pde_batch)
from recoilspec import pdeoracle
from recoilspec.pdeoracle import (GridSpec, _EDGES, _fine_steps,
                                  _fock_wavefunction, _osc_wavenumber,
                                  _pde_operator, _spike_solver, _y_axis,
                                  default_grid, initial_wigner, wigner_fock,
                                  wigner_gaussian)


def _crank_nicolson(w0, op, tbar, n_steps):
    """Plain Crank-Nicolson: the rows of `w0` after n_steps steps of
    `pdeoracle._steps` to `tbar`."""
    return next(islice(pdeoracle._steps(w0, op, tbar / n_steps), n_steps,
                       None))


def _richardson(w0, p, fp, n_steps=None, osc_k=0.0):
    """The full-time fields (4 CN(n) - CN(n/2)) / 3 for the fine step count
    n of overlap_pde_batch (`n_steps`, or by default `_fine_steps`)."""
    n = _fine_steps(p, fp, osc_k, n_steps)
    op = _pde_operator(p, fp)
    return (4.0 * _crank_nicolson(w0, op, fp.tbar, n)
            - _crank_nicolson(w0, op, fp.tbar, n // 2)) / 3.0


def test_vacuum_point():
    fp = FPParams(alpha=1.0, d=0.1, tbar=1.0)
    vac = GaussianState.vacuum()
    assert overlap_pde_batch(vac, [fp])[0] == pytest.approx(
        overlap_after(vac, fp), abs=1e-4)


def test_squeezed_point():
    fp = FPParams(alpha=0.8, d=0.15, tbar=1.0)
    sq = GaussianState.squeezed(1.44)
    assert overlap_pde_batch(sq, [fp])[0] == pytest.approx(
        overlap_after(sq, fp), abs=1e-4)


def test_cat_reference_point():
    cat = CatState(2.0)
    fp = FPParams(alpha=0.5, d=0.05, tbar=1.0)
    assert overlap_pde_batch(cat, [fp])[0] == pytest.approx(
        overlap_after(cat, fp), abs=1e-4)


def test_fock_superposition_reference_point():
    f24 = FockSuperposition.from_dict({2: 0.5, 4: math.sqrt(3) / 2})
    fp = FPParams(alpha=0.3, d=0.03, tbar=1.0)
    assert overlap_pde_batch(f24, [fp])[0] == pytest.approx(
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
    assert overlap_pde_batch(sq, [fp])[0] == pytest.approx(
        overlap_after(sq, fp), abs=1e-4)


def test_zero_time_returns_unity():
    fp = FPParams(alpha=1.5, d=0.2, tbar=0.0)
    assert overlap_pde_batch(GaussianState.vacuum(), [fp])[0] == pytest.approx(
        1.0, abs=1e-6)


@pytest.mark.parametrize("n_steps", [0, -3, 3, 2.5])
def test_bad_step_count_is_rejected(n_steps):
    with pytest.raises(ConfigError, match="n_steps"):
        overlap_pde_batch(GaussianState.vacuum(),
                          [FPParams(alpha=1.0, d=0.1, tbar=1.0)],
                          n_steps=n_steps)


def test_two_steps_is_the_smallest_step_count():
    """One fine run of two steps and one coarse run of one step."""
    fp = FPParams(alpha=1.0, d=0.1, tbar=1.0)
    vac = GaussianState.vacuum()
    assert overlap_pde_batch(vac, [fp], n_steps=2)[0] == pytest.approx(
        overlap_after(vac, fp), abs=1e-2)


def test_undersized_grid_is_rejected():
    grid = GridSpec(half_width_x=1.0, half_width_p=1.0, nx=41, np_=41)
    with pytest.raises(GridUnderflowError):
        overlap_pde_batch(GaussianState.squeezed(1.44),
                          [FPParams(alpha=0.5, d=0.05, tbar=1.0)], grid=grid)


def test_one_coarse_step_is_named_with_its_setting():
    """The state stays on the grid, but the coarse run's single step of
    dt = 1 leaks a dispersive tail to the edge: the message names the run,
    the setting and both causes."""
    with pytest.raises(GridUnderflowError, match=(
            r"propagated Wigner mass 0\.99816368 in the 1-step run"
            r" \(dt = 1\) at alpha = 2, d = 0, g = 0, tbar = 1: the state"
            r" left the grid, or the step is too coarse for it")):
        overlap_pde_batch(GaussianState.vacuum(),
                          [FPParams(alpha=2.0, d=0.0, tbar=1.0)], n_steps=2)


def test_state_that_drifts_off_the_grid_is_rejected():
    # the initial vacuum fits the p grid, but a drift of 8 carries it past
    # the edge at 6
    with pytest.raises(GridUnderflowError,
                       match="propagated Wigner mass .*state left the grid"):
        overlap_pde_batch(GaussianState.vacuum(),
                          [FPParams(alpha=8.0, d=0.0, tbar=1.0)],
                          grid=GridSpec(8.0, 6.0, 81, 601))


def test_guard_checks_the_half_time_states_the_overlap_is_built_from():
    """A drift of 5 carries the full-time vacuum to the edge at 6, but the
    ket and the reflected bra of the g = 0 route sit at +-2.5."""
    fp = FPParams(alpha=5.0, d=0.0, tbar=1.0)
    vac = GaussianState.vacuum()
    got, = overlap_pde_batch(vac, [fp], grid=GridSpec(8.0, 6.0, 81, 601))
    assert got == pytest.approx(overlap_after(vac, fp), abs=1e-4)


def test_guard_sees_the_full_time_ket_of_both_damped_runs():
    """With damping the ket takes all n steps, and the guard checks it in
    each run before the two are combined: the fine run's ket at -5 leaves
    the edge at 6 where the g = 0 half-time states pass, and with two steps
    the coarse run's single step of dt = 1 leaks as at g = 0."""
    vac = GaussianState.vacuum()
    for g in (0.05, 2e-3, -2e-3):
        with pytest.raises(GridUnderflowError, match=(
                r"mass 0\.9\d+ in the 50-step run \(dt = 0\.02\) at"
                rf" alpha = 5, d = 0, g = {g:g}, tbar = 1: the state left")):
            overlap_pde_batch(
                vac, [FPParams(alpha=5.0, d=0.0, tbar=1.0, g=g)],
                grid=GridSpec(8.0, 6.0, 81, 601))
        with pytest.raises(GridUnderflowError, match=(
                r"mass 0\.99\d+ in the 1-step run \(dt = 1\) at alpha = 2,"
                rf" d = 0, g = {g:g}, tbar = 1: the state left the grid")):
            overlap_pde_batch(
                vac, [FPParams(alpha=2.0, d=0.0, tbar=1.0, g=g)], n_steps=2)


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
        wt = _richardson(w0, p, fp, osc_k=_osc_wavenumber(state))
        full.append(2.0 * math.pi * np.trapezoid(
            np.trapezoid(w0 * wt, dx=p[1] - p[0], axis=1), dx=x[1] - x[0]))
    assert overlap_pde_batch(state, fps) == pytest.approx(full, rel=0,
                                                          abs=1e-12)


def _full_field_batch(state, fps, grid, n_steps):
    """overlap_pde_batch by the full-field route: the momentum factors
    extrapolated to the full time by `_richardson`, then contracted."""
    x, p = grid.axes()
    wx, wp = pdeoracle._trapezoid_weights(x), pdeoracle._trapezoid_weights(p)
    u, s, v = np.linalg.svd(initial_wigner(state, x, p), full_matrices=False)
    keep = s > 1e-13 * s[0]
    us, v = u[:, keep] * s[keep], v[keep]
    gram_x = us.T @ (wx[:, None] * us)
    return [2.0 * math.pi * np.sum(gram_x * ((v * wp) @ _richardson(
        v, p, fp, n_steps=n_steps, osc_k=_osc_wavenumber(state)).T))
        for fp in fps]


# the oracle-check families on its default (alpha, d) grid, then states
# whose Wigner function is not even in p; every case adds damped settings
_DAMPED = [FPParams(alpha=0.4, d=0.1, tbar=1.0, g=0.05),
           FPParams(alpha=1.0, d=0.3, tbar=1.0, g=2e-3),
           FPParams(alpha=-1.3, d=0.0, tbar=1.0, g=-2e-3)]
_ORACLE_CHECK = [FPParams(alpha=a, d=d, tbar=1.0) for a in (0.0, 1.0, 2.0)
                 for d in (0.0, 0.3)] + _DAMPED
_SPLIT = [FPParams(alpha=0.4, d=0.1, tbar=1.0),
          FPParams(alpha=-1.3, d=0.0, tbar=1.0)] + _DAMPED
REFLECTION_CASES = [
    (GaussianState.vacuum(), _ORACLE_CHECK),
    (GaussianState.squeezed(1.44), _ORACLE_CHECK),
    (CatState(2.0), _ORACLE_CHECK),
    (FockSuperposition.fock(2), _ORACLE_CHECK),
    (FockSuperposition.from_dict({0: 1 / math.sqrt(2), 1: 1j / math.sqrt(2)}),
     _SPLIT),
    (GaussianState([0.3, -1.0], GaussianState.vacuum().cov), _SPLIT),
    (GaussianState.squeezed(0.5, phase=math.pi / 5), _SPLIT),
]
REFLECTION_IDS = ["vacuum", "squeezed", "cat", "fock2", "fock0+i1",
                  "displaced", "rotated-squeezed"]


@pytest.mark.parametrize("n_steps", [None, 2, 6, 40])
@pytest.mark.parametrize("state, fps", REFLECTION_CASES, ids=REFLECTION_IDS)
def test_reflected_half_runs_equal_the_full_field_contraction(state, fps,
                                                              n_steps):
    """At g = 0, <v, W M^n v> = <R M^(n-b) R v, W M^b v> (b = floor(n/2))
    gives the overlap of the full-time fields, also for the odd coarse runs
    of 3 and 1 steps and for states that are not even in p.  With damping
    (b = n) the ket takes all n steps and the bra, R v at step 0, reflects
    back to v.  The grid is the default one for the whole list; one step of
    dt = 1 leaks more than 1e-4 of the mass at alpha = 2 on either route,
    so the two-step runs leave those settings out."""
    grid = default_grid(state, FPParams(
        alpha=max(abs(f.alpha) for f in fps), d=max(f.d for f in fps),
        tbar=1.0))
    if n_steps == 2:
        fps = [f for f in fps if abs(f.alpha) < 2.0]
    got = overlap_pde_batch(state, fps, grid=grid, n_steps=n_steps)
    want = _full_field_batch(state, fps, grid, n_steps)
    assert got == pytest.approx(want, rel=0, abs=1e-13)


@pytest.mark.parametrize("state", [
    GaussianState.vacuum(), GaussianState.squeezed(1.44), CatState(2.0),
    FockSuperposition.fock(2),
    FockSuperposition.from_dict({0: 1 / math.sqrt(2), 1: 1j / math.sqrt(2)}),
], ids=["vacuum", "squeezed", "cat", "fock2", "fock0+i1"])
def test_p_even_states_propagate_only_their_rank(state, monkeypatch):
    """A p-even Wigner function spans its own reflection, so the basis of
    span{v, R v} keeps the rank (1, 1, 2, 3); (|0> + i|1>)/sqrt 2 is not
    p-even and propagates more rows."""
    fp = FPParams(alpha=1.1, d=0.3, tbar=1.0)
    x, p = default_grid(state, fp).axes()
    w0 = initial_wigner(state, x, p)
    sv = np.linalg.svd(w0, compute_uv=False)
    rank = np.count_nonzero(sv > 1e-13 * sv[0])
    rows = []
    steps = pdeoracle._steps

    def record(w0, op, dt):
        rows.append(w0.shape[0])
        return steps(w0, op, dt)

    monkeypatch.setattr(pdeoracle, "_steps", record)
    overlap_pde_batch(state, [fp])
    assert len(rows) == 2
    even = np.max(np.abs(w0 - w0[:, ::-1])) < 1e-12
    assert rows == [rank, rank] if even else min(rows) > rank


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
    the runs of n and n/2 such steps extrapolate as (4 CN(n) - CN(n/2))
    / 3."""
    fp = FPParams(alpha=alpha, d=d, tbar=1.0)
    x, p = default_grid(state, fp).axes()
    u, s, v = np.linalg.svd(initial_wigner(state, x, p), full_matrices=False)
    v = v[s > 1e-13 * s[0]]
    got = _richardson(v, p, fp, n_steps=200)
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


def _factor_overlap(state, fp, run):
    """Remain probability, contracted as in overlap_pde_batch, after `run`
    maps the SVD momentum factors of the initial Wigner matrix to time
    fp.tbar on overlap_pde_batch's default grid."""
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
    leading dt^2 term, which overlap_pde_batch's extrapolation cancels."""
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
    assert abs(overlap_pde_batch(state, [fp])[0] - want) < abs(plain - want)


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
        overlap_pde_batch(GaussianState.vacuum(),
                          [FPParams(alpha=0.5, d=0.1, tbar=1.0)], grid=grid)


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


def _complex_kernel_wigner_fock(f, x, p):
    """W = (1/pi) sum over the whole y grid of h(x, y) e^{-2ipy} dy, with the
    full complex ny x np kernel."""
    y = _y_axis(f)
    dy = y[1] - y[0]
    psi_plus = _fock_wavefunction(f.coeffs, x[:, None] + y[None, :])
    psi_minus = _fock_wavefunction(f.coeffs, x[:, None] - y[None, :])
    kernel = np.exp(-2j * np.outer(y, p))
    return np.real((psi_plus * np.conj(psi_minus)) @ kernel * (dy / math.pi))


@pytest.mark.parametrize("state", [
    FockSuperposition.fock(2),
    FockSuperposition.from_dict({2: 0.5, 4: math.sqrt(3) / 2}),
    FockSuperposition.from_dict({0: 1 / math.sqrt(2), 1: 1j / math.sqrt(2)}),
], ids=["fock2", "fock24", "fock0+i1"])
def test_half_grid_fock_wigner_equals_the_complex_kernel(state):
    """Pairing y with -y, where h(x, -y) = conj h(x, y), gives the
    complex-kernel integral over the whole y grid."""
    x, p = default_grid(state, FPParams(alpha=1.1, d=0.3, tbar=1.0)).axes()
    want = _complex_kernel_wigner_fock(state, x, p)
    got = wigner_fock(state, x, p)
    assert np.max(np.abs(want)) > 0.1
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def _half_grid_wigner_fock_with_sine(f, x, p):
    """wigner_fock's half-grid sum with the sine term always taken."""
    y = _y_axis(f)
    weight = 2.0 * (y[1] - y[0]) / math.pi
    y = y[len(y) // 2:]
    h = _fock_wavefunction(f.coeffs, x[:, None] + y)
    h *= np.conj(_fock_wavefunction(f.coeffs, x[:, None] - y))
    h *= weight
    arg = np.multiply.outer(2.0 * y, p)
    return h.real @ np.cos(arg) + h.imag @ np.sin(arg)


@pytest.mark.parametrize("state, real", [
    (FockSuperposition.fock(2), True),
    (FockSuperposition.from_dict({2: 0.5, 4: math.sqrt(3) / 2}), True),
    (FockSuperposition.from_dict({0: 1 / math.sqrt(2),
                                  1: 1j / math.sqrt(2)}), False),
], ids=["fock2", "fock24", "fock0+i1"])
def test_fock_wigner_skips_the_sine_term_only_where_it_is_zero(state, real):
    x, p = default_grid(state, FPParams(alpha=1.1, d=0.3, tbar=1.0)).axes()
    got = wigner_fock(state, x, p)
    assert np.array_equal(got, _half_grid_wigner_fock_with_sine(state, x, p))
    # the p grid is symmetric up to rounding; the sine term is the part of
    # W odd in p
    odd = np.max(np.abs(got - got[:, ::-1]))
    assert np.allclose(p, -p[::-1], rtol=0, atol=1e-12)
    assert odd < 1e-12 if real else odd > 0.1


@pytest.mark.parametrize("n", [2, 10, 20, 64])
def test_fock_wigner_matches_the_laguerre_closed_form(n):
    """W_n = (-1)^n / pi e^{-r^2} L_n(2 r^2): the y grid reaches past the
    turning point sqrt(2n + 1) of every level."""
    x = np.linspace(-12.0, 12.0, 241)
    r2 = x[:, None] ** 2 + x**2
    want = (-1) ** n / math.pi * np.exp(-r2) * eval_genlaguerre(n, 0, 2 * r2)
    got = wigner_fock(FockSuperposition.fock(n), x, x)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_fock_y_grid_keeps_its_base_nodes_up_to_fock_2():
    for n in (0, 1, 2):
        y = _y_axis(FockSuperposition.fock(n))
        assert np.array_equal(y, np.linspace(-6.0, 6.0, 512))
    y = _y_axis(FockSuperposition.fock(64))
    assert len(y) % 2 == 0 and y[-1] >= math.sqrt(129.0) + 3.76
    assert y[1] - y[0] == pytest.approx(12.0 / 511, rel=1e-12)


@pytest.mark.parametrize("n", [20, 40])
def test_high_fock_levels_match_production(n):
    state = FockSuperposition.fock(n)
    fp = FPParams(alpha=0.2, d=0.02, tbar=1.0)
    assert overlap_pde_batch(state, [fp])[0] == pytest.approx(
        overlap_after(state, fp), abs=1e-4)


def test_broadcast_gaussian_wigner_equals_the_meshgrid_formula():
    sq = GaussianState.squeezed(0.6, phase=math.pi / 5)
    state = GaussianState([0.7, -1.3], sq.cov)
    x, p = default_grid(state, FPParams(alpha=1.1, d=0.3, tbar=1.0)).axes()
    xx, pp = np.meshgrid(x, p, indexing="ij")
    dv = np.stack([xx - state.mean[0], pp - state.mean[1]], axis=-1)
    quad = np.einsum("...i,ij,...j->...", dv, np.linalg.inv(state.cov), dv)
    want = np.exp(-0.5 * quad) / (
        2.0 * math.pi * math.sqrt(np.linalg.det(state.cov)))
    np.testing.assert_allclose(wigner_gaussian(state, x, p), want, rtol=0,
                               atol=1e-15 * np.max(want))


def _dense(bands):
    """The matrix with L[i, i + o] = bands[3 + o, i]."""
    m = bands.shape[1]
    dense = np.zeros((m, m))
    for o in range(-3, 4):
        rows = np.arange(max(-o, 0), m - max(o, 0))
        dense[rows, rows + o] = bands[3 + o, rows]
    return dense


@pytest.mark.parametrize("m, g", [(41, 0.0), (192, 0.0), (300, 0.05)],
                         ids=["one-block", "no-padding", "distinct-blocks"])
def test_spike_solve_equals_the_dense_solve(m, g):
    fp = FPParams(alpha=0.8, d=0.2, tbar=1.0, g=g)
    half = -0.25 * 0.05 * _pde_operator(np.linspace(-9.0, 9.0, m), fp)
    half[3] += 0.5
    solve, k, s = _spike_solver(half)
    rhs = np.random.default_rng(3).standard_normal((m, 2))
    f = np.zeros((k * s, 2))
    f[:m] = rhs
    got = solve(f.reshape(k, s, 2)).reshape(k * s, 2)
    want = np.linalg.solve(_dense(half), rhs)
    np.testing.assert_allclose(got[:m], want, rtol=0, atol=1e-13)
    np.testing.assert_allclose(got[m:], 0.0, rtol=0, atol=1e-13)


def _scatter_spike_solver(bands):
    """`_spike_solver` with its blocks scattered from (row, column, value)
    triplets of every band entry, every block's inverse and spikes taken
    from the full stack: the set-up before the blocks were built from the
    band columns of each run of equal blocks."""
    m = bands.shape[1]
    s = min(pdeoracle._BLOCK, m)
    k = -(-m // s)
    n = k * s
    pad = np.zeros((7, n))
    pad[:, :m] = bands
    pad[3, m:] = 1.0
    row = np.tile(np.arange(n), 7)
    col = row + np.repeat(np.arange(-3, 4), n)
    live = (col >= 0) & (col < n) & (pad.ravel() != 0.0)
    row, col, val = row[live], col[live], pad.ravel()[live]
    jr, a = np.divmod(row, s)
    jc, b = np.divmod(col, s)
    diag = np.zeros((k, s, s))
    same = jr == jc
    diag[jr[same], a[same], b[same]] = val[same]
    corner = np.zeros((k, s, 6))
    nxt, prv = jc == jr + 1, jc == jr - 1
    corner[jr[nxt], a[nxt], b[nxt]] = val[nxt]
    corner[jr[prv], a[prv], b[prv] - s + 6] = val[prv]
    first = np.ones(k, dtype=bool)
    first[1:] = np.any(diag[1:] != diag[:-1], axis=(1, 2))
    inv = np.linalg.inv(diag[first])[np.cumsum(first) - 1]
    spikes = inv @ corner
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


@pytest.mark.parametrize("state, fp", [
    (CatState(2.0), FPParams(alpha=0.9, d=0.0, tbar=1.0)),
    (FockSuperposition.fock(2), FPParams(alpha=0.9, d=0.1, tbar=1.0)),
    (GaussianState.squeezed(0.7), FPParams(alpha=0.3, d=0.1, tbar=1.0,
                                           g=0.05)),
], ids=["cat", "fock2", "damped"])
def test_crank_nicolson_run_equals_the_scattered_set_up(state, fp,
                                                        monkeypatch):
    """Building each distinct block once from its band columns changes no
    bit of a Crank-Nicolson run."""
    x, p = default_grid(state, fp).axes()
    w0 = initial_wigner(state, x, p)[::10]
    op = _pde_operator(p, fp)
    got = _crank_nicolson(w0, op, fp.tbar, 60)
    monkeypatch.setattr(pdeoracle, "_spike_solver", _scatter_spike_solver)
    want = _crank_nicolson(w0, op, fp.tbar, 60)
    assert np.max(np.abs(want)) > 1e-2
    np.testing.assert_array_equal(got, want)


# Traced peaks of these batches: 2.1 MB (cat) and 2.8 MB (Fock 2), against
# 5.3-5.6 MB and 9.5-10.0 MB with a full complex Fock kernel, an explicit Q
# and a scattered banded set-up.  The bounds leave 50 % over the former.
@pytest.mark.parametrize("state, settings, bound_mb", [
    (CatState(2.0), [(1.1, 0.3), (0.9, 0.0)], 3.2),
    (FockSuperposition.fock(2), [(1.1, 0.3), (0.9, 0.1)], 4.2),
], ids=["cat", "fock2"])
def test_traced_peak_memory_of_a_batch(state, settings, bound_mb):
    fps = [FPParams(alpha=a, d=d, tbar=1.0) for a, d in settings]
    want = overlap_pde_batch(state, fps)
    tracemalloc.start()
    try:
        got = overlap_pde_batch(state, fps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= bound_mb * 1e6
