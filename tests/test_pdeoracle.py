"""Grid propagation cross-checks: the Crank-Nicolson route shares nothing
with the closed-form and characteristic-function overlap evaluations."""

import math

import numpy as np
import pytest
from scipy.sparse import identity
from scipy.sparse.linalg import splu

from recoilspec import (CatState, FPParams, FockSuperposition, GaussianState,
                        GridUnderflowError, overlap_after, overlap_pde,
                        overlap_pde_batch)
from recoilspec.pdeoracle import (GridSpec, _osc_wavenumber, _pde_operator,
                                  default_grid, initial_wigner, propagate)


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


def _propagate_with_explicit_rhs(w0, p, fp, n_steps):
    """The Crank-Nicolson loop with (I + dt/2 op) built and applied."""
    dt = fp.tbar / n_steps
    op = _pde_operator(p, fp)
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
    on the SVD momentum factors that overlap_pde_batch propagates."""
    fp = FPParams(alpha=alpha, d=d, tbar=1.0)
    x, p = default_grid(state, fp).axes()
    u, s, v = np.linalg.svd(initial_wigner(state, x, p), full_matrices=False)
    v = v[s > 1e-13 * s[0]]
    got = propagate(v, p, fp, n_steps=200)
    want = _propagate_with_explicit_rhs(v, p, fp, n_steps=200)
    assert np.max(np.abs(got)) > 1e-2
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
