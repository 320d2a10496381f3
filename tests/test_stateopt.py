"""Probe-state optimization and the single-photon squeezing budget."""

import math

import numpy as np
import pytest

from recoilspec import (CatState, FockSuperposition, NoCrossingError,
                        OptimizationProblem, OptimizerError, PulseParams,
                        fock_sensitivity, optimize_fock_superposition,
                        recoil_sensitivity, single_photon_budget,
                        squeezing_db, state_nbar, stateopt)
from recoilspec.stateopt import _minimize

# |S| of the best (2, 4) superposition at epsilon = 0.1 and nbar <= 4
S_24 = 1.6147542274987


def test_squeezing_db_pairs():
    assert squeezing_db(0.0) == 0.0
    assert squeezing_db(1.44) == pytest.approx(12.508, abs=0.1)
    assert squeezing_db(2.13) == pytest.approx(18.501, abs=0.1)


def test_nbar_four_cat_amplitude():
    # a two-branch superposition with mean occupation 4 sits near beta = 2
    cat = CatState(2.0007)
    assert state_nbar(cat) == pytest.approx(4.0, abs=1e-3)


def test_trivial_basis_has_no_freedom():
    prob = OptimizationProblem(basis=(0,), nbar_max=1.0, epsilon=0.1)
    res = optimize_fock_superposition(prob, n_restarts=2, seed=1)
    assert res.coeffs == pytest.approx([1.0])
    vac = recoil_sensitivity(FockSuperposition.fock(0), 0.1).s_abs
    assert res.s_abs == pytest.approx(vac, rel=1e-9)


def test_optimum_beats_pure_components():
    prob = OptimizationProblem(basis=(0, 2), nbar_max=2.0, epsilon=0.1)
    res = optimize_fock_superposition(prob, n_restarts=4, seed=3)
    for i, _ in enumerate(prob.basis):
        pure = fock_sensitivity(prob, np.eye(len(prob.basis))[i])
        assert res.s_abs >= pure - 1e-9


def test_optimizer_against_grid_oracle():
    prob = OptimizationProblem(basis=(2, 4), nbar_max=4.0, epsilon=0.1)
    res = optimize_fock_superposition(prob, seed=0)
    best = 0.0
    for th in np.linspace(0.0, math.pi / 2, 241):
        c = np.array([math.cos(th), math.sin(th)])
        state = FockSuperposition.from_dict({2: c[0], 4: c[1]})
        if state.nbar <= prob.nbar_max + 1e-12:
            best = max(best, fock_sensitivity(prob, c))
    assert res.s_abs >= best - 1e-3
    assert res.nbar_used <= prob.nbar_max + 1e-9
    assert res.n_converged >= 1
    # canonical sign: leading coefficient non-negative
    assert res.coeffs[0] >= 0.0


def test_flat_objective_is_refused():
    # at eps = 1e300 the working point is t* ~ 1e-300, and |S| ~ u* there
    # is far below what the Fock quadrature resolves or the optimizer's
    # gradient tolerance could locate
    prob = OptimizationProblem(basis=(2, 4), epsilon=1e300)
    with pytest.raises(OptimizerError, match="flat"):
        optimize_fock_superposition(prob, n_restarts=1)


def test_optimizer_deterministic():
    prob = OptimizationProblem(basis=(2, 4), nbar_max=4.0, epsilon=0.1)
    a = optimize_fock_superposition(prob, seed=7)
    b = optimize_fock_superposition(prob, seed=7)
    assert a.coeffs == pytest.approx(b.coeffs, abs=0.0)
    assert a.s_abs == b.s_abs


def _golden_section_max(f, a, b, tol=1e-10):
    """Maximizer of a unimodal f on [a, b], by golden-section search."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def test_pinned_two_level_optimum_matches_a_golden_section_search():
    prob = OptimizationProblem(basis=(2, 4), nbar_max=4.0, epsilon=0.1)
    res = optimize_fock_superposition(prob, n_restarts=2, seed=0)

    def s_of(theta):
        return fock_sensitivity(prob, [math.cos(theta), math.sin(theta)])

    theta = _golden_section_max(s_of, 0.9, 1.2)
    # the energy bound is slack there, so the penalty plays no part
    assert 2.0 * math.cos(theta)**2 + 4.0 * math.sin(theta)**2 < 4.0
    assert s_of(theta) == pytest.approx(S_24, rel=1e-11)
    assert res.s_abs == pytest.approx(S_24, rel=1e-11)
    assert res.coeffs == pytest.approx(
        [math.cos(theta), math.sin(theta)], abs=1e-6)


def test_minimize_reaches_an_ill_scaled_quadratic_minimum():
    # curvatures 100 and 1e5 along the axes; where the Hessian H is
    # diagonal the forward-difference bias (h/2) H^-1 diag(H) of the
    # minimizer is half a step, 5e-7, along each axis
    x, _, converged = _minimize(
        lambda x: 50.0 * (x[0] - 0.3)**2 + 5e4 * (x[1] + 0.7)**2,
        np.array([2.0, 1.0]))
    assert converged
    assert x == pytest.approx([0.3, -0.7], rel=0, abs=1e-6)


def _smooth_3d(x):
    """Minimum 0 at (0.5, -1.2, 2), with a diagonal Hessian there."""
    d = x - np.array([0.5, -1.2, 2.0])
    return (float(np.array([10.0, 30.0, 100.0]) @ (np.cosh(d) - 1.0))
            + d[0]**2 * d[1]**2 * (1.0 + d[2]**2))


def test_minimize_reaches_a_smooth_3d_minimum():
    x, _, converged = _minimize(_smooth_3d, np.zeros(3))
    assert converged
    assert x == pytest.approx([0.5, -1.2, 2.0], rel=0, abs=1e-6)


def test_minimize_reports_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(stateopt, "_MAX_ITER", 3)
    x, f, converged = _minimize(_smooth_3d, np.zeros(3))
    assert not converged
    assert f == _smooth_3d(x)
    assert f > 1e-3


def test_minimize_repeats_its_calls():
    def recorded():
        calls = []

        def fun(x):
            calls.append(x.copy())
            return _smooth_3d(x)
        return fun, calls

    (fa, ca), (fb, cb) = recorded(), recorded()
    ra, rb = _minimize(fa, np.zeros(3)), _minimize(fb, np.zeros(3))
    assert len(ca) == len(cb) > 3
    assert all(np.array_equal(a, b) for a, b in zip(ca, cb))
    assert np.array_equal(ra[0], rb[0]) and ra[1:] == rb[1:]


def test_budget_invariants(dipole_pulse):
    budget = single_photon_budget(dipole_pulse)
    assert budget.tstar * budget.coeffs.n1 == pytest.approx(1.0, rel=1e-6)
    assert budget.nbar == pytest.approx(math.sinh(budget.r_required)**2, rel=1e-12)
    assert budget.enhancement == pytest.approx(math.exp(budget.r_required), rel=1e-12)
    assert budget.squeezing_db == pytest.approx(squeezing_db(budget.r_required))


def test_budget_regression_values(dipole_pulse):
    budget = single_photon_budget(dipole_pulse)
    assert budget.tstar == pytest.approx(7.067978152640751, rel=1e-9)
    assert budget.r_required == pytest.approx(2.0692174998444317, rel=1e-9)
    assert budget.squeezing_db == pytest.approx(17.973, abs=1e-3)
    assert budget.nbar == pytest.approx(15.180, abs=2e-3)
    assert budget.enhancement == pytest.approx(7.9186, abs=1e-3)


def test_budget_gentler_target_needs_less_squeezing(dipole_pulse):
    tight = single_photon_budget(dipole_pulse, p0=0.5)
    loose = single_photon_budget(dipole_pulse, p0=0.8)
    assert loose.r_required < tight.r_required


def test_budget_weaker_coupling_needs_more_squeezing(dipole_pulse):
    # halving the recoil angle halves the drift while the scattering
    # budget time is unchanged, so the same target costs more squeezing
    half_eta = PulseParams(rabi=dipole_pulse.rabi,
                           linewidth=dipole_pulse.linewidth,
                           detuning=dipole_pulse.detuning,
                           lamb_dicke=0.5 * dipole_pulse.lamb_dicke,
                           mode_freq=dipole_pulse.mode_freq,
                           pulse_duration=dipole_pulse.pulse_duration)
    ref = single_photon_budget(dipole_pulse)
    weak = single_photon_budget(half_eta)
    assert weak.r_required > ref.r_required
    assert weak.tstar == pytest.approx(ref.tstar, rel=1e-9)


def test_budget_unreachable_target_raises(dipole_pulse):
    with pytest.raises(NoCrossingError):
        single_photon_budget(dipole_pulse, p0=1e-12, r_max=0.1)
