"""Probe-state optimization and the single-photon squeezing budget."""

import math

import numpy as np
import pytest

from recoilspec import (CatState, FockSuperposition, NoCrossingError,
                        OptimizationProblem, OptimizerError, PulseParams,
                        fock_sensitivity, optimize_fock_superposition,
                        recoil_sensitivity, single_photon_budget,
                        squeezing_db, state_nbar)


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
    # is far below what the Fock quadrature resolves or L-BFGS-B's
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
