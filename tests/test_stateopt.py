"""Probe-state optimization and the single-photon squeezing budget."""

import math

import numpy as np
import pytest

from recoilspec import (CatState, ConfigError, FockSuperposition,
                        NoCrossingError, OptimizationProblem, OptimizerError,
                        PulseParams, metrology, optimize_fock_superposition,
                        recoil_sensitivity, single_photon_budget,
                        squeezing_db, stateopt)
from recoilspec.stateopt import (_feasible_coeffs, _minimize,
                                 _signed_sensitivity, _uniform_angles)

# |S| of the best (2, 4) superposition at epsilon = 0.1 and nbar <= 4
S_24 = 1.6147542274987


def test_squeezing_db_pairs():
    assert squeezing_db(0.0) == 0.0
    assert squeezing_db(1.44) == pytest.approx(12.508, abs=0.1)
    assert squeezing_db(2.13) == pytest.approx(18.501, abs=0.1)


def test_nbar_four_cat_amplitude():
    # a two-branch superposition with mean occupation 4 sits near beta = 2
    cat = CatState(2.0007)
    assert cat.nbar == pytest.approx(4.0, abs=1e-3)


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
        pure = abs(_signed_sensitivity(prob, np.eye(len(prob.basis))[i])[0])
        assert res.s_abs >= pure - 1e-9


def test_optimizer_against_grid_oracle():
    prob = OptimizationProblem(basis=(2, 4), nbar_max=4.0, epsilon=0.1)
    res = optimize_fock_superposition(prob, seed=0)
    best = 0.0
    for th in np.linspace(0.0, math.pi / 2, 241):
        c = np.array([math.cos(th), math.sin(th)])
        state = FockSuperposition.from_dict({2: c[0], 4: c[1]})
        if state.nbar <= prob.nbar_max + 1e-12:
            best = max(best, abs(_signed_sensitivity(prob, c)[0]))
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


def test_start_angles_are_numpy_default_rng_draws():
    # PCG64 seeded through SeedSequence, as numpy.random.default_rng(seed),
    # for seeds of one to four 32-bit words and beyond; consecutive calls
    # continue one stream
    for seed in [*range(2001), 2**32 - 1, 2**32, 2**64 + 5,
                 12345678901234567890123, 2**160 + 3]:
        rng = np.random.default_rng(seed)
        want = np.concatenate([rng.uniform(0.0, math.pi, size=k)
                               for k in range(1, 6)])
        assert np.array_equal(_uniform_angles(seed, 15), want), seed


@pytest.mark.parametrize("seed", [-1, 1.0, "0", None])
def test_start_angles_refuse_a_seed_that_is_no_non_negative_integer(seed):
    with pytest.raises(ConfigError, match="seed"):
        _uniform_angles(seed, 2)


@pytest.mark.parametrize("basis, nbar_max", [((2, 4), 4.0),
                                             ((1, 2, 3, 5), 3.0)])
def test_optimizer_keeps_the_bits_of_numpy_start_angles(basis, nbar_max,
                                                        monkeypatch):
    prob = OptimizationProblem(basis=basis, nbar_max=nbar_max, epsilon=0.1)
    got = [optimize_fock_superposition(prob, n_restarts=2, seed=seed)
           for seed in range(6)]
    monkeypatch.setattr(stateopt, "_uniform_angles", lambda seed, n:
                        np.random.default_rng(seed).uniform(0.0, math.pi, n))
    for seed, a in enumerate(got):
        b = optimize_fock_superposition(prob, n_restarts=2, seed=seed)
        assert np.array_equal(a.coeffs, b.coeffs) and a.s_abs == b.s_abs
        assert (a.nbar_used, a.n_converged) == (b.nbar_used, b.n_converged)


@pytest.mark.parametrize("n_restarts", [0, -2])
@pytest.mark.parametrize("basis", [(2, 4), (0,)])
def test_too_few_restarts_are_refused_before_any_work(n_restarts, basis,
                                                      monkeypatch):
    def no_work(*args):
        raise AssertionError("work began before n_restarts was checked")

    monkeypatch.setattr(stateopt, "_uniform_angles", no_work)
    monkeypatch.setattr(stateopt, "_signed_sensitivity", no_work)
    prob = OptimizationProblem(basis=basis, nbar_max=4.0, epsilon=0.1)
    with pytest.raises(ConfigError, match="n_restarts"):
        optimize_fock_superposition(prob, n_restarts=n_restarts)


def test_restarts_that_all_miss_the_working_point_raise_no_crossing():
    # at p0 = 1e-30 and eps = 10 the overlap of every (2, 4) state stays
    # above p0 over the whole march: each restart ends on the plateau
    prob = OptimizationProblem(basis=(2, 4), epsilon=10.0, p0=1e-30)
    with pytest.raises(NoCrossingError, match="working point"):
        optimize_fock_superposition(prob, n_restarts=2)


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
        c = np.array([math.cos(theta), math.sin(theta)])
        return abs(_signed_sensitivity(prob, c)[0])

    theta = _golden_section_max(s_of, 0.9, 1.2)
    # the energy bound is slack there
    assert 2.0 * math.cos(theta)**2 + 4.0 * math.sin(theta)**2 < 4.0
    assert s_of(theta) == pytest.approx(S_24, rel=1e-11)
    assert res.s_abs == pytest.approx(S_24, rel=1e-12)
    # a golden-section search on the flat top of |S| fixes theta to ~3e-8
    assert res.coeffs == pytest.approx(
        [math.cos(theta), math.sin(theta)], abs=1e-7)


def test_probe_states_problem_evaluates_the_sensitivity_at_most_11_times(
        monkeypatch):
    # each sensitivity evaluation, with or without its gradient, solves
    # for one working point
    calls = []
    solve = metrology.find_working_point

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)
    monkeypatch.setattr(metrology, "find_working_point", counted)
    monkeypatch.setattr(stateopt, "find_working_point", counted)
    prob = OptimizationProblem(basis=(2, 4), nbar_max=4.0, epsilon=0.1)
    res = optimize_fock_superposition(prob, n_restarts=2, seed=0)
    assert res.s_abs == pytest.approx(S_24, rel=1e-12)
    assert len(calls) <= 11


def _central_difference(fun, x, h=1e-5):
    return np.array([(fun(x + h * e) - fun(x - h * e)) / (2.0 * h)
                     for e in np.eye(len(x))])


@pytest.mark.parametrize("mode", ["drift-only", "extended"])
@pytest.mark.parametrize("basis, nbar_max, x, active", [
    ((2, 4), 4.0, [1.05], False),
    ((2, 4), 3.0, [0.4], False),
    ((2, 4), 3.0, [math.pi / 2], True),
    ((0, 2, 4), 3.0, [0.7, 2.1], False),
    ((0, 2, 4), 3.0, [2.3, math.pi / 2], True),
    ((1, 2, 3, 5), 3.0, [0.5, 1.1, 2.6], False),
    ((1, 2, 3, 5), 3.0, [1.3, math.pi / 2, 0.8], True),
])
def test_exact_gradient_matches_a_central_difference(basis, nbar_max, x,
                                                     active, mode):
    prob = OptimizationProblem(basis=basis, nbar_max=nbar_max, epsilon=0.1,
                               mode=mode)
    coeffs_of = _feasible_coeffs(prob)
    x = np.array(x)
    c, jac = coeffs_of(x)
    assert (abs(np.asarray(basis) @ c**2 - nbar_max) <= 1e-12) == active
    _, ds = _signed_sensitivity(prob, c)
    # in the coefficients, along the unit sphere: the gradient of S(c/|c|)
    tangent = ds - (ds @ c) * c
    scale = np.max(np.abs(tangent))
    assert tangent == pytest.approx(_central_difference(
        lambda y: _signed_sensitivity(prob, y / np.linalg.norm(y))[0], c),
        rel=0, abs=1e-7 * scale)
    # in the angles; at an active bound on two levels this gradient is 0
    assert ds @ jac == pytest.approx(_central_difference(
        lambda y: _signed_sensitivity(prob, coeffs_of(y)[0])[0], x),
        rel=0, abs=1e-7 * scale)


@pytest.mark.parametrize("basis, nbar_max", [
    ((2, 4), 3.0), ((2, 4), 1e6), ((0, 2, 4), 3.0), ((1, 2, 3, 5), 3.0),
    ((1, 2, 3, 5), 2.0), ((5, 1, 3), 3.0)])
def test_feasible_coefficients_meet_the_bound(basis, nbar_max):
    coeffs_of = _feasible_coeffs(
        OptimizationProblem(basis=basis, nbar_max=nbar_max))
    ns = np.asarray(basis, dtype=float)
    rng = np.random.default_rng(4)
    for x in rng.uniform(-7.0, 7.0, size=(50, len(basis) - 1)):
        c, _ = coeffs_of(x)
        assert c @ c == pytest.approx(1.0, rel=1e-15)
        assert ns @ c**2 <= nbar_max * (1.0 + 1e-15)


def test_active_bound_on_two_levels_fixes_the_state():
    # the unconstrained optimum has nbar = 3.48, so with nbar <= 3 the
    # best state sits on the bound, where (2, 4) allows only c2 = c4
    res = optimize_fock_superposition(
        OptimizationProblem(basis=(2, 4), nbar_max=3.0, epsilon=0.1), seed=0)
    assert res.coeffs == pytest.approx([0.5**0.5, 0.5**0.5], rel=0,
                                       abs=1e-10)
    assert res.constraint_slack >= -1e-12
    # with nbar <= 2 only Fock 2 is left
    prob = OptimizationProblem(basis=(2, 4), nbar_max=2.0, epsilon=0.1)
    res = optimize_fock_superposition(prob, seed=0)
    assert list(res.coeffs) == [1.0, 0.0]
    assert res.constraint_slack == 0.0
    assert res.s_abs == abs(_signed_sensitivity(prob, np.array([1.0, 0.0]))[0])


def test_active_bound_optimum_does_not_depend_on_the_seed():
    prob = OptimizationProblem(basis=(1, 2, 3, 5), nbar_max=3.0,
                               epsilon=0.1)
    a, b = (optimize_fock_superposition(prob, seed=s) for s in (0, 1))
    assert a.s_abs == pytest.approx(b.s_abs, rel=1e-12)
    for res in (a, b):
        assert res.constraint_slack >= -1e-12
        assert res.constraint_slack <= 1e-12     # the bound is active


@pytest.mark.parametrize("basis, nbar_max", [((2, 4), 1.0), ((3,), 1.0)])
def test_infeasible_bound_is_refused(basis, nbar_max):
    with pytest.raises(ConfigError, match=r"nbar_max.*min\(basis\)"):
        OptimizationProblem(basis=basis, nbar_max=nbar_max)


def test_minimize_reaches_an_ill_scaled_quadratic_minimum():
    # curvatures 100 and 1e5 along the axes
    x, _, converged = _minimize(
        lambda x: (50.0 * (x[0] - 0.3)**2 + 5e4 * (x[1] + 0.7)**2,
                   np.array([100.0 * (x[0] - 0.3), 1e5 * (x[1] + 0.7)])),
        np.array([2.0, 1.0]))
    assert converged
    assert x == pytest.approx([0.3, -0.7], rel=0, abs=1e-9)


def _smooth_3d(x):
    """Minimum 0 at (0.5, -1.2, 2), with a diagonal Hessian there, and the
    gradient."""
    d = x - np.array([0.5, -1.2, 2.0])
    w = np.array([10.0, 30.0, 100.0])
    q = 1.0 + d[2]**2
    f = float(w @ (np.cosh(d) - 1.0)) + d[0]**2 * d[1]**2 * q
    grad = w * np.sinh(d) + np.array([2.0 * d[0] * d[1]**2 * q,
                                      2.0 * d[1] * d[0]**2 * q,
                                      2.0 * d[2] * d[0]**2 * d[1]**2])
    return f, grad


def test_minimize_reaches_a_smooth_3d_minimum():
    x, _, converged = _minimize(_smooth_3d, np.zeros(3))
    assert converged
    assert x == pytest.approx([0.5, -1.2, 2.0], rel=0, abs=1e-7)


def test_minimize_reports_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(stateopt, "_MAX_ITER", 3)
    x, f, converged = _minimize(_smooth_3d, np.zeros(3))
    assert not converged
    assert f == _smooth_3d(x)[0]
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
        single_photon_budget(dipole_pulse, p0=1e-12)
