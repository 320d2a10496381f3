"""Working points, sensitivity figures and Fisher-information machinery."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from recoilspec import (CatState, ConfigError, FPParams, FockSuperposition,
                        GaussianState, NoCrossingError, fisher_binary,
                        fisher_imperfect, find_working_point, overlap_after,
                        phase_mismatch_sensitivity, qfi_sensitivity_bound,
                        recoil_sensitivity, snr)
from recoilspec import metrology

LN2 = math.log(2.0)


def test_vacuum_working_point_closed_form():
    wp = find_working_point(GaussianState.vacuum(), 0.0)
    assert wp.tstar == pytest.approx(math.sqrt(2 * LN2), rel=1e-10)


def test_squeezed_working_point_closed_form():
    for r in [0.5, 1.0, 1.44]:
        wp = find_working_point(GaussianState.squeezed(r), 0.0)
        assert wp.tstar == pytest.approx(
            math.exp(-r) * math.sqrt(2 * LN2), rel=1e-10)


@pytest.mark.parametrize("eps", [1e6, 1e13, 1e20, 1e100, 1e300,
                                 sys.float_info.max])
def test_small_working_point_keeps_its_digits(eps):
    # vacuum: (1 + x)^{-1/2} e^{-t^2 / (2 (1 + x))} = 1/2 with x = eps t;
    # solved in x, where the root is near 3, the tolerance is relative
    def log_gap(x):
        t = x / eps
        return -0.5 * math.log1p(x) - t * t / (2.0 * (1.0 + x)) + LN2

    want = brentq(log_gap, 0.0, 10.0, xtol=1e-15, rtol=8.9e-16) / eps
    wp = find_working_point(GaussianState.vacuum(), eps,
                            allow_large_epsilon=True)
    assert wp.tstar == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("alpha", [1.0, 1e3, 1e6, 1e9])
def test_large_drift_working_point_keeps_its_digits(alpha):
    # the vacuum root solved in x = alpha t, where it is near 1.2 for every
    # alpha: the tolerance of the search must be relative to t*
    eps = 0.1

    def log_gap(x):
        return (-0.5 * math.log1p(eps * x)
                - x * x / (2.0 * (1.0 + eps * x)) + LN2)

    want = brentq(log_gap, 0.0, 10.0, xtol=1e-15, rtol=8.9e-16) / alpha
    wp = find_working_point(GaussianState.vacuum(), eps, alpha=alpha)
    assert wp.tstar == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("state", [GaussianState.vacuum(), CatState(2.0),
                                   FockSuperposition.fock(2)],
                         ids=["vacuum", "cat", "fock2"])
def test_working_point_where_the_march_span_overflows(state):
    # a tiny drift, as a tiny Lamb-Dicke factor or pulse gives: the march
    # span 640 sqrt(2 ln 2) / alpha overflows to inf and t* ~ 1e306, so the
    # nodes, the Newton steps and their squares must stay finite
    alpha, eps = 1e-306, 0.1
    tstar = find_working_point(state, eps, alpha=alpha).tstar
    assert tstar * alpha == pytest.approx(
        find_working_point(state, eps).tstar, rel=1e-14)


def _first_crossing_oracle(state, eps, p0=0.5):
    """First t with P(t) < p0 from a scalar march at a quarter of the
    production step, then bisection down to neighbouring floats."""
    step = 0.25 * metrology._march_step(state, 1.0)

    def above(t):
        return overlap_after(state, FPParams(alpha=1.0, d=eps, tbar=t)) >= p0

    lo, hi = 0.0, step
    while above(hi):
        lo, hi = hi, hi + step
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi


def _two_level(levels, theta):
    return FockSuperposition.from_dict(
        {levels[0]: math.cos(theta), levels[1]: math.sin(theta)})


PROBES = st.one_of(
    st.floats(0.3, 3.0).map(CatState),
    st.integers(0, 8).map(FockSuperposition.fock),
    st.builds(_two_level,
              st.lists(st.integers(0, 6), min_size=2, max_size=2,
                       unique=True),
              st.floats(0.0, 2.0 * math.pi)))


@settings(max_examples=60, deadline=None)
@given(state=PROBES,
       eps=st.floats(math.log(1e-3), math.log(0.3)).map(math.exp))
def test_working_point_is_the_first_crossing(state, eps):
    tstar = find_working_point(state, eps).tstar
    assert tstar == pytest.approx(_first_crossing_oracle(state, eps),
                                  rel=1e-13, abs=0.0)
    ts = np.linspace(0.0, tstar, 202)[1:-1]
    assert min(overlap_after(state, FPParams(alpha=1.0, d=eps, tbar=t))
               for t in ts) > 0.5


FAMILIES = {
    "vacuum": GaussianState.vacuum(),
    "squeezed": GaussianState.squeezed(1.44),
    "cat": CatState(2.0),
    "fock2": FockSuperposition.fock(2),
    "fock4": FockSuperposition.fock(4),
    "fock2+4": FockSuperposition.from_dict({2: 0.5, 4: math.sqrt(0.75)}),
}


@pytest.mark.parametrize("name, calls", [
    ("vacuum", 250), ("squeezed", 200), ("cat", 200), ("fock2", 200),
    ("fock4", 200), ("fock2+4", 200)])
def test_slope_evaluations_per_sensitivity(name, calls, monkeypatch):
    # 25 log points of eps in [1e-3, 0.3], both modes: one march block (two
    # for the vacuum, whose t* lies beyond the 11th step), two evaluated
    # Newton steps and the slopes at t*.  The scalar march with brentq took
    # 14 to 29 overlap calls.
    count = 0
    family = type(FAMILIES[name])
    slopes = family.slopes

    def counted(self, u, v):
        nonlocal count
        count += 1
        return slopes(self, u, v)

    monkeypatch.setattr(family, "slopes", counted)
    for eps in np.geomspace(1e-3, 0.3, 25):
        for mode in ("drift-only", "extended"):
            recoil_sensitivity(FAMILIES[name], float(eps), mode=mode)
    assert count == calls


def test_huge_epsilon_sensitivity_is_the_closed_form():
    # |S| = |dP/du| = P u q with q = 1 / (1 + v) for the vacuum; t* is
    # about 3e-300 here, and t* dP/du would underflow
    eps = 1e300
    res = recoil_sensitivity(GaussianState.vacuum(), eps,
                             allow_large_epsilon=True)
    u, v = res.tstar, eps * res.tstar
    q = 1.0 / (1.0 + v)
    want = (1.0 + v) ** -0.5 * math.exp(-0.5 * u * u * q) * u * q
    assert want > 0.0
    assert res.s_abs == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("state", [
    FockSuperposition.fock(2), FockSuperposition.fock(4),
    FockSuperposition.from_dict({2: 0.5, 4: math.sqrt(3.0) / 2.0}),
    FockSuperposition.from_dict({0: 0.6, 1: 0.8j}),
], ids=["fock2", "fock4", "fock2+4", "fock0+1"])
def test_fock_sensitivity_keeps_its_digits_at_huge_epsilon(state):
    # |S| eps tends to a constant, as for the vacuum; dP/du is O(u) there,
    # and the quadrature's O(1) terms for it would cancel to noise
    scaled = [recoil_sensitivity(state, eps, allow_large_epsilon=True).s_abs
              * eps for eps in (1e9, 1e13, 1e20, 1e100, 1e200, 1e300)]
    assert scaled[0] > 0.0
    for x in scaled[1:]:
        assert x == pytest.approx(scaled[0], rel=1e-10, abs=0.0)


def test_working_point_probability_is_exact():
    state = GaussianState.squeezed(0.8)
    wp = find_working_point(state, 0.15)
    p = overlap_after(state, FPParams(alpha=1.0, d=0.15, tbar=wp.tstar))
    assert p == pytest.approx(0.5, abs=1e-10)


def test_cat_first_downward_crossing():
    # the cat overlap oscillates; the working point must be the first dip
    cat = CatState(2.0)
    wp = find_working_point(cat, 0.05)
    ts = np.linspace(1e-4, wp.tstar * 0.999, 200)
    ps = [overlap_after(cat, FPParams(alpha=1.0, d=0.05, tbar=t)) for t in ts]
    assert min(ps) > 0.5
    assert wp.tstar < find_working_point(GaussianState.vacuum(), 0.05).tstar


def test_no_crossing_raises():
    from recoilspec.metrology import find_root_tbar

    with pytest.raises(NoCrossingError):
        find_root_tbar(lambda t: (np.full_like(t, 0.8), np.zeros_like(t)),
                       0.5, 0.1, 5.0)


def test_sensitivity_matches_squeezed_closed_forms():
    # drift-only figure of merit against the exact expression
    for r, eps in [(0.0, 0.05), (0.7, 0.1), (1.44, 0.3)]:
        res = recoil_sensitivity(GaussianState.squeezed(r), eps)
        at = res.tstar
        e2r = math.exp(2 * r)
        expected = 0.5 * at * e2r / (1.0 + eps * at * e2r)
        assert res.s_abs == pytest.approx(expected, abs=1e-8)


def test_sensitivity_small_eps_limit():
    for r in [0.0, 1.0]:
        res = recoil_sensitivity(GaussianState.squeezed(r), 1e-4)
        assert res.s_abs == pytest.approx(
            math.exp(r) * math.sqrt(LN2 / 2.0), rel=5e-3)


def test_extended_mode_adds_diffusion_term():
    res_d = recoil_sensitivity(GaussianState.squeezed(1.0), 0.2, mode="drift-only")
    res_e = recoil_sensitivity(GaussianState.squeezed(1.0), 0.2, mode="extended")
    assert res_e.s_diff_term != 0.0
    assert res_d.s_diff_term == 0.0
    # both terms pull the same way at the working point
    assert res_e.s_abs > res_d.s_abs


def test_sensitivity_bound_respected():
    for state, eps in [(GaussianState.vacuum(), 0.01),
                       (GaussianState.squeezed(1.0), 0.1),
                       (CatState(2.0), 0.1),
                       (FockSuperposition.fock(2), 0.1)]:
        res = recoil_sensitivity(state, eps, mode="extended")
        assert res.s_abs <= res.qfi_bound * (1.0 + 1e-6)


def test_epsilon_guard():
    with pytest.raises(ConfigError):
        recoil_sensitivity(GaussianState.vacuum(), 0.5)
    recoil_sensitivity(GaussianState.vacuum(), 0.5, allow_large_epsilon=True)


@pytest.mark.parametrize("fn", [find_working_point, recoil_sensitivity],
                         ids=["working-point", "sensitivity"])
@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("alpha", [0.0, -0.0, -1.0])
def test_drift_that_is_not_positive_is_a_config_error(fn, eps, alpha):
    # before the guard: ZeroDivisionError at 0, the diffusion message at
    # -1 with eps > 0, and a NoCrossingError up to tbar = -754 at eps = 0
    with pytest.raises(ConfigError, match="alpha"):
        fn(GaussianState.vacuum(), eps, alpha=alpha)


@pytest.mark.parametrize("allow", [False, True])
@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_epsilon_that_is_not_finite_is_named(eps, allow):
    # NaN fails every comparison, so the range checks alone let it through
    message = f"epsilon={eps} must be finite"
    for fn in (find_working_point, recoil_sensitivity):
        with pytest.raises(ConfigError, match=message):
            fn(GaussianState.vacuum(), eps, allow_large_epsilon=allow)
    with pytest.raises(ConfigError, match=message):
        phase_mismatch_sensitivity(1.0, 0.1, eps)


def test_snr_basics():
    assert snr(0.0, 0.5) == 0.0
    assert snr(0.3, 0.5, 4) == pytest.approx(2.0 * snr(0.3, 0.5, 1))
    with pytest.raises(ConfigError):
        snr(0.1, 0.5, 0)


def test_fisher_binary_basics():
    assert fisher_binary(0.5, 0.0) == 0.0
    assert fisher_binary(0.5, 0.2) == pytest.approx(0.04 / 0.25)
    with pytest.raises(ConfigError):
        fisher_binary(1.0, 0.2)


def _fisher_displacement_limit(state, theta=1e-4):
    def p(a):
        return overlap_after(state, FPParams(alpha=a, d=0.0, tbar=1.0))

    h = 1e-7
    slope = (p(theta + h) - p(theta - h)) / (2 * h)
    return slope**2 / (p(theta) * (1.0 - p(theta)))


def test_fisher_approaches_qfi_for_small_displacement():
    for state in [GaussianState.vacuum(), GaussianState.squeezed(1.0),
                  FockSuperposition.fock(2), CatState(2.0)]:
        f = _fisher_displacement_limit(state)
        assert f == pytest.approx(state.qfi_displacement(), rel=1e-3)


def test_qfi_closed_forms():
    assert GaussianState.vacuum().qfi_displacement() == pytest.approx(2.0)
    assert GaussianState.squeezed(1.0).qfi_displacement() == pytest.approx(2.0 * math.e**2)
    assert FockSuperposition.fock(2).qfi_displacement() == pytest.approx(10.0)
    f24 = FockSuperposition.from_dict({2: 0.5, 4: math.sqrt(3) / 2})
    assert f24.qfi_displacement() == pytest.approx(22.0, abs=1e-12)


def test_qfi_bound_plugin():
    assert qfi_sensitivity_bound(2.0, 1.5) == pytest.approx(
        1.0 / (math.sqrt(2.0) * 1.5))


def test_fisher_imperfect_reduces_to_ideal():
    assert fisher_imperfect(0.3, 0.2, 0.0) == pytest.approx(
        fisher_binary(0.3, 0.2), rel=1e-14)


def test_fisher_imperfect_monotone_and_positive():
    for p in [0.1, 0.5, 0.9]:
        vals = [fisher_imperfect(p, 0.2, eta) for eta in [0.0, 0.01, 0.1, 0.3]]
        assert all(v > 0.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ConfigError):
        fisher_imperfect(0.5, 0.2, 0.5)


def test_cramer_rao_chain():
    # binary-measurement information never exceeds the quantum limit
    for state in [GaussianState.vacuum(), GaussianState.squeezed(0.8),
                  FockSuperposition.fock(2)]:
        fq = state.qfi_displacement()
        for theta in [1e-3, 0.3, 0.8]:
            def p(a):
                return overlap_after(state, FPParams(alpha=a, d=0.0, tbar=1.0))
            h = 1e-6
            slope = (p(theta + h) - p(theta - h)) / (2 * h)
            pt = p(theta)
            if 0.0 < pt < 1.0:
                assert fisher_binary(pt, slope) <= fq * (1.0 + 1e-9)


def test_phase_mismatch_consistency_and_loss():
    r = 1.44  # about 12.5 dB
    aligned = phase_mismatch_sensitivity(r, 0.0, 0.1)
    reference = recoil_sensitivity(GaussianState.squeezed(r), 0.1).s_abs
    assert aligned == pytest.approx(reference, abs=1e-10)
    vac = recoil_sensitivity(GaussianState.vacuum(), 0.1).s_abs
    tilted = phase_mismatch_sensitivity(0.5, 1.0, 0.1)
    assert tilted < vac
    # a strong tilt of a strongly squeezed probe starts below threshold
    with pytest.raises(NoCrossingError):
        phase_mismatch_sensitivity(1.44, 0.5, 0.1)


def test_squeezed_monotone_in_r_at_fixed_eps():
    vals = [recoil_sensitivity(GaussianState.squeezed(r), 0.2).s_abs
            for r in [0.0, 0.4, 0.8, 1.2]]
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


def test_phase_mismatch_values_unchanged():
    # pinned to the last bit of the closed-form slope |dP/du| at the working
    # point; each is within 2e-16 relative of an independent closed form
    assert phase_mismatch_sensitivity(0.5, 1.0, 0.1) == 0.37194931095578204
    assert phase_mismatch_sensitivity(1.44, 0.0, 0.1) == 1.692904600839463
    assert phase_mismatch_sensitivity(0.8, 0.3, 0.05) == 0.8111549689538381


@pytest.mark.parametrize("state, eps, want", [
    (CatState(2.0), 0.05502961299358883, 2.2373714393250252),
    (CatState(2.0), 0.0561, 2.2271331935821435),
    (FockSuperposition.from_dict({2: 0.5, 4: math.sqrt(0.75)}), 0.0689,
     1.8009109514193615),
])
def test_extended_sensitivity_where_dp_dd_is_near_zero(state, eps, want):
    # dP/dd nearly vanishes here, where a finite-difference estimate once
    # failed to settle.  Reference values: 1-D displacement fidelity with
    # analytic derivatives.
    s = recoil_sensitivity(state, eps, mode="extended").s_abs
    assert s == pytest.approx(want, rel=1e-9)
