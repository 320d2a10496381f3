"""Velocity-dependent damping: overlap asymmetry and line-pull estimates."""

import dataclasses
import math

import numpy as np
import pytest

from recoilspec import (FPParams, FlatFlankError, GaussianState,
                        PerturbativeRegimeError, PulseParams,
                        asymmetric_overlap, evolve_gaussian, overlap_after,
                        overlap_gaussian, two_point_shift)


def _exact_delta_p(state, alpha, d, tbar, g):
    plus = overlap_after(state, FPParams(alpha=alpha, d=d, tbar=tbar, g=g))
    minus = overlap_after(state, FPParams(alpha=alpha, d=d, tbar=tbar, g=-g))
    return plus - minus


def test_first_order_asymmetry_against_exact():
    state = GaussianState.squeezed(1.0)
    alpha, d, tbar = 0.2, 0.03, 6.0
    for g in [1e-3, 3e-3]:
        p_sym, delta_p, c = asymmetric_overlap(
            state, FPParams(alpha=alpha, d=d, tbar=tbar, g=g))
        # half of the exact two-sided difference is the odd first-order part
        exact = 0.5 * _exact_delta_p(state, alpha, d, tbar, g)
        assert delta_p == pytest.approx(exact, abs=50.0 * g**2)
        sym = 0.5 * (
            overlap_after(state, FPParams(alpha=alpha, d=d, tbar=tbar, g=g))
            + overlap_after(state, FPParams(alpha=alpha, d=d, tbar=tbar,
                                            g=-g)))
        assert p_sym == pytest.approx(sym, abs=50.0 * g**2)


def test_asymmetry_constant_is_unity_for_centered_gaussians():
    for state in [GaussianState.vacuum(), GaussianState.squeezed(0.7),
                  GaussianState.squeezed(1.44)]:
        for alpha, d, tbar in [(0.1, 0.0, 4.0), (0.3, 0.05, 3.0)]:
            _, _, c = asymmetric_overlap(
                state, FPParams(alpha=alpha, d=d, tbar=tbar, g=1e-3))
            assert c == pytest.approx(1.0, abs=1e-10)


def test_asymmetry_constant_does_not_depend_on_damping():
    # c = 2 (d log P / dg) / tbar; at g = 0 it must not collapse to 0
    for state in [GaussianState.vacuum(), GaussianState.squeezed(0.7)]:
        fp = FPParams(alpha=0.3, d=0.05, tbar=3.0)
        _, delta_p, c0 = asymmetric_overlap(state, fp)
        _, _, c1 = asymmetric_overlap(
            state, FPParams(alpha=0.3, d=0.05, tbar=3.0, g=1e-3))
        assert delta_p == 0.0
        assert c0 == pytest.approx(c1, abs=1e-10)


def test_vacuum_shift_matches_analytic_form(dipole_pulse):
    res = two_point_shift(GaussianState.vacuum(), dipole_pulse,
                          neglect_diffusion=True)
    assert res.shift == pytest.approx(res.shift_analytic, rel=1e-2)
    assert res.c_const == pytest.approx(1.0, abs=1e-9)


def test_shift_identical_on_both_flanks(dipole_pulse):
    res_plus = two_point_shift(GaussianState.vacuum(), dipole_pulse)
    minus = dipole_pulse.with_detuning(-dipole_pulse.detuning)
    res_minus = two_point_shift(GaussianState.vacuum(), minus)
    assert res_plus.shift == pytest.approx(res_minus.shift, rel=1e-2)


def test_shift_linear_in_damping(dipole_pulse):
    res = two_point_shift(GaussianState.vacuum(), dipole_pulse)
    # halving the Lamb-Dicke angle halves g at fixed drift, so rescale by
    # hand through a custom state run at both damping values instead:
    state = GaussianState.vacuum()
    from recoilspec import compute_coefficients
    coeffs = compute_coefficients(dipole_pulse)
    alpha = coeffs.alpha_p
    d = coeffs.epsilon * alpha
    tbar = res.tstar
    for scale in [1.0, 0.5]:
        g = coeffs.g * scale
        _, dp1, _ = asymmetric_overlap(
            state, FPParams(alpha=alpha, d=d, tbar=tbar, g=g))
        _, dp2, _ = asymmetric_overlap(
            state, FPParams(alpha=alpha, d=d, tbar=tbar, g=2 * g))
        assert dp2 == pytest.approx(2 * dp1, rel=1e-12)


def test_shift_solves_for_damping_once(dipole_pulse, monkeypatch):
    import recoilspec.doppler as doppler

    calls = []
    coefficients = doppler.compute_coefficients

    def doubled_g(p):
        calls.append(p)
        c = coefficients(p)
        return dataclasses.replace(c, g=2.0 * c.g)

    state = GaussianState.squeezed(0.5)
    res = two_point_shift(state, dipole_pulse)
    monkeypatch.setattr(doppler, "compute_coefficients", doubled_g)
    res2 = two_point_shift(state, dipole_pulse)
    # one coefficient evaluation per shift, and g is read from it alone:
    # doubling it there doubles the odd part and the shift, bit for bit
    assert calls == [dipole_pulse]
    assert res2.delta_p_asym == 2.0 * res.delta_p_asym
    assert res2.shift == 2.0 * res.shift
    assert (res2.tstar, res2.c_const, res2.dp_ddelta) == \
        (res.tstar, res.c_const, res.dp_ddelta)


def test_flat_flank_raises(dipole_pulse):
    with pytest.raises(FlatFlankError):
        two_point_shift(GaussianState.vacuum(), dipole_pulse,
                        slope_floor=1e30)


def test_perturbative_guard():
    state = GaussianState.vacuum()
    with pytest.raises(PerturbativeRegimeError):
        asymmetric_overlap(state, FPParams(alpha=0.2, d=0.0, tbar=5.0, g=0.1))


def test_shift_scales_inversely_with_sensitivity(dipole_pulse):
    # shift magnitude times sensitivity equals |g| c / 4 in shared units
    from recoilspec import compute_coefficients, recoil_sensitivity
    coeffs = compute_coefficients(dipole_pulse)
    from recoilspec.recoil import detuning_slopes
    dalpha = detuning_slopes(dipole_pulse)[0]
    for state, tol in [(GaussianState.vacuum(), 0.02),
                       (GaussianState.squeezed(0.8), 0.05)]:
        res = two_point_shift(state, dipole_pulse)
        sens = recoil_sensitivity(state, coeffs.epsilon,
                                  alpha=coeffs.alpha_p,
                                  dalpha_ddelta=dalpha)
        lhs = abs(res.shift * dalpha) * sens.s_abs
        rhs = abs(coeffs.g) * abs(res.c_const) / 4.0
        assert lhs == pytest.approx(rhs, rel=tol)


def test_exact_damped_overlap_reduces_to_undamped():
    state = GaussianState.squeezed(0.5)
    p_g = overlap_after(state, FPParams(alpha=0.2, d=0.02, tbar=3.0,
                                       g=1e-12))
    evolved = evolve_gaussian(state, FPParams(alpha=0.2, d=0.02, tbar=3.0))
    p_0 = overlap_gaussian(state, evolved)
    assert p_g == pytest.approx(p_0, rel=1e-9)
