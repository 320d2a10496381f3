"""Velocity-dependent damping: overlap asymmetry and line-pull estimates."""

import dataclasses
import math

import numpy as np
import pytest

from recoilspec import (CatState, ConfigError, FPParams, FlatFlankError,
                        FockSuperposition, GaussianState,
                        PerturbativeRegimeError, PulseParams,
                        asymmetric_overlap, evolve_gaussian, overlap_after,
                        overlap_gaussian, overlap_pde_batch, two_point_shift)

SYMMETRIC_NON_GAUSSIAN = {
    "cat2": CatState(2.0),
    "fock2": FockSuperposition.fock(2),
    "fock24i": FockSuperposition.from_dict({2: 0.5, 4: 1j * math.sqrt(0.75)}),
}
# mixed parity with a relative phase i: no reflection symmetry
ASYMMETRIC_FOCK = FockSuperposition.from_dict(
    {0: math.sqrt(0.5), 1: 1j * math.sqrt(0.5)})


def _moment_oracle(s, fp):
    """(P_sym, deltaP, c) of a Gaussian from its first-order moments in g:
    the evolved mean and covariance at g = 0 and their g-derivatives give
    d log P / dg through a determinant, a trace and quadratic forms."""
    a, d, t = fp.alpha, fp.d, fp.tbar
    mt = s.mean.copy()
    mt[1] -= a * t
    sigma = 2.0 * s.cov + np.diag([0.0, d * t])
    dmt = np.array([0.0, -s.mean[1] * t + 0.5 * a * t * t])
    dct = np.array([[0.0, -t * s.cov[0, 1]],
                    [-t * s.cov[0, 1], -2.0 * t * s.cov[1, 1] - d * t * t]])
    dm = s.mean - mt
    inv = np.linalg.inv(sigma)
    p_sym = np.linalg.det(sigma) ** -0.5 * math.exp(-0.5 * dm @ inv @ dm)
    dlogp = (-0.5 * np.trace(inv @ dct) + 0.5 * dm @ inv @ dct @ inv @ dm
             + dm @ inv @ dmt)
    return p_sym, fp.g * p_sym * dlogp, 2.0 * dlogp / t


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
    # <p> = 0 with any covariance and any <x>: the moment algebra gives
    # c = 1, and the identity deltaP = (g tbar / 2) P_sym reproduces it
    tilted = GaussianState.squeezed(0.8, phase=math.pi / 2 + 0.3)
    for state in [GaussianState.vacuum(), GaussianState.squeezed(0.7),
                  GaussianState.squeezed(1.44), tilted,
                  GaussianState([0.7, 0.0], tilted.cov)]:
        for alpha, d, tbar in [(0.1, 0.0, 4.0), (0.3, 0.05, 3.0),
                               (1.0, 0.3, 0.8)]:
            fp = FPParams(alpha=alpha, d=d, tbar=tbar, g=1e-3)
            p_sym, delta_p, c = asymmetric_overlap(state, fp)
            want_p, want_dp, want_c = _moment_oracle(state, fp)
            assert want_c == pytest.approx(1.0, abs=1e-12)
            assert c == 1.0
            assert p_sym == pytest.approx(want_p, rel=1e-12)
            assert delta_p == pytest.approx(want_dp, rel=1e-12)


def test_momentum_offset_breaks_the_identity():
    # for the vacuum displaced to <p> = m the moment algebra gives
    # c = 1 - 2 alpha tbar m / (1 + d tbar): 1.46 here, so the identity
    # does not apply and the probe is refused
    state = GaussianState([0.0, -0.4], 0.5 * np.eye(2))
    fp = FPParams(alpha=0.575, d=0.0, tbar=1.0, g=1e-3)
    assert _moment_oracle(state, fp)[2] == pytest.approx(1.46, abs=1e-12)
    with pytest.raises(ConfigError, match="point reflection"):
        asymmetric_overlap(state, fp)


@pytest.mark.parametrize("name", sorted(SYMMETRIC_NON_GAUSSIAN))
def test_asymmetry_constant_is_unity_for_symmetric_probes(name):
    # c from a central difference in g of the Crank-Nicolson oracle, which
    # shares nothing with the identity
    state = SYMMETRIC_NON_GAUSSIAN[name]
    h = 2e-3
    fp = FPParams(alpha=0.5, d=0.05, tbar=1.0, g=h)
    p_plus, p_minus = overlap_pde_batch(
        state, [fp, dataclasses.replace(fp, g=-h)])
    _, delta_p, c = asymmetric_overlap(state, fp)
    assert c == 1.0
    assert 0.5 * (p_plus - p_minus) / delta_p == pytest.approx(1.0, abs=1e-3)


def test_asymmetric_probe_is_refused():
    h = 2e-3
    fp = FPParams(alpha=0.5, d=0.05, tbar=1.0, g=h)
    p_plus, p_minus = overlap_pde_batch(
        ASYMMETRIC_FOCK, [fp, dataclasses.replace(fp, g=-h)])
    identity = 0.5 * h * fp.tbar * overlap_after(
        ASYMMETRIC_FOCK, dataclasses.replace(fp, g=0.0))
    assert abs(0.5 * (p_plus - p_minus) / identity - 1.0) > 0.5
    with pytest.raises(ConfigError, match="point reflection"):
        asymmetric_overlap(ASYMMETRIC_FOCK, fp)
    # real coefficients up to a global phase, or a single parity, pass
    for entries in [{0: 0.6j, 1: 0.8j}, {1: 0.6, 3: 0.8j},
                    {0: 0.6, 1: -0.8}]:
        state = FockSuperposition.from_dict(entries)
        assert asymmetric_overlap(state, fp)[2] == 1.0


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
    with_slopes = doppler.coefficients_with_slopes

    def doubled_g(p):
        calls.append(p)
        c, slopes = with_slopes(p)
        return dataclasses.replace(c, g=2.0 * c.g), slopes

    state = GaussianState.squeezed(0.5)
    res = two_point_shift(state, dipole_pulse)
    monkeypatch.setattr(doppler, "coefficients_with_slopes", doubled_g)
    res2 = two_point_shift(state, dipole_pulse)
    # one coefficient evaluation per shift, and g is read from it alone:
    # doubling it there doubles the odd part and the shift, bit for bit
    assert calls == [dipole_pulse]
    assert res2.delta_p_asym == 2.0 * res.delta_p_asym
    assert res2.shift == 2.0 * res.shift
    assert (res2.tstar, res2.c_const, res2.dp_ddelta) == \
        (res.tstar, res.c_const, res.dp_ddelta)


def test_shift_evaluates_each_pulse_block_once(dipole_pulse, monkeypatch):
    import recoilspec._expm as _expm
    import recoilspec.recoil as recoil

    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(recoil, "expm_frechet")
    counted(_expm, "expm")
    two_point_shift(FockSuperposition.fock(2), dipole_pulse)
    # one Frechet derivative of the stack of both complex pulse blocks,
    # one exponential of its doubled blocks, gives every integral and both
    # detuning slopes
    assert calls == ["expm_frechet", "expm"]
    calls.clear()
    recoil.compute_coefficients(dipole_pulse)
    assert calls == ["expm_frechet", "expm"]


def test_flat_flank_raises(dipole_pulse):
    # on resonance the detuning slopes of alpha and D vanish exactly
    with pytest.raises(FlatFlankError):
        two_point_shift(GaussianState.vacuum(), dipole_pulse.with_detuning(0.0))


def test_perturbative_guard():
    state = GaussianState.vacuum()
    with pytest.raises(PerturbativeRegimeError):
        asymmetric_overlap(state, FPParams(alpha=0.2, d=0.0, tbar=5.0, g=0.1))


def test_shift_refuses_a_working_point_beyond_the_perturbative_range(
        dipole_pulse):
    # eta = 1 gives |g t*| = 0.14 at the vacuum's working point, and
    # asymmetric_overlap, the shift's first step there, refuses it
    pulse = dataclasses.replace(dipole_pulse, lamb_dicke=1.0)
    with pytest.raises(PerturbativeRegimeError, match="perturbative"):
        two_point_shift(GaussianState.vacuum(), pulse)


def test_shift_scales_inversely_with_sensitivity(dipole_pulse):
    # shift magnitude times sensitivity equals |g| c / 4 in shared units
    from recoilspec import compute_coefficients, recoil_sensitivity
    coeffs = compute_coefficients(dipole_pulse)
    from recoilspec.recoil import detuning_slopes
    dalpha = detuning_slopes(dipole_pulse)[0]
    for state, tol in [(GaussianState.vacuum(), 0.02),
                       (GaussianState.squeezed(0.8), 0.05),
                       (CatState(2.0), 0.05),
                       (FockSuperposition.fock(2), 0.05)]:
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
