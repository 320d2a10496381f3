"""Per-pulse drift/diffusion coefficients against independent integrators."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from recoilspec import (PulseParams, compute_coefficients, correlation_yy,
                        detuning_slopes, solve_bloch)

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)
KEYS = ("alpha_x", "alpha_p", "d_xx", "d_pp", "d_xp", "n1")


def _gauss_legendre_coefficients(p: PulseParams, n: int) -> dict:
    """Tensor Gauss-Legendre oracle: n outer nodes on [0, tau], n inner
    nodes mapped onto [0, t] for each outer node t; sigma_y and its
    regression correlator from the pointwise Bloch functions."""
    nu = p.mode_freq
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * p.pulse_duration * (x + 1.0)
    wt = 0.5 * p.pulse_duration * w
    sy = solve_bloch(p, t)[:, 1]
    t_in = 0.5 * t[:, None] * (x[None, :] + 1.0)
    w_in = 0.5 * t[:, None] * w[None, :]
    corr = correlation_yy(p, t[:, None], t_in)
    wgt = wt[:, None] * w_in * corr
    so, co = np.sin(nu * t)[:, None], np.cos(nu * t)[:, None]
    si, ci = np.sin(nu * t_in), np.cos(nu * t_in)
    pref = p.lamb_dicke * p.rabi / SQRT2
    pref2 = (p.lamb_dicke * p.rabi) ** 2
    alpha_x = pref * np.sum(wt * np.sin(nu * t) * sy)
    alpha_p = -pref * np.sum(wt * np.cos(nu * t) * sy)
    return {"alpha_x": alpha_x, "alpha_p": abs(alpha_p),
            "d_xx": pref2 * np.sum(wgt * so * si) - alpha_x**2,
            "d_pp": pref2 * np.sum(wgt * co * ci) - alpha_p**2,
            "d_xp": (-0.5 * pref2 * np.sum(wgt * (so * ci - co * si))
                     - alpha_x * alpha_p),
            "n1": 0.5 * p.rabi * np.sum(wt * sy)}


@pytest.mark.parametrize("n, overrides", [
    (128, {}),
    (128, {"detuning": TWO_PI * 40e6}),
    (128, {"detuning": -TWO_PI * 40e6}),
    (512, {"pulse_duration": 8e-6}),
    (512, {"rabi": TWO_PI * 1e9}),
])
def test_coefficients_against_gauss_legendre_oracle(dipole_pulse, n,
                                                    overrides):
    p = replace(dipole_pulse, **overrides)
    want = _gauss_legendre_coefficients(p, n)
    got = compute_coefficients(p)
    scale = max(abs(want["alpha_p"]), abs(want["d_pp"]))
    for key in KEYS:
        assert abs(getattr(got, key) - want[key]) <= 1e-10 * scale, key


def test_drift_against_trapezoid_oracle(dipole_pulse):
    # dense uniform-grid trapezoid is a different integration scheme entirely
    n = 4001
    t = np.linspace(0.0, dipole_pulse.pulse_duration, n)
    sy = solve_bloch(dipole_pulse, t)[:, 1]
    pref = dipole_pulse.lamb_dicke * dipole_pulse.rabi / SQRT2
    ref = abs(-pref * np.trapezoid(np.cos(dipole_pulse.mode_freq * t) * sy, t))
    got = compute_coefficients(dipole_pulse).alpha_p
    assert got == pytest.approx(ref, rel=1e-7)


def test_diffusion_against_trapezoid_oracle(dipole_pulse):
    n = 801
    t = np.linspace(0.0, dipole_pulse.pulse_duration, n)
    cos_t = np.cos(dipole_pulse.mode_freq * t)
    inner = np.zeros(n)
    for i in range(1, n):
        corr = correlation_yy(dipole_pulse, t[i], t[: i + 1])
        inner[i] = cos_t[i] * np.trapezoid(cos_t[: i + 1] * corr, t[: i + 1])
    double = np.trapezoid(inner, t)
    eta2o2 = (dipole_pulse.lamb_dicke * dipole_pulse.rabi) ** 2
    c = compute_coefficients(dipole_pulse)
    ref = eta2o2 * double - c.alpha_p**2
    assert c.d_pp == pytest.approx(ref, rel=5e-4)


def test_damping_against_four_point_difference(dipole_pulse):
    h = 1e-3 * dipole_pulse.linewidth
    d0 = dipole_pulse.detuning

    def a(delta):
        return compute_coefficients(dipole_pulse.with_detuning(delta)).alpha_p

    fd = (a(d0 - 2 * h) - 8 * a(d0 - h) + 8 * a(d0 + h) - a(d0 + 2 * h)) / (12 * h)
    got = compute_coefficients(dipole_pulse).g
    ref = dipole_pulse.eta_bar * dipole_pulse.mode_freq * fd
    assert got == pytest.approx(ref, rel=1e-4)


@pytest.mark.parametrize("offset_hz", [0.0, -40e6, 40e6])
def test_detuning_slopes_against_central_difference(dipole_pulse, offset_hz):
    pulse = dipole_pulse.with_detuning(dipole_pulse.detuning
                                       + TWO_PI * offset_hz)
    h = 1e-4 * pulse.linewidth

    def at(delta):
        c = compute_coefficients(pulse.with_detuning(delta))
        return np.array([c.alpha_p, c.d_pp])

    fd = (at(pulse.detuning + h) - at(pulse.detuning - h)) / (2 * h)
    got = detuning_slopes(pulse)
    assert got == pytest.approx(tuple(fd), rel=1e-6)
    # g is the same drift slope, scaled by eta_bar nu
    assert compute_coefficients(pulse).g == \
        pulse.eta_bar * pulse.mode_freq * got[0]


def test_detuning_symmetry(dipole_pulse):
    plus = compute_coefficients(dipole_pulse)
    minus = compute_coefficients(
        dipole_pulse.with_detuning(-dipole_pulse.detuning))
    assert plus.alpha_p == pytest.approx(minus.alpha_p, rel=1e-10)
    assert plus.d_pp == pytest.approx(minus.d_pp, rel=1e-8)
    assert plus.g == pytest.approx(-minus.g, rel=1e-4)


def test_momentum_diffusion_positive(dipole_pulse):
    c = compute_coefficients(dipole_pulse)
    assert c.d_pp > 0.0
    assert c.d_xx > 0.0
    assert c.epsilon == pytest.approx(c.d_pp / c.alpha_p)


def test_photon_number_positive_on_resonance(dipole_pulse):
    t = np.linspace(0.0, dipole_pulse.pulse_duration, 4001)
    sy = solve_bloch(dipole_pulse, t)[:, 1]
    ref = 0.5 * dipole_pulse.rabi * np.trapezoid(sy, t)
    c = compute_coefficients(dipole_pulse)
    assert c.n1 > 0.0
    assert c.n1 == pytest.approx(ref, rel=1e-7)


def test_zero_rabi_gives_zero_coefficients(dipole_pulse):
    quiet = replace(dipole_pulse, rabi=0.0)
    c = compute_coefficients(quiet)
    assert c.alpha_p == 0.0
    assert c.d_pp == 0.0
    assert c.n1 == 0.0
    assert c.g == 0.0


def test_reference_scenario_values_and_runtime(dipole_pulse):
    start = time.perf_counter()
    c = compute_coefficients(dipole_pulse)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    # pinned against the trapezoid/Liouvillian-verified pipeline
    assert c.alpha_p == pytest.approx(2.0300e-2, rel=1e-3)
    assert c.d_pp == pytest.approx(2.840e-3, rel=1e-3)
    assert c.n1 == pytest.approx(0.141483, rel=1e-4)
    assert c.g == pytest.approx(-2.746e-4, rel=1e-2)


def test_drift_slope_sign_on_upper_flank(dipole_pulse):
    # above resonance the drift magnitude falls with detuning
    assert detuning_slopes(dipole_pulse)[0] < 0.0


def test_per_second_scaling(dipole_pulse):
    c = compute_coefficients(dipole_pulse)
    rate = dipole_pulse.mode_freq / TWO_PI
    per_s = c.per_second(dipole_pulse)
    assert per_s["alpha_p"] == pytest.approx(c.alpha_p * rate)
