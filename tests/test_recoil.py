"""Per-pulse drift/diffusion coefficients against independent integrators."""

import dataclasses
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from recoilspec import (PulseParams, compute_coefficients, correlation_yy,
                        detuning_slopes, solve_bloch)
from recoilspec.recoil import coefficients_with_slopes

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


# The pulses of the 40-digit reference, as overrides of `dipole_pulse`.
# Their values were computed with mpmath at 80 digits, with every float
# parameter taken as its exact binary value: the single and double
# integrals from the exponentials of the real 15x15 and 36x36 Kronecker
# Van Loan blocks (state (I, phi (x) s~, s~) and (J, phi (x) u_g,
# phi (x) phi (x) s~), phi = (sin nu t, cos nu t), s~ = (s, 1)), the
# detuning slopes as central differences of those exponentials with step
# 1e-26 linewidth.  A 60-digit run agrees with them to 1e-37 relative.
REFERENCE_PULSES = {
    "dipole": {},
    "detuning+40MHz": {"detuning": TWO_PI * 40e6},
    "detuning-40MHz": {"detuning": -TWO_PI * 40e6},
    "8us": {"pulse_duration": 8e-6},
    "1ms": {"pulse_duration": 1e-3},
    "rabi-1GHz": {"rabi": TWO_PI * 1e9},
    "linewidth-1GHz": {"linewidth": TWO_PI * 1e9},
    "trap-1GHz": {"mode_freq": TWO_PI * 1e9},
}
REFERENCE = {
    'dipole': {
        'alpha_x': 6.533138729796452880681562554482363546125e-3,
        'alpha_p': 2.029998025248604087527849797629448052785e-2,
        'd_xx': 3.589146189709854713737608902473976098018e-4,
        'd_pp': 2.840019917622851727452261158394386323419e-3,
        'd_xp': 5.704562972635218194892811323341309204016e-5,
        'g': -2.746043297815122643359396044384038065023e-4,
        'n1': 1.41483176433755000039512218723077599045e-1,
        'slope_alpha_p': -1.490347454847139155866203208833396275254e-10,
        'slope_d_pp': -1.930055626419026019669200334448119055005e-11,
    },
    'detuning+40MHz': {
        'alpha_x': 2.013527367839068740590388385828800735724e-3,
        'alpha_p': 7.182415345799984876031055812835439667101e-3,
        'd_xx': 1.377396505596058948453886737550189412879e-4,
        'd_pp': 1.025464476482333930854538260123392317364e-3,
        'd_xp': 4.062745080199260663235579362682641326514e-5,
        'g': -8.398156763957150207740206796537993935673e-5,
        'n1': 4.963817514330257124231042112889941069111e-2,
        'slope_alpha_p': -4.557893012294912627781754861790369195737e-11,
        'slope_d_pp': -6.523019097529155625346772002020575717956e-12,
    },
    'detuning-40MHz': {
        'alpha_x': 2.013527367839068740590388385828800735724e-3,
        'alpha_p': 7.182415345799984876031055812835439667101e-3,
        'd_xx': 1.377396505596058948453886737550189412879e-4,
        'd_pp': 1.025464476482333930854538260123392317364e-3,
        'd_xp': 4.062745080199260663235579362682641326514e-5,
        'g': 8.398156763957150207740206796537993935673e-5,
        'n1': 4.963817514330257124231042112889941069111e-2,
        'slope_alpha_p': 4.557893012294912627781754861790369195737e-11,
        'slope_d_pp': 6.523019097529155625346772002020575717956e-12,
    },
    '8us': {
        'alpha_x': 5.870791570710589014518799701376736424805e-2,
        'alpha_p': 2.75494706093707967658284744928105611813e-2,
        'd_xx': 2.593238002701808607113884176349181097049e-1,
        'd_pp': 2.566810252432507688021148414418007405372e-1,
        'd_xp': -1.207185043783165793435982845700841669416e-1,
        'g': -3.954208834856438446838951998142645903951e-4,
        'n1': 2.25693539790584434973950794092093808991e+1,
        'slope_alpha_p': -2.146049582558009834874828356840817450711e-10,
        'slope_d_pp': -2.134228976319093799897607064904689902244e-9,
    },
    '1ms': {
        'alpha_x': 2.233546614535806154027236559496351973655e-4,
        'alpha_p': 2.872517891147309438366098337902935295002e-5,
        'd_xx': 3.225197231791128426326133018725920867908e+1,
        'd_pp': 3.225195356682010299497444320849842927129e+1,
        'd_xp': -1.541137168297371406290926686103620387091e+1,
        'g': 6.677563898955089609355554561391356191466e-5,
        'n1': 2.821125998093625166924298189874663869861e+3,
        'slope_alpha_p': 3.624083556623100227766878391332430681743e-11,
        'slope_d_pp': -2.686186367423475535537324161216516008198e-7,
    },
    'rabi-1GHz': {
        'alpha_x': 2.383691223529744067973516379848202671271e-1,
        'alpha_p': 8.42426017154299347290245203930910259538e-1,
        'd_xx': 1.589357844031338424504762451771808132723e-2,
        'd_pp': 1.142178526359691117550768455330702065731e-1,
        'd_xp': 1.206221639741827006939052088072157234579e-1,
        'g': -1.527232068602845955477635616585057240619e-5,
        'n1': 5.833220270121075319770389163019227885204,
        'slope_alpha_p': -8.288676395649540666914886545942393630849e-12,
        'slope_d_pp': -2.040575409230473776687925926543930493489e-13,
    },
    'linewidth-1GHz': {
        'alpha_x': 4.396560325013447553454257683693406333592e-4,
        'alpha_p': 1.403883051795658755354561939839933396993e-3,
        'd_xx': 2.564242883321280394762266620251453177682e-5,
        'd_pp': 2.024025522376090360954735530888671241184e-4,
        'd_xp': -3.560492744579725722118680790485128886515e-8,
        'g': -5.516048286888118153496511733527035594639e-8,
        'n1': 9.777549192550884636769292434755748257128e-3,
        'slope_alpha_p': -2.993699528233402318968948285514611725541e-14,
        'slope_d_pp': -4.320551224560074798833621797006961300829e-15,
    },
    'trap-1GHz': {
        'alpha_x': -6.812389229760837277246089644043279702237e-5,
        'alpha_p': 2.387820550765055531692519503210267908279e-6,
        'd_xx': 1.337415735907942180736013846971001295809e-6,
        'd_pp': 9.77358071924263910691545991939249136058e-7,
        'd_xp': -5.74508613440042080331945958420914362101e-5,
        'g': -3.414126396705384878959988816440231475746e-7,
        'n1': 1.41483176433755000039512218723077599045e-1,
        'slope_alpha_p': -3.557631597658017011552337039209701992798e-16,
        'slope_d_pp': 1.864765496524334846230468732727279283627e-17,
    },
}


def _reference_scales(p: PulseParams, want: dict) -> dict:
    """The size each reference value's error is measured against.

    An integral against an oscillating weight over many trap periods
    cancels far below the size of its integrand, and no floating-point
    route resolves it better than that size.  So the drifts are measured
    against sqrt2 eta n1 = (eta Omega / sqrt2) int <sy> dt, the diffusion
    constants against the largest of them, and the detuning slopes against
    these per power-broadened linewidth sqrt(Gamma^2 + 2 Omega^2).
    """
    drift = SQRT2 * p.lamb_dicke * want["n1"]
    diffusion = max(abs(want[k]) for k in ("d_xx", "d_pp", "d_xp"))
    width = math.hypot(p.linewidth, SQRT2 * p.rabi)
    return {"alpha_x": drift, "alpha_p": drift, "n1": want["n1"],
            "d_xx": diffusion, "d_pp": diffusion, "d_xp": diffusion,
            "g": p.eta_bar * p.mode_freq * drift / width,
            "slope_alpha_p": drift / width, "slope_d_pp": diffusion / width}


@pytest.mark.parametrize("name", list(REFERENCE))
def test_coefficients_and_slopes_against_40_digit_reference(dipole_pulse,
                                                            name):
    p = replace(dipole_pulse, **REFERENCE_PULSES[name])
    want = REFERENCE[name]
    coeffs, (slope_alpha, slope_d) = coefficients_with_slopes(p)
    got = {**dataclasses.asdict(coeffs), "slope_alpha_p": slope_alpha,
           "slope_d_pp": slope_d}
    scales = _reference_scales(p, want)
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-14 * scales[key], key
