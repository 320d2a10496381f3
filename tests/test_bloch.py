"""Internal-state dynamics checked against two independent oracles:
adaptive Runge-Kutta integration of the 3-vector equation of motion, and a
brute-force density-matrix computation in the 4-dimensional Liouville space.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from recoilspec import ConfigError, PulseParams, correlation_yy, solve_bloch, steady_state
from recoilspec.bloch import affine_generator, bloch_matrix

TWO_PI = 2.0 * math.pi

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SM = np.array([[0, 0], [1, 0]], dtype=complex)  # |g><e| with e=(1,0)


def _liouvillian(p: PulseParams) -> np.ndarray:
    h = 0.5 * p.detuning * SZ + 0.5 * p.rabi * SX
    eye = np.eye(2)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    lv += p.linewidth * (np.kron(SM, SM.conj())
                         - 0.5 * np.kron(SM.conj().T @ SM, eye)
                         - 0.5 * np.kron(eye, (SM.conj().T @ SM).T))
    return lv


def _rho_ground() -> np.ndarray:
    rho = np.zeros((2, 2), dtype=complex)
    rho[1, 1] = 1.0
    return rho


def _expect(rho, op):
    return np.trace(rho @ op)


def _oracle_sigma(p: PulseParams, t: float) -> np.ndarray:
    rho = (expm(_liouvillian(p) * t) @ _rho_ground().reshape(-1)).reshape(2, 2)
    return np.array([_expect(rho, op).real for op in (SX, SY, SZ)])


def _oracle_corr(p: PulseParams, t: float, tp: float) -> float:
    lv = _liouvillian(p)
    rho_tp = (expm(lv * tp) @ _rho_ground().reshape(-1)).reshape(2, 2)
    evolved = (expm(lv * (t - tp)) @ (SY @ rho_tp).reshape(-1)).reshape(2, 2)
    return np.trace(SY @ evolved).real


def test_rk_oracle_full_pulse(dipole_pulse):
    m, mv = bloch_matrix(dipole_pulse)

    def rhs(_, s):
        return m @ s + dipole_pulse.linewidth * mv

    sol = solve_ivp(rhs, (0.0, dipole_pulse.pulse_duration),
                    [0.0, 0.0, -1.0], rtol=1e-11, atol=1e-13,
                    dense_output=True)
    ref = sol.y[:, -1]
    got = solve_bloch(dipole_pulse, dipole_pulse.pulse_duration)
    assert np.max(np.abs(got - ref)) < 1e-9


def test_liouvillian_oracle_sigma(dipole_pulse):
    for t in [5e-9, 20e-9, 50e-9]:
        s = solve_bloch(dipole_pulse, t)
        assert np.max(np.abs(s - _oracle_sigma(dipole_pulse, t))) < 1e-9


def test_liouvillian_oracle_correlation(dipole_pulse):
    t, tp = 40e-9, 10e-9
    got = correlation_yy(dipole_pulse, t, tp)
    assert abs(got - _oracle_corr(dipole_pulse, t, tp)) < 1e-9


@pytest.mark.parametrize("offset", [-1e-9, 0.0, 1e-9])
def test_liouvillian_oracle_at_the_exceptional_point(dipole_pulse, offset):
    # at Omega = Gamma/4, Delta = 0 two eigenvalues of M meet and the
    # eigenvectors go parallel, so no eigenbasis may build e^{tA} there
    p = replace(dipole_pulse, detuning=0.0,
                rabi=0.25 * (1.0 + offset) * dipole_pulse.linewidth)
    for t in [5e-9, 20e-9, 50e-9]:
        assert np.max(np.abs(solve_bloch(p, t) - _oracle_sigma(p, t))) <= 1e-12
    for t, tp in [(40e-9, 10e-9), (50e-9, 0.0), (30e-9, 29e-9)]:
        assert abs(correlation_yy(p, t, tp) - _oracle_corr(p, t, tp)) <= 1e-12


def test_equal_time_correlation_is_unity(dipole_pulse):
    assert correlation_yy(dipole_pulse, 30e-9, 30e-9) == pytest.approx(1.0, abs=1e-12)
    # <sigma_y^2> = 1 over the whole pulse, ends included
    for t in np.linspace(0.0, dipole_pulse.pulse_duration, 9):
        assert correlation_yy(dipole_pulse, t, t) == pytest.approx(1.0, abs=1e-10)


def test_correlation_rejects_reversed_times(dipole_pulse):
    with pytest.raises(ConfigError):
        correlation_yy(dipole_pulse, 10e-9, 40e-9)


def _doppler_shifted(p, momentum):
    """The pulse as seen by an ion at dimensionless momentum `momentum`."""
    return p.with_detuning(p.detuning - p.eta_bar * p.mode_freq * momentum)


def test_steady_state_is_fixed_point(dipole_pulse):
    m, mv = bloch_matrix(dipole_pulse)
    s = steady_state(dipole_pulse)
    residual = m @ s + dipole_pulse.linewidth * mv
    assert np.max(np.abs(residual)) < 1e-12 * dipole_pulse.linewidth
    # (s, 1) is a fixed point of the affine generator, Doppler-shifted too
    for momentum in (0.0, 0.7, -2.5):
        p = _doppler_shifted(dipole_pulse, momentum)
        residual = affine_generator(p) @ np.append(steady_state(p), 1.0)
        assert np.max(np.abs(residual)) < 1e-12 * dipole_pulse.linewidth


@pytest.mark.parametrize("tau", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
def test_long_pulse_reaches_the_steady_state(dipole_pulse, tau):
    # after tau >> 1/linewidth the state is the fixed point to rounding;
    # the affine 1 of (s, 1) must not gain a rounding per squaring
    s = solve_bloch(replace(dipole_pulse, pulse_duration=tau), tau)
    want = steady_state(dipole_pulse)
    assert np.max(np.abs(s - want)) <= 1e-14 * np.max(np.abs(want))


def test_detuning_parity(dipole_pulse):
    plus = solve_bloch(dipole_pulse, 30e-9)
    minus = solve_bloch(dipole_pulse.with_detuning(-dipole_pulse.detuning), 30e-9)
    assert plus[1] == pytest.approx(minus[1], rel=1e-12)
    assert plus[2] == pytest.approx(minus[2], rel=1e-12)
    assert plus[0] == pytest.approx(-minus[0], rel=1e-12)


def test_starts_in_ground_state(dipole_pulse):
    s = solve_bloch(dipole_pulse, 0.0)
    assert np.allclose(s, [0.0, 0.0, -1.0], atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(rabi=st.floats(0.0, 20e6), detuning=st.floats(-60e6, 60e6),
       frac=st.floats(0.0, 1.0))
def test_bloch_vector_stays_in_ball(rabi, detuning, frac):
    p = PulseParams(rabi=TWO_PI * rabi, linewidth=TWO_PI * 34e6,
                    detuning=TWO_PI * detuning, lamb_dicke=0.108,
                    mode_freq=TWO_PI * 1.92e6, pulse_duration=50e-9)
    s = solve_bloch(p, frac * p.pulse_duration)
    assert np.linalg.norm(s) <= 1.0 + 1e-9


@pytest.mark.parametrize("rabi_over_gamma, detuning, momentum", [
    (5.6 / 34.0, TWO_PI * 17e6, 0.0),      # the pinned dipole pulse
    (5.6 / 34.0, TWO_PI * 17e6, 0.8),      # Doppler-shifted
    (0.25, 0.0, 0.0),                      # the exceptional point
])
def test_arrays_equal_scalar_calls_bit_for_bit(dipole_pulse, rabi_over_gamma,
                                               detuning, momentum):
    p = _doppler_shifted(replace(dipole_pulse, detuning=detuning,
                                 rabi=rabi_over_gamma * dipole_pulse.linewidth),
                         momentum)
    t = np.linspace(0.0, p.pulse_duration, 9)
    t_in = t[:, None] * np.linspace(0.0, 1.0, 6)
    want = [solve_bloch(p, x) for x in t]
    assert np.array_equal(solve_bloch(p, t), want)
    want = [[correlation_yy(p, a, b) for b in row]
            for a, row in zip(t, t_in)]
    assert np.array_equal(correlation_yy(p, t[:, None], t_in), want)
    row = [correlation_yy(p, t[-1], b) for b in t]
    assert np.array_equal(correlation_yy(p, t[-1], t), row)


_TAU = 50e-9                                   # the dipole pulse's length
_BAD_TIMES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.5 * _TAU]),
    st.floats(max_value=-5e-324),              # negative, down to -inf
    st.floats(min_value=-2.2250738585072014e-308,
              max_value=-5e-324),              # negative subnormals
    st.floats(min_value=_TAU * (1.0 + 2e-12)),  # after the pulse, up to inf
)
# Not finite, or a Doppler shift eta_bar nu p beyond the largest float.
_BAD_MOMENTA = (st.sampled_from([math.nan, math.inf, -math.inf])
                | st.floats(min_value=1e303) | st.floats(max_value=-1e303))


@settings(max_examples=60, deadline=None)
@given(bad_time=_BAD_TIMES, bad_momentum=_BAD_MOMENTA,
       frac=st.floats(0.0, 1.0))
def test_bad_times_and_momenta_raise_config_error(dipole_pulse, bad_time,
                                                  bad_momentum, frac):
    p, good = dipole_pulse, frac * dipole_pulse.pulse_duration
    assert p.pulse_duration == _TAU
    calls = [lambda: solve_bloch(p, bad_time),
             lambda: solve_bloch(p, [good, bad_time]),
             lambda: correlation_yy(p, bad_time, good),
             lambda: correlation_yy(p, good, bad_time),
             lambda: correlation_yy(p, [good, bad_time], [0.0, 0.0]),
             lambda: correlation_yy(p, good, [0.0, bad_time]),
             lambda: _doppler_shifted(p, bad_momentum)]
    for call in calls:
        with pytest.raises(ConfigError):
            call()


def test_parameter_validation():
    with pytest.raises(ConfigError):
        PulseParams(rabi=1.0, linewidth=0.0, detuning=0.0, lamb_dicke=0.1,
                    mode_freq=1.0, pulse_duration=1.0)
    with pytest.raises(ConfigError):
        PulseParams(rabi=1.0, linewidth=1.0, detuning=0.0, lamb_dicke=-0.1,
                    mode_freq=1.0, pulse_duration=1.0)
    with pytest.raises(ConfigError):
        PulseParams(rabi=1.0, linewidth=1.0, detuning=0.0, lamb_dicke=0.1,
                    mode_freq=1.0, pulse_duration=0.0)
    good = dict(rabi=1.0, linewidth=1.0, detuning=0.0, lamb_dicke=0.1,
                mode_freq=1.0, pulse_duration=1.0)
    for field in good:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=field):
                PulseParams(**{**good, field: bad})
