"""Internal-state dynamics checked against two independent oracles:
adaptive Runge-Kutta integration of the 3-vector equation of motion, and a
brute-force density-matrix computation in the 4-dimensional Liouville space.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from recoilspec import ConfigError, PulseParams, correlation_yy, solve_bloch, steady_state
from recoilspec.bloch import bloch_matrix

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


def test_rk_oracle_full_pulse(dipole_pulse):
    m, mv = bloch_matrix(dipole_pulse)

    def rhs(_, s):
        return m @ s + dipole_pulse.linewidth * mv

    sol = solve_ivp(rhs, (0.0, dipole_pulse.pulse_duration),
                    [0.0, 0.0, -1.0], rtol=1e-11, atol=1e-13,
                    dense_output=True)
    ref = sol.y[:, -1]
    got = solve_bloch(dipole_pulse, dipole_pulse.pulse_duration).as_array()
    assert np.max(np.abs(got - ref)) < 1e-9


def test_liouvillian_oracle_sigma(dipole_pulse):
    lv = _liouvillian(dipole_pulse)
    for t in [5e-9, 20e-9, 50e-9]:
        rho = expm(lv * t) @ _rho_ground().reshape(-1)
        rho = rho.reshape(2, 2)
        s = solve_bloch(dipole_pulse, t)
        assert abs(s.sx - _expect(rho, SX).real) < 1e-9
        assert abs(s.sy - _expect(rho, SY).real) < 1e-9
        assert abs(s.sz - _expect(rho, SZ).real) < 1e-9


def test_liouvillian_oracle_correlation(dipole_pulse):
    lv = _liouvillian(dipole_pulse)
    t, tp = 40e-9, 10e-9
    rho_tp = (expm(lv * tp) @ _rho_ground().reshape(-1)).reshape(2, 2)
    evolved = (expm(lv * (t - tp)) @ (SY @ rho_tp).reshape(-1)).reshape(2, 2)
    ref = np.trace(SY @ evolved)
    got = correlation_yy(dipole_pulse, t, tp)
    assert abs(got - ref.real) < 1e-9


def test_equal_time_correlation_is_unity(dipole_pulse):
    assert correlation_yy(dipole_pulse, 30e-9, 30e-9) == pytest.approx(1.0, abs=1e-12)
    # <sigma_y^2> = 1 over the whole pulse, ends included
    for t in np.linspace(0.0, dipole_pulse.pulse_duration, 9):
        assert correlation_yy(dipole_pulse, t, t) == pytest.approx(1.0, abs=1e-10)


def test_correlation_rejects_reversed_times(dipole_pulse):
    with pytest.raises(ConfigError):
        correlation_yy(dipole_pulse, 10e-9, 40e-9)


def test_steady_state_is_fixed_point(dipole_pulse):
    m, mv = bloch_matrix(dipole_pulse)
    s = steady_state(dipole_pulse)
    residual = m @ s + dipole_pulse.linewidth * mv
    assert np.max(np.abs(residual)) < 1e-12 * dipole_pulse.linewidth


def test_detuning_parity(dipole_pulse):
    plus = solve_bloch(dipole_pulse, 30e-9)
    minus = solve_bloch(dipole_pulse.with_detuning(-dipole_pulse.detuning), 30e-9)
    assert plus.sy == pytest.approx(minus.sy, rel=1e-12)
    assert plus.sz == pytest.approx(minus.sz, rel=1e-12)
    assert plus.sx == pytest.approx(-minus.sx, rel=1e-12)


def test_starts_in_ground_state(dipole_pulse):
    s = solve_bloch(dipole_pulse, 0.0)
    assert np.allclose(s.as_array(), [0.0, 0.0, -1.0], atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(rabi=st.floats(0.0, 20e6), detuning=st.floats(-60e6, 60e6),
       frac=st.floats(0.0, 1.0))
def test_bloch_vector_stays_in_ball(rabi, detuning, frac):
    p = PulseParams(rabi=TWO_PI * rabi, linewidth=TWO_PI * 34e6,
                    detuning=TWO_PI * detuning, lamb_dicke=0.108,
                    mode_freq=TWO_PI * 1.92e6, pulse_duration=50e-9)
    s = solve_bloch(p, frac * p.pulse_duration)
    assert s.norm <= 1.0 + 1e-9


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
