"""The package's matrix exponential and Frechet derivative against scipy's,
on the Van Loan blocks of the pulse coefficients and on stacks."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from recoilspec import recoil
from recoilspec._expm import expm, expm_frechet

TWO_PI = 2.0 * math.pi


def _rel(got, want):
    """1-norm error relative to the 1-norm of `want`."""
    return np.linalg.norm(got - want, 1) / np.linalg.norm(want, 1)


def _blocks(p):
    """The 15x15 and 36x36 pulse blocks, each with its detuning direction."""
    single, d_single = recoil._single_block(p)
    double = recoil._double_block(p)
    d_double = np.zeros((36, 36))
    d_double[4:20, 4:20] = d_double[20:, 20:] = np.kron(
        np.eye(4), recoil._DA * p.pulse_duration)
    return (single, d_single), (double, d_double)


# (pulse override, bound): pulses up to 8 us keep the errors of a few
# squarings; 1 ms needs 17 and a 1 GHz drive or linewidth 8, and both
# routes lose digits to them.
CASES = [
    (dict(), 1e-13),
    (dict(pulse_duration=1e-6), 1e-13),
    (dict(pulse_duration=8e-6), 1e-13),
    (dict(pulse_duration=1e-3), 1e-11),
    (dict(rabi=TWO_PI * 1e9), 1e-11),
    (dict(linewidth=TWO_PI * 1e9), 1e-11),
    (dict(mode_freq=TWO_PI * 1e9), 1e-11),
]
IDS = ["dipole", "1us", "8us", "1ms", "rabi-1GHz", "linewidth-1GHz",
       "trap-1GHz"]


@pytest.mark.parametrize("override, bound", CASES, ids=IDS)
def test_expm_matches_scipy_on_the_pulse_blocks(dipole_pulse, override,
                                                bound):
    for block, _ in _blocks(replace(dipole_pulse, **override)):
        assert _rel(expm(block), scipy.linalg.expm(block)) <= bound


@pytest.mark.parametrize("override, bound", CASES, ids=IDS)
def test_frechet_derivative_matches_scipy(dipole_pulse, override, bound):
    for block, direction in _blocks(replace(dipole_pulse, **override)):
        got = expm_frechet(block, direction)
        want = scipy.linalg.expm_frechet(block, direction)
        assert _rel(got[0], want[0]) <= bound
        assert _rel(got[1], want[1]) <= bound


def test_every_pade_degree_matches_scipy():
    # 1-norms from 1e-3 to 10 take degrees 3, 5, 7, 9 and 13, the last
    # with 0 and 1 squarings
    rng = np.random.default_rng(7)
    for norm in 10.0 ** np.arange(-3.0, 1.25, 0.25):
        a = rng.normal(size=(6, 6))
        a *= norm / np.linalg.norm(a, 1)
        assert _rel(expm(a), scipy.linalg.expm(a)) <= 1e-14, norm


def test_a_stack_equals_single_calls_bit_for_bit():
    # norms spread over every degree and several squaring counts, so the
    # stack is cut into many groups
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(5, 40, 4, 4))
    stack *= 10.0 ** rng.uniform(-3.0, 2.0, size=(5, 40, 1, 1))
    got = expm(stack)
    assert got.shape == stack.shape
    for idx in np.ndindex(5, 40):
        assert np.array_equal(got[idx], expm(stack[idx]))
    assert _rel(got[2, 7], scipy.linalg.expm(stack[2, 7])) <= 1e-13


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308,
                                 1e17])
def test_bad_matrices_give_nan_without_raising(bad):
    # a non-finite entry, a 1-norm that overflows, or one that needs more
    # than 52 squarings: the result is NaN, and no squaring loop starts
    a = np.ones((3, 3))
    a[1, 2] = bad
    a[2, 2] = 1e308 if bad == 1e308 else 1.0
    assert np.isnan(expm(a)).all()
    assert np.isnan(expm(np.stack([a, np.eye(3)]))[0]).all()
    x, lx = expm_frechet(a, np.eye(3))
    assert np.isnan(x).all() and np.isnan(lx).all()


def test_the_largest_squaring_count_stays_finite():
    a = -np.eye(2) * 5.0 * 2.0**52           # 52 squarings
    assert np.array_equal(expm(a), np.zeros((2, 2)))
    assert np.array_equal(expm(np.zeros((0, 2, 2))), np.zeros((0, 2, 2)))
