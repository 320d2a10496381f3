"""The package's matrix exponential and Frechet derivative against scipy's,
on real and complex Van Loan blocks of the pulse coefficients and on
stacks."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from recoilspec import recoil
from recoilspec._expm import expm, expm_frechet
from recoilspec.bloch import _REGRESS, affine_generator

TWO_PI = 2.0 * math.pi


def _rel(got, want):
    """1-norm error relative to the 1-norm of `want`."""
    return np.linalg.norm(got - want, 1) / np.linalg.norm(want, 1)


def _blocks(p):
    """The real 15x15 and 36x36 Kronecker Van Loan blocks of the single and
    double pulse integrals, each with its detuning direction.

    The trap-frequency weights phi = (sin nu t, cos nu t) obey
    phi' = [[0, nu], [-nu, 0]] phi.  The single-integral state is
    (I[3], phi (x) s~[8], s~[4]) with s~ = (s, 1); the double-integral
    state is (J[4], W[16], S[16]) with S = phi (x) phi (x) s~ and
    W_g = phi (x) u_g, where u_g' = A u_g + R g(nu t) s~.
    """
    tau = p.pulse_duration
    a = affine_generator(p) * tau
    phi = np.array([[0.0, p.mode_freq], [-p.mode_freq, 0.0]]) * tau
    da = recoil._DA * tau
    i2, i4 = np.eye(2), np.eye(4)
    single, d_single = np.zeros((15, 15)), np.zeros((15, 15))
    single[3:11, 3:11] = np.kron(phi, i4) + np.kron(i2, a)
    single[11:, 11:] = a
    single[0, 4] = single[1, 8] = single[2, 12] = tau
    d_single[3:11, 3:11] = np.kron(i2, da)
    d_single[11:, 11:] = da
    step = np.kron(i2, np.kron(phi, i4)) + np.kron(i4, a)
    double, d_double = np.zeros((36, 36)), np.zeros((36, 36))
    double[4:20, 4:20] = step
    double[4:20, 20:] = np.kron(i4, tau * _REGRESS)
    double[20:, 20:] = step + np.kron(phi, np.eye(8))
    for f, g in np.ndindex(2, 2):
        double[2 * f + g, 4 + 8 * g + 4 * f + 1] = tau
    d_double[4:20, 4:20] = d_double[20:, 20:] = np.kron(i4, da)
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
    # 1-norms from 1e-3 to 10, from far inside theta_13 to past its edge:
    # 0 and 1 squarings
    rng = np.random.default_rng(7)
    for norm in 10.0 ** np.arange(-3.0, 1.25, 0.25):
        a = rng.normal(size=(6, 6))
        a *= norm / np.linalg.norm(a, 1)
        assert _rel(expm(a), scipy.linalg.expm(a)) <= 1e-14, norm


def test_a_stack_equals_single_calls_bit_for_bit():
    # matrices scaled by 1e-3 to 1e2 take squaring counts 0 to 7, so the
    # stack is cut into many groups
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(5, 40, 4, 4))
    stack *= 10.0 ** rng.uniform(-3.0, 2.0, size=(5, 40, 1, 1))
    got = expm(stack)
    assert got.shape == stack.shape
    for idx in np.ndindex(5, 40):
        assert np.array_equal(got[idx], expm(stack[idx]))
    assert _rel(got[2, 7], scipy.linalg.expm(stack[2, 7])) <= 1e-13


@pytest.mark.parametrize("override, bound", CASES, ids=IDS)
def test_complex_pulse_blocks_match_scipy(dipole_pulse, override, bound):
    blocks, direction = recoil._pulse_blocks(replace(dipole_pulse, **override))
    got, got_frechet = expm_frechet(blocks, direction)
    for block, x, lx in zip(blocks, got, got_frechet):
        # scipy.linalg.expm_frechet is the less accurate of scipy's routes
        # on these blocks (at 8 us both its parts lie 1.3e-13 from 40-digit
        # values), so both parts are held to scipy.linalg.expm of the
        # doubled block [[B, E], [0, B]]
        want = scipy.linalg.expm(np.block([[block, direction],
                                           [np.zeros_like(block), block]]))
        assert _rel(expm(block), scipy.linalg.expm(block)) <= bound
        assert _rel(x, want[:10, :10]) <= bound
        assert _rel(lx, want[:10, 10:]) <= bound


def _complex_matrices(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("norm", [1e-2, 0.2, 0.9, 2.0, 5.0, 40.0])
def test_every_complex_pade_degree_matches_scipy(norm):
    # 1-norms from 1e-2 up to theta_13 without squaring, and one with three
    # squarings
    rng = np.random.default_rng(5)
    a, e = _complex_matrices(rng, (2, 6, 6))
    a *= norm / np.linalg.norm(a, 1)
    assert _rel(expm(a), scipy.linalg.expm(a)) <= 1e-14
    x, lx = expm_frechet(a, e)
    want, want_frechet = scipy.linalg.expm_frechet(a, e)
    assert _rel(x, want) <= 1e-14
    assert _rel(lx, want_frechet) <= 1e-14


def test_a_complex_stack_equals_single_calls_bit_for_bit():
    rng = np.random.default_rng(4)
    stack = _complex_matrices(rng, (3, 30, 5, 5))
    stack *= 10.0 ** rng.uniform(-3.0, 2.0, size=(3, 30, 1, 1))
    direction = _complex_matrices(rng, (5, 5))
    got = expm(stack)
    got_x, got_lx = expm_frechet(stack, direction)
    assert got.dtype == complex and got.shape == stack.shape
    for idx in np.ndindex(3, 30):
        assert np.array_equal(got[idx], expm(stack[idx]))
        x, lx = expm_frechet(stack[idx], direction)
        assert np.array_equal(got_x[idx], x)
        assert np.array_equal(got_lx[idx], lx)


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
