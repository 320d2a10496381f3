"""Motional-state propagation and overlap signals against closed forms,
independent moment integration and cross-route consistency checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import eval_genlaguerre, gammaln

from recoilspec import (CatState, ConfigError, FPParams, FockSuperposition,
                        GaussianState, OptimizationProblem,
                        UnsupportedDampingError, evolve_gaussian,
                        find_working_point, overlap_after, overlap_gaussian,
                        overlap_slopes, phase_mismatch_sensitivity)
from recoilspec.phasespace import (_hermite_e_rule, _kick_elements,
                                   _level_tables, _position_times,
                                   real_fock_derivatives)

SQRT2 = math.sqrt(2.0)
LN2 = math.log(2.0)


def squeezed_overlap_closed_form(alpha, d, tbar, r):
    den = 1.0 + d * math.exp(2 * r) * tbar
    return den**-0.5 * math.exp(-0.5 * math.exp(2 * r) * (alpha * tbar) ** 2 / den)


def _displacement_elements(m: int, n: int, lam: np.ndarray) -> np.ndarray:
    """<m| D(lam) |n> for the displacement operator D = exp(lam a^dag - lam* a)."""
    a2 = np.abs(lam) ** 2
    if m >= n:
        lnf = 0.5 * (gammaln(n + 1) - gammaln(m + 1))
        return (np.exp(lnf - 0.5 * a2) * lam ** (m - n)
                * eval_genlaguerre(n, m - n, a2))
    lnf = 0.5 * (gammaln(m + 1) - gammaln(n + 1))
    return (np.exp(lnf - 0.5 * a2) * (-np.conj(lam)) ** (n - m)
            * eval_genlaguerre(m, n - m, a2))


def characteristic_function(f: FockSuperposition, k1, k2) -> np.ndarray:
    """chi(k) = <exp(i k1 x + i k2 p)> for a Fock superposition."""
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    lam = (1j * k1 - k2) / SQRT2
    chi = np.zeros(np.broadcast(k1, k2).shape, dtype=complex)
    c = f.coeffs
    idx = [n for n in range(len(c)) if c[n] != 0.0]
    for m in idx:
        for n in idx:
            chi += np.conj(c[m]) * c[n] * _displacement_elements(m, n, lam)
    return chi


def cat_characteristic_function(c: CatState, k1, k2) -> np.ndarray:
    """chi(k) for the even cat state (lobes separated along x)."""
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    n2 = c.normalization**2
    env = np.exp(-0.25 * (k1**2 + k2**2))
    return 2.0 * n2 * env * (np.cos(SQRT2 * k1 * c.beta)
                             + math.exp(-2.0 * c.beta**2)
                             * np.cosh(SQRT2 * k2 * c.beta))


def char_quadrature(chi_fn, state, u, v, nodes=120):
    """(P, dP/du, dP/dv) from the 2-D characteristic-function integral
    (1/2pi) int |chi0(k)|^2 e^{i k2 u - k2^2 v / 2} d^2k, by tensor
    Gauss-Hermite quadrature; the u and v derivatives carry the weights
    i k2 and -k2^2 / 2.  `chi_fn(state, k1, k2)` is the characteristic
    function chi0; |chi0|^2 e^{+k^2/2} is the slowly varying residual after
    factoring out the Gauss-Hermite weight.
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    k1, k2 = np.meshgrid(SQRT2 * x, SQRT2 * x, indexing="ij")
    chi_sq = np.abs(chi_fn(state, k1, k2)) ** 2 * np.exp(0.5 * (k1**2 + k2**2))
    weighted = (np.outer(w, w) * chi_sq
                * np.exp(1j * k2 * u - 0.5 * v * k2**2) / math.pi)
    return tuple(float(np.real(np.sum(weighted * f)))
                 for f in (1.0, 1j * k2, -0.5 * k2**2))


SLOPE_POINTS = [(0.5, 0.0), (1.0, 0.3), (2.0, 0.05)]


def test_vacuum_overlap_closed_form():
    vac = GaussianState.vacuum()
    for u, v in [(0.3, 0.0), (1.0, 0.2), (math.sqrt(2 * LN2), 0.0)]:
        fp = FPParams(alpha=u, d=v, tbar=1.0)
        expected = squeezed_overlap_closed_form(u, v, 1.0, 0.0)
        assert overlap_after(vac, fp) == pytest.approx(expected, abs=1e-14)
    # half overlap exactly at the diffusion-free working point
    fp = FPParams(alpha=math.sqrt(2 * LN2), d=0.0, tbar=1.0)
    assert overlap_after(vac, fp) == pytest.approx(0.5, abs=1e-14)


def test_squeezed_overlap_closed_form():
    for r in [0.5, 1.0, 1.44]:
        state = GaussianState.squeezed(r)
        for u, v in [(0.2, 0.01), (0.8, 0.1)]:
            fp = FPParams(alpha=u, d=v, tbar=1.0)
            expected = squeezed_overlap_closed_form(u, v, 1.0, r)
            assert overlap_after(state, fp) == pytest.approx(expected, abs=1e-13)


def test_moment_evolution_rk4_oracle_with_damping():
    # independent small-step integration of the moment equations of motion
    r, g, alpha, d, tbar = 1.44, 0.01, 0.02, 0.003, 10.0
    state = GaussianState.squeezed(r)
    y = np.array([state.mean[1], state.cov[1, 1], state.cov[0, 1]])

    def rhs(y):
        mp, gpp, gxp = y
        return np.array([-alpha - g * mp, d - 2 * g * gpp, -g * gxp])

    n = 20000
    h = tbar / n
    for _ in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    evolved = evolve_gaussian(state, FPParams(alpha=alpha, d=d, tbar=tbar, g=g))
    assert evolved.mean[1] == pytest.approx(y[0], abs=1e-8)
    assert evolved.cov[1, 1] == pytest.approx(y[1], abs=1e-8)
    assert evolved.cov[0, 1] == pytest.approx(y[2], abs=1e-8)
    assert evolved.cov[0, 0] == pytest.approx(state.cov[0, 0], abs=1e-14)


def test_damping_reduces_to_plain_drift_as_g_vanishes():
    state = GaussianState.squeezed(0.8)
    base = evolve_gaussian(state, FPParams(alpha=0.5, d=0.1, tbar=2.0))
    tiny = evolve_gaussian(state, FPParams(alpha=0.5, d=0.1, tbar=2.0, g=1e-12))
    assert np.allclose(base.mean, tiny.mean, atol=1e-10)
    assert np.allclose(base.cov, tiny.cov, atol=1e-10)


def test_subnormal_damping_keeps_the_elapsed_time():
    # g * tbar rounds to g for subnormal g; the damped drift and diffusion
    # must still act for the whole tbar
    state = GaussianState.squeezed(0.6)
    plain = evolve_gaussian(state, FPParams(alpha=0.5, d=0.1, tbar=1.3))
    damped = evolve_gaussian(state, FPParams(alpha=0.5, d=0.1, tbar=1.3,
                                             g=5e-324))
    assert np.array_equal(damped.mean, plain.mean)
    assert np.array_equal(damped.cov, plain.cov)


def test_cat_overlap_against_characteristic_quadrature():
    for beta in [0.5, 1.0, 2.0]:
        cat = CatState(beta)
        for u, v in [(0.2, 0.0), (0.5, 0.05), (1.0, 0.3)] + SLOPE_POINTS:
            fp = FPParams(alpha=u, d=v, tbar=1.0)
            ref = char_quadrature(cat_characteristic_function, cat, u, v)
            assert overlap_after(cat, fp) == pytest.approx(ref[0], abs=1e-12)
            assert overlap_slopes(cat, fp) == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("entries", [{2: 1.0}, {4: 1.0}, {12: 1.0},
                                     {2: 0.5, 4: math.sqrt(0.75)}])
def test_fock_slopes_against_characteristic_quadrature(entries):
    state = FockSuperposition.from_dict(entries)
    for u, v in SLOPE_POINTS:
        ref = char_quadrature(characteristic_function, state, u, v)
        got = overlap_slopes(state, FPParams(alpha=u, d=v, tbar=1.0))
        assert got == pytest.approx(ref, abs=1e-12)


def test_slopes_scale_with_the_interrogation_time():
    # dP/dalpha = tbar dP/du and dP/dd = tbar dP/dv
    state = FockSuperposition.from_dict({1: 0.6, 3: 0.8j})
    tbar = 2.5
    u, v = 0.9, 0.2
    ref = char_quadrature(characteristic_function, state, u, v)
    got = overlap_slopes(state, FPParams(alpha=u / tbar, d=v / tbar,
                                         tbar=tbar))
    assert got == pytest.approx((ref[0], tbar * ref[1], tbar * ref[2]),
                                abs=1e-12)


def test_squeezed_slopes_against_closed_form_derivatives():
    for r in [0.0, 0.5, 1.44]:
        e2r = math.exp(2 * r)
        state = GaussianState.squeezed(r)
        for u, v in SLOPE_POINTS:
            p = squeezed_overlap_closed_form(u, v, 1.0, r)
            den = 1.0 + v * e2r
            dp_du = -p * e2r * u / den
            dp_dv = p * (0.5 * (e2r * u / den) ** 2 - 0.5 * e2r / den)
            got = overlap_slopes(state, FPParams(alpha=u, d=v, tbar=1.0))
            assert got == pytest.approx((p, dp_du, dp_dv), rel=1e-13,
                                        abs=1e-15)


def test_general_gaussian_slopes_against_moment_route():
    # a displaced, tilted, mixed state: P from the evolved moments, slopes
    # by second-order differences of that independent route (one-sided in
    # v, which may not go below 0)
    cov = np.array([[0.9, 0.3], [0.3, 0.8]])
    state = GaussianState([0.4, -1.1], cov)

    def moment_p(u, v):
        fp = FPParams(alpha=u, d=v, tbar=1.0)
        return overlap_gaussian(state, evolve_gaussian(state, fp))

    h = 1e-5
    for u, v in SLOPE_POINTS:
        want = (moment_p(u, v),
                (moment_p(u + h, v) - moment_p(u - h, v)) / (2 * h),
                (4 * moment_p(u, v + h) - 3 * moment_p(u, v)
                 - moment_p(u, v + 2 * h)) / (2 * h))
        got = overlap_slopes(state, FPParams(alpha=u, d=v, tbar=1.0))
        assert got[0] == pytest.approx(want[0], rel=1e-14)
        assert got[1:] == pytest.approx(want[1:], rel=1e-7)


def test_cat_reduces_to_vacuum_at_zero_size():
    cat = CatState(0.0)
    for u, v in [(0.4, 0.0), (1.2, 0.2)]:
        fp = FPParams(alpha=u, d=v, tbar=1.0)
        expected = squeezed_overlap_closed_form(u, v, 1.0, 0.0)
        assert overlap_after(cat, fp) == pytest.approx(expected, abs=1e-13)


def test_cat_characteristic_matches_fock_expansion():
    beta = 1.0
    cat = CatState(beta)
    nmax = 30
    coeffs = np.zeros(nmax + 1)
    for n in range(0, nmax + 1, 2):
        coeffs[n] = beta**n / math.sqrt(math.factorial(n))
    coeffs /= np.linalg.norm(coeffs)
    fock_cat = FockSuperposition(coeffs)
    k1 = np.array([0.3, 1.0, 2.5, -1.7])
    k2 = np.array([-0.4, 0.7, 1.5, 0.9])
    chi_f = characteristic_function(fock_cat, k1, k2)
    chi_c = cat_characteristic_function(cat, k1, k2)
    assert np.max(np.abs(chi_f - chi_c)) < 1e-12
    assert cat.nbar == pytest.approx(fock_cat.nbar, abs=1e-12)
    assert cat.qfi_displacement() == pytest.approx(fock_cat.qfi_displacement(), abs=1e-10)


def test_fock_ground_state_matches_vacuum():
    ground = FockSuperposition.fock(0)
    vac = GaussianState.vacuum()
    for u, v in [(0.5, 0.0), (1.2, 0.2), (2.0, 0.3)]:
        fp = FPParams(alpha=u, d=v, tbar=1.0)
        assert overlap_after(ground, fp) == pytest.approx(
            overlap_after(vac, fp), abs=1e-12)


def test_fock_displacement_overlap_closed_form():
    # pure displacement of |n>: P = e^{-u^2/2} L_n(u^2/2)^2; at u = 40 it
    # underflows to 0
    from scipy.special import eval_laguerre
    for n in [1, 2, 4]:
        state = FockSuperposition.fock(n)
        for u in [0.3, 0.9, 1.6, 40.0]:
            fp = FPParams(alpha=u, d=0.0, tbar=1.0)
            expected = math.exp(-u**2 / 2) * eval_laguerre(n, u**2 / 2) ** 2
            assert overlap_after(state, fp) == pytest.approx(
                expected, abs=1e-10)


@pytest.mark.parametrize("state, u", [
    (GaussianState.vacuum(), 1e155),
    (CatState(2.0), 1e155),
    (FockSuperposition.fock(2), 1e80),
    (FockSuperposition.fock(12), 1e13),
    (FockSuperposition.fock(64), 1e4),
], ids=["vacuum", "cat", "fock2", "fock12", "fock64"])
def test_slopes_read_zero_where_the_overlap_underflows(state, u):
    # u * u overflows (Gaussian, cat), or the Laguerre polynomial overflows
    # against its underflowed envelope (Fock): no 0 * inf may leak out
    fp = FPParams(alpha=u, d=0.0, tbar=1.0)
    assert overlap_slopes(state, fp) == (0.0, 0.0, 0.0)


def _dense_position_times(c: np.ndarray) -> np.ndarray:
    """x c as a dense matrix product: the formulation the two slices of
    `_position_times` replaced."""
    off = np.sqrt(np.arange(1, len(c)) / 2.0)
    return (np.diag(off, 1) + np.diag(off, -1)) @ c


def _fock_slopes_loop(f: FockSuperposition, u: float, v: float):
    """`FockSuperposition.slopes` with one `_displacement_elements` call
    per level pair: the loop formulation the broadcast kernel replaced."""
    c = np.append(f.coeffs, 0.0)
    vecs = np.array([c, _position_times(c)])
    idx = np.flatnonzero(np.any(vecs != 0.0, axis=0))
    vecs = vecs[:, idx]
    den = 1.0 + v
    z, w = _hermite_e_rule(2 * len(f.coeffs))
    z = u / den + math.sqrt(v / den) * z
    lam = 1j * z / SQRT2
    dmat = np.empty((len(z), len(idx), len(idx)), dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        for a, m in enumerate(idx):
            for b, n in enumerate(idx):
                dmat[:, a, b] = _displacement_elements(m, n, lam)
    dmat[np.isnan(dmat)] = 0.0
    g = np.einsum("ia,kab,jb->kij", np.conj(vecs), dmat, vecs)
    g0, g1, g2 = g[:, 0, 0], 1j * g[:, 1, 0], -g[:, 1, 1]
    f0 = np.abs(g0) ** 2
    f1 = 2.0 * np.real(np.conj(g0) * g1)
    f2 = 2.0 * np.real(np.abs(g1) ** 2 + np.conj(g0) * g2)
    wz = w * np.exp(0.5 * (z * z - u * u / den)) / math.sqrt(den)
    return float(wz @ f0), float(wz @ f1), 0.5 * float(wz @ f2)


def test_broadcast_displacements_equal_the_per_element_oracle():
    # |lam|^2 >= 5e7 at the last two nodes: e^{-|lam|^2/2} underflows
    # while L_lo^(k) or lam^k overflows, so the NaN -> 0 path runs.  The
    # elements of the unitary e^{izx} are at most 1 in magnitude, and the
    # Laguerre recurrence and scipy's evaluation differ by rounding.
    z = np.array([0.0, 5e-324, 1e-300, 0.3, -1.7, 6.0, 40.0, -1e4, 1e13])
    lam = 1j * z / SQRT2
    levels = np.arange(FockSuperposition.MAX_N + 1)
    got = _kick_elements(_level_tables(tuple(levels.tolist())), z)
    nan_seen = False
    with np.errstate(invalid="ignore", over="ignore"):
        for m in levels:
            for n in levels:
                want = _displacement_elements(m, n, lam)
                nan = np.isnan(want)
                nan_seen |= bool(nan.any())
                assert np.all(got[nan, m, n] == 0.0)
                want[nan] = 0.0
                np.testing.assert_allclose(got[:, m, n], want, rtol=0,
                                           atol=2e-13)
    assert nan_seen


UV_EDGES = [0.0, 5e-324, 1e-300, 1.0, 50.0]


@settings(max_examples=60, deadline=None)
@given(levels=st.dictionaries(
           st.integers(0, FockSuperposition.MAX_N),
           st.tuples(st.floats(0.1, 1.0), st.floats(0.0, 2.0 * math.pi)),
           min_size=1, max_size=5),
       u=st.sampled_from(UV_EDGES), v=st.sampled_from(UV_EDGES))
def test_fock_slopes_equal_the_loop_formulation(levels, u, v):
    norm = math.sqrt(sum(r * r for r, _ in levels.values()))
    state = FockSuperposition.from_dict(
        {n: r / norm * complex(math.cos(phi), math.sin(phi))
         for n, (r, phi) in levels.items()})
    # the kernel's Laguerre recurrence rounds otherwise than scipy's
    np.testing.assert_allclose(state.slopes(u, v),
                               _fock_slopes_loop(state, u, v),
                               rtol=1e-11, atol=1e-12)


REAL_SUPERPOSITIONS = [((2, 4), (0.5, math.sqrt(0.75))),
                       ((0, 1, 3), (0.48, -0.6, 0.64)),
                       ((1, 2, 3, 5), (0.1, 0.7, -0.5, 0.5))]


@pytest.mark.parametrize("basis, c", REAL_SUPERPOSITIONS,
                         ids=["2+4", "0+1+3", "1+2+3+5"])
@pytest.mark.parametrize("u", [0.0, 1e-12, 0.3, 1.3])
@pytest.mark.parametrize("v", [0.0, 0.3])
def test_real_fock_derivatives_extend_the_slopes(basis, c, u, v):
    # m[0..2] are the slopes' (P, P_u, 2 P_v) on another level layout and
    # node count; m[3] and m[4] are the u-slopes of m[2] and m[3]
    m, _ = real_fock_derivatives(basis, np.array(c), u, v)
    scale = np.max(np.abs(m))
    p, p_u, p_v = FockSuperposition.from_dict(dict(zip(basis, c))).slopes(u, v)
    assert np.max(np.abs(m[:3] - [p, p_u, 2.0 * p_v])) <= 1e-13 * scale
    h = 1e-5
    central = [(real_fock_derivatives(basis, np.array(c), u + h, v)[0][k - 1]
                - real_fock_derivatives(basis, np.array(c), u - h, v)[0][k - 1])
               / (2.0 * h) for k in (3, 4)]
    assert abs(m[3] - central[0]) <= 1e-8 * scale
    assert abs(m[4] - central[1]) <= 1e-8 * scale
    if u * u < 1e-16 * (1.0 + v):
        # the series m[3] = u m[4], against a difference taken where u +- h
        # lies outside it
        assert m[3] == pytest.approx(u * central[1], rel=1e-8, abs=0.0)


@pytest.mark.parametrize("dense", [False, True], ids=["fock64", "dense65"])
def test_position_slices_equal_the_dense_product(dense):
    # a dense product may fuse a multiply-add, so the two can differ by
    # rounding where both off-diagonals contribute
    rng = np.random.default_rng(5)
    coeffs = (rng.normal(size=65) + 1j * rng.normal(size=65) if dense
              else FockSuperposition.fock(64).coeffs)
    c = np.append(coeffs, 0.0)
    want = _dense_position_times(c)
    assert np.linalg.norm(_position_times(c) - want) <= \
        1e-15 * np.linalg.norm(want)


def test_hermite_e_rule_has_the_bits_of_numpy_hermegauss():
    # the package builds the rule itself to keep numpy.polynomial off its
    # import path; the Fock kernel asks for up to 2 n_max + 3 nodes
    for n in range(1, 141):
        z, w = _hermite_e_rule.__wrapped__(n)
        z_ref, w_ref = hermegauss(n)
        assert np.array_equal(z, z_ref), n
        assert np.array_equal(w, w_ref / math.sqrt(2.0 * math.pi)), n


def test_squeezed_covariance_is_diagonal_at_the_default_phase():
    # a rounded cos(pi/2) used to leak e^{2r} into Var(p): 4.43e-16 at
    # r = 20, where the true value is e^{-40}/2 = 2.12e-18
    for r in [0.0, 1.44, 15.0, 20.0]:
        cov = GaussianState.squeezed(r).cov
        assert cov.tolist() == [[0.5 * math.exp(2 * r), 0.0],
                                [0.0, 0.5 * math.exp(-2 * r)]]
    assert GaussianState.squeezed(20.0).cov[1, 1] == 2.1241771276457944e-18


def test_nbar_and_qfi_closed_forms():
    assert GaussianState.vacuum().nbar == pytest.approx(0.0, abs=1e-14)
    r = 1.1
    assert GaussianState.squeezed(r).nbar == pytest.approx(
        math.sinh(r) ** 2, abs=1e-12)
    assert GaussianState.squeezed(r).qfi_displacement() == pytest.approx(
        2.0 * math.exp(2 * r), rel=1e-12)
    for n in [0, 2, 5]:
        assert FockSuperposition.fock(n).qfi_displacement() == pytest.approx(
            2.0 * (2 * n + 1), rel=1e-12)
        assert FockSuperposition.fock(n).nbar == pytest.approx(n, abs=1e-12)
    beta = 2.0
    n2 = 1.0 / (2.0 + 2.0 * math.exp(-2 * beta**2))
    assert CatState(beta).qfi_displacement() == pytest.approx(
        2.0 * (1.0 + 8.0 * beta**2 * n2), rel=1e-12)
    assert CatState(beta).nbar == pytest.approx(
        beta**2 * math.tanh(beta**2), rel=1e-12)
    c2, c4 = 0.5, math.sqrt(3) / 2
    f24 = FockSuperposition.from_dict({2: c2, 4: c4})
    expected = 2.0 * (1.0 + 4 * c2**2 + 2 * math.sqrt(12) * c2 * c4 + 8 * c4**2)
    assert f24.qfi_displacement() == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(22.0, abs=1e-12)


def test_damping_rejected_for_non_gaussian():
    fp = FPParams(alpha=0.5, d=0.05, tbar=1.0, g=0.01)
    for state in (CatState(1.0), FockSuperposition.fock(2)):
        with pytest.raises(UnsupportedDampingError):
            overlap_after(state, fp)
        with pytest.raises(UnsupportedDampingError):
            overlap_slopes(state, fp)


def test_state_validation():
    with pytest.raises(ConfigError):
        GaussianState(np.zeros(2), 0.1 * np.eye(2))  # below vacuum noise
    with pytest.raises(ConfigError):
        FockSuperposition([0.5, 0.5])  # not normalized
    with pytest.raises(ConfigError):
        FockSuperposition([math.nan, 1.0])  # a NaN norm is not 1
    with pytest.raises(ConfigError):
        CatState(-1.0)
    with pytest.raises(ConfigError):
        CatState(1e200)  # beta^2 overflows
    for n in (-1, 65):
        with pytest.raises(ConfigError):
            FockSuperposition.fock(n)
    for r in (400.0, math.inf):
        with pytest.raises(ConfigError):
            GaussianState.squeezed(r)
    with pytest.raises(ConfigError):
        FPParams(alpha=1.0, d=-0.1, tbar=1.0)
    with pytest.raises(ConfigError, match="unsupported state type dict"):
        overlap_slopes({"beta": 2.0}, FPParams(alpha=1.0, d=0.1, tbar=1.0))
    with pytest.raises(ConfigError, match="unsupported state type dict"):
        find_working_point({"beta": 2.0}, 0.1)
    for field in ("alpha", "d", "tbar", "g"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError, match=field):
                FPParams(**{"alpha": 1.0, "d": 0.1, "tbar": 1.0, field: bad})


@pytest.mark.parametrize("mean, cov", [
    ([math.nan, 0.0], 0.5 * np.eye(2)),
    ([0.0, math.inf], 0.5 * np.eye(2)),
    ([0.0, 0.0], [[math.inf, 0.0], [0.0, 0.5]]),
    ([0.0, 0.0], [[0.5, math.nan], [math.nan, 0.5]]),
    ([0.0, 0.0], [[1.0, 1e308], [1e308, 1.0]]),   # cov + cov.T overflows
])
def test_non_finite_gaussian_moments_raise_config_error(mean, cov):
    with pytest.raises(ConfigError, match="finite"):
        GaussianState(mean, cov)


@pytest.mark.parametrize("phase", [math.inf, -math.inf, math.nan])
def test_non_finite_squeezing_phase_raises_config_error(phase):
    with pytest.raises(ConfigError, match="phase"):
        GaussianState.squeezed(1.0, phase)
    with pytest.raises(ConfigError, match="phase"):
        phase_mismatch_sensitivity(1.0, phase, 0.1)


@pytest.mark.parametrize("make", [
    lambda: FockSuperposition.from_dict({1.5: 1.0}),
    lambda: FockSuperposition.from_dict({2.0: 1.0}),
    lambda: FockSuperposition.from_dict({True: 1.0}),
    lambda: OptimizationProblem(basis=(2.0, 4.0)),
    lambda: OptimizationProblem(basis=(2, "a")),
    lambda: OptimizationProblem(basis=(False, 2)),
])
def test_non_integer_fock_levels_raise_config_error(make):
    with pytest.raises(ConfigError, match="integer Fock levels"):
        make()


def test_numpy_integer_fock_levels_are_accepted():
    assert FockSuperposition.from_dict({np.int64(2): 1.0}).nbar == 2.0
    assert OptimizationProblem(basis=(np.int64(2), 4)).basis[0] == 2


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.0, 1.5), u=st.floats(0.0, 2.0), v=st.floats(0.0, 0.3),
       t=st.floats(0.0, 3.0))
def test_gaussian_overlap_is_a_probability(r, u, v, t):
    state = GaussianState.squeezed(r)
    p = overlap_after(state, FPParams(alpha=u, d=v, tbar=t))
    assert -1e-12 <= p <= 1.0 + 1e-12


@settings(max_examples=20, deadline=None)
@given(u=st.floats(0.0, 1.5), v=st.floats(0.0, 0.2),
       t1=st.floats(0.0, 2.0), t2=st.floats(0.0, 2.0),
       g=st.floats(0.0, 0.05))
def test_gaussian_evolution_semigroup(u, v, t1, t2, g):
    state = GaussianState.squeezed(0.6)
    once = evolve_gaussian(state, FPParams(alpha=u, d=v, tbar=t1 + t2, g=g))
    twice = evolve_gaussian(
        evolve_gaussian(state, FPParams(alpha=u, d=v, tbar=t1, g=g)),
        FPParams(alpha=u, d=v, tbar=t2, g=g))
    assert np.allclose(once.mean, twice.mean, atol=1e-11)
    assert np.allclose(once.cov, twice.cov, atol=1e-11)


def test_overlap_gaussian_symmetry_and_identity():
    a = GaussianState.squeezed(0.9)
    b = evolve_gaussian(a, FPParams(alpha=0.7, d=0.1, tbar=1.3))
    assert overlap_gaussian(a, b) == pytest.approx(overlap_gaussian(b, a), rel=1e-14)
    assert overlap_gaussian(a, a) == pytest.approx(1.0, abs=1e-13)
