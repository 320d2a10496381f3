"""End-to-end acceptance checks.

Each test covers one named criterion and prints a single PASS/FAIL line with
the sub-checks that determined the verdict, then asserts. Some expectation
values quoted here do not match what this implementation produces from first
principles; those tests fail by design and the discrepancies are documented
outside the package.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from recoilspec import (CatState, FPParams, GaussianState, FockSuperposition,
                        OptimizationProblem, PulseParams, asymmetric_overlap,
                        compute_coefficients, fisher_binary, fisher_imperfect,
                        detuning_slopes, optimize_fock_superposition,
                        overlap_after, recoil_sensitivity,
                        single_photon_budget, two_point_shift)
from recoilspec import pdeoracle

NBAR4_R = math.asinh(2.0)
NBAR4_BETA = brentq(lambda b: b * b * math.tanh(b * b) - 4.0, 1.5, 2.5)


def report(capsys, name, checks):
    """Print one verdict line for a list of (label, ok) sub-checks."""
    ok = all(c[1] for c in checks)
    failed = ", ".join(c[0] for c in checks if not c[1])
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if failed:
        line += f" — failed sub-checks: {failed}"
    with capsys.disabled():
        print(line)
    assert ok, line


def within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def test_criterion_1_coefficient_reproduction(capsys, dipole_pulse):
    t0 = time.perf_counter()
    c = compute_coefficients(dipole_pulse)
    elapsed = time.perf_counter() - t0
    checks = [
        (f"alpha={c.alpha_p:.4e} vs 2.03e-2 +-2%", within(c.alpha_p, 2.03e-2, 0.02)),
        (f"D={c.d_pp:.4e} vs 3.03e-3 +-2%", within(c.d_pp, 3.03e-3, 0.02)),
        (f"epsilon={c.epsilon:.4f} vs 0.149 +-2%", within(c.epsilon, 0.149, 0.02)),
        (f"runtime {elapsed:.3f}s < 1s", elapsed < 1.0),
    ]
    report(capsys, "criterion 1 (coefficient reproduction)", checks)


def test_criterion_2_budget_reproduction(capsys, dipole_pulse):
    b = single_photon_budget(dipole_pulse)
    checks = [
        (f"tstar={b.tstar:.4f} vs 7.068 +-1%", within(b.tstar, 7.068, 0.01)),
        (f"r={b.r_required:.4f} vs 2.13 +-2%", within(b.r_required, 2.13, 0.02)),
        (f"dB={b.squeezing_db:.3f} vs 18.5 +-0.2",
         abs(b.squeezing_db - 18.5) <= 0.2),
        (f"nbar={b.nbar:.3f} vs 17.3 +-3%", within(b.nbar, 17.3, 0.03)),
        (f"enhancement={b.enhancement:.3f} vs 8.5 +-5%",
         within(b.enhancement, 8.5, 0.05)),
    ]
    report(capsys, "criterion 2 (single-photon budget)", checks)


def test_criterion_3_closed_form_limit(capsys):
    checks = []
    for r in [0.0, 0.5, 1.0, 1.44]:
        s = recoil_sensitivity(GaussianState.squeezed(r), 1e-4).s_abs
        target = math.exp(r) * math.sqrt(math.log(2.0) / 2.0)
        checks.append((f"r={r}: |S|={s:.5f} vs {target:.5f} +-0.5%",
                       within(s, target, 0.005)))
    report(capsys, "criterion 3 (diffusion-free closed form)", checks)


def test_criterion_4_qfi_suite(capsys):
    checks = []
    theta, h = 1e-4, 1e-7
    for name, state in [("vacuum", GaussianState.vacuum()),
                        ("squeezed r=1", GaussianState.squeezed(1.0)),
                        ("fock 2", FockSuperposition.fock(2)),
                        ("cat beta=2", CatState(2.0))]:
        def p(a):
            return overlap_after(state, FPParams(alpha=a, d=0.0, tbar=1.0))
        slope = (p(theta + h) - p(theta - h)) / (2 * h)
        f = fisher_binary(p(theta), slope)
        checks.append((f"fisher->qfi {name} (0.1%)", within(f, state.qfi_displacement(), 1e-3)))
    prob = OptimizationProblem(basis=(2, 4), nbar_max=4.0, epsilon=1e-6)
    res = optimize_fock_superposition(prob, seed=0)
    c2, c4 = res.coeffs
    checks.append((f"optimal coeffs ({c2:.5f},{c4:.5f}) vs (0.5,{math.sqrt(3)/2:.5f}) +-1e-3",
                   abs(c2 - 0.5) <= 1e-3 and abs(c4 - math.sqrt(3) / 2) <= 1e-3))
    f24 = FockSuperposition.from_dict({2: 0.5, 4: math.sqrt(3) / 2})
    checks.append((f"QFI={f24.qfi_displacement():.8f} vs 22 +-1e-6", abs(f24.qfi_displacement() - 22.0) <= 1e-6))
    report(capsys, "criterion 4 (QFI suite)", checks)


def test_criterion_5_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    fps = [FPParams(alpha=a, d=d, tbar=1.0)
           for a in np.linspace(0.0, 2.0, 5)
           for d in np.linspace(0.0, 0.3, 4)]
    checks = []
    for name, state in [("vacuum", GaussianState.vacuum()),
                        ("squeezed r=1.44", GaussianState.squeezed(1.44)),
                        ("cat beta=2", CatState(2.0)),
                        ("fock 2", FockSuperposition.fock(2))]:
        pde = pdeoracle.overlap_pde_batch(state, fps)
        worst = max(abs(overlap_after(state, fp) - p)
                    for fp, p in zip(fps, pde))
        checks.append((f"{name} worst |dP|={worst:.2e} <= 1e-4", worst <= 1e-4))
    elapsed = time.perf_counter() - t0
    checks.append((f"runtime {elapsed:.1f}s < 120s", elapsed < 120.0))
    report(capsys, "criterion 5 (PDE oracle equivalence)", checks)


def test_criterion_6_doppler_consistency(capsys, dipole_pulse):
    checks = []
    coeffs = compute_coefficients(dipole_pulse)
    alpha, d, g = coeffs.alpha_p, coeffs.d_pp, coeffs.g
    dalpha = detuning_slopes(dipole_pulse)[0]

    # perturbative asymmetry vs exact +-g propagation for vacuum at the
    # working point, bounded by 10 (g tbar)^2 P_sym
    from recoilspec.metrology import find_working_point
    vac = GaussianState.vacuum()
    tstar = find_working_point(vac, d / alpha, alpha=alpha).tstar
    fp = FPParams(alpha=alpha, d=d, tbar=tstar, g=g)
    p_sym, delta_p, _ = asymmetric_overlap(vac, fp)
    exact = 0.5 * (overlap_after(vac, fp)
                   - overlap_after(
                       vac, FPParams(alpha=alpha, d=d, tbar=tstar, g=-g)))
    bound = 10.0 * (g * tstar)**2 * p_sym
    checks.append((f"|exact-perturbative|={abs(exact - delta_p):.2e} <= {bound:.2e}",
                   abs(exact - delta_p) <= bound))

    # |shift| * |S| = |g| |c| / 4 in shared units
    for name, state in [("vacuum", vac),
                        ("squeezed r=1.44", GaussianState.squeezed(1.44))]:
        res = two_point_shift(state, dipole_pulse)
        sens = recoil_sensitivity(state, coeffs.epsilon, alpha=alpha,
                                  dalpha_ddelta=dalpha)
        lhs = abs(res.shift * dalpha) * sens.s_abs
        rhs = abs(g) * abs(res.c_const) / 4.0
        checks.append((f"shift-sensitivity identity {name} (5%)",
                       within(lhs, rhs, 0.05)))

    res0 = two_point_shift(vac, dipole_pulse, neglect_diffusion=True)
    target = (dipole_pulse.lamb_dicke * dipole_pulse.mode_freq
              / (2.0 * math.sqrt(math.log(2.0))))
    checks.append((f"vacuum d=0 shift {abs(res0.shift):.4e} vs {target:.4e} (1%)",
                   within(abs(res0.shift), target, 0.01)))
    report(capsys, "criterion 6 (Doppler consistency)", checks)


def test_criterion_7_figure_properties(capsys):
    sq = GaussianState.squeezed(NBAR4_R)
    cat = CatState(NBAR4_BETA)
    f4 = FockSuperposition.fock(4)
    vac = GaussianState.vacuum()

    def s(state, eps, mode="drift-only"):
        return recoil_sensitivity(state, eps, mode=mode,
                                  allow_large_epsilon=True).s_abs

    checks = []
    # (a) cat beats squeezed at small noise, crossing before eps=1
    checks.append(("(a) cat > squeezed at eps<=0.01",
                   s(cat, 0.001) > s(sq, 0.001) and s(cat, 0.01) > s(sq, 0.01)))
    checks.append(("(a) cat < squeezed before eps=1", s(cat, 0.9) < s(sq, 0.9)))
    # (b) all nbar=4 states within 10% of vacuum at eps=1
    for name, state in [("squeezed", sq), ("cat", cat), ("fock 4", f4)]:
        ratio = s(state, 1.0) / s(vac, 1.0)
        checks.append((f"(b) {name}/vacuum={ratio:.3f} within 10% at eps=1",
                       abs(ratio - 1.0) <= 0.10))
    # (c) extended mode keeps a quantum gain at large eps
    checks.append(("(c) extended squeezed stays above vacuum at eps=1",
                   s(sq, 1.0, mode="extended") > 1.5 * s(vac, 1.0)))
    # (d) occupation scaling at eps=0.1: cat peaks, others saturate monotonically
    nbars = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    cat_s = [s(CatState(brentq(lambda b: b * b * math.tanh(b * b) - nb,
                               1e-3, 10.0)), 0.1) for nb in nbars]
    peak = int(np.argmax(cat_s))
    checks.append(("(d) cat scan has interior maximum",
                   0 < peak < len(nbars) - 1))
    sq_s = [s(GaussianState.squeezed(math.asinh(math.sqrt(nb))), 0.1)
            for nb in [1.0, 2.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0]]
    sq_rel = np.diff(sq_s) / np.array(sq_s[:-1])
    checks.append(("(d) squeezed scan monotone and saturating",
                   np.all(np.diff(sq_s) > 0)
                   and sq_rel[-1] < 0.05 and sq_rel[0] > 0.15))
    fock_s = [s(FockSuperposition.fock(n), 0.1) for n in [1, 2, 4, 8, 16, 32]]
    fock_rel = np.diff(fock_s) / np.array(fock_s[:-1])
    checks.append(("(d) fock scan monotone with slowing relative growth",
                   np.all(np.diff(fock_s) > 0)
                   and fock_rel[-1] < fock_rel[-2] < fock_rel[-3]))
    report(capsys, "criterion 7 (figure-level properties)", checks)


def test_criterion_8_imperfect_measurement(capsys):
    checks = []
    checks.append(("exact equality at eta=0",
                   fisher_imperfect(0.3, 0.2, 0.0) == fisher_binary(0.3, 0.2)))
    # along the physical signal curve P(x) = exp(-x^2/2) the slope vanishes
    # together with 1 - P, so a contrast loss pins the information to zero
    def along_curve(x, eta):
        p = math.exp(-0.5 * x * x)
        slope = -x * p
        return fisher_imperfect(p, slope, eta)

    for eta in [0.01, 0.1]:
        tail = along_curve(1e-4, eta)
        ref = along_curve(1.0, eta)
        checks.append((f"F->0 as P->1 at eta={eta}", tail < 1e-6 * ref))
    # strictly decreasing in eta at fixed observed probability 0.7
    vals = []
    for eta in [0.0, 0.05, 0.1, 0.2, 0.3]:
        p = (0.7 - eta) / (1.0 - 2.0 * eta)
        vals.append(fisher_imperfect(p, 0.2, eta))
    checks.append(("strictly decreasing in eta at fixed P~=0.7",
                   all(a > b for a, b in zip(vals, vals[1:]))))
    report(capsys, "criterion 8 (imperfect measurement)", checks)


def test_criterion_9_cli_determinism(capsys):
    checks = []
    for cmd in [["coeffs", "--set", "coeffs.points=3"],
                ["budget", "--format", "json"],
                ["optimize", "--seed", "5"]]:
        runs = [subprocess.run([sys.executable, "-m", "recoilspec.cli", *cmd],
                               capture_output=True, text=True)
                for _ in range(2)]
        ok = (runs[0].returncode == 0 and runs[1].returncode == 0
              and runs[0].stdout == runs[1].stdout)
        checks.append((f"byte-identical {' '.join(cmd)}", ok))
    report(capsys, "criterion 9 (CLI determinism)", checks)
