"""The three workloads: seeded inputs, the timed operations, their checks.

`build(rs, seed, tmpdir)` makes a workload's inputs from its seed with the
standard-library generator only and returns the list of operations, each a
(label, callable) pair.  `check(results, failures)` compares the
(label, output) pairs with `reference`, which shares no code with
recoilspec, or with properties the method must have.  `failures` holds the
(label, exception type) pairs of the operations that raised.  The check
returns (problems, missed): the problems make the round incorrect, and
`missed` lists operations on fixed inputs whose output misses its reference
through a known fault of the program; those count as failed operations, as
do the expected exceptions.  Every round's cost is nearly independent of
the seed: scans draw one value per stratum of a fixed range, so a round
does the same amount of work whatever the seed.
"""

from __future__ import annotations

import json
import math
import os
import random

TWO_PI = 2.0 * math.pi

# The pinned dipole scenario of the test suite (tests/conftest.py), in Hz.
PINNED = {"rabi_hz": 5.6e6, "linewidth_hz": 34e6, "detuning_hz": 17e6,
          "lamb_dicke": 0.108, "mode_freq_hz": 1.92e6,
          "pulse_duration_s": 50e-9}

# Pulses beyond the fixed 64-node Gauss-Legendre grid.  They do not depend
# on the seed, so the share of failed operations is the same in every run.
BEYOND_GRID = ({"pulse_duration_s": 8e-6}, {"pulse_duration_s": 16e-6},
               {"rabi_hz": 0.5e9}, {"rabi_hz": 1e9})
EXPECTED_FAILURE = "QuadratureConvergenceError"

LINESHAPE_TBAR = 10.0
SQUEEZE_R = 1.44
CAT_BETA = 2.0
SUPERPOSITION = {2: 0.5, 4: math.sqrt(0.75)}
# The optimizer's cost depends on its start points: over seeds 0-9 it took
# 45 to 135 objective evaluations.  Its seed is therefore fixed, so every run
# does the same optimizer work; the workload seed sets the epsilon grid.
OPTIMIZE_ARGS = ["--seed", "0", "--set", "optimize.restarts=2"]
OPTIMIZE_DEFAULTS = {"basis": (2, 4), "nbar_max": 4.0, "epsilon": 0.1}
# Oracle settings are alpha = 1 +- x with x < ORACLE_ALPHA_SPREAD: the summed
# step count and the grid, sized for the largest alpha and d of a batch, stay
# nearly fixed.  In a grid sized for (1.1, 0.3) the cat overlap misses the
# tolerance at alpha near 0.9 and d below about 0.007 (see the FOUND line in
# CHANGES.md).  A fixed batch, CAT_EDGE, shows that miss in every round; the
# seeded cat draws keep d >= CAT_D_MIN, since a miss on some seeds only
# would change the share of failed operations from run to run.
ORACLE_TOL = 1e-4
ORACLE_ALPHA_SPREAD = 0.1
CAT_D_MIN = 0.05
CAT_EDGE = ("oracle", "cat-edge", ("cat", CAT_BETA), [(1.1, 0.3), (0.9, 0.0)])


def _strata(rng, n, lo, hi, log=False):
    """One uniform draw in each of n equal strata of [lo, hi]."""
    if log:
        return [math.exp(v) for v in
                _strata(rng, n, math.log(lo), math.log(hi))]
    return [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]


def _pulse(rs, overrides):
    p = {**PINNED, **overrides}
    return rs.PulseParams(rabi=TWO_PI * p["rabi_hz"],
                          linewidth=TWO_PI * p["linewidth_hz"],
                          detuning=TWO_PI * p["detuning_hz"],
                          lamb_dicke=p["lamb_dicke"],
                          mode_freq=TWO_PI * p["mode_freq_hz"],
                          pulse_duration=p["pulse_duration_s"])


def _cli(rs, argv, path):
    """Run one CLI command in-process; the text of its JSON output file is
    the result."""
    code = rs.cli.main([*argv, "--format", "json", "--out", path])
    if code != 0:
        raise RuntimeError(f"recoilspec {argv[0]} exited {code}")
    with open(path) as fh:
        text = fh.read()
    os.remove(path)
    return text


def _read_table(text):
    payload = json.loads(text)
    return [dict(zip(payload["columns"], row)) for row in payload["rows"]]


def _close(value, ref, rel, floor=0.0):
    return abs(value - ref) <= rel * abs(ref) + floor


def _failure_problems(failures, expected=()):
    """Only the operations labelled in `expected` may raise, and only with
    EXPECTED_FAILURE; any other exception is a problem."""
    problems = []
    for label, kind in failures:
        if label not in expected:
            problems.append(f"{label}: raised {kind}")
        elif kind != EXPECTED_FAILURE:
            problems.append(f"{label}: failed with {kind}, expected "
                            f"{EXPECTED_FAILURE}")
    return problems


# --- lineshape ----------------------------------------------------------------

def build_lineshape(rs, seed, tmpdir):
    rng = random.Random(seed)
    detunings = _strata(rng, 12, 0.0, 2.0 * PINNED["linewidth_hz"])
    taus = _strata(rng, 10, 10e-9, 5e-6, log=True)
    rabis = _strata(rng, 10, 1e6, 300e6, log=True)
    vacuum = rs.GaussianState.vacuum()
    squeezed = rs.GaussianState.squeezed(SQUEEZE_R)

    def detuning_point(pulse):
        c = rs.recoil.compute_coefficients(pulse)
        fp = rs.FPParams(alpha=c.alpha_p, d=c.d_pp, tbar=LINESHAPE_TBAR,
                         g=c.g)
        return (pulse, c, rs.doppler.asymmetric_overlap(vacuum, fp),
                rs.doppler.asymmetric_overlap(squeezed, fp))

    def coefficients(pulse):
        return pulse, rs.recoil.compute_coefficients(pulse)

    ops = []
    for d in detunings:
        for sign in (1.0, -1.0):
            pulse = _pulse(rs, {"detuning_hz": sign * d})
            ops.append((("detuning", d, sign),
                        lambda p=pulse: detuning_point(p)))
    for over in ([{"pulse_duration_s": t} for t in taus]
                 + [{"rabi_hz": r} for r in rabis] + list(BEYOND_GRID)):
        pulse = _pulse(rs, over)
        ops.append((("pulse", over), lambda p=pulse: coefficients(p)))
    for cmd in ("shift", "budget"):
        path = os.path.join(tmpdir, f"{cmd}.json")
        ops.append(((cmd,), lambda c=cmd, f=path: _cli(rs, [c], f)))
    return ops


def _pulse_args(p):
    return (p.rabi, p.linewidth, p.detuning, p.lamb_dicke, p.mode_freq,
            p.pulse_duration)


def check_lineshape(results, failures):
    import reference as ref

    problems = _failure_problems(
        failures, [("pulse", over) for over in BEYOND_GRID])
    pairs = {}
    for label, value in results:
        if label[0] in ("shift", "budget"):
            continue
        pulse, c = value[0], value[1]
        args = _pulse_args(pulse)
        r = ref.coefficients(*args)
        scale = max(abs(r["alpha_p"]), abs(r["d_pp"]))
        for key, want in r.items():
            if not _close(getattr(c, key), want, 0.0, 1e-8 * scale):
                problems.append(f"{label}: {key}={getattr(c, key)!r} vs "
                                f"reference {want!r}")
        eta_nu = math.sqrt(2.0) * pulse.lamb_dicke * pulse.mode_freq
        g_ref = ref.damping(*args)
        g_scale = max(abs(g_ref), eta_nu * r["alpha_p"] / pulse.linewidth)
        if not _close(c.g, g_ref, 0.0, 1e-4 * g_scale):
            problems.append(f"{label}: g={c.g!r} vs reference {g_ref!r}")
        if not (c.d_pp >= 0.0 and c.n1 > 0.0):
            problems.append(f"{label}: D_pp={c.d_pp!r}, n1={c.n1!r}")
        if label[0] == "detuning":
            pairs.setdefault(label[1], {})[label[2]] = (
                c, g_scale, (value[2][1], value[3][1]))
            for state_cov, (p_sym, delta_p, _) in (
                    (ref.squeezed_cov(0.0), value[2]),
                    (ref.squeezed_cov(SQUEEZE_R), value[3])):
                want = ref.damped_gaussian_overlap(
                    state_cov, c.alpha_p, c.d_pp, LINESHAPE_TBAR, 0.0)
                h = 1e-4 / LINESHAPE_TBAR
                slope = (ref.damped_gaussian_overlap(
                    state_cov, c.alpha_p, c.d_pp, LINESHAPE_TBAR, h)
                    - ref.damped_gaussian_overlap(
                        state_cov, c.alpha_p, c.d_pp, LINESHAPE_TBAR, -h)
                    ) / (2.0 * h)
                if not (_close(p_sym, want, 1e-10)
                        and _close(delta_p, c.g * slope, 1e-6, 1e-15)):
                    problems.append(f"{label}: asymmetric overlap "
                                    f"({p_sym!r}, {delta_p!r}) vs "
                                    f"({want!r}, {c.g * slope!r})")
    for d, pair in pairs.items():
        (cp, scale, dps_p), (cm, _, dps_m) = pair[1.0], pair[-1.0]
        if not _close(cp.alpha_p, cm.alpha_p, 1e-10):
            problems.append(f"alpha_p not even at +-{d} Hz")
        if not _close(cp.g, -cm.g, 0.0, 1e-4 * scale):
            problems.append(f"g not odd at +-{d} Hz")
        if not all(_close(a, -b, 1e-4, 1e-15) for a, b in zip(dps_p, dps_m)):
            problems.append(f"delta_p not odd at +-{d} Hz")
    pinned = ref.coefficients(
        TWO_PI * PINNED["rabi_hz"], TWO_PI * PINNED["linewidth_hz"],
        TWO_PI * PINNED["detuning_hz"], PINNED["lamb_dicke"],
        TWO_PI * PINNED["mode_freq_hz"], PINNED["pulse_duration_s"])
    for label, value in results:
        if label == ("shift",):
            problems += _check_shift(ref, _read_table(value)[0], pinned)
        elif label == ("budget",):
            problems += _check_budget(ref, _read_table(value)[0], pinned)
    return problems, []


def _check_shift(ref, row, coeffs):
    problems = []
    p0 = row["p0"]
    tstar = ref.vacuum_working_point(coeffs["alpha_p"], coeffs["d_pp"], p0)
    if not _close(row["p_sym"], p0, 0.0, 1e-9):
        problems.append(f"shift: p_sym={row['p_sym']!r} vs p0={p0}")
    if not _close(row["tstar"], tstar, 1e-8):
        problems.append(f"shift: tstar={row['tstar']!r} vs {tstar!r}")
    if not _close(row["shift_hz"] * row["dp_ddelta_per_hz"],
                  -row["delta_p"], 1e-9):
        problems.append("shift: shift_hz * dp_ddelta != -delta_p")
    return problems


def _check_budget(ref, row, coeffs):
    problems = []
    p0 = 0.5
    if not _close(row["tstar"] * row["n1"], 1.0, 1e-12):
        problems.append(f"budget: tstar*n1={row['tstar'] * row['n1']!r}")
    for key in ("alpha_p", "d_pp", "n1"):
        if not _close(row[key], coeffs[key], 1e-8):
            problems.append(f"budget: {key}={row[key]!r} vs {coeffs[key]!r}")
    tstar = 1.0 / coeffs["n1"]
    var_x = 0.5 * math.exp(2.0 * row["r_required"])
    p = ref.GaussianProbe(var_x).fidelity(coeffs["alpha_p"] * tstar,
                                          coeffs["d_pp"] * tstar)[0]
    if not _close(p, p0, 0.0, 1e-8):
        problems.append(f"budget: overlap at r_required is {p!r}, not {p0}")
    return problems


# --- probe_states -------------------------------------------------------------

def _families(rs):
    return [
        ("vacuum", rs.GaussianState.vacuum(), ("gauss", 0.5)),
        ("squeezed", rs.GaussianState.squeezed(SQUEEZE_R),
         ("gauss", 0.5 * math.exp(2.0 * SQUEEZE_R))),
        ("cat", rs.CatState(CAT_BETA), ("cat", CAT_BETA)),
        ("fock2", rs.FockSuperposition.fock(2), ("fock", {2: 1.0})),
        ("fock4", rs.FockSuperposition.fock(4), ("fock", {4: 1.0})),
        ("fock2+4", rs.FockSuperposition.from_dict(SUPERPOSITION),
         ("fock", SUPERPOSITION)),
    ]


def _probe(ref, spec):
    kind, arg = spec
    if kind == "gauss":
        return ref.GaussianProbe(arg)
    if kind == "cat":
        return ref.CatProbe(arg)
    return ref.FockProbe(arg)


def build_probe_states(rs, seed, tmpdir):
    rng = random.Random(seed)
    epsilons = _strata(rng, 6, 1e-3, 0.3, log=True)
    mismatch = [(rng.uniform(0.5, 1.5), rng.uniform(0.0, 0.1),
                 math.exp(rng.uniform(math.log(1e-3), math.log(0.3))))
                for _ in range(3)]
    ops = []
    for eps in epsilons:
        for name, state, spec in _families(rs):
            for mode in ("drift-only", "extended"):
                ops.append((("sensitivity", name, spec, eps, mode),
                            lambda s=state, e=eps, m=mode:
                            rs.metrology.recoil_sensitivity(s, e, mode=m)))
    for r, dphi, eps in mismatch:
        ops.append((("mismatch", r, dphi, eps),
                    lambda a=(r, dphi, eps):
                    rs.metrology.phase_mismatch_sensitivity(*a)))
    path = os.path.join(tmpdir, "optimize.json")
    ops.append((("optimize",),
                lambda: _cli(rs, ["optimize", *OPTIMIZE_ARGS], path)))
    return ops


def check_probe_states(results, failures):
    import reference as ref

    problems = _failure_problems(failures)
    probes = {}
    for label, value in results:
        kind = label[0]
        if kind == "sensitivity":
            _, name, spec, eps, mode = label
            probe = probes.setdefault(name, _probe(ref, spec))
            t = value.tstar
            p, p_u, p_v = probe.fidelity(t, eps * t)
            s = abs(p_u + (eps * p_v if mode == "extended" else 0.0))
            bound = math.sqrt(4.0 * probe.var_x) / (2.0 * t)
            if not _close(p, 0.5, 0.0, 1e-9):
                problems.append(f"{label[1:]}: P(t*)={p!r}")
            if not _close(value.s_abs, s, 1e-7):
                problems.append(f"{label[1:]}: |S|={value.s_abs!r} vs {s!r}")
            if not _close(value.qfi_bound, bound, 1e-9):
                problems.append(f"{label[1:]}: qfi_bound={value.qfi_bound!r}"
                                f" vs {bound!r}")
            if mode == "drift-only" and value.s_abs > value.qfi_bound:
                problems.append(f"{label[1:]}: |S| above the QFI bound")
        elif kind == "mismatch":
            s, _ = ref.mismatch_sensitivity(*label[1:], 0.5)
            if not _close(value, s, 1e-7):
                problems.append(f"{label}: |S|={value!r} vs {s!r}")
        elif kind == "optimize":
            problems += _check_optimize(ref, _read_table(value)[0])
    return problems, []


def _fock_sensitivity(ref, coeffs, eps):
    probe = ref.FockProbe(coeffs)
    t = ref.first_crossing(probe.fidelity, eps, 0.5, 0.05)
    return abs(probe.fidelity(t, eps * t)[1]), probe


def _check_optimize(ref, row):
    problems = []
    basis, nbar_max, eps = OPTIMIZE_DEFAULTS.values()
    c = [row[f"c_{n}"] for n in basis]
    if not _close(sum(x * x for x in c), 1.0, 0.0, 1e-9):
        problems.append(f"optimize: coefficients {c} not normalized")
    nbar = sum(n * x * x for n, x in zip(basis, c))
    if not (_close(row["nbar_used"], nbar, 1e-9)
            and nbar <= nbar_max + 1e-9):
        problems.append(f"optimize: nbar_used={row['nbar_used']!r}")
    s, probe = _fock_sensitivity(ref, dict(zip(basis, c)), eps)
    if not _close(row["s_abs"], s, 1e-7):
        problems.append(f"optimize: |S|={row['s_abs']!r} vs {s!r}")
    if not _close(row["qfi"], 4.0 * probe.var_x, 1e-9):
        problems.append(f"optimize: qfi={row['qfi']!r}")
    best_single = max(_fock_sensitivity(ref, {n: 1.0}, eps)[0]
                      for n in basis if n <= nbar_max)
    if row["s_abs"] < best_single - 1e-9:
        problems.append(f"optimize: |S|={row['s_abs']!r} below the best "
                        f"single basis state {best_single!r}")
    return problems


# --- oracle -------------------------------------------------------------------

def build_oracle(rs, seed, tmpdir):
    rng = random.Random(seed)
    families = {name: state for name, state, _ in _families(rs)}
    labels = []
    for name, _, spec in _families(rs)[:4]:   # the oracle-check families
        x = rng.uniform(0.0, ORACLE_ALPHA_SPREAD)
        d = rng.uniform(CAT_D_MIN if name == "cat" else 0.0, 0.3)
        labels.append(("oracle", name, spec, [(1.0 + x, 0.3), (1.0 - x, d)]))
    labels.append(CAT_EDGE)
    ops = []
    for label in labels:
        state = families[label[1].removesuffix("-edge")]
        fps = [rs.FPParams(alpha=a, d=d, tbar=1.0) for a, d in label[3]]
        ops.append((label, lambda s=state, f=fps:
                    rs.pdeoracle.overlap_pde_batch(s, f)))
    return ops


def check_oracle(results, failures):
    import reference as ref

    problems, missed = _failure_problems(failures), []
    for label, values in results:
        _, name, spec, settings = label
        probe = _probe(ref, spec)
        misses = []
        for (alpha, d), got in zip(settings, values):
            want = probe.fidelity(alpha, d)[0]
            if not _close(got, want, 0.0, ORACLE_TOL):
                misses.append(f"oracle {name} alpha={alpha!r} d={d!r}: "
                              f"{got!r} vs {want!r}")
        if label == CAT_EDGE and misses:
            missed.append(label)
        else:
            problems += misses
    return problems, missed


WORKLOADS = {
    "lineshape": (build_lineshape, check_lineshape),
    "probe_states": (build_probe_states, check_probe_states),
    "oracle": (build_oracle, check_oracle),
}
