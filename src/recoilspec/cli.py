"""Command-line front end: reproducible sweeps written as CSV or JSON.

Frequencies in config files are plain Hz; they are converted to angular
frequencies at this boundary and nowhere else.  Every output file starts
with a comment header echoing the fully resolved configuration, so a run
can be repeated from its own artifact.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import pdeoracle
from .bloch import PulseParams
from .doppler import asymmetric_overlap, two_point_shift
from .errors import ConfigError, ConvergenceError, RecoilSpecError
from .metrology import recoil_sensitivity
from .phasespace import (CatState, FockSuperposition, FPParams, GaussianState,
                         overlap_after)
from .recoil import compute_coefficients
from .stateopt import (OptimizationProblem, optimize_fock_superposition,
                       single_photon_budget)

TWO_PI = 2.0 * math.pi
# Largest value of a count key (scan points, oracle grid points and their
# product, optimizer restarts), checked before anything is built from it.
MAX_COUNT = 100_000

DEFAULT_CONFIG = {
    "pulse": {
        "rabi_hz": 5.6e6,
        "linewidth_hz": 34e6,
        "detuning_hz": 17e6,
        "lamb_dicke": 0.108,
        "mode_freq_hz": 1.92e6,
        "pulse_duration_s": 50e-9,
    },
    "state": {"family": "vacuum", "r": 0.0, "beta": 2.0, "n": 2,
              "coeffs": None},
    "coeffs": {"detuning_hz_min": -68e6, "detuning_hz_max": 68e6,
               "points": 1},
    "resonance": {"tbar": 10.0, "detuning_hz_min": -68e6,
                  "detuning_hz_max": 68e6, "points": 41,
                  "include_doppler": True},
    "sensitivity": {"epsilon_min": 1e-3, "epsilon_max": 0.3, "points": 7,
                    "log_grid": True, "mode": "drift-only", "p0": 0.5,
                    "states": ["vacuum", "squeezed:1.44", "cat:2.0"],
                    "allow_large_epsilon": False},
    "shift": {"p0": 0.5, "neglect_diffusion": False},
    "optimize": {"basis": [2, 4], "nbar_max": 4.0, "epsilon": 0.1,
                 "p0": 0.5, "mode": "drift-only", "restarts": 8},
    "budget": {"p0": 0.5},
    "oracle_check": {"alpha_points": 3, "d_points": 2, "tolerance": 1e-4},
}


def _typed(key: str, value, default):
    """`value` for config key `key` if its JSON type is that of `default`.

    A float key also takes an integer, but neither takes NaN or infinity;
    a key whose default is None takes any value.
    """
    if default is None:
        return value
    expected = type(default).__name__
    if isinstance(default, float):
        expected = "finite float"
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
    elif isinstance(default, int) and not isinstance(default, bool):
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, type(default))
    if not ok:
        raise ConfigError(f"config key '{key}' expects {expected}, "
                          f"got {value!r}")
    return value


def _merge(base: dict, extra: dict, defaults: dict, path: str = "") -> dict:
    """`base` with `extra` merged in: a section merges into its current
    value, any other value replaces it; `defaults` gives keys and types."""
    out = dict(base)
    for k, v in extra.items():
        if k not in defaults:
            raise ConfigError(f"unknown config key '{path}{k}'")
        if isinstance(defaults[k], dict) and isinstance(v, dict):
            out[k] = _merge(out[k], v, defaults[k], f"{path}{k}.")
        else:
            out[k] = _typed(f"{path}{k}", v, defaults[k])
    return out


def _value(raw: str):
    """An override's value: JSON if it parses, else the text itself."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _merge(cfg, user, DEFAULT_CONFIG)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        value = _value(raw)
        # 'a.b=v' merges as the config file {"a": {"b": v}} would
        for part in reversed(key.split(".")):
            value = {part: value}
        cfg = _merge(cfg, value, DEFAULT_CONFIG)
    return cfg


def pulse_from_config(cfg: dict) -> PulseParams:
    p = cfg["pulse"]
    return PulseParams(rabi=TWO_PI * float(p["rabi_hz"]),
                       linewidth=TWO_PI * float(p["linewidth_hz"]),
                       detuning=TWO_PI * float(p["detuning_hz"]),
                       lamb_dicke=float(p["lamb_dicke"]),
                       mode_freq=TWO_PI * float(p["mode_freq_hz"]),
                       pulse_duration=float(p["pulse_duration_s"]))


# string spec 'name:arg' -> the state-section key that arg sets
_SPEC_ARG = {"squeezed": "r", "cat": "beta", "fock": "n"}
_FAMILIES = {
    "vacuum": lambda s: GaussianState.vacuum(),
    "squeezed": lambda s: GaussianState.squeezed(float(s["r"])),
    "cat": lambda s: CatState(float(s["beta"])),
    "fock": lambda s: FockSuperposition.fock(int(s["n"])),
    "superposition": lambda s: FockSuperposition.from_dict(
        {int(k): complex(v) for k, v in dict(s.get("coeffs") or {}).items()}),
}


def _spec_text(spec) -> str:
    """A state spec as written: a string as is, anything else as compact
    JSON with sorted keys, so key order does not change it."""
    if isinstance(spec, str):
        return spec
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def state_from_spec(spec):
    """Build a motional state from an object, or from a string spec
    'name[:arg]' read as {"family": name, <the family's key>: arg} with arg
    parsed as a --set value ('squeezed:r', 'cat:beta', 'fock:n'); either
    is merged over the default state section."""
    text = _spec_text(spec)
    extra = spec
    if not isinstance(spec, dict):
        fam, sep, arg = text.partition(":")
        extra = {"family": fam}
        if sep:
            if fam not in _SPEC_ARG:
                raise ConfigError(f"state spec {text}: only "
                                  f"{', '.join(_SPEC_ARG)} take an argument")
            extra[_SPEC_ARG[fam]] = _value(arg)
    try:
        state = _merge(DEFAULT_CONFIG["state"], extra,
                       DEFAULT_CONFIG["state"], "state.")
    except ConfigError as exc:
        raise ConfigError(f"state spec {text}: {exc}") from exc
    fam = state["family"]
    if fam not in _FAMILIES:
        raise ConfigError(f"unknown state family {fam!r}")
    try:
        return _FAMILIES[fam](state)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad state {text}: {exc}") from exc


def _header_lines(cfg: dict, command: str) -> list[str]:
    resolved = json.dumps({"command": command, "config": cfg},
                          sort_keys=True, separators=(",", ":"))
    return [f"# recoilspec {command}", f"# {resolved}"]


def write_table(out, fmt: str, cfg: dict, command: str,
                columns: list[str], rows: list[list]) -> str:
    def fmt_cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return format(v, ".12g")
        return str(v)

    if fmt == "csv":
        buf = io.StringIO()
        for line in _header_lines(cfg, command):
            buf.write(line + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt_cell(v) for v in row])
        text = buf.getvalue()
    else:
        payload = {"command": command, "config": cfg, "columns": columns,
                   "rows": rows}
        text = json.dumps(payload, sort_keys=True, indent=2,
                          default=float) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {out}: {exc}") from exc
    return text


def _counts(cfg: dict, *keys: str) -> list[int]:
    """The values of the count keys 'section.key', each and their product
    checked to lie in [1, MAX_COUNT]."""
    values = [cfg[sec][name] for sec, _, name in
              (key.partition(".") for key in keys)]
    for key, n in zip(keys, values):
        if not 1 <= n <= MAX_COUNT:
            raise ConfigError(f"{key} must lie in [1, {MAX_COUNT}], got {n}")
    total = math.prod(values)
    if total > MAX_COUNT:
        raise ConfigError(f"{' * '.join(keys)} must be at most {MAX_COUNT}, "
                          f"got {total}")
    return values


def _grid(lo: float, hi: float, n: int, log: bool = False) -> np.ndarray:
    if log and (lo <= 0 or hi <= 0):
        raise ConfigError("log grid needs positive bounds")
    if n == 1:
        return np.array([0.5 * (lo + hi)])
    if log:
        # 10**log10(hi) may overflow near the largest float; geomspace
        # then sets the endpoints to lo and hi exactly
        with np.errstate(over="ignore"):
            return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def cmd_coeffs(cfg: dict, _seed: int):
    sec = cfg["coeffs"]
    (n,) = _counts(cfg, "coeffs.points")
    base = pulse_from_config(cfg)
    deltas = _grid(float(sec["detuning_hz_min"]),
                   float(sec["detuning_hz_max"]), n)
    if n == 1:
        deltas = np.array([cfg["pulse"]["detuning_hz"]], dtype=float)

    def one(delta_hz):
        p = base.with_detuning(TWO_PI * float(delta_hz))
        c = compute_coefficients(p)
        return [float(delta_hz), c.alpha_p, c.alpha_x, c.d_pp, c.d_xx,
                c.d_xp, c.epsilon, c.g, c.n1]

    rows = [one(delta) for delta in deltas]
    cols = ["detuning_hz", "alpha_p", "alpha_x", "d_pp", "d_xx", "d_xp",
            "epsilon", "g", "n1"]
    return cols, rows


def cmd_resonance(cfg: dict, _seed: int):
    sec = cfg["resonance"]
    (n,) = _counts(cfg, "resonance.points")
    base = pulse_from_config(cfg)
    state = state_from_spec(cfg["state"])
    tbar = float(sec["tbar"])
    include_doppler = bool(sec["include_doppler"])
    deltas = _grid(float(sec["detuning_hz_min"]),
                   float(sec["detuning_hz_max"]), n)

    def one(delta_hz):
        p = base.with_detuning(TWO_PI * float(delta_hz))
        c = compute_coefficients(p)
        if include_doppler:
            ps, dp, _ = asymmetric_overlap(
                state, FPParams(alpha=c.alpha_p, d=c.d_pp, tbar=tbar, g=c.g))
        else:
            ps = overlap_after(state,
                               FPParams(alpha=c.alpha_p, d=c.d_pp, tbar=tbar))
            dp = 0.0
        return [float(delta_hz), ps, dp]

    return ["detuning_hz", "p_sym", "delta_p"], [one(d) for d in deltas]


def cmd_sensitivity(cfg: dict, _seed: int):
    sec = cfg["sensitivity"]
    (n,) = _counts(cfg, "sensitivity.points")
    eps = _grid(float(sec["epsilon_min"]), float(sec["epsilon_max"]), n,
                log=bool(sec["log_grid"]))
    states = [state_from_spec(s) for s in sec["states"]]
    specs = [_spec_text(s) for s in sec["states"]]
    mode = str(sec["mode"])
    p0 = float(sec["p0"])
    allow = bool(sec["allow_large_epsilon"])

    def one(e, state):
        try:
            r = recoil_sensitivity(state, float(e), p0=p0, mode=mode,
                                   allow_large_epsilon=allow)
            return r.s_abs, r.qfi_bound, ""
        except RecoilSpecError as exc:
            return None, None, type(exc).__name__

    rows = []
    for e in eps:
        row = [float(e)]
        diagnostics = []
        for spec, state in zip(specs, states):
            s_abs, bound, diag = one(e, state)
            row.extend([s_abs, bound])
            if diag:
                diagnostics.append(f"{spec}:{diag}")
        row.append(";".join(diagnostics))
        rows.append(row)
    cols = ["epsilon"]
    for spec in specs:
        tag = spec.replace(":", "_")
        cols.extend([f"s_{tag}", f"qfi_bound_{tag}"])
    cols.append("diagnostics")
    return cols, rows


def cmd_shift(cfg: dict, _seed: int):
    sec = cfg["shift"]
    pulse = pulse_from_config(cfg)
    state = state_from_spec(cfg["state"])
    res = two_point_shift(state, pulse, p0=float(sec["p0"]),
                          neglect_diffusion=bool(sec["neglect_diffusion"]))
    cols = ["p0", "tstar", "p_sym", "delta_p", "c_const", "shift_hz",
            "shift_analytic_hz", "dp_ddelta_per_hz"]
    rows = [[float(sec["p0"]), res.tstar, res.p_sym, res.delta_p_asym,
             res.c_const, res.shift / TWO_PI, res.shift_analytic / TWO_PI,
             res.dp_ddelta * TWO_PI]]
    return cols, rows


def cmd_optimize(cfg: dict, seed: int):
    sec = cfg["optimize"]
    (restarts,) = _counts(cfg, "optimize.restarts")
    prob = OptimizationProblem(basis=tuple(sec["basis"]),
                               nbar_max=float(sec["nbar_max"]),
                               epsilon=float(sec["epsilon"]),
                               p0=float(sec["p0"]), mode=str(sec["mode"]))
    res = optimize_fock_superposition(prob, n_restarts=restarts, seed=seed)
    state = FockSuperposition.from_dict(
        {n: c for n, c in zip(prob.basis, res.coeffs)})
    cols = ([f"c_{n}" for n in prob.basis]
            + ["s_abs", "nbar_used", "constraint_slack", "qfi"])
    rows = [[*(float(c) for c in res.coeffs), res.s_abs, res.nbar_used,
             res.constraint_slack, state.qfi_displacement()]]
    return cols, rows


def cmd_budget(cfg: dict, _seed: int):
    pulse = pulse_from_config(cfg)
    b = single_photon_budget(pulse, p0=float(cfg["budget"]["p0"]))
    cols = ["alpha_p", "d_pp", "epsilon", "n1", "tstar", "r_required",
            "squeezing_db", "nbar", "enhancement"]
    rows = [[b.coeffs.alpha_p, b.coeffs.d_pp, b.coeffs.epsilon, b.coeffs.n1,
             b.tstar, b.r_required, b.squeezing_db, b.nbar, b.enhancement]]
    return cols, rows


def cmd_oracle_check(cfg: dict, _seed: int):
    sec = cfg["oracle_check"]
    n_alpha, n_d = _counts(cfg, "oracle_check.alpha_points",
                           "oracle_check.d_points")
    fps = [FPParams(alpha=float(a), d=float(d), tbar=1.0)
           for a in np.linspace(0.0, 2.0, n_alpha)
           for d in np.linspace(0.0, 0.3, n_d)]
    families = [("vacuum", GaussianState.vacuum()),
                ("squeezed_1.44", GaussianState.squeezed(1.44)),
                ("cat_2.0", CatState(2.0)),
                ("fock_2", FockSuperposition.fock(2))]
    tol = float(sec["tolerance"])
    if tol < 0.0:
        raise ConfigError(f"oracle_check.tolerance must be non-negative, "
                          f"got {tol}")
    rows = []
    worst_overall = 0.0
    for name, state in families:
        pde = pdeoracle.overlap_pde_batch(state, fps)
        worst = max(abs(overlap_after(state, fp) - p)
                    for fp, p in zip(fps, pde))
        worst_overall = max(worst_overall, worst)
        rows.append([name, len(fps), worst, "pass" if worst <= tol
                     else "fail"])
    if worst_overall > tol:
        raise ConvergenceError(
            f"PDE-vs-analytic deviation {worst_overall:.3e} exceeds {tol}")
    return ["family", "points", "worst_abs_error", "status"], rows


# command name -> handler(cfg, seed) returning (columns, rows)
COMMANDS = {"coeffs": cmd_coeffs, "resonance": cmd_resonance,
            "sensitivity": cmd_sensitivity, "shift": cmd_shift,
            "optimize": cmd_optimize, "budget": cmd_budget,
            "oracle-check": cmd_oracle_check}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recoilspec",
        description="Photon-recoil spectroscopy model calculations")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", default=None,
                        help="JSON config file; defaults used when omitted")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="dotted-key config override, e.g. pulse.rabi_hz=1e6")
    parser.add_argument("--out", default="-",
                        help="output path, '-' for stdout")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        cols, rows = COMMANDS[args.command](cfg, args.seed)
        for i, row in enumerate(rows):
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in row):
                raise ConvergenceError(
                    f"{args.command} row {i} is not finite: {row}")
        write_table(args.out, args.format, cfg, args.command, cols, rows)
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except RecoilSpecError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
