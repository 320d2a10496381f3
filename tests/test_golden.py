"""CLI outputs against golden copies, captured while the pulse integrals
came from Gauss-Legendre quadrature and the damping rate from Richardson
differences (the sensitivity copy later, from the exact overlap slopes; the
cat and Fock shift copies once the Doppler term came from the exact
identity deltaP = (g tbar / 2) P_sym, as no earlier output exists; the
optimize copy while the optimizer's gradient came from
`real_fock_derivatives` and its reported |S| from `recoil_sensitivity`).

Each numeric cell must agree with its golden value to 1e-10 of the largest
magnitude in its column; everything else must agree exactly.  To recapture a
golden file (only when a change of the numbers is intended and explained),
run the command listed below with `--format json --out tests/golden/<name>.json`.
"""

import json
from pathlib import Path

import pytest

from recoilspec import cli

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = {
    "coeffs": ["coeffs", "--set", "coeffs.points=17"],
    "resonance": ["resonance", "--set", "resonance.points=9"],
    "shift": ["shift"],
    "shift_cat": ["shift", "--set", "state.family=cat",
                  "--set", "state.beta=2.0"],
    "shift_fock": ["shift", "--set", "state.family=fock", "--set", "state.n=2"],
    "budget": ["budget"],
    "sensitivity": ["sensitivity", "--set",
                    'sensitivity.states=["vacuum","squeezed:1.44",'
                    '"cat:2.0","fock:2"]',
                    "--set", "sensitivity.mode=extended"],
    "optimize": ["optimize", "--seed", "0", "--set", "optimize.restarts=2"],
}
REL = 1e-10


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert cli.main([*COMMANDS[name], "--format", "json",
                     "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert {k: got[k] for k in ("command", "config", "columns")} == \
        {k: want[k] for k in ("command", "config", "columns")}
    assert len(got["rows"]) == len(want["rows"])
    for j, col in enumerate(want["columns"]):
        column = [row[j] for row in want["rows"]]
        numeric = [v for v in column if isinstance(v, float)]
        scale = max((abs(v) for v in numeric), default=0.0)
        for i, (a, b) in enumerate(zip((row[j] for row in got["rows"]),
                                       column)):
            if isinstance(b, float):
                assert abs(a - b) <= REL * scale, (name, col, i, a, b)
            else:
                assert a == b, (name, col, i)
