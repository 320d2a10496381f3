"""Command-line interface: determinism, formats, overrides, exit codes."""

import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from recoilspec import cli


def run_cli(*args, check=False):
    proc = subprocess.run([sys.executable, "-m", "recoilspec.cli", *args],
                         capture_output=True, text=True)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_coeffs_deterministic_bytes():
    a = run_cli("coeffs", "--set", "coeffs.points=5", check=True)
    b = run_cli("coeffs", "--set", "coeffs.points=5", check=True)
    assert a.stdout == b.stdout
    assert a.stdout.startswith("#")


def test_csv_header_and_shape():
    proc = run_cli("coeffs", "--set", "coeffs.points=3", check=True)
    lines = proc.stdout.strip().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    assert len(header) == 2
    assert "coeffs" in header[0]
    # resolved config is embedded as sorted JSON in the second header line
    doc = json.loads(header[1].lstrip("# "))
    assert doc["config"]["coeffs"]["points"] == 3
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0].split(",")[0] == "detuning_hz"
    assert len(body) == 4


def test_json_format():
    proc = run_cli("budget", "--format", "json", check=True)
    doc = json.loads(proc.stdout)
    assert doc["command"] == "budget"
    assert len(doc["rows"]) == 1
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert float(row["tstar"]) > 0.0


def test_set_override_changes_output():
    base = run_cli("coeffs", check=True)
    off = run_cli("coeffs", "--set", "pulse.rabi_hz=0.0", check=True)
    assert base.stdout != off.stdout
    row = off.stdout.strip().splitlines()[-1].split(",")
    cols = [ln for ln in off.stdout.splitlines() if not ln.startswith("#")][0]
    idx = cols.split(",").index("alpha_p")
    assert float(row[idx]) == 0.0


def test_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"pulse": {"linewidth_hz": -1.0}}))
    proc = run_cli("coeffs", "--config", str(cfg))
    assert proc.returncode == 2
    assert proc.stderr != ""


def test_unknown_override_exits_2():
    proc = run_cli("coeffs", "--set", "pulse.no_such_key=1.0")
    assert proc.returncode == 2


def test_mistyped_override_exits_2():
    proc = run_cli("sensitivity", "--set", "sensitivity.points=abc")
    assert proc.returncode == 2
    assert "sensitivity.points" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_oracle_check_failure_exits_3():
    proc = run_cli("oracle-check",
                   "--set", "oracle_check.alpha_points=2",
                   "--set", "oracle_check.d_points=1",
                   "--set", "oracle_check.tolerance=1e-12")
    assert proc.returncode == 3


def test_resonance_has_central_dip():
    proc = run_cli("resonance", "--set", "resonance.points=9",
                   "--set", "resonance.tbar=5.0", check=True)
    rows = [ln.split(",") for ln in proc.stdout.strip().splitlines()
            if not ln.startswith("#")]
    cols, data = rows[0], rows[1:]
    p = [float(r[cols.index("p_sym")]) for r in data]
    # the recoil drift, and hence the survival dip, peaks at line center
    assert min(p) == p[len(p) // 2]
    assert all(0.0 <= v <= 1.0 for v in p)


def test_shift_keeps_c_const_where_damping_underflows():
    # g scales with eta^2 and is 0 at eta = 1e-200; c_const does not depend
    # on g and stays 1 for the vacuum
    proc = run_cli("shift", "--set", "pulse.lamb_dicke=1e-200",
                   "--format", "json", check=True)
    doc = json.loads(proc.stdout)
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["c_const"] == pytest.approx(1.0, abs=1e-10)


def test_long_pulse_coeffs_exit_0_with_finite_rows():
    proc = run_cli("coeffs", "--set", "pulse.pulse_duration_s=1e-3",
                   "--format", "json", check=True)
    row = json.loads(proc.stdout)["rows"][0]
    assert all(math.isfinite(v) for v in row)


@pytest.mark.parametrize("args, code", [
    (["coeffs", "--set", "pulse.rabi_hz=Infinity"], 2),
    (["shift", "--set", "pulse.detuning_hz=NaN"], 2),
    (["resonance", "--set", "resonance.tbar=NaN"], 2),
    (["sensitivity", "--set", "sensitivity.epsilon_min=NaN"], 2),
    (["coeffs", "--set", "pulse.rabi_hz=1e200"], 3),
    (["coeffs", "--set", "pulse.linewidth_hz=1e300"], 3),
    (["budget", "--set", "pulse.linewidth_hz=1e300"], 3),
    (["sensitivity", "--set", 'sensitivity.states=["squeezed:abc"]'], 2),
    (["sensitivity", "--set", 'sensitivity.states=["fock:-2"]'], 2),
    (["resonance", "--set", "state.family=fock", "--set", "state.n=-1"], 2),
    (["resonance", "--set", "state.family=squeezed", "--set", "state.r=400"],
     2),
    (["resonance", "--set", "state.family=superposition",
      "--set", 'state.coeffs={"2":"x"}'], 2),
    (["optimize", "--set", "optimize.basis=[]"], 2),
    (["optimize", "--set", 'optimize.basis=["a"]'], 2),
    (["oracle-check", "--set", "oracle_check.alpha_points=0"], 2),
])
def test_non_finite_inputs_and_outputs_exit_cleanly(args, code):
    proc = run_cli(*args)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_non_finite_config_file_value_exits_2(tmp_path):
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"pulse": {"rabi_hz": NaN}}')
    proc = run_cli("coeffs", "--config", str(cfg))
    assert proc.returncode == 2
    assert "pulse.rabi_hz" in proc.stderr


def test_help_lists_every_command():
    proc = run_cli("--help", check=True)
    assert len(cli.COMMANDS) == 7
    for name in cli.COMMANDS:
        assert name in proc.stdout


def test_non_finite_row_exits_3(monkeypatch, capsys):
    monkeypatch.setitem(cli.COMMANDS, "budget",
                        lambda cfg, seed: (["x"], [[1.0], [math.nan]]))
    assert cli.main(["budget"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget row 1" in captured.err


_EDGE = (st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300,
                          5e-324, -5e-324, 0.0, -1.0])
         | st.floats(allow_nan=True, allow_infinity=True))


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_exit_contract(code, out, err):
    assert code in (0, 2, 3), err
    if code == 0:
        body = [ln for ln in out.splitlines() if not ln.startswith("#")][1:]
        assert all(math.isfinite(float(cell))
                   for ln in body for cell in ln.split(","))
    else:
        assert out == "" and err != ""


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["coeffs", "budget", "shift"]),
       key=st.sampled_from(sorted(cli.DEFAULT_CONFIG["pulse"])),
       value=_EDGE)
def test_pulse_edge_values_keep_the_exit_contract(command, key, value):
    _assert_exit_contract(*_run_in_process(
        [command, "--set", f"pulse.{key}={json.dumps(value)}"]))


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(["vacuum", "squeezed", "cat", "fock",
                               "superposition"]) | st.text(),
       doppler=st.booleans(),
       setting=st.tuples(st.sampled_from(["r", "beta"]), _EDGE)
       | st.tuples(st.just("n"), st.sampled_from([-1, 0, 64, 65, 2**63])
                   | st.integers()))
def test_state_edge_values_keep_the_exit_contract(family, doppler, setting):
    key, value = setting
    _assert_exit_contract(*_run_in_process(
        ["resonance", "--set", "resonance.points=1",
         "--set", f"resonance.include_doppler={json.dumps(doppler)}",
         "--set", f"state.family={json.dumps(family)}",
         "--set", f"state.{key}={json.dumps(value)}"]))
