"""Command-line interface: determinism, formats, overrides, exit codes."""

import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from recoilspec import cli


# A CLI run takes a second or two; a child that outlives this limit fails
# its test instead of stalling the suite.
CLI_TIMEOUT_S = 120


def run_cli(*args, check=False):
    proc = subprocess.run([sys.executable, "-m", "recoilspec.cli", *args],
                         capture_output=True, text=True,
                         stdin=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S)
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
    (["optimize", "--set", "optimize.restarts=1",
      "--set", "optimize.epsilon=1e300"], 3),
    (["sensitivity", "--format", "json",
      "--set", "sensitivity.epsilon_max=1e300",
      "--set", "sensitivity.points=2",
      "--set", "sensitivity.allow_large_epsilon=true"], 0),
    (["optimize", "--set", "optimize.basis=[2,4]",
      "--set", "optimize.nbar_max=1"], 2),
    (["optimize", "--set", "optimize.basis=[3]",
      "--set", "optimize.nbar_max=1"], 2),
    (["sensitivity", "--set", "sensitivity.points=1",
      "--set", "sensitivity.epsilon_min=-1"], 2),
    (["optimize", "--seed", "-1"], 2),
])
def test_non_finite_inputs_and_outputs_exit_cleanly(args, code):
    proc = run_cli(*args)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    _assert_json_exit_contract(proc.returncode, proc.stdout, proc.stderr)


@pytest.mark.parametrize("key, value", [
    ("optimize.restarts", "0"),
    ("optimize.restarts", "-3"),
    ("oracle_check.tolerance", "-1e-4"),
])
def test_invalid_workflow_settings_exit_2_naming_their_key(key, value):
    command = key.split(".")[0].replace("_", "-")
    code, out, err = _run_in_process([command, "--set", f"{key}={value}"])
    assert code == 2 and out == ""
    assert key in err


# 11 * 9091 = 100001: each oracle axis in bound, their product one above
@pytest.mark.parametrize("values", [
    {"coeffs.points": 100_001}, {"resonance.points": 100_001},
    {"sensitivity.points": 100_001}, {"oracle_check.alpha_points": 100_001},
    {"oracle_check.d_points": 100_001},
    {"oracle_check.alpha_points": 11, "oracle_check.d_points": 9091},
    {"optimize.restarts": 100_001},
], ids=" * ".join)
def test_counts_above_the_bound_exit_2_before_any_work(monkeypatch, values):
    def refuse(*args, **kwargs):
        raise AssertionError("work began before the counts were checked")

    # the scan grids, the oracle's drift/diffusion list and the optimizer
    # (which draws the start angles) are where a count turns into work
    for name in ("_grid", "FPParams", "optimize_fock_superposition"):
        monkeypatch.setattr(cli, name, refuse)
    key = " * ".join(values)
    argv = [key.split(".")[0].replace("_", "-")]
    for k, v in values.items():
        argv += ["--set", f"{k}={v}"]
    code, out, err = _run_in_process(argv)
    assert code == 2 and out == ""
    assert key in err and "100000" in err


def test_counts_at_the_bound_are_accepted():
    cfg = {"oracle_check": {"alpha_points": 10, "d_points": 10_000},
           "optimize": {"restarts": 100_000}}
    assert cli._counts(cfg, "oracle_check.alpha_points",
                       "oracle_check.d_points") == [10, 10_000]
    assert cli._counts(cfg, "optimize.restarts") == [100_000]


@pytest.mark.parametrize("command", ["shift", "resonance"])
@pytest.mark.parametrize("state, code", [
    (["state.family=cat", "state.beta=2.0"], 0),
    (["state.family=fock", "state.n=2"], 0),
    (["state.family=superposition",
      'state.coeffs={"2":0.5,"4":0.8660254037844386}'], 0),
    (["state.family=superposition",
      'state.coeffs={"0":0.7071067811865476,"1":"0.7071067811865476j"}'], 2),
], ids=["cat", "fock", "real-superposition", "complex-mixed-parity"])
def test_doppler_commands_take_every_symmetric_probe(command, state, code):
    args = [command, "--set", "resonance.points=3"]
    for item in state:
        args += ["--set", item]
    got = _run_in_process(args)
    assert got[0] == code, got[2]
    _assert_exit_contract(*got)
    if code == 2:
        assert "point reflection" in got[2]


def test_log_grid_up_to_the_largest_float_is_quiet():
    # geomspace overflows computing 10**log10(hi) there; no warning may
    # reach stderr, and t* = 3 / eps gives the vacuum's last QFI bound
    # sqrt(2) / (2 t*)
    eps_max = sys.float_info.max
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "recoilspec.cli",
         "sensitivity", "--set", f"sensitivity.epsilon_max={eps_max!r}",
         "--set", "sensitivity.allow_large_epsilon=true",
         "--set", "sensitivity.points=3",
         "--set", 'sensitivity.states=["vacuum"]', "--format", "json"],
        capture_output=True, text=True, stdin=subprocess.DEVNULL,
        timeout=CLI_TIMEOUT_S)
    assert (proc.returncode, proc.stderr) == (0, "")
    last = json.loads(proc.stdout)["rows"][-1]
    assert last[0] == eps_max
    assert last[2] == pytest.approx(math.sqrt(2.0) / 6.0 * eps_max,
                                    rel=1e-14)


def test_non_finite_config_file_value_exits_2(tmp_path):
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"pulse": {"rabi_hz": NaN}}')
    proc = run_cli("coeffs", "--config", str(cfg))
    assert proc.returncode == 2
    assert "pulse.rabi_hz" in proc.stderr


def test_config_file_that_is_not_utf8_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b"{} \xff")
    proc = run_cli("coeffs", "--config", str(cfg))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "cannot read config" in proc.stderr and str(cfg) in proc.stderr


@pytest.mark.parametrize("out", ["", "missing/out.csv"],
                         ids=["directory", "missing-directory"])
def test_unwritable_output_path_exits_2_naming_it(tmp_path, out):
    path = str(tmp_path / out)
    proc = run_cli("coeffs", "--set", "coeffs.points=2", "--out", path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"cannot write output {path}" in proc.stderr


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
# pulse blocks whose 1-norm needs more than 52 squarings, and one whose
# scaled generator overflows
@example(command="coeffs", key="linewidth_hz", value=1e300)
@example(command="shift", key="linewidth_hz", value=1e300)
@example(command="coeffs", key="pulse_duration_s", value=1e300)
@example(command="shift", key="pulse_duration_s", value=1e300)
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



_SPEC = (st.sampled_from(["vacuum", "squeezed:1.44", "cat:2.0", "fock:2",
                          "fock:64", "fock:65", "squeezed:abc", "cat:1e300",
                          "superposition"])
         | st.builds("{}:{}".format,
                     st.sampled_from(["squeezed", "cat", "fock"]), _EDGE)
         | st.text(max_size=8))


def _run_overrides(command, section, overrides):
    """Run `command --format json` with `section.key=value` overrides, in
    order."""
    args = [command, "--format", "json"]
    for key, value in overrides:
        args += ["--set", f"{section}.{key}={json.dumps(value)}"]
    return _run_in_process(args)


def _assert_json_exit_contract(code, out, err):
    """The 0/2/3 contract for JSON output: every number written is finite
    (empty cells are allowed), and a failure writes nothing to stdout."""
    assert code in (0, 2, 3), err
    if code == 0:
        rows = json.loads(out)["rows"]
        assert all(math.isfinite(v) for row in rows for v in row
                   if isinstance(v, float))
    else:
        assert out == "" and err != ""


@settings(max_examples=60, deadline=None)
@given(overrides=st.lists(
    st.tuples(st.sampled_from(["epsilon_min", "epsilon_max", "p0"]), _EDGE)
    | st.tuples(st.just("points"), st.integers(-2, 3))
    | st.tuples(st.sampled_from(["log_grid", "allow_large_epsilon"]),
                st.booleans())
    | st.tuples(st.just("mode"),
                st.sampled_from(["drift-only", "extended"]) | st.text())
    | st.tuples(st.just("states"), st.lists(_SPEC, max_size=3)),
    min_size=1, max_size=4))
def test_sensitivity_edge_values_keep_the_exit_contract(overrides):
    _assert_json_exit_contract(*_run_overrides(
        "sensitivity", "sensitivity", [("points", 2), *overrides]))


@settings(max_examples=30, deadline=None)
@given(overrides=st.lists(
    st.tuples(st.sampled_from(["nbar_max", "epsilon", "p0"]), _EDGE)
    | st.tuples(st.just("restarts"), st.integers(-2, 2))
    | st.tuples(st.just("mode"),
                st.sampled_from(["drift-only", "extended"]) | st.text())
    | st.tuples(st.just("basis"), st.lists(
        st.integers(-1, 6) | st.sampled_from([65, 2**63]), max_size=3)),
    min_size=1, max_size=3))
def test_optimize_edge_values_keep_the_exit_contract(overrides):
    # one restart and levels up to 6 keep each run short; a large basis
    # is slow, not a contract break
    _assert_json_exit_contract(*_run_overrides(
        "optimize", "optimize", [("restarts", 1), *overrides]))


@settings(max_examples=15, deadline=None)
@given(overrides=st.lists(
    st.tuples(st.sampled_from(["alpha_points", "d_points"]),
              st.integers(-1, 1))
    | st.tuples(st.just("tolerance"), _EDGE),
    min_size=1, max_size=3))
def test_oracle_check_edge_values_keep_the_exit_contract(overrides):
    _assert_json_exit_contract(*_run_overrides(
        "oracle-check", "oracle_check",
        [("alpha_points", 1), ("d_points", 1), *overrides]))


_COEFFS = (st.sampled_from([
    {"0": 0.6, "1": -0.8}, {"2": 0.5, "4": "0.8660254037844386j"},
    {"0": 0.7071067811865476, "1": "0.7071067811865476j"}, {}, {"64": 1},
    {"65": 1}, None])
    | st.dictionaries(st.sampled_from(["0", "1", "2", "-1", "x"]),
                      st.sampled_from([1, "1j", "x", None]) | _EDGE,
                      max_size=3))


@settings(max_examples=60, deadline=None)
@given(overrides=st.lists(
    st.tuples(st.just("family"),
              st.sampled_from(["vacuum", "squeezed", "cat", "fock",
                               "superposition"]) | st.text())
    | st.tuples(st.sampled_from(["r", "beta"]), _EDGE)
    | st.tuples(st.just("n"), st.sampled_from([-1, 0, 64, 65, 2**63])
                | st.integers())
    | st.tuples(st.just("coeffs"), _COEFFS),
    min_size=1, max_size=3))
@example(overrides=[("family", "cat"), ("beta", 5e-324)])
def test_shift_state_edge_values_keep_the_exit_contract(overrides):
    _assert_json_exit_contract(*_run_overrides("shift", "state", overrides))


def test_section_override_lands_on_the_config_file(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"pulse": {"detuning_hz": 5e6,
                                          "lamb_dicke": 0.05}}))
    pulse = cli.load_config(str(path), ['pulse={"rabi_hz": 1e6}'])["pulse"]
    assert (pulse["rabi_hz"], pulse["detuning_hz"], pulse["lamb_dicke"],
            pulse["linewidth_hz"]) == (1e6, 5e6, 0.05, 34e6)


def test_section_override_keeps_earlier_overrides():
    state = cli.load_config(None, ["state.beta=3.0",
                                   'state={"family": "cat"}'])["state"]
    assert (state["family"], state["beta"]) == ("cat", 3.0)
    # a key whose default is null takes its value whole
    state = cli.load_config(None, ['state.coeffs={"2": 1}',
                                   'state={"coeffs": {"4": 1}}'])["state"]
    assert state["coeffs"] == {"4": 1}


def test_object_state_entries_read_as_the_state_section():
    code, out, err = _run_in_process(
        ["sensitivity", "--format", "json", "--set", "sensitivity.points=2",
         "--set", 'sensitivity.states=[{"family": "cat"}, "cat:2.0", '
         '{"family": "fock"}, "fock:2"]'])
    assert code == 0, err
    for row in json.loads(out)["rows"]:
        assert row[1:3] == row[3:5] and row[5:7] == row[7:9]
    code, out, err = _run_in_process(
        ["sensitivity", "--set",
         'sensitivity.states=[{"family": "cat", "beta": "2"}]'])
    assert (code, out) == (2, "")
    assert "state.beta" in err


@pytest.mark.parametrize("spec, section", [
    ("cat", {"family": "cat"}), ("fock", {"family": "fock"}),
    ("squeezed", {"family": "squeezed"}), ("vacuum", {}),
    ("cat:1.5", {"family": "cat", "beta": 1.5}),
    ("fock:4", {"family": "fock", "n": 4}),
    ("squeezed:1.44", {"family": "squeezed", "r": 1.44}),
], ids=["cat", "fock", "squeezed", "vacuum", "cat-arg", "fock-arg",
        "squeezed-arg"])
def test_string_specs_read_as_the_state_section(spec, section):
    """A bare family reads its key from the state defaults, as the object
    form does: cat beta = 2, Fock 2, squeezed r = 0."""
    got, want = cli.state_from_spec(spec), cli.state_from_spec(section)
    assert type(got) is type(want)
    for key in ("mean", "cov", "beta", "coeffs"):
        if hasattr(want, key):
            assert np.array_equal(getattr(got, key), getattr(want, key)), key


@pytest.mark.parametrize("spec, key", [
    ("vacuum:7", None), ("superposition:x", None), ("cat:x", "state.beta"),
    ("fock:2.5", "state.n"), ("squeezed:true", "state.r"),
])
def test_bad_string_spec_arguments_exit_2_naming_the_spec(spec, key):
    code, out, err = _run_in_process(
        ["sensitivity", "--set", f"sensitivity.states={json.dumps([spec])}"])
    assert (code, out) == (2, "")
    assert spec in err
    assert key is None or key in err


def test_object_entry_columns_do_not_depend_on_key_order():
    def header(entry):
        code, out, err = _run_in_process(
            ["sensitivity", "--format", "json", "--set",
             "sensitivity.points=1", "--set",
             f"sensitivity.states={json.dumps([entry])}"])
        assert code == 0, err
        return json.loads(out)["columns"]

    one = header({"family": "cat", "beta": 1.5})
    assert one == header({"beta": 1.5, "family": "cat"})
    assert one[1:3] == ['s_{"beta"_1.5,"family"_"cat"}',
                        'qfi_bound_{"beta"_1.5,"family"_"cat"}']


def _setting_values(default):
    """Values of the config key whose default is `default` that pass its
    type check."""
    if default is None:
        return st.none() | st.dictionaries(st.sampled_from(["0", "2", "4"]),
                                           st.floats(-1.0, 1.0), max_size=2)
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, float):
        return (st.floats(allow_nan=False, allow_infinity=False)
                | st.integers(-5, 5))
    if isinstance(default, int):
        return st.integers(-3, 100)
    if isinstance(default, str):
        return st.text(max_size=6)
    return st.lists(st.integers(0, 6) | st.text(max_size=4), max_size=3)


@st.composite
def _config_split(draw):
    """A config given whole, and the same config split between a config
    file and `--set` overrides of single keys and whole sections, some
    keys first set to another value by the file or an earlier override."""
    whole, part, earlier, overrides, sections = {}, {}, [], [], {}
    for sec, defaults in cli.DEFAULT_CONFIG.items():
        for key, default in defaults.items():
            if not draw(st.booleans()):
                continue
            value = draw(_setting_values(default))
            whole.setdefault(sec, {})[key] = value
            route = draw(st.sampled_from(["file", "key", "section"]))
            if route == "file":
                part.setdefault(sec, {})[key] = value
                continue
            decoy = draw(st.sampled_from(["none", "file", "override"]))
            if decoy == "file":
                part.setdefault(sec, {})[key] = draw(_setting_values(default))
            elif decoy == "override":
                earlier.append(f"{sec}.{key}="
                               f"{json.dumps(draw(_setting_values(default)))}")
            if route == "key":
                overrides.append(f"{sec}.{key}={json.dumps(value)}")
            else:
                sections.setdefault(sec, {})[key] = value
    overrides += [f"{sec}={json.dumps(obj)}" for sec, obj in sections.items()]
    return (whole, part,
            draw(st.permutations(earlier)) + draw(st.permutations(overrides)))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(split=_config_split())
def test_config_split_between_file_and_overrides_resolves_the_same(
        tmp_path, split):
    whole, part, overrides = split
    whole_path, part_path = tmp_path / "whole.json", tmp_path / "part.json"
    whole_path.write_text(json.dumps(whole))
    part_path.write_text(json.dumps(part))
    assert (cli.load_config(str(part_path), overrides)
            == cli.load_config(str(whole_path), []))
