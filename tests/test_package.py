"""Package surface: the exported names and the imports of its modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import recoilspec
import recoilspec.bloch

PACKAGE = Path(recoilspec.__file__).parent


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from recoilspec import *", namespace)  # a stale name raises here
    assert sorted(n for n in namespace if n != "__builtins__") == \
        sorted(recoilspec.__all__)
    assert len(set(recoilspec.__all__)) == len(recoilspec.__all__)


def test_the_propagator_cache_reports_its_statistics():
    # recoilbench/worker.py reads this in traced rounds; the test goes when
    # the benchmark makes that lookup optional (ROADMAP Direction 6)
    info = recoilspec.bloch._cached_propagator.cache_info()
    assert info.maxsize > 0 and info.currsize <= info.maxsize


def _imported_modules(nodes):
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


# Modules the package never imports, by dotted prefix: scipy and numpy's
# random and polynomial subpackages serve the tests as oracles only.
_ORACLES = ("scipy", "numpy.random", "numpy.polynomial")


def _is_oracle(name):
    return any(name == p or name.startswith(p + ".") for p in _ORACLES)


def test_no_module_imports_scipy():
    # the package's dense kernels (expm, its Frechet derivative, the
    # Laguerre elements, the banded solve), its root finding, optimizer,
    # seeded start angles and Gauss-HermiteE rule are its own
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "pdeoracle.py" in modules
    for path in modules:
        text = path.read_text()
        assert "brentq" not in text, path.name
        for word in ("np.random", "np.polynomial"):
            assert word not in text, (path.name, word)
        for name in _imported_modules(ast.walk(ast.parse(text))):
            assert not _is_oracle(name), (path.name, name)


def _run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, timeout=120)


def test_importing_the_package_loads_no_scipy():
    proc = _run_python("-c", "import sys, recoilspec, recoilspec.cli; "
                       f"prefixes = {_ORACLES!r}; "
                       "print(sorted(m for m in sys.modules if any("
                       "m == p or m.startswith(p + '.') for p in prefixes)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Runs the CLI with every import of an oracle module refused, as if scipy
# and numpy's random and polynomial subpackages were not installed.
_REFUSE_ORACLES = f"""
import sys
from importlib.abc import MetaPathFinder

class RefuseOracles(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if any(name == p or name.startswith(p + ".") for p in {_ORACLES!r}):
            raise ModuleNotFoundError(f"No module named {{name!r}}")
        return None

sys.meta_path.insert(0, RefuseOracles())
from recoilspec.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", [
    "oracle-check", "shift", "optimize --set optimize.restarts=2",
    "sensitivity --set sensitivity.states=[\"fock:2\"]"])
def test_cli_runs_without_scipy(command):
    proc = _run_python("-c", _REFUSE_ORACLES, *command.split())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


_FAMILIES = {"GaussianState", "CatState", "FockSuperposition"}


def test_only_phasespace_branches_on_the_state_family():
    # each family owns its overlap slopes, march step and symmetry, so the
    # modules built on them use no private phasespace name and ask no
    # state for its type
    for name in ("metrology", "doppler", "stateopt"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[-1] == "phasespace"):
                for alias in node.names:
                    assert not alias.name.startswith("_"), (name, alias.name)
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "isinstance"):
                types = {getattr(n, "id", getattr(n, "attr", None))
                         for n in ast.walk(node.args[1])}
                assert not types & _FAMILIES, (name, ast.unparse(node))


def _callers(tree, callee):
    """Names of the functions (methods as Class.method) of a module that
    call `callee`, by plain or attribute name; '<module>' for a call at
    module level."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name if owner == "<module>" else \
                    f"{owner}.{child.name}"
                visit(child, name)
                continue
            if (isinstance(child, ast.Call)
                    and callee in (getattr(child.func, "id", None),
                                   getattr(child.func, "attr", None))):
                found.add(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("callee, caller", [
    ("_kick_elements", "_fock_derivatives"),
    ("_folded_rule", "_fock_derivatives"),
    ("find_root_tbar", "find_working_point"),
    ("_typed", "_merge"),
    ("_steps", "_split_run"),
    ("_spike_solver", "_steps"),
])
def test_merged_routes_keep_one_caller(callee, caller):
    # every Fock-superposition derivative comes from one quadrature kernel,
    # every working point from one march, every config value from one
    # merge, and every PDE-oracle overlap from one Crank-Nicolson run
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        callers |= _callers(ast.parse(path.read_text()), callee)
    assert callers == {caller}
