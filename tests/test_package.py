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
    # the benchmark makes that lookup optional (ROADMAP Direction 5)
    info = recoilspec.bloch._cached_propagator.cache_info()
    assert info.maxsize > 0 and info.currsize <= info.maxsize


def _imported_modules(nodes):
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_imports_scipy():
    # the package's dense kernels (expm, its Frechet derivative, the
    # Laguerre elements, the banded solve) and its root finding and
    # optimizer are its own; scipy serves the tests as an oracle
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "pdeoracle.py" in modules
    for path in modules:
        text = path.read_text()
        assert "brentq" not in text, path.name
        for name in _imported_modules(ast.walk(ast.parse(text))):
            assert name.split(".")[0] != "scipy", (path.name, name)


def _run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, timeout=120)


def test_importing_the_package_loads_no_scipy():
    proc = _run_python("-c", "import sys, recoilspec, recoilspec.cli; "
                       "print(sorted(m for m in sys.modules "
                       "if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Runs the CLI with every scipy import refused, as if scipy were not
# installed.
_NO_SCIPY = """
import sys
from importlib.abc import MetaPathFinder

class RefuseScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, RefuseScipy())
from recoilspec.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["oracle-check", "shift"])
def test_cli_runs_without_scipy(command):
    proc = _run_python("-c", _NO_SCIPY, command)
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
])
def test_merged_routes_keep_one_caller(callee, caller):
    # every Fock-superposition derivative comes from one quadrature kernel,
    # and every working point from one march
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        callers |= _callers(ast.parse(path.read_text()), callee)
    assert callers == {caller}
