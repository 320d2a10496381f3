"""Package surface: the exported names and the imports of its modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def _import_time_nodes(node):
    """The nodes run when the module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def _within(name, package):
    return name == package or name.startswith(package + ".")


def test_no_module_imports_scipy_optimize_or_scipy_sparse_at_import():
    # root finding and the probe-state optimizer are the package's own;
    # scipy.sparse serves the PDE oracle alone and is imported inside it
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "pdeoracle.py" in modules
    for path in modules:
        text = path.read_text()
        assert "brentq" not in text, path.name
        tree = ast.parse(text)
        for name in _imported_modules(ast.walk(tree)):
            assert not _within(name, "scipy.optimize"), (path.name, name)
        for name in _imported_modules(_import_time_nodes(tree)):
            assert not _within(name, "scipy.sparse"), (path.name, name)


def test_importing_the_package_loads_neither_scipy_optimize_nor_sparse():
    code = ("import sys, recoilspec, recoilspec.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'optimize'], "
            "['scipy', 'sparse'])))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
