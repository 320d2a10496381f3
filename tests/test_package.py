"""Package surface: the exported names and the imports of its modules."""

import ast
from pathlib import Path

import recoilspec

PACKAGE = Path(recoilspec.__file__).parent


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from recoilspec import *", namespace)  # a stale name raises here
    assert sorted(n for n in namespace if n != "__builtins__") == \
        sorted(recoilspec.__all__)
    assert len(set(recoilspec.__all__)) == len(recoilspec.__all__)


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_only_stateopt_imports_scipy_optimize():
    # root finding is the package's own safeguarded Newton; scipy.optimize
    # serves the probe-state optimizer alone, so deferring its import
    # touches one module
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "stateopt.py" in modules
    for path in modules:
        text = path.read_text()
        assert "brentq" not in text, path.name
        if path.name == "stateopt.py":
            continue
        for name in _imported_modules(ast.parse(text)):
            assert not (name == "scipy.optimize"
                        or name.startswith("scipy.optimize.")), \
                (path.name, name)
