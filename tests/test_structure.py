"""Source-structure checks: package imports sit at module level and are used,
and every public definition has a caller."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rydladder"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_function_local_package_imports(path):
    local = [
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(_tree(path))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    assert local == [], f"{path.name}: package imports inside functions at {local}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(name for name in imported if name not in used)
    assert unused == [], f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_names_imported_from_other_package_modules(path):
    """A module uses another module's public names only; dunders such as
    ``__version__`` are exempt."""
    private = [
        f"{node.module or '.'}.{alias.name}:{node.lineno}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "rydladder")
        for alias in node.names
        if alias.name.startswith("_") and not (alias.name.startswith("__") and alias.name.endswith("__"))
    ]
    assert private == [], f"{path.name}: private names imported from the package: {private}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_library_internals_imported(path):
    """Third-party libraries are used through their public modules only: a
    private module such as ``scipy.sparse.linalg._expm_multiply`` can change
    or vanish in any release."""
    private = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        private += [f"{name}:{node.lineno}" for name in names
                    if any(part.startswith("_") and not part.endswith("__") for part in name.split("."))]
    assert private == [], f"{path.name}: private library names imported: {private}"


def test_package_functions_bound_only_under_their_own_names():
    """An entry point has one name: no function of the package is bound in the
    package or in one of its modules under a name other than its ``__name__``."""
    modules = [importlib.import_module("rydladder")]
    modules += [importlib.import_module(f"rydladder.{p.stem}") for p in MODULES]
    aliases = [
        f"{module.__name__}.{name} is {obj.__module__}.{obj.__name__}"
        for module in modules
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__.startswith("rydladder") and name != obj.__name__
    ]
    assert aliases == []


# Public library names that only tests call: diagnostics no task reports yet.
# References the tests compare the program against live in tests/references.py.
TEST_REFERENCES = set()


def test_every_public_definition_is_used_by_the_package_or_named_as_a_test_reference():
    """No library function that only tests call, unless it is listed above; a
    listed name that the package comes to use must leave the list."""
    trees = [_tree(path) for path in MODULES]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    assert defined - referenced == TEST_REFERENCES


def test_cli_import_leaves_scipy_optimize_unloaded():
    """scipy.optimize raises peak memory by about 15 MB; only inverse matching's
    root finder ``_three_leg_rho_from_ratio`` needs it, and imports it when called."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    code = "import sys, rydladder.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"
