"""The package's export surface: every name a module lists in __all__, and
every name the package root imports, exists."""

import ast
import importlib
from pathlib import Path

import pytest

import rsvi

MODULES = sorted(p.stem for p in Path(rsvi.__file__).parent.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"rsvi.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"rsvi.{name}.__all__ lists missing names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from rsvi.{name} import *", namespace)


def test_package_root_imports_exist():
    tree = ast.parse(Path(rsvi.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, attr in imported:
        assert hasattr(importlib.import_module(f"rsvi.{module}"), attr), f"rsvi.{module}.{attr}"
        assert hasattr(rsvi, attr), attr


# exported for the acceptance suite, which checks the program against it;
# no program path calls it
TEST_ORACLES = {"conjugate_exact_elbo_grad"}


def _defined_names(stmt):
    """Top-level names a module statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _program_references():
    """Names used anywhere in the package's modules except the root, each
    statement's uses minus the names that statement itself defines, and
    __all__ lists left out."""
    used = set()
    for path in Path(rsvi.__file__).parent.glob("*.py"):
        if path.stem == "__init__":
            continue
        for stmt in ast.parse(path.read_text()).body:
            defined = _defined_names(stmt)
            if "__all__" in defined:
                continue
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            used |= names - defined
    return used


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_used_by_the_program(name):
    exported = getattr(importlib.import_module(f"rsvi.{name}"), "__all__", [])
    unused = sorted(set(exported) - _program_references() - TEST_ORACLES)
    assert not unused, f"rsvi.{name}.__all__ names that no program code uses: {unused}"
