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
