"""Export lists: each module's __all__ names what it defines, and every
name the package re-exports is public in the module it comes from."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nlsground

MODULES = sorted(m.name for m in pkgutil.iter_modules(nlsground.__path__))


def _package_imports() -> dict:
    """module -> names of each `from .module import ...` in __init__.py."""
    tree = ast.parse(Path(nlsground.__file__).read_text())
    return {node.module: [alias.name for alias in node.names]
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1}


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"nlsground.{name}")
    # errors.py, the exception classes, has no export list
    listed = getattr(module, "__all__", [])
    assert [n for n in listed if not hasattr(module, n)] == []


def test_package_reexports_only_listed_names():
    imports = _package_imports()
    assert set(imports) <= set(MODULES)
    unlisted = {}
    for name, names in imports.items():
        if name == "errors":
            continue
        listed = importlib.import_module(f"nlsground.{name}").__all__
        unlisted[name] = [n for n in names if n not in listed]
    assert unlisted == {name: [] for name in unlisted}
