"""Every exported name resolves: each ghl module's __all__ and every name the
package __init__ imports, so a deleted class cannot linger as an export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ghl

MODULES = sorted(m.name for m in pkgutil.iter_modules(ghl.__path__))


def test_modules_found():
    assert {"cli", "fileio", "geometry", "multilinear", "scalars"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"ghl.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(ghl.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "NumericDomain" in names
    assert [n for n in names if not hasattr(ghl, n)] == []
