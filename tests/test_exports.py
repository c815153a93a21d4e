"""Every exported name resolves: each ghl module's __all__, every name the
package __init__ imports and every function perfbench's tracer wraps, so a
deleted class cannot linger as an export and no traced layer reads 0 unseen."""

import ast
import importlib
import importlib.util
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


def test_perfbench_tracer_targets_resolve():
    """Each name in perfbench/tracer.py's TARGETS exists in its ghl module:
    the tracer reports a missing one as absent, and its layer reads 0."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{modname}.{attr}" for modname, attrs in tracer.TARGETS.values()
               for attr in attrs if not hasattr(importlib.import_module(modname), attr)]
    assert missing == []
