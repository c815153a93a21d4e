"""Every exported name resolves: each ghl module's __all__, every name the
package __init__ imports and every function perfbench's tracer wraps, so a
deleted class cannot linger as an export and no traced layer reads 0 unseen."""

import ast
import functools
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path
from types import FunctionType

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


def test_every_export_has_a_user():
    """No export, and no public method of an exported class, serves only
    the tests: code in src/ghl, perfbench or scripts uses it as an
    identifier, an attribute or an exact string (the tracer's TARGETS), not
    in a def, import or __all__, or the README backticks it."""
    root = Path(__file__).resolve().parent.parent
    init = ast.parse(Path(ghl.__file__).read_text(encoding="utf-8"))
    names = {("ghl.geometry", n) for n in importlib.import_module("ghl.geometry").__all__}
    names |= {("ghl.multilinear", n) for n in importlib.import_module("ghl.multilinear").__all__}
    names |= {("ghl", alias.asname or alias.name) for node in ast.walk(init)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    objects = {name: getattr(importlib.import_module(mod), name) for mod, name in names}
    exported = set(objects) | {
        f"{name}.{attr}" for name, obj in objects.items() if isinstance(obj, type)
        for attr, member in vars(obj).items() if not attr.startswith("_")
        and isinstance(member, (FunctionType, property, staticmethod, classmethod,
                                functools.cached_property))}
    used = set()
    for folder in ("src/ghl", "perfbench", "scripts"):
        for path in sorted((root / folder).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            listed = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
                      and "__all__" in [getattr(t, "id", None) for t in stmt.targets]
                      for node in ast.walk(stmt.value)}
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
            used |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                     and isinstance(node.value, str) and id(node) not in listed}
    readme = (root / "README.md").read_text(encoding="utf-8")
    used |= {word for span in re.findall(r"`+([^`]+)`+", readme)
             for word in re.findall(r"\w+", span)}
    assert sorted(n for n in exported if n.rpartition(".")[2] not in used) == []
