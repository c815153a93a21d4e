"""Span tracing by wrapping module attributes from outside the program.

`Tracer.install()` replaces each listed function with a wrapper in every
`ghl` module that binds it, so calls between modules (`fileio.validate`,
`geometry.lee_form -> gauduchon_connection`) are seen too.  A wrapper records
(name, start, end, parent, op id) in memory; `write()` dumps the spans as
JSON lines when the run ends.  A name missing at some commit is reported as
absent, so the same benchmark runs on parent and change.

A span's self time is its duration minus the time its child spans cover.
For spans that `SIZED` names, the tracer also walks the returned value and
records the number of nonzero scalars and the largest degree and term count
among them; that walk is excluded from every span's time.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from fractions import Fraction

# metric prefix -> (module, attribute names)
TARGETS = {
    "geometry": ("ghl.geometry", [
        "validate", "torsion_ingredients", "levi_civita", "gauduchon_connection",
        "riemann_curvature", "gauduchon_curvature_torsion", "ricci_and_scalar",
        "lee_form", "metric_flags", "connection_audit", "covariant_derivative",
        "hermitian_s_tuple", "check_x1_identities", "singer_invariant",
        "killing_generators", "nomizu_bracket"]),
    "multilinear": ("ghl.multilinear", ["derivation_action", "gram_schmidt_unitary"]),
    "fileio": ("ghl.fileio", ["load_ghl", "build_report", "serialize_report",
                              "compare_reports"]),
    "exprparse": ("ghl.exprparse", ["parse_expression"]),
    "cli": ("ghl.cli", ["main"]),
}
# the exact Gauss-Jordan variants, reported together as one layer
ELIMINATION = ("ghl.geometry", ["_nullspace", "_independent", "_solve"])
SIZED = set(TARGETS["geometry"][1])


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []      # (name, start, end, parent index, op id)
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.sizes: dict[str, list] = {}  # name -> [max_degree, max_terms, nonzero]
        self.rows = 0
        self.absent: list[str] = []
        self.op_id = 0
        self._stack: list[list] = []      # [span index, child time]
        self._excluded = 0.0              # time spent walking outputs
        self._elim_depth = 0
        self._saved: list[tuple] = []

    # -- installation ---------------------------------------------------------------

    def names(self) -> list[str]:
        out = [f"{prefix}.{attr}" for prefix, (_, attrs) in TARGETS.items() for attr in attrs]
        return out + ["geometry.elimination"]

    def install(self) -> None:
        for prefix, (modname, attrs) in TARGETS.items():
            for attr in attrs:
                self._wrap(modname, attr, f"{prefix}.{attr}")
        modname, attrs = ELIMINATION
        for attr in attrs:
            self._wrap(modname, attr, "geometry.elimination", rows=True)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, modname: str, attr: str, name: str, rows: bool = False) -> None:
        try:
            home = importlib.import_module(modname)
        except ImportError:
            home = None
        orig = getattr(home, attr, None)
        if not callable(orig):
            self.absent.append(f"{modname}.{attr}")
            return
        wrapper = self._make_wrapper(orig, name, rows)
        for mod in [m for k, m in list(sys.modules.items()) if k == "ghl" or k.startswith("ghl.")]:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._saved.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def _make_wrapper(self, fn, name: str, rows: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sized = name.split(".", 1)[1] in SIZED and name.startswith("geometry.")

        def wrapper(*args, **kwargs):
            # nested eliminations (_independent -> _nullspace) count once
            outer = not (rows and self._elim_depth)
            if rows:
                if outer and args and isinstance(args[0], list):
                    self.rows += len(args[0])
                self._elim_depth += 1
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            excluded0 = self._excluded
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if rows:
                    self._elim_depth -= 1
                stack.pop()
                dur = (end - start) - (self._excluded - excluded0)
                spans[idx] = (name, start, end, parent, self.op_id)
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
                if outer:
                    self.calls[name] = self.calls.get(name, 0) + 1
                if stack:
                    stack[-1][1] += dur
            if sized:
                w0 = clock()
                self._record_size(name, result)
                self._excluded += clock() - w0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output sizes ---------------------------------------------------------------

    def _record_size(self, name: str, value) -> None:
        acc = self.sizes.setdefault(name, [0, 0, 0])
        for deg, terms in _scalars(value, 0):
            acc[0] = max(acc[0], deg)
            acc[1] = max(acc[1], terms)
            acc[2] += 1

    # -- results --------------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in self.names():
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
        out["geometry.elimination.rows"] = (self.rows, "count")
        for attr in TARGETS["geometry"][1]:
            deg, terms, nonzero = self.sizes.get(f"geometry.{attr}", (0, 0, 0))
            out[f"geometry.{attr}.max_degree"] = (deg, "count")
            out[f"geometry.{attr}.max_terms"] = (terms, "count")
            out[f"geometry.{attr}.nonzero"] = (nonzero, "count")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _scalars(value, depth: int):
    """Yield (degree, terms) for each nonzero scalar inside a result."""
    if depth > 12 or value is None or isinstance(value, (bool, str, int)):
        return
    if isinstance(value, Fraction):
        if value:
            yield 0, 1
        return
    if isinstance(value, float):
        if value:
            yield 0, 1
        return
    num = getattr(value, "num", None)
    den = getattr(value, "den", None)
    if num is not None and den is not None and hasattr(num, "terms"):
        if num.terms:
            yield (max(_degree(num), _degree(den)), max(len(num.terms), len(den.terms)))
        return
    if hasattr(value, "terms") and hasattr(value, "total_degree"):
        if value.terms:
            yield _degree(value), len(value.terms)
        return
    if type(value).__name__ == "NumericScalar":
        if value.value:
            yield 0, 1
        return
    if isinstance(value, dict):
        for v in value.values():
            yield from _scalars(v, depth + 1)
        return
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from _scalars(v, depth + 1)
        return
    comp = getattr(value, "comp", None)
    if isinstance(comp, dict):
        yield from _scalars(comp, depth + 1)
        return
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _scalars(getattr(value, f.name), depth + 1)


def _degree(poly) -> int:
    return poly.total_degree() if poly.terms else 0
