"""Command-line front end.

    ghl validate FILE [--params ...]
    ghl report   FILE [--t symbolic|RAT] [--params ...] [--format json|text]
                      [--output PATH]
    ghl check    FILE EXPECTED [--t ...] [--params ...]
    ghl singer   FILE --params ... [--kmax N]
    ghl killing  FILE --params ...
    ghl sweep    FILE --grid "p=a:b:n,..." --quantity scal|sec_max_basis|singer_k
                      [--t RAT] [--params ...] [--output PATH]

Exit codes: 0 success, 1 semantic failure (validation failure, check
mismatch or a failed built-in identity), 2 usage, parse or I/O errors,
3 internal error (an engine defect).  Every verb but validate refuses a
bracket that fails h1-h4 before any geometry: exit 1, each failed
condition named on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from . import geometry as geo
from .exprparse import ExprSyntaxError, UndeclaredParameterError
from .fileio import (GhlFormatError, build_report, compare_reports, load_ghl,
                     parse_assignments, serialize_report)
from .multilinear import FrameError
from .scalars import (DEFAULT_TOLERANCE, DegreeGuardError, PoleError, UsageError,
                      _degree_cap, set_degree_cap)

SEMANTIC_ERROR = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _common(parser):
    parser.add_argument("--params", default="", help="rational assignments a=1,b=2/3")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument("--max-degree", type=int, default=None)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational literal {text!r}: {exc}") from None


def _parse_t(text: str | None, dom):
    """--t as (value, label); (None, None) keeps build_report's default t: symbolic
    on the exact backend, 1 on the numeric one, which refuses --t symbolic."""
    if text == "symbolic" and dom.backend == "numeric":
        raise UsageError("the numeric backend has no symbolic t: give --t RAT or leave it out")
    if text is None or text == "symbolic":
        return None, None
    return dom.from_fraction(_rational(text)), text


def cmd_validate(args) -> int:
    loaded = load_ghl(args.file, args.params, args.tol)
    rep = loaded.report
    for c in rep.conditions:
        status = "pass" if c.passed else ("no" if c.name == "h5" else "FAIL")
        line = f"{c.name}: {status}"
        if c.witness and not c.passed:
            line += f"  [{c.witness}]"
        print(line)
    print(f"integrable: {'yes' if rep.integrable else 'no'}")
    return 0 if rep.ok else SEMANTIC_ERROR


def cmd_report(args) -> int:
    loaded = load_ghl(args.file, args.params, args.tol)
    if _validation_failed(loaded):
        return SEMANTIC_ERROR
    report = build_report(loaded, *_parse_t(args.t, loaded.spec.domain))
    text = serialize_report(report)
    if args.format == "text":
        buf = io.StringIO()
        _print_text_report(report, buf)
        text = buf.getvalue()
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _print_text_report(report: dict, out) -> None:
    out.write(f"# {report['name']}  (q={report['q']}, m={report['m']}, "
              f"backend={report['backend']}, t={report['t']})\n")
    flags = report["flags"]
    out.write("flags: " + ", ".join(f"{k}={'yes' if v else 'no'}"
                                    for k, v in sorted(flags.items())) + "\n")
    out.write(f"scal = {report['scal']}\n")
    out.write("lee  = [" + ", ".join(report["lee"]) + "]\n")
    for key in ("N", "F", "F_plus", "F_minus", "rho1"):
        out.write(f"{key}:\n")
        for k, v in report[key].items():
            body = "[" + ", ".join(v) + "]" if isinstance(v, list) else v
            out.write(f"  {k} -> {body}\n")
    for key in ("S", "A"):
        for i, M in enumerate(report[key]):
            out.write(f"{key}(e{i}):\n")
            for row in M:
                out.write("  [" + ", ".join(row) + "]\n")
    for key in ("Rm", "Omega"):
        for k, M in report[key].items():
            out.write(f"{key}({k}):\n")
            for row in M:
                out.write("  [" + ", ".join(row) + "]\n")
    out.write("rho2:\n")
    for row in report["rho2"]:
        out.write("  [" + ", ".join(row) + "]\n")


def cmd_check(args) -> int:
    loaded = load_ghl(args.file, args.params, args.tol)
    if _validation_failed(loaded):
        return SEMANTIC_ERROR
    actual = build_report(loaded, *_parse_t(args.t, loaded.spec.domain))
    expected = json.loads(Path(args.expected).read_text(encoding="utf-8"))
    diffs = compare_reports(actual, expected, tol=args.tol)
    if not diffs:
        print("check: OK")
        return 0
    print(f"check: {len(diffs)} mismatching field(s):")
    for d in diffs:
        print(f"  {d}")
    return SEMANTIC_ERROR


def _validation_failed(loaded) -> bool:
    """Name each failed condition on stderr; True if there is one."""
    for c in loaded.report.conditions:
        if not c.passed and c.name != "h5":
            print(f"validation failed: {c.name}" + (f"  [{c.witness}]" if c.witness else ""),
                  file=sys.stderr)
    return not loaded.report.ok


def cmd_singer(args) -> int:
    loaded = load_ghl(args.file, args.params, args.tol)
    if _validation_failed(loaded):
        return SEMANTIC_ERROR
    res = geo.singer_invariant(loaded.spec, kmax=args.kmax)
    print("j-dims:", " ".join(str(d) for d in res.dims))
    print(f"k_Jg = {res.k_jg}")
    return 0


def cmd_killing(args) -> int:
    loaded = load_ghl(args.file, args.params, args.tol)
    if _validation_failed(loaded):
        return SEMANTIC_ERROR
    res = geo.killing_generators(loaded.spec)
    print(f"dim kill = {res.dim}")
    print(f"orders used = {res.orders_used}")
    print("closure under Nomizu bracket: ok")
    print("v-components span the tangent space: ok")
    return 0


def _grid_points(text: str) -> tuple[list[str], list[dict]]:
    """The grid's axis names and its points, each a {name: value} dict."""
    axes = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise GhlFormatError(f"bad grid component {piece!r}")
        name, spec_ = piece.split("=", 1)
        name = name.strip()
        if name in axes:
            raise UsageError(f"grid parameter {name!r} is given twice")
        parts = spec_.split(":")
        if len(parts) != 3:
            raise GhlFormatError(f"grid component must be name=start:stop:count, got {piece!r}")
        start, stop = _rational(parts[0]), _rational(parts[1])
        try:
            count = int(parts[2])
        except ValueError:
            raise UsageError(f"grid count must be an integer, got {parts[2]!r}") from None
        if count < 1:
            raise GhlFormatError("grid count must be >= 1")
        step = (stop - start) / max(count - 1, 1)     # a count of 1 gives the start alone
        axes[name] = [start + i * step for i in range(count)]
    names = list(axes)
    return names, [dict(zip(names, combo)) for combo in itertools.product(*axes.values())]


def cmd_sweep(args) -> int:
    if args.t == "symbolic":
        raise UsageError("sweep evaluates at a rational t: give --t RAT or a t axis in --grid")
    t = Fraction(1) if args.t is None else _rational(args.t)
    fixed = args.params or {}
    names, points = _grid_points(args.grid)
    if "t" in names and args.t is not None:
        raise UsageError("parameter 't' is given in both --grid and --t")
    for name in names:
        # t in --params is load_ghl's to refuse, with its pointer to --t
        if name in fixed and name != "t":
            raise UsageError(f"parameter {name!r} is given in both --grid and --params")
    rows = []
    specs = {}   # one spec per parameter assignment: t does not change it
    for point in points:
        assignment = dict(fixed)
        assignment.update((k, v) for k, v in point.items() if k != "t")
        key = tuple(sorted(assignment.items()))
        try:
            if key not in specs:
                loaded = load_ghl(args.file, sample=assignment, tol=args.tol)
                if _validation_failed(loaded):
                    return SEMANTIC_ERROR
                specs[key] = loaded.spec
            value = _sweep_value(args.quantity, specs[key], point.get("t", t))
        except PoleError:
            value = "pole"
        rows.append([str(point[k]) for k in names] + [value])
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(names + [args.quantity])
    w.writerows(rows)
    text = out.getvalue()
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _sweep_value(quantity: str, spec, t: Fraction) -> str:
    dom = spec.domain
    if quantity == "scal":
        Om = geo._omega(spec, geo._gauduchon(spec, dom.from_fraction(t)))
        return dom.text(geo.ricci_and_scalar(spec, Om)[2])
    if quantity == "sec_max_basis":
        # <Rm(e_a, e_b)e_a, e_b> is the entry Rm[a][b][b][a]: matrices act on columns
        n2 = 2 * spec.m
        return dom.text(max(spec.Rm[a][b][b][a]
                            for a in range(n2) for b in range(a + 1, n2)))
    if quantity == "singer_k":
        res = geo.singer_invariant(spec)
        return str(res.k_jg)
    raise GhlFormatError(f"unknown sweep quantity {quantity!r}")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """Built once per process: parsing leaves it as it is, and the verbs read load_ghl late."""
    p = argparse.ArgumentParser(prog="ghl", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="verb", required=True)

    v = sub.add_parser("validate", help="check conditions h1-h5 of a .ghl file")
    v.add_argument("file")
    _common(v)
    v.set_defaults(fn=cmd_validate)

    r = sub.add_parser("report", help="emit the full geometry report")
    r.add_argument("file")
    r.add_argument("--t", default=None, help="Gauduchon parameter (rational or 'symbolic')")
    r.add_argument("--format", choices=("json", "text"), default="json")
    r.add_argument("--output", default=None)
    _common(r)
    r.set_defaults(fn=cmd_report)

    c = sub.add_parser("check", help="compare a report against an expected fixture")
    c.add_argument("file")
    c.add_argument("expected")
    c.add_argument("--t", default=None)
    _common(c)
    c.set_defaults(fn=cmd_check)

    s = sub.add_parser("singer", help="Singer filtration dimensions and k_Jg")
    s.add_argument("file")
    s.add_argument("--kmax", type=int, default=None)
    _common(s)
    s.set_defaults(fn=cmd_singer)

    k = sub.add_parser("killing", help="holomorphic Killing generator algebra")
    k.add_argument("file")
    _common(k)
    k.set_defaults(fn=cmd_killing)

    w = sub.add_parser("sweep", help="evaluate a quantity over a parameter grid (CSV)")
    w.add_argument("file")
    w.add_argument("--grid", required=True, help="param=start:stop:count,...")
    w.add_argument("--quantity", choices=("scal", "sec_max_basis", "singer_k"),
                   required=True)
    w.add_argument("--t", default=None, help="rational Gauduchon parameter (default 1)")
    w.add_argument("--output", default=None)
    _common(w)
    w.set_defaults(fn=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    cap_token = _degree_cap.set(_degree_cap.get())   # reset() restores the caller's cap
    try:
        if args.max_degree is not None:
            set_degree_cap(args.max_degree)
        args.params = parse_assignments(args.params) if args.params else None
        return args.fn(args)
    except (UsageError, GhlFormatError, ExprSyntaxError, UndeclaredParameterError,
            FrameError, OSError, json.JSONDecodeError, DegreeGuardError,
            PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except geo.InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return SEMANTIC_ERROR
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    finally:
        _degree_cap.reset(cap_token)


if __name__ == "__main__":
    sys.exit(main())
