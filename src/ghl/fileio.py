"""On-disk formats: .ghl input files (direct bracket files and frame-metric
files) and the deterministic JSON report.  `load_ghl(path, sample)` is the one
way in: it reads either kind once, builds the spec at the parameter point
`sample` and validates that spec.

Direct bracket file:

    [algebra]
    name = iwasawa
    q = 0
    m = 3
    params = alpha
    backend = exact
    [brackets]
    e0,e2 = alpha*e4

Frame-metric file (arbitrary real frame + J + metric expressions + at least
one rational sample assignment; loading runs unitary Gram-Schmidt, so the
result is a numeric-backend spec):

    [frame]
    name = kodaira-thurston
    m = 2
    params = r, sigma, x, y
    [brackets]
    e0,e1 = -e3
    [J]
    row0 = 0,0,-1,0
    ...
    [metric]
    e0,e0 = r^2
    ...
    [samples]
    s0 = r=1, sigma=2, x=0, y=0

'#' starts a comment; files are UTF-8 with LF newlines; bracket keys use the
reserved basis tokens e0..e{n-1}; parameters may not be named e<digits> or t.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .exprparse import (_BASIS_RE, ExprSyntaxError, parse_expression, to_linear_combination,
                        to_scalar)
from .geometry import BracketSpec, ValidationReport, validate
from .multilinear import gram_schmidt_unitary, mat_vec, dot
from .scalars import DEFAULT_TOLERANCE, ExactDomain, NumericDomain, UsageError

__all__ = ["GhlFormatError", "LoadedSpec", "load_ghl", "serialize_report",
           "parse_assignments", "compare_reports", "BUNDLED", "bundled_path"]

REPORT_SCHEMA = 1
# each kind of file: the sections it may hold, then the keys of its header
_FORMATS = {"algebra": (("algebra", "brackets"), ("name", "q", "m", "params", "backend")),
            "frame": (("frame", "brackets", "j", "metric", "samples"), ("name", "m", "params"))}


class GhlFormatError(ValueError):
    pass


@dataclass(frozen=True)
class LoadedSpec:
    spec: BracketSpec
    report: ValidationReport       # validation of `spec` itself
    sample: dict | None = None     # the parameter point `spec` was built at


def _read_sections(path: Path) -> dict[str, list[tuple[str, str]]]:
    sections: dict[str, list[tuple[str, str]]] = {}
    current = None
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, [])
            continue
        if current is None:
            raise GhlFormatError(f"{path}:{lineno}: content before any section")
        if "=" not in line:
            raise GhlFormatError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        sections[current].append((key.strip(), value.strip()))
    return sections


def _section_dict(entries: list[tuple[str, str]], path, name: str) -> dict[str, str]:
    out = {}
    for k, v in entries:
        if k in out:
            raise GhlFormatError(f"{path}: duplicate key {k!r} in [{name}]")
        out[k] = v
    return out


def _parse_params(text: str) -> tuple[str, ...]:
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    for i, p in enumerate(names):
        if p in names[:i]:
            raise GhlFormatError(f"parameter {p!r} is declared twice")
        if _BASIS_RE.match(p):
            raise GhlFormatError(f"parameter may not be named like a basis vector: {p}")
        if p == "t":
            raise GhlFormatError("parameter name 't' is reserved for the Gauduchon parameter")
    return names


def parse_assignments(text: str) -> dict[str, Fraction]:
    """Parse 'a=1, b=2/3, c=-1/2' into rational values."""
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise GhlFormatError(f"bad assignment {piece!r} (expected name=num/den)")
        k, v = (x.strip() for x in piece.split("=", 1))
        if k in out:
            raise UsageError(f"parameter {k!r} is assigned twice")
        try:
            out[k] = Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise GhlFormatError(f"bad rational literal {v!r}: {exc}") from None
    return out


def _basis_pair(path, section: str, key: str, n: int) -> tuple[int, int]:
    """The indices (a, b) of a key 'ea,eb' of [section], each below n."""
    parts = [p.strip() for p in key.split(",")]
    if len(parts) != 2:
        raise GhlFormatError(f"{path}: [{section}] {key}: key must be 'ea,eb'")
    for p in parts:
        m = _BASIS_RE.match(p)
        if not m or int(m.group(1)) >= n:
            raise GhlFormatError(f"{path}: [{section}] {key}: {p!r} is not one of e0..e{n - 1}")
    return int(parts[0][1:]), int(parts[1][1:])


def _brackets(path, sections: dict, n: int, dom) -> dict:
    """The [brackets] section as {(a, b): coordinate vector}; a pair given twice is an error."""
    mu = {}
    for key, value in sections.get("brackets", []):
        a, b = _basis_pair(path, "brackets", key, n)
        if a >= b:
            raise GhlFormatError(f"{path}: [brackets] {key}: needs a < b for 'ea,eb'")
        if (a, b) in mu:
            raise GhlFormatError(f"{path}: duplicate key {key!r} in [brackets]")
        mu[(a, b)] = _parse_value(path, "brackets", key, value,
                                  lambda node: to_linear_combination(node, dom, n))
    return mu


def _parse_value(path, section: str, key: str, text: str, convert):
    """convert(parse_expression(text)), an expression error named by file, section and key."""
    try:
        return convert(parse_expression(text))
    except ExprSyntaxError as exc:
        raise GhlFormatError(f"{path}: [{section}] {key}: {exc}") from None


def _check_declared(sample: dict, params: tuple[str, ...]) -> None:
    for name in sample:
        if name == "t":
            raise UsageError("'t' is the Gauduchon parameter, not a file parameter; "
                             "give it with --t")
        if name not in params:
            raise UsageError(f"undeclared parameter {name!r}; the file declares: "
                             f"{', '.join(params) or 'none'}")


def load_ghl(path: str | Path, sample: dict | None = None,
             tol: float = DEFAULT_TOLERANCE) -> LoadedSpec:
    """Spec of a .ghl file at `sample`, validated.  An algebra file stays
    symbolic when `sample` is None, else it is instantiated there (even at an
    empty sample) to a FractionDomain spec.  A frame-metric file is evaluated
    at `sample`, or at its first [samples] entry when `sample` is None or
    empty.  A sample name the file does not declare is a UsageError, and a
    section or header key that the file's kind does not have a GhlFormatError."""
    path = Path(path)
    sections = _read_sections(path)
    kind = next((kind for kind in _FORMATS if kind in sections), None)
    if kind is None:
        raise GhlFormatError(f"{path}: expected an [algebra] or [frame] section")
    names, keys = _FORMATS[kind]       # a file with both headers reads as an algebra file
    bad = next(itertools.chain(
        (f"[{name}]: unknown section in a file with [{kind}]" for name in sections
         if name not in names),
        (f"[{kind}] {key}: unknown key, expected one of {', '.join(keys)}"
         for key, _ in sections[kind] if key not in keys)), "")
    if bad:
        raise GhlFormatError(f"{path}: {bad}")
    if kind == "algebra":
        spec = _algebra_spec(path, sections)
        if sample is not None:
            _check_declared(sample, spec.params)
            spec = spec.instantiate(sample)
    else:
        spec, sample = _frame_spec(path, sections, sample, tol)
    return LoadedSpec(spec, validate(spec), None if sample is None else dict(sample))


def _dimension(path, head: dict, section: str, key: str, least: int) -> int:
    """The header field `key` as an int of at least `least`."""
    if key not in head:
        raise GhlFormatError(f"{path}: [{section}] needs {key}")
    try:
        value = int(head[key])
    except ValueError:
        raise GhlFormatError(f"{path}: [{section}] {key} must be an integer, "
                             f"got {head[key]!r}") from None
    if value < least:
        raise GhlFormatError(f"{path}: [{section}] needs {key} >= {least}, got {value}")
    return value


def _algebra_spec(path: Path, sections: dict) -> BracketSpec:
    head = _section_dict(sections["algebra"], path, "algebra")
    q = _dimension(path, head, "algebra", "q", 0)
    m = _dimension(path, head, "algebra", "m", 1)
    name = head.get("name", path.stem)
    params = _parse_params(head.get("params", ""))
    backend = head.get("backend", "exact")
    if backend != "exact":
        raise GhlFormatError(f"{path}: [algebra] backend must be exact, got {backend!r}")
    dom = ExactDomain(params)
    mu = _brackets(path, sections, q + 2 * m, dom)
    return BracketSpec(q, m, mu, dom, name, params)


def _frame_spec(path: Path, sections: dict, sample: dict | None,
                tol: float) -> tuple[BracketSpec, dict]:
    head = _section_dict(sections["frame"], path, "frame")
    m = _dimension(path, head, "frame", "m", 1)
    name = head.get("name", path.stem)
    params = _parse_params(head.get("params", ""))
    n = 2 * m
    exact = ExactDomain(params)

    # original-frame brackets as exact linear combinations
    brackets = _brackets(path, sections, n, exact)

    # J matrix (integer entries, column action), given row by row
    jrows = _section_dict(sections.get("j", []), path, "J")
    J = []
    for r in range(n):
        key = f"row{r}"
        if key not in jrows:
            raise GhlFormatError(f"{path}: [J] missing {key}")
        try:
            row = [int(x) for x in jrows[key].split(",")]
        except ValueError:
            raise GhlFormatError(f"{path}: [J] {key} must be integers") from None
        if len(row) != n:
            raise GhlFormatError(f"{path}: [J] {key} must have {n} entries")
        J.append(row)
    J2 = [[sum(J[i][k] * J[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    if any(J2[i][j] != (-1 if i == j else 0) for i in range(n) for j in range(n)):
        raise GhlFormatError(f"{path}: [J] J^2 != -Id")

    # metric entries, symmetric fill, unspecified = 0
    Gexpr = [[None] * n for _ in range(n)]
    for key, value in sections.get("metric", []):
        i, j = _basis_pair(path, "metric", key, n)
        val = _parse_value(path, "metric", key, value, lambda node: to_scalar(node, exact))
        if Gexpr[i][j] is not None:
            raise GhlFormatError(f"{path}: [metric] {key}: entry given twice")
        Gexpr[i][j] = Gexpr[j][i] = val

    samples = [parse_assignments(v) for v in
               _section_dict(sections.get("samples", []), path, "samples").values()]
    if not sample:
        if not samples:
            raise GhlFormatError(f"{path}: frame-metric file needs a [samples] entry")
        sample = samples[0]
    _check_declared(sample, params)
    missing = [p for p in params if p not in sample]
    if missing:
        raise GhlFormatError(f"{path}: sample misses parameter(s) {', '.join(missing)}")

    num = NumericDomain((), tol)

    def to_float(x) -> float:
        value = x.evaluate(sample)
        try:
            return float(value)
        except OverflowError:
            raise UsageError(f"{path}: {x.text()} at the sample is beyond the float "
                             f"range of the numeric backend") from None

    G = [[num.zero() if g is None else to_float(g) for g in row] for row in Gexpr]
    Jnum = [[num.from_fraction(J[i][j]) for j in range(n)] for i in range(n)]
    frame = gram_schmidt_unitary(G, Jnum, num)

    # brackets of the frame vectors, whose coordinates that test zero are
    # skipped; over a zero-tolerance domain mu_vec then skips only bracket
    # terms that are exactly zero, however small the constants are at `sample`
    orig = BracketSpec(0, m, {k: [to_float(x) for x in vec] for k, vec in brackets.items()},
                      NumericDomain((), 0.0))
    w = [[num.zero() if num.is_zero(x) else x for x in f] for f in frame]
    mu = {}
    for a in range(n):
        for b in range(a + 1, n):
            br = orig.mu_vec(w[a], w[b])
            mu[(a, b)] = [dot(br, mat_vec(G, frame[c])) for c in range(n)]
    return BracketSpec(0, m, mu, num, name, ()), sample


# -- reports ---------------------------------------------------------------------


def build_report(loaded: LoadedSpec, t=None, t_label: str | None = None) -> dict:
    """Full geometry report of a loaded spec as a JSON-ready dict.

    t defaults to symbolic on the exact backend and to 1 (Chern) on the
    numeric backend.  Matrices are row-major arrays of canonical scalar
    strings; forms are maps from sorted index keys like "0,2" to strings.
    """
    from . import geometry as geo

    spec = loaded.spec
    dom = spec.domain
    n2 = 2 * spec.m
    if t is None:
        t = geo.symbolic_t() if dom.backend == "exact" else dom.one()
        if t_label is None:
            t_label = "symbolic" if dom.backend == "exact" else "1"
    elif t_label is None:
        t_label = dom.text(t)

    tors, S, Rm = spec.tors, spec.S, spec.Rm
    A, Om, T = geo.gauduchon_tables(spec, t)
    rho1, _, scal = geo.ricci_and_scalar(spec, Om)
    W = geo.rho2_matrix(spec, Om)
    theta = geo.lee_form(spec)
    geo._check_lee_trace(spec, T, t, theta)
    flags = geo.metric_flags(spec)

    def s(x) -> str:
        return dom.text(x)

    def vector(v) -> list:
        return [s(x) for x in v]

    def matrix(M) -> list:
        return [vector(row) for row in M]

    def nonzero(v) -> bool:
        return any(nonzero(x) if isinstance(x, list) else not dom.is_zero(x) for x in v)

    def pairs(X, text) -> dict:
        """The a < b entries of a pair table that do not all test zero."""
        return {f"{a},{b}": text(X[a][b]) for a, b in itertools.combinations(range(n2), 2)
                if nonzero(X[a][b])}

    def formdict(f) -> dict:
        return {",".join(map(str, k)): s(v) for k, v in sorted(f.comp.items())}

    report = {
        "schema": REPORT_SCHEMA,
        "name": spec.name,
        "q": spec.q,
        "m": spec.m,
        "backend": dom.backend,
        "params": list(spec.params),
        "t": t_label,
        "validation": [
            {"name": c.name, "passed": c.passed, "witness": c.witness}
            for c in loaded.report.conditions
        ],
        "flags": flags,
        "N": {f"{a},{b}": vector(v) for (a, b), v in sorted(tors.N.items())},
        "F": formdict(tors.F),
        "F_plus": formdict(tors.F_plus),
        "F_minus": formdict(tors.F_minus),
        "S": [matrix(S[i]) for i in range(n2)],
        "A": [matrix(A[i]) for i in range(n2)],
        "Rm": pairs(Rm, matrix),
        "Omega": pairs(Om, matrix),
        "T": pairs(T, vector),
        "rho1": formdict(rho1),
        "rho2": matrix(W),
        "scal": s(scal),
        "lee": [s(x) for x in theta],
    }
    if loaded.sample is not None:
        report["sample"] = {k: str(v) for k, v in sorted(loaded.sample.items())}
    return report


def serialize_report(report: dict) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def compare_reports(actual: dict, expected: dict, tol: float = DEFAULT_TOLERANCE):
    """Field-by-field comparison; scalars are compared semantically
    (exact: `RationalFunction.eq`, numeric: `NumericDomain.eq`).  Returns a list
    of mismatch paths; raises GhlFormatError on schema mismatch."""
    if not isinstance(expected, dict) or actual.get("schema") != expected.get("schema"):
        raise GhlFormatError("report schema mismatch")
    backend = actual.get("backend", "exact")
    num = NumericDomain(tol=tol) if backend == "numeric" else None
    params = tuple(actual.get("params", ())) + ("t",)
    dom = ExactDomain(params)
    diffs: list[str] = []

    def scalar_eq(a: str, b: str) -> bool:
        """Semantic comparison; falls back to string equality for fields that
        are not scalars (names, 'symbolic', flags serialized as text)."""
        if a == b:
            return True
        if num is not None:
            try:
                return num.eq(float(a), float(b))
            except ValueError:      # not a number, or not finite
                return False
        try:
            va = to_scalar(parse_expression(a), dom)
            vb = to_scalar(parse_expression(b), dom)
        except Exception:
            return False
        return va.eq(vb)

    def walk(a, b, path):
        if isinstance(a, dict) and isinstance(b, dict):
            for k in sorted(set(a) | set(b)):
                if k not in a or k not in b:
                    diffs.append(f"{path}/{k} (missing on one side)")
                    continue
                walk(a[k], b[k], f"{path}/{k}")
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                diffs.append(f"{path} (length {len(a)} != {len(b)})")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
        elif isinstance(a, str) and isinstance(b, str):
            if not scalar_eq(a, b):
                diffs.append(path)
        elif a != b:
            diffs.append(path)

    walk(actual, expected, "")
    return diffs


BUNDLED = ("abelian2", "sphere", "iwasawa", "kodaira", "kodaira-thurston")


def bundled_path(name: str) -> Path:
    """Path of a bundled example: `name` or `name.ghl` is its .ghl file and
    `name.expected.json` its expected report."""
    from importlib.resources import files
    stem, _, ext = name.partition(".")
    if stem not in BUNDLED or ext not in ("", "ghl", "expected.json"):
        raise FileNotFoundError(f"no bundled data file {name!r}")
    return Path(str(files("ghl") / "data" / f"{stem}.{ext or 'ghl'}"))
