"""The four workloads: seeded inputs, the fixed batch of operations one pass
runs, and the independent check of each operation's output.

An operation is timed around one in-process `ghl.cli.main(argv)` call (stdout
and stderr captured) or one public library call that no verb exposes.  Its
check runs outside the timed region and returns failure reasons.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gen
import oracle

VERBS = ("validate", "report", "check", "audit", "singer", "killing", "s_tuple", "sweep")


@dataclass
class Op:
    verb: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


def cli(argv: list) -> tuple:
    """ghl.cli.main(argv) in process; looked up per call so tracing sees it."""
    import ghl.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ghl.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def params_arg(assignment: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(assignment.items()))


def _cli_ok(res) -> list:
    rc, out, err = res
    return [] if rc == 0 else [f"exit code {rc}: {err.strip()[:200]}"]


# Bracket data of the bundled nilpotent examples, transcribed from their
# .ghl headers as functions of the parameter point.
def _iwasawa_mu(p):
    a = p["alpha"]
    return {(0, 2): {4: a}, (0, 3): {5: a}, (1, 2): {5: a}, (1, 3): {4: -a}}


def _kodaira_mu(p):
    al, be, r, v = p["alpha"], p["beta"], p["r"], p["v"]
    s = al * al + be * be
    return {(0, 1): {0: al / r, 1: -be / r, 3: -v / r ** 2},
            (0, 2): {0: -al * al / v, 1: al * be / v, 3: al / r},
            (0, 3): {0: -al * be / v, 1: be * be / v, 3: be / r},
            (1, 2): {0: al * be / v, 1: -be * be / v, 3: -be / r},
            (1, 3): {0: -al * al / v, 1: al * be / v, 3: al / r},
            (2, 3): {0: s * al * r / v ** 2, 1: -s * be * r / v ** 2, 3: -s / v}}


BUNDLED_MU = {"iwasawa": (3, _iwasawa_mu), "kodaira": (2, _kodaira_mu),
              "abelian2": (2, lambda p: {})}


def _rational(rng, lo=1, hi=5):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 3))


def _kodaira_point(rng) -> dict:
    """A kodaira parameter point with small integer values, which keeps the
    cost of exact work on it close from one seed to the next."""
    return {"alpha": Fraction(rng.randint(1, 3)), "beta": Fraction(rng.randint(1, 2)),
            "r": Fraction(rng.randint(1, 3)), "v": Fraction(rng.randint(1, 3))}


class Inputs:
    """Writes generated inputs under `workdir` and loads each one (which
    validates it); `setup()` is what set-up time measures."""

    def __init__(self, root: Path, workdir: Path):
        self.data = root / "src" / "ghl" / "data"
        self.workdir = workdir
        self.loaded = {}

    def write(self, name: str, text: str) -> Path:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return path

    def load(self, key: str, path: Path, sample: dict | None = None):
        from ghl.fileio import load_ghl
        loaded = load_ghl(path, sample=sample)
        if not loaded.report.ok:
            raise RuntimeError(f"generated input {key} fails validation")
        self.loaded[key] = loaded
        return loaded


# -- report-symbolic -------------------------------------------------------------------


def report_symbolic(rng, inp: Inputs) -> list:
    import ghl.geometry as geo
    # One integrable (complex bilinear plus J-invariant) and one non-integrable
    # input per seed, in shapes whose cost varies little from seed to seed.
    generated = {"nil3": gen.nilpotent(rng, 3, "mixed", 1, nbase=2, name="nil3", lines_only=True),
                 "nil2": gen.nilpotent(rng, 2, "generic", 2, nbase=2, name="nil2")}
    bundled = ("iwasawa", "kodaira", "abelian2", "sphere")
    files = {name: inp.data / f"{name}.ghl" for name in bundled}
    expected = {name: inp.data / f"{name}.expected.json" for name in bundled}
    for key, nil in generated.items():
        files[key] = inp.write(f"{key}.ghl", nil.text())
        expected[key] = inp.workdir / f"{key}.expected.json"   # written by its report op
    for key, path in files.items():
        inp.load(key, path)
    samples = {"iwasawa": {"alpha": _rational(rng)}, "kodaira": _kodaira_point(rng),
               "abelian2": {}}
    integrable = {key: True for key in bundled}
    integrable.update({key: nil.integrable for key, nil in generated.items()})

    def validate(key):
        return Op("validate", key, lambda: cli(["validate", str(files[key])]),
                  lambda res: _cli_ok(res) or oracle.check_validate_output(res[1], integrable[key]))

    def report(key):
        def check(res):
            fails = _cli_ok(res)
            if fails:
                return fails
            text = res[1]
            rep = json.loads(text)
            if key in generated:
                nil = generated[key]
                fails += oracle.check_exact_report(rep, nil.mu, nil.m, nil.sample, nil.integrable)
                expected[key].write_text(text, encoding="utf-8")
            else:
                if text != expected[key].read_text(encoding="utf-8"):
                    fails.append(f"report bytes differ from {expected[key].name}")
                if key in BUNDLED_MU:
                    m, mu = BUNDLED_MU[key]
                    fails += oracle.check_exact_report(rep, mu(samples[key]), m, samples[key], True)
            return fails
        return Op("report", key, lambda: cli(["report", str(files[key])]), check)

    def check_op(key):
        def check(res):
            fails = _cli_ok(res)
            if not fails and res[1].strip() != "check: OK":
                fails.append(f"check output {res[1].strip()[:200]!r}")
            return fails
        return Op("check", key, lambda: cli(["check", str(files[key]), str(expected[key])]), check)

    def audit(key):
        spec = inp.loaded[key].spec
        return Op("audit", key, lambda: geo.connection_audit(spec, geo.symbolic_t()),
                  lambda res: [] if res.ok else [f"audit failed: {res}"])

    ops = [validate(k) for k in files]
    ops += [report("iwasawa"), audit("iwasawa")]
    ops += [report("kodaira"), check_op("kodaira"), audit("kodaira")]
    for key in ("abelian2", "sphere", "nil2"):
        ops += [report(key), check_op(key), audit(key)]
    ops += [report("nil3")]
    return ops


# -- invariants-rational ----------------------------------------------------------------


def invariants_rational(rng, inp: Inputs) -> list:
    """Singer and Killing on constant specs, each also at c.mu (the engine's
    convention: mu_m -> mu_m / c).  The results must not change."""
    import ghl.geometry as geo
    c = rng.choice([Fraction(2), Fraction(1, 2)])
    iw, ko = inp.data / "iwasawa.ghl", inp.data / "kodaira.ghl"
    p1, p2 = _kodaira_point(rng), _kodaira_point(rng)
    nil2 = gen.nilpotent(rng, 2, "generic", 0, nbase=2, name="c2")
    nil3 = gen.nilpotent(rng, 3, "abelian", 0, nbase=1, name="c3", lines_only=True)
    specs = {   # key -> (path, --params, m)
        "iwasawa": (iw, {"alpha": Fraction(1)}, 3),
        "iwasawa*c": (iw, {"alpha": 1 / c}, 3),
        "kodaira1": (ko, p1, 2),
        "kodaira1*c": (ko, dict(p1, r=p1["r"] * c, v=p1["v"] * c), 2),
        "kodaira2": (ko, p2, 2),
        "kodaira2*c": (ko, dict(p2, r=p2["r"] * c, v=p2["v"] * c), 2),
        "c2": (inp.write("c2.ghl", nil2.text()), {}, 2),
        "c2*c": (inp.write("c2c.ghl", nil2.text(scale=1 / c)), {}, 2),
        "c3": (inp.write("c3.ghl", nil3.text()), {}, 3),
        "c3*c": (inp.write("c3c.ghl", nil3.text(scale=1 / c)), {}, 3),
    }
    for key, (path, params, _) in specs.items():
        loaded = inp.load(key, path)
        if params and not geo.validate(loaded.spec.instantiate(params)).ok:
            raise RuntimeError(f"input {key} fails validation at {params}")
    seen = {}

    def argv(verb, key):
        path, params, _ = specs[key]
        return [verb, str(path)] + (["--params", params_arg(params)] if params else [])

    def parse(verb, text):
        lines = text.strip().splitlines()
        if verb == "singer":
            dims = lines[0].split(":", 1)[1].split()
            return (tuple(int(d) for d in dims), int(lines[1].split("=")[1]))
        return int(lines[0].split("=")[1])

    def op(verb, key):
        def check(res):
            fails = _cli_ok(res)
            if fails:
                return fails
            value = parse(verb, res[1])
            m = specs[key][2]
            if verb == "killing" and value < 2 * m:
                fails.append(f"Killing dim {value} < 2m = {2 * m}")
            base = key.split("*")[0]
            if base != key and (verb, base) in seen and seen[(verb, base)] != value:
                fails.append(f"{verb} changed under c.mu: {seen[(verb, base)]} -> {value}")
            seen[(verb, key)] = value
            return fails
        return Op(verb, key, lambda: cli(argv(verb, key)), check)

    # iwasawa killing (7-9 s in one call) is left out: alone it swung the pass
    # time by more than the gate allows; m = 3 killing runs on c3 instead.
    ops = [op("singer", "iwasawa"), op("singer", "iwasawa*c")]
    for key in ("kodaira1", "kodaira1*c", "kodaira2", "kodaira2*c", "c2", "c2*c", "c3", "c3*c"):
        ops += [op("singer", key), op("killing", key)]
    return ops


# -- stuple-symbolic --------------------------------------------------------------------


def stuple_symbolic(rng, inp: Inputs) -> list:
    import ghl.geometry as geo
    nil3 = gen.nilpotent(rng, 3, "mixed", 1, nbase=2, name="nil3", lines_only=True)
    nil2 = gen.nilpotent(rng, 2, "generic", 2, nbase=2, name="nil2")
    cases = {   # key -> (path, s, m, mu, sample)
        "kodaira": (inp.data / "kodaira.ghl", 1, 2, None, _kodaira_point(rng)),
        "iwasawa": (inp.data / "iwasawa.ghl", 2, 3, None, {"alpha": _rational(rng)}),
        "nil3": (inp.write("nil3.ghl", nil3.text()), 1, 3, nil3.mu, nil3.sample),
        "nil2": (inp.write("nil2.ghl", nil2.text()), 2, 2, nil2.mu, nil2.sample),
    }
    ops = []
    for key, (path, s, m, mu, sample) in cases.items():
        spec = inp.load(key, path).spec
        if mu is None:
            mu = BUNDLED_MU[key][1](sample)
        ops.append(Op("s_tuple", f"{key}:s={s}",
                      lambda spec=spec, s=s: geo.hermitian_s_tuple(spec, s=s, verify=True),
                      lambda tup, s=s, mu=mu, m=m, sample=sample:
                          oracle.check_tuple(tup, s, mu, m, sample)))
    return ops


# -- frame-numeric ----------------------------------------------------------------------

# Scale exponents for timed sample points, and the ROADMAP 5(b) probe range.
TIMED_EXP = (-3, 3)
PROBE_EXPS = (-5, -5, 4, 5, 6, 6)


def frame_points(rng, inp: Inputs, lo: int, hi: int, n_kt: int, n_nil: int) -> list:
    kt = inp.data / "kodaira-thurston.ghl"
    kt_text = kt.read_text(encoding="utf-8")
    points = []
    for i in range(n_kt):
        pt = gen.kodaira_thurston_point(rng, gen.log_uniform_scale(rng, lo, hi), kt_text,
                                        slice_x0=(i % 4 == 0))
        points.append((pt, kt))
    for i in range(n_nil):
        nil = gen.nilpotent(rng, 2, "generic", 0, nbase=2, name=f"jinv{i}")
        pt = gen.j_invariant_point(rng, nil, gen.log_uniform_scale(rng, lo, hi), f"jinv{i}")
        points.append((pt, inp.write(f"{pt.name}.ghl", pt.text)))
    return points


def frame_numeric(rng, inp: Inputs) -> list:
    points = frame_points(rng, inp, *TIMED_EXP, n_kt=8, n_nil=4)
    for i, (pt, path) in enumerate(points):
        inp.load(f"p{i}", path, sample=pt.params)
    scal = {}

    def validate(i, pt, path):
        return Op("validate", f"p{i}",
                  lambda: cli(["validate", str(path), "--params", params_arg(pt.params)]),
                  lambda res: _cli_ok(res) or oracle.check_validate_output(res[1], None))

    def report(i, pt, path):
        def check(res):
            fails = _cli_ok(res)
            if fails:
                return fails
            rep = json.loads(res[1])
            scal[i] = float(rep["scal"])
            return oracle.check_numeric_report(rep, pt)
        return Op("report", f"p{i}",
                  lambda: cli(["report", str(path), "--params", params_arg(pt.params)]), check)

    # sweeps run on the first Kodaira-Thurston point: x from its value upward
    pt0, kt = points[0]
    fixed = {k: v for k, v in pt0.params.items() if k != "x"}
    x0 = pt0.params["x"]
    step = pt0.params["r"] * pt0.params["sigma"] / 10
    grid = f"x={x0}:{x0 + 4 * step}:5"

    def sweep(quantity):
        def check(res):
            fails = _cli_ok(res)
            if fails:
                return fails
            rows = res[1].strip().splitlines()
            if rows[0] != f"x,{quantity}" or len(rows) != 6:
                return [f"sweep output has {len(rows)} lines, header {rows[0]!r}"]
            vals = [float(r.split(",")[1]) for r in rows[1:]]
            if quantity == "scal" and 0 in scal and not oracle.close(vals[0], Fraction(scal[0]), 1e-9):
                fails.append(f"sweep scal {vals[0]!r} != report scal {scal[0]!r} at the same point")
            return fails
        return Op("sweep", quantity,
                  lambda: cli(["sweep", str(kt), "--grid", grid, "--quantity", quantity,
                               "--params", params_arg(fixed)]), check)

    ops = []
    for i, (pt, path) in enumerate(points):
        ops += [validate(i, pt, path), report(i, pt, path)]
    ops += [sweep("scal"), sweep("sec_max_basis")]
    return ops


def scale_probe(rng, inp: Inputs) -> list:
    """ROADMAP 5(b): the numeric backend's absolute tolerance gives wrong or
    refused results at extreme metric scales.  Runs untimed after the batch;
    each disagreement is listed, not counted as a failed operation."""
    from ghl.fileio import build_report, load_ghl
    found = []
    points = []
    for exp in PROBE_EXPS:
        points += frame_points(rng, inp, exp, exp, n_kt=1, n_nil=0)
    points += frame_points(rng, inp, PROBE_EXPS[0], PROBE_EXPS[0], n_kt=0, n_nil=1)
    points += frame_points(rng, inp, PROBE_EXPS[-1], PROBE_EXPS[-1], n_kt=0, n_nil=1)
    for pt, path in points:
        where = f"{pt.name} scale={float(pt.scale):.3g}"
        try:
            fails = oracle.check_numeric_report(build_report(load_ghl(path, sample=pt.params)), pt)
        except Exception as exc:   # the engine refusing the input is a finding too
            fails = [f"{type(exc).__name__}: {exc}"]
        found += [f"{where}: {f}" for f in fails]
    return found


WORKLOADS = {
    "report-symbolic": report_symbolic,
    "invariants-rational": invariants_rational,
    "stuple-symbolic": stuple_symbolic,
    "frame-numeric": frame_numeric,
}
