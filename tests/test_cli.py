"""Command-line interface: exit codes, determinism, check/sweep behavior."""

import csv
import hashlib
import io
import itertools
import json
import random
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ghl import cli
from ghl import geometry as geo
from ghl.cli import main
from ghl.fileio import BUNDLED, bundled_path, load_ghl, parse_assignments
from ghl.multilinear import basis_vector

from conftest import TEST_DATA
from reference import sectional_curvature


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_validate_iwasawa_exit_zero():
    code, out, _ = run("validate", str(bundled_path("iwasawa")))
    assert code == 0
    assert "integrable: yes" in out


def test_a_call_after_a_usage_error_answers_as_a_first_call():
    """The parser is built once per process: a call after a usage error
    (exit 2, usage on stderr) prints and exits as the same call made first
    on a new parser, and the usage error repeats as it was."""
    calls = [("validate", str(bundled_path("iwasawa"))), ("report", "--no-such-option"),
             ("singer", str(bundled_path("iwasawa")), "--params", "alpha=1")]
    first = {}
    for argv in calls:
        cli.make_parser.cache_clear()
        first[argv] = run(*argv)
    assert first[calls[1]][0] == 2 and "usage: ghl report" in first[calls[1]][2]
    assert [first[argv][0] for argv in calls] == [0, 2, 0]
    for argv in calls + calls[::-1]:
        assert run(*argv) == first[argv], argv
    assert cli.make_parser.cache_info().misses == 1


def test_validate_kodaira_thurston_with_params():
    code, out, _ = run("validate", str(bundled_path("kodaira-thurston")),
                       "--params", "r=1,sigma=2,x=0,y=0")
    assert code == 0
    assert "integrable: no" in out


def test_validate_broken_jacobi_exit_one_with_witness():
    code, out, _ = run("validate", str(TEST_DATA / "broken-jacobi.ghl"))
    assert code == 1
    assert "Jacobi fails on (e0,e1,e2)" in out


def test_missing_file_exit_two():
    code, _, err = run("validate", "no-such-file.ghl")
    assert code == 2
    assert "error:" in err


def test_bad_usage_exit_two():
    code, _, _ = run("frobnicate")
    assert code == 2


def test_report_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run("report", str(bundled_path("iwasawa")), "--output", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_scal_field_iwasawa():
    code, out, _ = run("report", str(bundled_path("iwasawa")))
    assert code == 0
    data = json.loads(out)
    assert data["scal"] == "0"
    assert data["flags"]["balanced"] is True


def test_report_text_format():
    code, out, _ = run("report", str(bundled_path("abelian2")), "--format", "text")
    assert code == 0
    assert "scal = 0" in out
    assert "flags:" in out


def test_report_chern_substitution():
    code, out, _ = run("report", str(bundled_path("kodaira")), "--t", "1")
    assert code == 0
    data = json.loads(out)
    assert data["t"] == "1"
    assert data["scal"] == "0"


def test_check_bundled_fixtures_pass():
    import time
    t0 = time.monotonic()
    for name in BUNDLED:
        fixture = bundled_path(f"{name}.expected.json")
        code, out, _ = run("check", str(bundled_path(name)), str(fixture))
        assert code == 0, (name, out)
        assert "check: OK" in out
    # the three worked-example fixtures alone are required under 10 s total
    assert time.monotonic() - t0 < 10.0


def test_check_detects_flipped_scal(tmp_path):
    fixture = json.loads(bundled_path("kodaira.expected.json").read_text())
    scal = fixture["scal"]
    fixture["scal"] = f"-({scal})"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(fixture), encoding="utf-8")
    code, out, _ = run("check", str(bundled_path("kodaira")), str(bad))
    assert code == 1
    assert "scal" in out


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_check_counts_non_finite_numeric_scal_as_mismatch(tmp_path, value):
    """abs(x - inf) <= tol * inf holds, so inf once matched any value."""
    fixture = json.loads(bundled_path("kodaira-thurston.expected.json").read_text())
    fixture["scal"] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(fixture), encoding="utf-8")
    code, out, _ = run("check", str(bundled_path("kodaira-thurston")), str(bad))
    assert code == 1
    assert out == "check: 1 mismatching field(s):\n  /scal\n"


def test_singer_cli_abelian():
    code, out, _ = run("singer", str(bundled_path("abelian2")))
    assert code == 0
    assert "k_Jg = 0" in out
    assert out.splitlines()[0].endswith("4 4")


def test_killing_cli_abelian_and_sphere():
    code, out, _ = run("killing", str(bundled_path("abelian2")))
    assert code == 0
    assert "dim kill = 8" in out
    code, out, _ = run("killing", str(bundled_path("sphere")))
    assert code == 0
    assert "dim kill = 3" in out


def test_killing_cli_requires_instantiation():
    code, _, err = run("killing", str(bundled_path("iwasawa")))
    assert code == 2
    code, out, _ = run("killing", str(bundled_path("iwasawa")),
                       "--params", "alpha=1")
    assert code == 0
    assert "dim kill = 10" in out


@pytest.mark.parametrize("verb", ["singer", "killing", "report", "check"])
@pytest.mark.parametrize("fixture, condition, witness", [
    ("broken-h2", "h2", "not skew on (e1,e1)"),
    ("broken-jacobi", "h1", "Jacobi fails on (e0,e1,e2)"),
])
def test_singer_and_killing_exit_one_on_failed_validation(verb, fixture, condition, witness):
    """A bracket that fails h1-h4 is a validation failure (exit 1), named on
    stderr, and no invariant or report is printed: singer, killing, report
    and check (which refuses before it reads its expected file)."""
    expected = ([str(bundled_path("abelian2").with_suffix(".expected.json"))]
                if verb == "check" else [])
    code, out, err = run(verb, str(TEST_DATA / f"{fixture}.ghl"), *expected)
    assert (code, out) == (1, "")
    assert err.startswith(f"validation failed: {condition}") and witness in err


_KILLING_OK = "closure under Nomizu bracket: ok\nv-components span the tangent space: ok\n"


@pytest.mark.parametrize("name, params, singer, killing", [
    ("iwasawa", "alpha=1", "4 4", "10\norders used = 3"),
    ("kodaira", "alpha=1,beta=0,r=1,v=1", "1 1", "5\norders used = 2"),
    ("abelian2", "", "4 4", "8\norders used = 2"),
    ("sphere", "", "1 1", "3\norders used = 2"),
])
def test_singer_and_killing_stdout_pinned(name, params, singer, killing):
    args = [str(bundled_path(name))] + (["--params", params] if params else [])
    assert run("singer", *args) == (0, f"j-dims: {singer}\nk_Jg = 0\n", "")
    assert run("killing", *args) == (0, f"dim kill = {killing}\n{_KILLING_OK}", "")


def test_singer_exits_one_naming_the_skew_self_check(monkeypatch):
    """A spec whose S(e0) is not skew fails Singer's skew self-check: exit 1,
    the check and the entry named on stderr, nothing printed."""
    def loading(*args, **kwargs):
        loaded = load_ghl(*args, **kwargs)
        S = [list(map(list, M)) for M in loaded.spec.S]
        S[0][0][1] = S[0][0][1] + 1
        loaded.spec.__dict__["S"] = S
        return loaded

    monkeypatch.setattr(cli, "load_ghl", loading)
    code, out, err = run("singer", str(bundled_path("iwasawa")), "--params", "alpha=1")
    assert (code, out) == (1, "")
    assert err == ("internal consistency error: skew self-check: "
                   "S(e0) is not skew-symmetric at (0,1)\n")


@pytest.mark.parametrize("quantity", ["scal", "singer_k"])
@pytest.mark.parametrize("fixture, condition, witness", [
    ("broken-h2", "h2", "not skew on (e1,e1)"),
    ("broken-jacobi", "h1", "Jacobi fails on (e0,e1,e2)"),
])
def test_sweep_exit_one_on_failed_validation(quantity, fixture, condition, witness):
    """sweep refuses a bracket that fails h1-h4 as singer and killing do: no CSV."""
    code, out, err = run("sweep", str(TEST_DATA / f"{fixture}.ghl"),
                         "--grid", "t=0:1:2", "--quantity", quantity)
    assert (code, out) == (1, "")
    assert err.startswith(f"validation failed: {condition}") and witness in err


@pytest.mark.parametrize("argv", [
    ("singer", "iwasawa", "--params", "alpha=1"),
    ("report", "kodaira", "--params", "alpha=2,beta=1,r=1/2,v=5", "--t", "1/2"),
])
def test_instantiated_load_reads_and_validates_once(monkeypatch, argv):
    """The file is read once and only the instantiated spec is validated."""
    from ghl import fileio
    calls = Counter()
    for mod, name in ((fileio, "_read_sections"), (fileio, "validate"), (geo, "validate")):
        def counted(*args, _orig=getattr(mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    verb, name, *rest = argv
    assert run(verb, str(bundled_path(name)), *rest)[0] == 0
    assert calls == {"_read_sections": 1, "validate": 1}


@pytest.mark.parametrize("verb", ["singer", "killing"])
def test_singer_and_killing_without_params_exit_two(verb):
    code, out, err = run(verb, str(bundled_path("iwasawa")))
    assert (code, out) == (2, "")
    assert "instantiated to rationals" in err


def test_sweep_kodaira_t_grid(tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run("sweep", str(bundled_path("kodaira")),
                     "--grid", "t=0:2:5",
                     "--quantity", "scal",
                     "--params", "alpha=1,beta=0,r=1,v=1",
                     "--output", str(out_path))
    assert code == 0
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert rows[0] == ["t", "scal"]
    got = {r[0]: r[1] for r in rows[1:]}
    # scal = -8(t-1) at this point
    assert got == {"0": "8", "1/2": "4", "1": "0", "3/2": "-4", "2": "-8"}


def test_sweep_t_grid_builds_one_spec(monkeypatch):
    """A t-only grid loads the file and builds S and the torsion data once."""
    calls = Counter()
    for mod, name in ((cli, "load_ghl"), (geo, "torsion_ingredients"),
                      (geo, "levi_civita")):
        def counted(*args, _orig=getattr(mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    code, out, _ = run("sweep", str(bundled_path("kodaira")),
                       "--grid", "t=0:1:5", "--quantity", "scal",
                       "--params", "alpha=1,beta=0,r=1,v=1")
    assert code == 0
    assert out == "t,scal\n0,8\n1/4,6\n1/2,4\n3/4,2\n1,0\n"
    assert calls == {"load_ghl": 1, "torsion_ingredients": 1, "levi_civita": 1}


def test_sweep_iwasawa_alpha_grid_zero():
    code, out, _ = run("sweep", str(bundled_path("iwasawa")),
                       "--grid", "alpha=1:3:3", "--quantity", "scal", "--t", "2")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert [r[1] for r in rows[1:]] == ["0", "0", "0"]


def test_sweep_abelian_zero():
    code, out, _ = run("sweep", str(bundled_path("abelian2")),
                       "--grid", "t=0:1:2", "--quantity", "scal")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert [r[1] for r in rows[1:]] == ["0", "0"]


def test_sweep_pole_row_marked():
    code, out, _ = run("sweep", str(bundled_path("kodaira")),
                       "--grid", "v=0:1:2", "--quantity", "scal",
                       "--params", "alpha=1,beta=0,r=1", "--t", "0")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[1][1] == "pole"      # v = 0 is a pole
    assert rows[2][1] != "pole"


def test_sweep_singer_quantity():
    code, out, _ = run("sweep", str(bundled_path("iwasawa")),
                       "--grid", "alpha=1:2:2", "--quantity", "singer_k")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert [r[1] for r in rows[1:]] == ["0", "0"]


def test_sweep_sec_max_basis_sphere():
    code, out, _ = run("sweep", str(bundled_path("sphere")),
                       "--grid", "t=1:1:1", "--quantity", "sec_max_basis")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[1][1] == "1"


def test_sweep_two_axes_row_major_order():
    code, out, _ = run("sweep", str(bundled_path("kodaira")),
                       "--grid", "t=0:1:2,alpha=1:2:2",
                       "--quantity", "scal",
                       "--params", "beta=0,r=1,v=1")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["t", "alpha", "scal"]
    # cartesian product in declaration order, last axis fastest
    assert [(r[0], r[1]) for r in rows[1:]] == [
        ("0", "1"), ("0", "2"), ("1", "1"), ("1", "2")]
    # scal = -(t-1)(a^2+1)^3: at t=0: 8, 125; at t=1: 0, 0
    assert [r[2] for r in rows[1:]] == ["8", "125", "0", "0"]


# Numeric CLI output on kodaira-thurston, recorded before the numeric backend
# moved to plain floats.
KT_SWEEPS = [
    (("x=0:1/2:3", "r=1,sigma=1,y=1/4", "0"), "scal",
     "x,scal\n0,0.0\n1/4,0.08163265306122452\n1/2,0.5289256198347108\n"),
    (("x=0:1/2:3", "r=1,sigma=1,y=1/4", "0"), "sec_max_basis",
     "x,sec_max_basis\n0,0.2499999999999999\n1/4,0.2869897959183675\n"
     "1/2,0.46487603305785125\n"),
    (("t=-1:1:3", "r=2,sigma=1,x=1/2,y=-1/3", None), "scal",
     "t,scal\n-1,0.037760037293863985\n0,0.018880018646931986\n"
     "1,-6.938893903907228e-18\n"),
    (("t=-1:1:3", "r=2,sigma=1,x=1/2,y=-1/3", None), "sec_max_basis",
     "t,sec_max_basis\n-1,0.07138278655090027\n0,0.07138278655090027\n"
     "1,0.07138278655090027\n"),
]


@pytest.mark.parametrize("axes,quantity,want", KT_SWEEPS)
def test_sweep_kodaira_thurston_pinned(axes, quantity, want):
    grid, params, t = axes
    argv = ["sweep", str(bundled_path("kodaira-thurston")), "--grid", grid,
            "--quantity", quantity, "--params", params]
    code, out, err = run(*argv, *(["--t", t] if t else []))
    assert (code, out, err) == (0, want, "")


# sha256 of reports on instantiated specs, recorded while `--t RAT` still
# reached the engine as a constant RationalFunction rather than a Fraction
INSTANTIATED_REPORTS = {
    ("kodaira", "alpha=2,beta=1,r=1/2,v=5", "1/2", "json"):
        "b90323b98c5e799b4a412078155bb98dc0d56279ff49c0f5f4aecfe5a8280deb",
    ("iwasawa", "alpha=2/3", "-1", "text"):
        "0009f4f6b4c88e74732871a2cf275f6df536929432d1f32ac0dd22d96c4290fb",
}


@pytest.mark.parametrize("name, params, t, fmt", sorted(INSTANTIATED_REPORTS))
def test_instantiated_report_with_rational_t_pinned(name, params, t, fmt):
    code, out, err = run("report", str(bundled_path(name)), "--params", params,
                         "--t", t, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == INSTANTIATED_REPORTS[name, params, t, fmt]


def test_sweep_abelian_sec_max_basis_pinned():
    assert run("sweep", str(bundled_path("abelian2")), "--grid", "t=0:1:2",
               "--quantity", "sec_max_basis") == (0, "t,sec_max_basis\n0,0\n1,0\n", "")


# rational points of every bundled and test data file that passes validation,
# the numeric frames at metric scales 10^-3 to 10^3 and the flat abelian2
SEC_POINTS = {
    **dict.fromkeys(["abelian2", "sphere", "kt-exact", "kodaira-times-c", "nonunimodular"], [""]),
    "iwasawa": ["alpha=1", "alpha=2/3", "alpha=5"],
    "kodaira": ["alpha=2,beta=1,r=1/2,v=5", "alpha=1,beta=0,r=1,v=1", "alpha=-3,beta=1,r=2,v=3"],
    "kodaira-thurston": ["r=1/1000,sigma=2/1000,x=1/1000000,y=0", "r=1,sigma=1,x=1/4,y=1/4",
                         "r=1000,sigma=7,x=5,y=-3"],
    "iwasawa-metric": ["r=1/1000,sigma=1/1000,tau=1/1000,x=0,y=0",
                       "r=1,sigma=2,tau=3,x=1/2,y=-1/3", "r=1000,sigma=1,tau=7,x=1,y=2"],
}


@pytest.mark.parametrize("name", sorted(SEC_POINTS))
def test_sweep_sec_max_basis_reads_the_dense_sectional_curvature(name):
    """sec_max_basis reads <Rm(e_a,e_b)e_a, e_b> as Rm[a][b][b][a]: the text,
    per plane and of the max, of the dense contraction with basis vectors."""
    path = bundled_path(name) if name in BUNDLED else TEST_DATA / f"{name}.ghl"
    for point in SEC_POINTS[name]:
        spec = load_ghl(path, parse_assignments(point)).spec
        dom, n2 = spec.domain, 2 * spec.m
        e = [basis_vector(n2, a, dom) for a in range(n2)]
        planes = list(itertools.combinations(range(n2), 2))
        dense = [sectional_curvature(spec, spec.Rm, e[a], e[b]) for a, b in planes]
        assert [dom.text(spec.Rm[a][b][b][a]) for a, b in planes] \
            == list(map(dom.text, dense)), point
        assert cli._sweep_value("sec_max_basis", spec, 1) == dom.text(max(dense)), point


# sha256 of `report --format text` at the file's samples s1 and s2
KT_TEXT_REPORTS = {
    "r=1,sigma=1,x=0,y=1/2": "0781729b7bb6af72f3388db76ef65fb95b29a2b0d1002558c719d5bd7da5f1ed",
    "r=2,sigma=1,x=0,y=-1/3": "a7b97a785a51ff173e2b33a0a119b913be72d86ce1aa325d09fd9f9975b7ffa6",
}


@pytest.mark.parametrize("sample", sorted(KT_TEXT_REPORTS))
def test_validate_and_text_report_kodaira_thurston_pinned(sample):
    kt = str(bundled_path("kodaira-thurston"))
    code, out, err = run("validate", kt, "--params", sample)
    assert (code, err) == (0, "")
    assert out == ("h1: pass\nh2: pass\nh3: pass\nh4: pass\n"
                   "h5: no  [integrability fails on (e0,e2)]\nintegrable: no\n")
    code, out, err = run("report", kt, "--params", sample, "--format", "text")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == KT_TEXT_REPORTS[sample]


def test_report_with_instantiated_params():
    code, out, _ = run("report", str(bundled_path("kodaira")),
                       "--params", "alpha=1,beta=0,r=1,v=1", "--t", "0")
    assert code == 0
    data = json.loads(out)
    assert data["scal"] == "8"
    assert data["params"] == []


def test_max_degree_guard_exit_two():
    from ghl.scalars import DEFAULT_DEGREE_CAP, set_degree_cap
    try:
        code, _, err = run("report", str(bundled_path("kodaira")),
                           "--max-degree", "4")
        assert code == 2
        assert "degree" in err
    finally:
        set_degree_cap(DEFAULT_DEGREE_CAP)


def test_max_degree_scoped_to_one_call_and_validated():
    from ghl.scalars import DEFAULT_DEGREE_CAP, get_degree_cap, set_degree_cap
    try:
        run("validate", str(bundled_path("kodaira")), "--max-degree", "4")
        assert get_degree_cap() == DEFAULT_DEGREE_CAP
        for bad in ("0", "-1"):
            code, _, err = run("validate", str(bundled_path("iwasawa")),
                               "--max-degree", bad)
            assert code == 2, bad
            assert "degree cap" in err, bad
            assert get_degree_cap() == DEFAULT_DEGREE_CAP
    finally:
        set_degree_cap(DEFAULT_DEGREE_CAP)


def test_usage_mistakes_exit_two():
    kodaira = str(bundled_path("kodaira"))
    iwasawa = str(bundled_path("iwasawa"))
    huge = "1" + "0" * 200
    cases = [
        # a t-only grid leaves the file's parameters unassigned
        (("sweep", kodaira, "--grid", "t=0:1:2", "--quantity", "scal"),
         "missing assignment for parameter(s): alpha, beta, r, v"),
        (("singer", kodaira, "--params", "alpha=1"),
         "missing assignment for parameter(s): beta, r, v"),
        (("report", kodaira, "--t", "1/x"), "bad rational literal '1/x'"),
        (("report", kodaira, "--t", "1/0"), "bad rational literal '1/0'"),
        (("sweep", kodaira, "--grid", "t=0:1:x", "--quantity", "scal",
          "--params", "alpha=1,beta=0,r=1,v=1"), "grid count must be an integer"),
        # an explicit kmax below the stabilisation order is the caller's choice
        (("singer", str(bundled_path("iwasawa")), "--params", "alpha=1", "--kmax", "0"),
         "Singer filtration did not stabilize within kmax=0"),
        (("report", str(bundled_path("kodaira-thurston")),
          "--params", f"r={huge},sigma={huge},x=0,y=0"),
         "r^2 at the sample is beyond the float range of the numeric backend"),
        (("validate", str(bundled_path("kodaira-thurston")), "--tol", "-1"),
         "tolerance must be non-negative"),
        (("validate", str(bundled_path("kodaira-thurston")), "--tol", "nan"),
         "tolerance must be non-negative"),
        # a name the file does not declare, or one assigned twice
        (("sweep", iwasawa, "--grid", "alpah=0:2:3", "--quantity", "scal",
          "--params", "alpha=1"), "undeclared parameter 'alpah'"),
        (("singer", iwasawa, "--params", "alpha=1,beta=7"), "undeclared parameter 'beta'"),
        (("validate", str(bundled_path("kodaira-thurston")),
          "--params", "r=1,sigma=1,x=0,y=0,z=1"), "undeclared parameter 'z'"),
        (("singer", iwasawa, "--params", "alpha=1,alpha=0"),
         "parameter 'alpha' is assigned twice"),
        (("report", iwasawa, "--params", "t=1"), "give it with --t"),
        (("sweep", kodaira, "--grid", "t=0:1:2", "--quantity", "scal",
          "--params", "alpha=1,beta=0,r=1,v=1,t=1"), "give it with --t"),
        # a header field that is no dimension, and a divisor that is zero
        (("validate", str(TEST_DATA / "non-integer-dimension.ghl")),
         "non-integer-dimension.ghl: [algebra] q must be an integer, got 'x'"),
        (("report", str(TEST_DATA / "negative-dimension.ghl")),
         "negative-dimension.ghl: [algebra] needs q >= 0, got -1"),
        (("validate", str(TEST_DATA / "zero-divisor.ghl")),
         "zero-divisor.ghl: [brackets] e0,e1: division by zero (at byte offset 3)"),
    ]
    for argv, message in cases:
        code, _, err = run(*argv)
        assert code == 2, argv
        assert message in err, (argv, err)


@pytest.mark.parametrize("name, message", [
    ("bracket-key-arity", "[brackets] e0,e1,e0: key must be 'ea,eb'"),
    ("bracket-key-token", "[brackets] e0,e2: 'e2' is not one of e0..e1"),
    ("bracket-key-order", "[brackets] e1,e0: needs a < b for 'ea,eb'"),
    ("no-section", "expected an [algebra] or [frame] section"),
    ("numeric-backend", "[algebra] backend must be exact, got 'numeric'"),
    ("j-missing-row", "[J] missing row1"),
    ("j-not-integers", "[J] row0 must be integers"),
    ("j-wrong-length", "[J] row0 must have 2 entries"),
    ("j-not-complex", "[J] J^2 != -Id"),
    ("metric-key-arity", "[metric] e0: key must be 'ea,eb'"),
    ("metric-key-token", "[metric] e1,e2: 'e2' is not one of e0..e1"),
    ("metric-twice", "[metric] e1,e0: entry given twice"),
    ("sample-misses-parameter", "sample misses parameter(s) sigma"),
])
def test_a_malformed_file_exits_two_naming_file_section_and_key(name, message):
    """Each crafted file breaks one rule of the format: `validate` exits 2
    with one error line that names the file and, where there is one, the
    section and the key.  They sit under `malformed/`, out of the fuzz
    probe's sources, so that its mutants keep reaching the engine."""
    path = str(TEST_DATA / "malformed" / f"{name}.ghl")
    code, out, err = run("validate", path)
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("grid, message", [
    ("alpha", "bad grid component 'alpha'"),
    ("alpha=0:1", "grid component must be name=start:stop:count, got 'alpha=0:1'"),
    ("alpha=0:1:0", "grid count must be >= 1"),
])
def test_a_malformed_grid_exits_two(grid, message):
    code, out, err = run("sweep", str(bundled_path("iwasawa")), "--grid", grid,
                         "--quantity", "scal")
    assert (code, out) == (2, "") and message in err


def test_a_one_point_grid_axis_is_its_start():
    """count 1 gives the start alone, with an empty axis piece skipped."""
    code, out, _ = run("sweep", str(bundled_path("iwasawa")), "--grid", "alpha=2:5:1,",
                       "--quantity", "sec_max_basis")
    assert code == 0 and out.splitlines()[0] == "alpha,sec_max_basis"
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["2"]


@pytest.mark.parametrize("grid, params, message", [
    ("t=0:1:2,t=2:3:2", "alpha=1,beta=0,r=1,v=1", "grid parameter 't' is given twice"),
    ("alpha=0:2:3", "beta=0,r=1,v=1,alpha=1",
     "parameter 'alpha' is given in both --grid and --params"),
])
def test_sweep_name_given_twice_exits_two(grid, params, message):
    """A repeated grid name, or one also in --params, is refused: no CSV."""
    code, out, err = run("sweep", str(bundled_path("kodaira")), "--grid", grid,
                         "--quantity", "scal", "--params", params)
    assert (code, out) == (2, "")
    assert message in err


def test_sweep_symbolic_t_exits_two():
    """sweep evaluates at a rational t; --t symbolic once gave the t = 1 CSV."""
    argv = ("sweep", str(bundled_path("kodaira")), "--grid", "alpha=1:2:2",
            "--quantity", "scal", "--params", "beta=1,r=1,v=1")
    code, out, err = run(*argv, "--t", "symbolic")
    assert (code, out) == (2, "")
    assert "give --t RAT or a t axis in --grid" in err
    assert run(*argv, "--t", "0")[:2] == (0, "alpha,scal\n1,27\n2,216\n")


def test_symbolic_t_on_a_numeric_spec_exits_two():
    """A frame-metric spec runs on the numeric backend, which has no
    symbolic t; report and check once gave the t = 1 result under
    --t symbolic.  Without --t the report is still the t = 1 one."""
    kt = str(bundled_path("kodaira-thurston"))
    expected = str(bundled_path("kodaira-thurston.expected.json"))
    for argv in (("report", kt), ("check", kt, expected)):
        code, out, err = run(*argv, "--t", "symbolic")
        assert (code, out) == (2, ""), argv
        assert "the numeric backend has no symbolic t: give --t RAT or leave it out" in err
    code, out, _ = run("report", kt)
    assert code == 0 and json.loads(out)["t"] == "1"
    assert run("check", kt, expected)[:2] == (0, "check: OK\n")


def test_sweep_t_axis_and_t_option_exits_two():
    """A t axis in --grid and --t name one parameter twice; --t was once
    ignored.  Either one alone still sweeps."""
    def sweep(grid, params, *t):
        return run("sweep", str(bundled_path("kodaira")), "--grid", grid, "--quantity", "scal",
                   "--params", params, *t)

    code, out, err = sweep("t=0:1:2", "alpha=1,beta=0,r=1,v=1", "--t", "5")
    assert (code, out) == (2, "")
    assert "parameter 't' is given in both --grid and --t" in err
    assert sweep("t=0:1:2", "alpha=1,beta=0,r=1,v=1")[0] == 0
    assert sweep("alpha=1:2:2", "beta=0,r=1,v=1", "--t", "5")[0] == 0


@pytest.mark.parametrize("quantity", ["scal", "sec_max_basis", "singer_k"])
def test_sweep_parses_t_for_every_quantity(quantity):
    """--t is parsed once, before any point: a bad literal is refused even
    where the quantity does not depend on t."""
    code, out, err = run("sweep", str(bundled_path("iwasawa")), "--grid", "alpha=1:2:2",
                         "--quantity", quantity, "--t", "1/x")
    assert (code, out) == (2, "")
    assert "bad rational literal '1/x'" in err


def test_report_exits_one_on_a_wrong_lee_form(monkeypatch):
    """The report checks tr T^t = (t+1)/2 theta on the T it prints."""
    lee = geo.lee_form
    monkeypatch.setattr(geo, "lee_form", lambda spec: [2 * x for x in lee(spec)])
    code, out, err = run("report", str(bundled_path("kodaira")))
    assert (code, out) == (1, "")
    assert "internal consistency error: tr T^t(e0, .) is not (t+1)/2 theta(e0)" in err


def test_check_against_non_report_json_exits_two(tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    code, _, err = run("check", str(bundled_path("kodaira")), str(bad))
    assert code == 2
    assert "report schema mismatch" in err


def test_usage_error_is_type_and_value_error(iwasawa):
    """Library callers that caught TypeError or ValueError still catch it."""
    from ghl import UsageError
    for exc_type in (TypeError, ValueError):
        with pytest.raises(exc_type) as info:
            geo.killing_generators(iwasawa.spec)
        assert isinstance(info.value, UsageError)
    with pytest.raises(ValueError) as info:
        iwasawa.spec.instantiate({})
    assert isinstance(info.value, UsageError)


def test_engine_type_error_exits_three(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")
    monkeypatch.setattr(cli, "build_report", broken)
    code, _, err = run("report", str(bundled_path("iwasawa")))
    assert code == 3
    assert "internal error: TypeError: unsupported operand" in err


def _mutated(lines: list, rng) -> list:
    """One line mutation of a .ghl file: a line deleted, doubled, swapped
    with or replaced by another, cut short, its sign flipped or a digit in
    it set to 0-3 (so m and q stay at most 3), or a stray line inserted."""
    lines = list(lines)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    kind = rng.randrange(8)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    elif kind == 2:
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 3:
        lines[i] = lines[j]
    elif kind == 4:
        lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
    elif kind == 5:
        lines[i] = (lines[i].replace("-", "+", 1) if "-" in lines[i]
                    else lines[i].replace("= ", "= -", 1))
    elif kind == 6:
        digits = [p for p, ch in enumerate(lines[i]) if ch.isdigit()]
        if digits:
            p = rng.choice(digits)
            lines[i] = lines[i][:p] + str(rng.randrange(4)) + lines[i][p + 1:]
    else:
        lines.insert(i, rng.choice(["[brackets]", "e0,e1 = e1", "e1,e2 = 1/0", "m = 1",
                                    "params = alpha", "x y z", "e0,e0 = e2"]))
    return lines


def test_line_mutated_files_exit_zero_one_or_two_and_name_the_failure(tmp_path):
    """A seeded fuzz probe: 100 line-mutated copies of the bundled and test
    .ghl files go through validate, report and singer --kmax 2 (at every
    declared parameter set to 1).  No run is an engine failure (exit 3),
    and every exit 1 names a failed condition h1-h4 or a built-in
    self-check.  The test files are named, not globbed, so that a file
    added to tests/data leaves the 100 draws as they are."""
    rng = random.Random(20)
    sources = [bundled_path(name) for name in BUNDLED] + [TEST_DATA / f"{name}.ghl" for name in (
        "broken-h2", "broken-jacobi", "iwasawa-metric", "kodaira-times-c", "kt-exact",
        "negative-dimension", "non-integer-dimension", "nonunimodular", "zero-divisor")]
    codes = Counter()
    for n in range(100):
        source = rng.choice(sources)
        text = source.read_text(encoding="utf-8")
        path = tmp_path / f"mutant-{n}.ghl"
        path.write_text("\n".join(_mutated(text.splitlines(), rng)) + "\n", encoding="utf-8")
        names = next((line.split("=", 1)[1] for line in text.splitlines()
                      if line.startswith("params")), "")
        params = ",".join(f"{p.strip()}=1" for p in names.split(",") if p.strip())
        singer = ["singer", str(path), "--kmax", "2"] + (["--params", params] if params else [])
        for argv in (["validate", str(path)], ["report", str(path)], singer):
            code, out, err = run(*argv)
            codes[code] += 1
            assert code in (0, 1, 2), (source.name, argv, path.read_text(), err)
            if code == 1:
                assert re.search(r"h[1-4]: FAIL|validation failed: h[1-4]|"
                                 r"internal consistency error: ", out + err), (argv, out, err)
    assert codes[0] and codes[1] and codes[2]
