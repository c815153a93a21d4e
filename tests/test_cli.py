"""Command-line interface: exit codes, determinism, check/sweep behavior."""

import csv
import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ghl import cli
from ghl import geometry as geo
from ghl.cli import main
from ghl.fileio import bundled_path

from conftest import TEST_DATA


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_validate_iwasawa_exit_zero():
    code, out, _ = run("validate", str(bundled_path("iwasawa")))
    assert code == 0
    assert "integrable: yes" in out


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
    for name in ("abelian2", "sphere", "iwasawa", "kodaira", "kodaira-thurston"):
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
    ]
    for argv, message in cases:
        code, _, err = run(*argv)
        assert code == 2, argv
        assert message in err, (argv, err)


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
