"""Tests of the benchmark's own generators, oracles and tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from ghl.fileio import build_report, load_ghl, serialize_report  # noqa: E402

KINDS = [(2, "abelian", 0), (2, "generic", 0), (2, "abelian", 2), (2, "generic", 1),
         (3, "abelian", 0), (3, "holomorphic", 0), (3, "mixed", 1), (3, "generic", 2)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m,kind,nparams", KINDS)
def test_generated_brackets_pass_h1_to_h4(tmp_path, seed, m, kind, nparams):
    nil = gen.nilpotent(random.Random(seed), m, kind, nparams, nbase=2)
    path = tmp_path / "nil.ghl"
    path.write_text(nil.text())
    rep = load_ghl(path).report
    assert rep.ok, rep.conditions
    if nil.integrable:
        assert rep.integrable
    scaled = tmp_path / "scaled.ghl"
    scaled.write_text(nil.text(scale=Fraction(2, 3)))
    assert load_ghl(scaled).report.ok


def test_generic_m2_bracket_is_not_integrable(tmp_path):
    for seed in range(4):
        nil = gen.nilpotent(random.Random(seed), 2, "generic", 0, nbase=2)
        path = tmp_path / f"g{seed}.ghl"
        path.write_text(nil.text())
        assert not load_ghl(path).report.integrable


@pytest.mark.parametrize("seed", range(3))
def test_frame_points_are_valid_metrics(tmp_path, seed):
    rng = random.Random(seed)
    inp = workloads.Inputs(HERE.parent, tmp_path)
    for pt, path in workloads.frame_points(rng, inp, -3, 3, n_kt=4, n_nil=4):
        n = 2 * pt.m
        G, J = pt.G, pt.J
        assert all(G[i][j] == G[j][i] for i in range(n) for j in range(n))
        JtGJ = [[sum(J[k][i] * G[k][l] * J[l][j] for k in range(n) for l in range(n))
                 for j in range(n)] for i in range(n)]
        assert JtGJ == G
        if pt.name == "kodaira-thurston":
            p = pt.params
            assert p["r"] ** 2 * p["sigma"] ** 2 > p["x"] ** 2 + p["y"] ** 2
        assert load_ghl(path, sample=pt.params).report.ok


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_seed_gives_identical_inputs(tmp_path, name):
    def files(sub):
        d = tmp_path / sub
        d.mkdir()
        workloads.WORKLOADS[name](random.Random(f"{name}:7"), workloads.Inputs(HERE.parent, d))
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}
    assert files("a") == files("b")


def test_eval_text_matches_engine_evaluation():
    from ghl.scalars import ExactDomain
    from ghl.exprparse import parse_expression, to_scalar
    dom = ExactDomain(("alpha", "beta", "r", "v"))
    point = {"alpha": Fraction(3, 2), "beta": Fraction(-2), "r": Fraction(5), "v": Fraction(1, 3)}
    for text in __import__("micro").operand_texts(random.Random(1), 3):
        x = to_scalar(parse_expression(text), dom)
        y = x * x - x / dom.param("r")
        assert oracle.eval_text(dom.text(y), point) == y.evaluate(point)


def test_milnor_oracle_matches_bundled_iwasawa():
    import json
    data = HERE.parent / "src" / "ghl" / "data"
    rep = json.loads((data / "iwasawa.expected.json").read_text())
    point = {"alpha": Fraction(3, 2)}
    assert oracle.check_exact_report(rep, workloads._iwasawa_mu(point), 3, point, True) == []


def test_tracing_keeps_report_bytes_and_restores_functions():
    import ghl.fileio
    import ghl.geometry
    import tracer
    path = HERE.parent / "src" / "ghl" / "data" / "abelian2.ghl"
    before = serialize_report(build_report(load_ghl(path)))
    orig = ghl.geometry.lee_form
    t = tracer.Tracer()
    t.install()
    try:
        assert ghl.geometry.lee_form is not orig
        traced = serialize_report(ghl.fileio.build_report(ghl.fileio.load_ghl(path)))
    finally:
        t.uninstall()
    assert ghl.geometry.lee_form is orig
    assert traced == before
    metrics = t.metrics()
    assert metrics["fileio.build_report.calls"][0] == 1
    assert metrics["geometry.lee_form.calls"][0] == 1
    # lee_form calls gauduchon_connection through the module global
    assert metrics["geometry.gauduchon_connection.calls"][0] >= 3
    assert all(s[3] < i for i, s in enumerate(t.spans))
