"""File formats: .ghl loading (both kinds), report serialization and
comparison, round trips."""

import gc
import json
import math
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from ghl import geometry as geo
from ghl.fileio import (BUNDLED, GhlFormatError, build_report, bundled_path,
                        compare_reports, load_ghl, parse_assignments,
                        serialize_report)
from ghl.scalars import DEFAULT_DEGREE_CAP, RationalFunction, set_degree_cap

from conftest import TEST_DATA


def test_all_bundled_files_load_and_validate(all_bundled):
    for name, loaded in all_bundled.items():
        assert loaded.report.ok, name
        # only the intended non-integrable example fails h5
        assert loaded.report.integrable == (name != "kodaira-thurston"), name


def test_load_attaches_validation_report():
    loaded = load_ghl(TEST_DATA / "broken-jacobi.ghl")
    assert not loaded.report.ok          # load succeeds, failure is data


def test_iwasawa_bracket_values(iwasawa):
    spec = iwasawa.spec
    dom = spec.domain
    from ghl.scalars import RationalFunction
    a = RationalFunction.param("alpha")
    assert dom.eq(spec.mu_m(0, 2)[4], a)
    assert dom.eq(spec.mu_m(1, 3)[4], -a)
    assert spec.q == 0 and spec.m == 3


def test_algebra_round_trip(iwasawa, tmp_path):
    """Write the spec's brackets back out in canonical text and reload."""
    spec = iwasawa.spec
    dom = spec.domain
    lines = ["[algebra]", f"name = {spec.name}", f"q = {spec.q}", f"m = {spec.m}",
             f"params = {', '.join(spec.params)}", "backend = exact", "[brackets]"]
    for (a, b), vec in sorted(spec.mu_store.items()):
        terms = []
        for c, x in enumerate(vec):
            if not dom.is_zero(x):
                terms.append(f"({dom.text(x)})*e{c}")
        lines.append(f"e{a},e{b} = " + " + ".join(terms))
    p = tmp_path / "roundtrip.ghl"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    again = load_ghl(p)
    assert again.spec.q == spec.q and again.spec.m == spec.m
    assert set(again.spec.mu_store) == set(spec.mu_store)
    for key in spec.mu_store:
        for x, y in zip(spec.mu_store[key], again.spec.mu_store[key]):
            assert dom.eq(x, y)


def test_report_round_trips_scal(kodaira):
    from ghl.exprparse import parse_expression, to_scalar
    from ghl.scalars import ExactDomain
    rep = build_report(kodaira)
    dom = ExactDomain(("alpha", "beta", "r", "v", "t"))
    scal = to_scalar(parse_expression(rep["scal"]), dom)
    want = to_scalar(parse_expression(
        "-(t-1)*(alpha^2*r^2+beta^2*r^2+v^2)^3/(r^4*v^4)"), dom)
    assert scal.eq(want)


def test_build_report_builds_each_derived_object_once(monkeypatch):
    """N, S, the torsion data, the ring form's terms, A^t (in ring values,
    `_gauduchon`) and d omega (one `coboundary` call, read by the Lee form
    and both flags) are built once per spec, validation included; curvature
    is built twice, for Rm and Omega^t (the Lee form reads d omega, and its
    check the printed T), and the rho2 matrix twice, in the public
    `ricci_and_scalar` and for the printed rho2."""
    calls = Counter()
    for name in ("_nijenhuis", "levi_civita", "torsion_ingredients", "_connection_terms",
                 "_gauduchon", "_curvature", "coboundary", "rho2_matrix"):
        def counted(*args, _orig=getattr(geo, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(geo, name, counted)
    build_report(load_ghl(bundled_path("iwasawa")))
    assert calls == {"_nijenhuis": 1, "levi_civita": 1, "torsion_ingredients": 1,
                     "_connection_terms": 1, "_gauduchon": 1, "_curvature": 2,
                     "coboundary": 1, "rho2_matrix": 2}


@pytest.mark.parametrize("sample, layouts", [
    (None, [("alpha", "beta", "r", "t", "v")]),
    ({"alpha": 2, "beta": 1, "r": Fraction(1, 2), "v": 5}, [None, ("t",)])])
def test_ring_form_is_cleared_once_per_layout(monkeypatch, sample, layouts):
    """Across one report, one check (a second report of the same spec, then
    `compare_reports`), two connection audits, one t-only sweep, an s-tuple
    and, at a rational point, Singer and Killing of a spec, its bracket
    table and S are cleared (`_clear`, which packs them) once per layout:
    kodaira over Q(alpha, beta, r, v) in the one layout of its parameters
    and t, and at a rational point over ints (Rm, the sweep's rational t
    and the towers) and, for symbolic t, in the layout of t.  Every
    `spec._rings` value is a `_RingForm`, and each builds Rm's undivided
    sums (`_curvature` on the form's own S) once, across
    `riemann_curvature` and both audits."""
    from ghl.cli import _sweep_value
    loaded = load_ghl(bundled_path("kodaira"), sample)
    spec, calls, clear, curvature, rm_sums = loaded.spec, [], geo._clear, geo._curvature, []

    def recording(values, layout=None, *den):
        calls.append((layout and layout.names, set(map(id, values))))
        return clear(values, layout, *den)

    def counting(spec, form, k, C):
        if C is form.S:
            rm_sums.append(form)
        return curvature(spec, form, k, C)

    with monkeypatch.context() as patch:
        patch.setattr(geo, "_clear", recording)
        patch.setattr(geo, "_curvature", counting)
        report = build_report(loaded)
        assert compare_reports(build_report(loaded), report) == []
        for _ in range(2):
            assert geo.connection_audit(spec, geo.symbolic_t()).ok
        for t in (0, Fraction(1, 2), 1, 2):
            _sweep_value("scal", spec, Fraction(t))
        geo.hermitian_s_tuple(spec, s=1)
        if sample:
            geo.singer_invariant(spec)
            geo.killing_generators(spec)
    zero = spec.domain.is_zero
    mu = {id(x) for row in spec.mu for v in row for x in v if not zero(x)}
    S = {id(x) for M in spec.S for row in M for x in row if not zero(x)}
    for ids in (mu, S):
        assert sorted(names or () for names, got in calls if ids <= got) == sorted(
            names or () for names in layouts)
    forms = list(spec._rings.values())
    assert len(forms) == len(layouts) and all(type(form) is geo._RingForm for form in forms)
    assert Counter(map(id, rm_sums)) == Counter(map(id, forms))


@pytest.mark.parametrize("sample", [None, {"alpha": 2, "beta": 1, "r": 1, "v": 3}])
def test_a_spec_with_ring_forms_is_freed_without_the_cycle_collector(sample):
    """A ring form holds its spec by weak reference, so a spec whose report,
    audit and s-tuple built its forms and their members is freed as soon as
    its last reference goes, with the cycle collector off: specs built one
    per sweep point or per call do not pile up until a collection."""
    loaded = load_ghl(bundled_path("kodaira"), sample)
    build_report(loaded)
    assert geo.connection_audit(loaded.spec, geo.symbolic_t()).ok
    geo.hermitian_s_tuple(loaded.spec, s=0)
    assert loaded.spec._rings
    spec = weakref.ref(loaded.spec)
    gc.disable()
    try:
        del loaded
        assert spec() is None
    finally:
        gc.enable()


def test_a_wider_degree_cap_builds_a_ring_form_of_its_width():
    """The ring form is cached per layout width: after a report at the
    default cap 64 (7-bit fields, degrees up to 127), a cap of 200 makes the
    next report of the same spec build a form with 8-bit fields, and the
    report text is the same; also where an s-tuple (`_towers`) builds the
    first form, which the first report then reads."""
    for tower_first in (False, True):
        loaded = load_ghl(bundled_path("kodaira"))
        if tower_first:
            geo.hermitian_s_tuple(loaded.spec, s=0)
        first = serialize_report(build_report(loaded))
        assert [form.layout.limit for form in loaded.spec._rings.values()] == [127]
        try:
            set_degree_cap(200)
            second = serialize_report(build_report(loaded))
        finally:
            set_degree_cap(DEFAULT_DEGREE_CAP)
        assert [form.layout.width for form in loaded.spec._rings.values()] == [7, 8]
        assert second == first


def test_a_report_at_a_given_t_labels_it_with_its_text(kodaira):
    """A library caller that gives t but no label gets t's own text, and the
    report of the CLI's `--t 1/2`."""
    rep = build_report(kodaira, RationalFunction.const(Fraction(1, 2)))
    assert rep["t"] == "1/2"
    assert rep == build_report(kodaira, RationalFunction.const(Fraction(1, 2)), "1/2")


def test_serialize_deterministic(iwasawa):
    r1 = serialize_report(build_report(iwasawa))
    r2 = serialize_report(build_report(iwasawa))
    assert r1 == r2
    assert r1.endswith("\n")
    data = json.loads(r1)
    assert data["schema"] == 1


def test_compare_reports_schema_mismatch(iwasawa):
    rep = build_report(iwasawa)
    bad = dict(rep)
    bad["schema"] = 2
    with pytest.raises(GhlFormatError):
        compare_reports(rep, bad)


def test_compare_reports_semantic_equality(iwasawa):
    rep = build_report(iwasawa)
    other = json.loads(serialize_report(build_report(iwasawa)))
    # a semantically equal but differently written scalar still matches
    other["F"]["0,2,4"] = "(-1*alpha) / (1)"
    assert compare_reports(rep, other) == []
    other["F"]["0,2,4"] = "alpha"
    diffs = compare_reports(rep, other)
    assert any("F/0,2,4" in d for d in diffs)


def test_compare_reports_names_each_kind_of_difference():
    """Each kind of difference gives its path: a key on one side only, a
    list of another length, a flag that differs, a string that parses as no
    scalar, and on a numeric report a float beyond the tolerance or a
    non-number; a float within the tolerance matches."""
    expected = json.loads(bundled_path("kodaira-thurston.expected.json").read_text())
    actual = json.loads(json.dumps(expected))
    del actual["rho1"]
    actual["lee"].append("0.0")
    actual["flags"]["balanced"] = False
    actual["T"]["0,2"][3] = "1.75000000001"
    actual["T"]["0,3"][2] = "-0.3"
    actual["Rm"]["0,2"][0][2] = "x"
    assert compare_reports(actual, expected) == [
        "/Rm/0,2[0][2]", "/T/0,3[2]", "/flags/balanced", "/lee (length 5 != 4)",
        "/rho1 (missing on one side)"]
    exact = json.loads(bundled_path("iwasawa.expected.json").read_text())
    other = json.loads(json.dumps(exact))
    other["scal"] = "(1"
    assert compare_reports(other, exact) == ["/scal"]


def test_parse_assignments():
    out = parse_assignments("a=1, b=2/3, c=-5/2")
    assert out == {"a": Fraction(1), "b": Fraction(2, 3), "c": Fraction(-5, 2)}
    with pytest.raises(GhlFormatError):
        parse_assignments("a=1/0")
    with pytest.raises(GhlFormatError):
        parse_assignments("nonsense")


def test_load_ghl_instantiates_algebra_at_sample(iwasawa):
    """Given a sample, an algebra file loads as a FractionDomain spec at that
    point, validated there; the symbolic load is not kept."""
    from ghl.scalars import FractionDomain
    point = {"alpha": Fraction(2, 3)}
    loaded = load_ghl(bundled_path("iwasawa"), sample=point)
    assert isinstance(loaded.spec.domain, FractionDomain)
    assert loaded.spec.mu_store == iwasawa.spec.instantiate(point).mu_store
    assert loaded.report == geo.validate(loaded.spec)
    assert loaded.sample == point
    assert build_report(loaded)["sample"] == {"alpha": "2/3"}
    flat = load_ghl(bundled_path("abelian2"), sample={})
    assert isinstance(flat.spec.domain, FractionDomain) and flat.sample == {}


# ---------------------------------------------------------------------------
# frame-metric loading
# ---------------------------------------------------------------------------


def test_frame_metric_kt_default_sample(kodaira_thurston):
    spec = kodaira_thurston.spec
    assert spec.domain.backend == "numeric"
    assert spec.q == 0 and spec.m == 2
    assert kodaira_thurston.sample == {"r": Fraction(1), "sigma": Fraction(2),
                                       "x": Fraction(0), "y": Fraction(0)}
    # at this sample the unitary constants are mu(e0,e2) = -e3 exactly
    v = spec.mu_m(0, 2)
    assert abs(v[3] + 1) < 1e-9
    assert all(abs(v[c]) < 1e-9 for c in (0, 1, 2))


def test_frame_metric_explicit_sample():
    loaded = load_ghl(bundled_path("kodaira-thurston"),
                      sample={"r": Fraction(1), "sigma": Fraction(1),
                              "x": Fraction(0), "y": Fraction(1, 2)})
    assert loaded.report.ok
    assert not loaded.report.integrable


def test_frame_metric_rejects_degenerate_sample():
    """A degenerate sample fails the frame; so does the scale probe r = sigma
    = 1/100000, where every metric entry (1e-10 on the diagonal) tests zero
    at the absolute tolerance 1e-9, so no frame vector is kept."""
    from ghl.multilinear import FrameError
    with pytest.raises(FrameError):
        load_ghl(bundled_path("kodaira-thurston"),
                 sample={"r": Fraction(1), "sigma": Fraction(1),
                         "x": Fraction(1), "y": Fraction(1)})
    with pytest.raises(FrameError, match="rank deficiency"):
        load_ghl(bundled_path("kodaira-thurston"),
                 sample={"r": Fraction(1, 100000), "sigma": Fraction(1, 100000),
                         "x": Fraction(0), "y": Fraction(0)})


def test_frame_metric_abelian_identity_matches_direct(tmp_path):
    text = """[frame]
name = flat
m = 1
params =
[brackets]
[J]
row0 = 0,-1
row1 = 1,0
[metric]
e0,e0 = 1
e1,e1 = 1
[samples]
s0 =
"""
    p = tmp_path / "flat.ghl"
    p.write_text(text, encoding="utf-8")
    loaded = load_ghl(p)
    assert loaded.report.ok
    assert loaded.spec.mu_store == {}


def test_frame_metric_keeps_constants_below_the_tolerance(tmp_path):
    """[e0,e1] = c e1 with metric r^2: the unitary frame has [f0,f1] = (c/r) f1.
    A structure constant c below the tolerance still counts, since c/r is
    above it."""
    text = """[frame]
name = small
m = 1
params = c, r
[brackets]
e0,e1 = c*e1
[J]
row0 = 0,-1
row1 = 1,0
[metric]
e0,e0 = r^2
e1,e1 = r^2
[samples]
s0 = c=1/10000000000, r=1/100
"""
    p = tmp_path / "small.ghl"
    p.write_text(text, encoding="utf-8")
    spec = load_ghl(p).spec
    assert spec.domain.tol == 1e-9
    assert list(spec.mu_store) == [(0, 1)]
    assert spec.mu_store[(0, 1)][0] == 0.0
    assert math.isclose(spec.mu_store[(0, 1)][1], 1e-8, rel_tol=1e-12)


def test_iwasawa_generic_metric_alpha_pattern():
    """Unitary-frame constants of the generic Iwasawa metric match the
    one-modulus pattern with alpha = tau / sqrt(r^2 sigma^2 - x^2 - y^2)."""
    for sample in ({"r": 1, "sigma": 1, "tau": 1, "x": 0, "y": 0},
                   {"r": 2, "sigma": 1, "tau": 3, "x": Fraction(1, 2), "y": Fraction(1, 3)},
                   {"r": 1, "sigma": 3, "tau": 2, "x": 1, "y": -1}):
        sample = {k: Fraction(v) for k, v in sample.items()}
        loaded = load_ghl(TEST_DATA / "iwasawa-metric.ghl", sample=sample)
        assert loaded.report.ok and loaded.report.integrable
        spec = loaded.spec
        alpha = float(sample["tau"]) / math.sqrt(
            float(sample["r"] ** 2 * sample["sigma"] ** 2 - sample["x"] ** 2 - sample["y"] ** 2))
        expect = {(0, 2): (4, alpha), (0, 3): (5, alpha),
                  (1, 2): (5, alpha), (1, 3): (4, -alpha)}
        for (a, b), (c, val) in expect.items():
            v = spec.mu_m(a, b)
            assert abs(v[c] - val) < 1e-9, (a, b)
            for other in range(6):
                if other != c:
                    assert abs(v[other]) < 1e-9, (a, b, other)
        # pairs not in the pattern vanish
        for (a, b) in ((0, 1), (2, 3), (4, 5), (0, 4), (1, 5), (2, 4), (3, 5),
                       (0, 5), (1, 4), (2, 5), (3, 4)):
            v = spec.mu_m(a, b)
            assert all(abs(x) < 1e-9 for x in v), (a, b)


def test_frame_metric_missing_sample_errors(tmp_path):
    text = """[frame]
name = nosample
m = 1
params = r
[brackets]
[J]
row0 = 0,-1
row1 = 1,0
[metric]
e0,e0 = r^2
e1,e1 = r^2
"""
    p = tmp_path / "nosample.ghl"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(GhlFormatError, match="samples"):
        load_ghl(p)


def test_reserved_parameter_names(tmp_path):
    bad = """[algebra]
name = bad
q = 0
m = 1
params = t
backend = exact
[brackets]
"""
    p = tmp_path / "bad.ghl"
    p.write_text(bad, encoding="utf-8")
    with pytest.raises(GhlFormatError, match="reserved"):
        load_ghl(p)
    bad2 = bad.replace("params = t", "params = e1")
    p.write_text(bad2, encoding="utf-8")
    with pytest.raises(GhlFormatError, match="basis vector"):
        load_ghl(p)


def _kt_copy(tmp_path, old: str, new: str):
    """The bundled Kodaira-Thurston file with one text replacement."""
    text = bundled_path("kodaira-thurston").read_text(encoding="utf-8")
    assert old in text
    p = tmp_path / "kt.ghl"
    p.write_text(text.replace(old, new), encoding="utf-8")
    return p


def test_repeated_bracket_key_is_an_error(tmp_path):
    """A bracket pair given twice is refused in both file kinds, also when
    the two keys differ only in spacing; the last value used to win."""
    p = tmp_path / "twice.ghl"
    p.write_text("[algebra]\nq = 0\nm = 2\n[brackets]\ne0,e1 = e3\ne0,e1 = 2*e3\n",
                 encoding="utf-8")
    with pytest.raises(GhlFormatError, match=r"duplicate key 'e0,e1' in \[brackets\]"):
        load_ghl(p)
    p = _kt_copy(tmp_path, "e0,e1 = -e3\n", "e0,e1 = -e3\ne0, e1 = -2*e3\n")
    with pytest.raises(GhlFormatError, match=r"duplicate key 'e0, e1' in \[brackets\]"):
        load_ghl(p)


def test_repeated_sample_name_is_an_error(tmp_path):
    p = _kt_copy(tmp_path, "s2 = ", "s1 = r=3, sigma=1, x=0, y=0\ns2 = ")
    with pytest.raises(GhlFormatError, match=r"duplicate key 's1' in \[samples\]"):
        load_ghl(p)


def test_repeated_parameter_is_an_error(tmp_path, capsys):
    from ghl.cli import main
    p = tmp_path / "twice.ghl"
    p.write_text("[algebra]\nq = 0\nm = 1\nparams = a, a\n[brackets]\n", encoding="utf-8")
    with pytest.raises(GhlFormatError, match="parameter 'a' is declared twice"):
        load_ghl(p)
    assert main(["validate", str(p)]) == 2
    assert "parameter 'a' is declared twice" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("[algebra]\nm = 2\n[brackets]\n", r"\[algebra\] needs q$"),
    ("[algebra]\nq = 0\nm = x\n[brackets]\n", r"\[algebra\] m must be an integer, got 'x'"),
    ("[algebra]\nq = 0\nm = 0\n[brackets]\n", r"\[algebra\] needs m >= 1, got 0"),
    ("[frame]\nm = 2.5\n", r"\[frame\] m must be an integer, got '2.5'"),
    ("[frame]\nm = -2\n", r"\[frame\] needs m >= 1, got -2"),
    ("[algebra]\nq = 0\nm = 2\n[brackets]\ne0,e1 = e1/0\n",
     r"\[brackets\] e0,e1: division by zero"),
])
def test_bad_header_or_zero_divisor_is_a_format_error(tmp_path, text, message):
    p = tmp_path / "bad.ghl"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(GhlFormatError, match=message):
        load_ghl(p)


def test_zero_divisor_in_a_metric_entry_is_a_format_error(tmp_path):
    p = _kt_copy(tmp_path, "e0,e0 = r^2", "e0,e0 = r^2/(x - x)")
    with pytest.raises(GhlFormatError, match=r"kt.ghl: \[metric\] e0,e0: division by zero"):
        load_ghl(p)


def test_frame_metric_default_sample_is_the_first_in_file_order(tmp_path):
    """Not the alphabetically first name: zz comes before s0 in the file."""
    p = _kt_copy(tmp_path, "s0 = ", "zz = r=1, sigma=1, x=0, y=1/2\ns0 = ")
    assert load_ghl(p).sample == {"r": Fraction(1), "sigma": Fraction(1),
                                  "x": Fraction(0), "y": Fraction(1, 2)}


def test_bundled_list_is_the_data_directory():
    """Each name in BUNDLED has a .ghl and an .expected.json, and the data
    directory holds nothing else."""
    data = bundled_path(BUNDLED[0]).parent
    assert sorted(p.name for p in data.iterdir()) == sorted(
        name + ext for name in BUNDLED for ext in (".ghl", ".expected.json"))


def test_bundled_path_spellings():
    for name in BUNDLED:
        assert bundled_path(name) == bundled_path(f"{name}.ghl")
        assert bundled_path(name).name == f"{name}.ghl"
        assert bundled_path(f"{name}.expected.json").name == f"{name}.expected.json"
    for bad in ("nosuch", "nosuch.ghl", "iwasawa.json", "iwasawa.ghl.expected.json"):
        with pytest.raises(FileNotFoundError, match="no bundled data file"):
            bundled_path(bad)
