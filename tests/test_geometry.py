"""Core geometry: validation, bracket splitting, torsion ingredients,
connections, curvature, Ricci data, Lee form, flags, rescaling, audits.

Worked-example targets are transcribed by hand from the source tables; the
independent oracles (Koszul, wedge-equation, formula re-evaluation) never
share code paths with the operations they check."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ghl import geometry as geo
from ghl.fileio import build_report, bundled_path, load_ghl
from ghl.multilinear import basis_vector, commutator, dot, istd, mat_mul, mat_sub, mat_zero
from ghl.scalars import ExactDomain, FractionDomain, NumericDomain, RationalFunction, UsageError

from conftest import TEST_DATA
from reference import (N_vec, form_evaluate, lee_from_torsion_trace, mat_is_zero, mu_m_vec,
                       rescale, sectional_curvature, split_bracket)
from test_invariants import _nilpotent
from test_nonintegrable import random_two_step_specs


def RF(name):
    return RationalFunction.param(name)


def mats_equal(dom, M, rows):
    """Compare a scalar matrix against a matrix of parseable expressions."""
    from ghl.exprparse import parse_expression, to_scalar
    edom = ExactDomain(("alpha", "beta", "r", "v", "t"))
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            want = to_scalar(parse_expression(str(cell)), edom)
            if not dom.eq(M[i][j], want):
                return False
    return True


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_iwasawa(iwasawa):
    rep = iwasawa.report
    assert rep.ok
    assert all(rep.condition(h).passed for h in ("h1", "h2", "h3", "h4"))
    assert rep.integrable


def test_validate_kodaira_thurston(kodaira_thurston):
    rep = kodaira_thurston.report
    assert rep.ok
    assert not rep.integrable


def test_validate_broken_jacobi_witness():
    loaded = load_ghl(TEST_DATA / "broken-jacobi.ghl")
    rep = loaded.report
    assert not rep.ok
    h1 = rep.condition("h1")
    assert not h1.passed
    assert "(e0,e1,e2)" in h1.witness


def test_validate_broken_h2_witness():
    loaded = load_ghl(TEST_DATA / "broken-h2.ghl")
    rep = loaded.report
    assert rep.condition("h1").passed
    h2 = rep.condition("h2")
    assert not h2.passed and h2.witness


# ---------------------------------------------------------------------------
# non-effective reduction
# ---------------------------------------------------------------------------


def test_reduce_effective_unchanged(sphere):
    qp, out = geo.reduce_non_effective(sphere.spec)
    assert qp == sphere.spec.q == 1
    assert out is sphere.spec


def _sphere_plus_dead_generator():
    """Sphere spec extended by a second isotropy generator acting trivially."""
    dom = FractionDomain()
    z = lambda: [Fraction(0)] * 4

    def vec(**kw):
        v = z()
        for k, val in kw.items():
            v[int(k[1:])] = Fraction(val)
        return v
    # coordinates: e0 = Z (live), e1 = Z' (dead), e2,e3 = m-block
    mu = {(0, 2): vec(i3=1), (0, 3): vec(i2=-1), (2, 3): vec(i0=1)}
    return geo.BracketSpec(2, 1, mu, dom, "sphere+dead")


def test_reduce_drops_dead_generator():
    spec = _sphere_plus_dead_generator()
    assert not geo.validate(spec).condition("h4").passed
    qp, out = geo.reduce_non_effective(spec)
    assert qp == 1
    rep = geo.validate(out)
    assert rep.ok
    # reduced algebra is the sphere: mu_h(e0,e1) = Z, sec = 1
    Rm = geo.riemann_curvature(out)
    dom = out.domain
    X = basis_vector(2, 0, dom)
    Y = basis_vector(2, 1, dom)
    assert sectional_curvature(out, Rm, X, Y) == 1


def test_reduce_symbolic_parameters():
    """Reduction also works over the rational-function field: a dead
    generator next to a live one whose action is scaled by a parameter."""
    dom = ExactDomain(("a",))
    s = RF("a")
    z = dom.zero()
    o = dom.one()
    mu = {(0, 2): [z, z, z, s], (0, 3): [z, z, -s, z], (2, 3): [o, z, z, z]}
    spec = geo.BracketSpec(2, 1, mu, dom, "sym-dead", ("a",))
    qp, out = geo.reduce_non_effective(spec)
    assert qp == 1
    assert geo.validate(out).condition("h4").passed


def test_reduce_kernel_dimension_matches_rank_oracle():
    """Null-space oracle: kernel dimension of Z -> ad(Z)|m via sympy."""
    sympy = pytest.importorskip("sympy")
    spec = _sphere_plus_dead_generator()
    rows = []
    for b in range(2):
        for c in range(4):
            rows.append([spec.mu[z][2 + b][c] for z in range(2)])
    M = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    assert len(M.nullspace()) == 2 - 1
    qp, _ = geo.reduce_non_effective(spec)
    assert qp == 2 - len(M.nullspace())


def _rotating_isotropy_spec(rng, q):
    """m = 1 with q isotropy generators: Z_z acts as c_z times the sphere's
    rotation of the plane for one random integer vector c, so one
    combination rotates and the other q - 1 act trivially; mu(e_q, e_{q+1})
    is a random integer isotropy vector."""
    c = [0] * q
    while not any(c):
        c = [rng.randint(-3, 3) for _ in range(q)]
    n = q + 2

    def vec(entries):
        v = [Fraction(0)] * n
        for i, x in entries.items():
            v[i] = Fraction(x)
        return v
    mu = {}
    for z in range(q):
        if c[z]:
            mu[(z, q)] = vec({q + 1: c[z]})
            mu[(z, q + 1)] = vec({q: -c[z]})
    mu[(q, q + 1)] = vec({z: rng.randint(-3, 3) for z in range(q)})
    return geo.BracketSpec(q, 1, mu, FractionDomain(), f"rotating-{q}")


def _reduce_reference(spec):
    """(q', brackets) by SymPy: the kernel of Z -> ad(Z)|m, coordinate
    vectors added greedily to it as the complement, and one linear solve per
    bracket for its complement coordinates."""
    sympy = pytest.importorskip("sympy")
    q, n = spec.q, spec.n

    def bracket(a, b):
        return [sympy.Rational(x) for x in spec.mu_store.get((a, b), [0] * n)]
    M = sympy.Matrix([[bracket(z, b)[c] for z in range(q)]
                      for b in range(q, n) for c in range(n)])
    kernel = M.nullspace()
    unit = [sympy.eye(q)[:, z] for z in range(q)]
    comp = []
    for z in range(q):
        if sympy.Matrix.hstack(*kernel, *(unit[j] for j in comp + [z])).rank() \
                == len(kernel) + len(comp) + 1:
            comp.append(z)
    B = sympy.Matrix.hstack(*kernel, *(unit[j] for j in comp))
    old = comp + list(range(q, n))
    out = {}
    for a, b in itertools.combinations(range(len(old)), 2):
        v = bracket(old[a], old[b])
        x = B.solve(sympy.Matrix(v[:q]))
        w = [Fraction(int(y.p), int(y.q)) for y in list(x[len(kernel):]) + v[q:]]
        if any(w):
            out[(a, b)] = w
    return len(comp), out


def test_reduce_matches_sympy_reference_on_generated_specs():
    """Seeded specs with up to three isotropy generators, one rotating
    combination and the rest dead: q' and every reduced bracket equal the
    SymPy reference exactly."""
    rng = random.Random(14)
    for i in range(30):
        spec = _rotating_isotropy_spec(rng, 1 + i % 3)
        assert geo.validate(spec).condition("h1").passed, i
        qp, out = geo.reduce_non_effective(spec)
        want_qp, want_mu = _reduce_reference(spec)
        assert qp == out.q == want_qp == 1, i
        assert out.mu_store == want_mu, i
        assert geo.validate(out).ok, i


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------


def _sympy_rref_rows(M, convert) -> tuple[list, list]:
    """(pivot columns, RREF rows as {column: entry} without zeros) of the
    SymPy matrix M, each entry made a domain value by convert."""
    R, piv = M.rref()
    rows = [{c: convert(x) for c, x in enumerate(R.row(i)) if x} for i in range(len(piv))]
    return list(piv), rows


def _sympy_fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def test_echelon_matches_sympy_nullspace():
    """Differential test: the incremental RREF fed rows in shuffled order
    keeps SymPy's RREF rows, which fix the canonical null-space basis, and
    its rank."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20211)
    dom = FractionDomain()
    entries = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)]
    for _ in range(300):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 6)
        rows = [[rng.choice(entries) if rng.random() < 0.6 else Fraction(0)
                 for _ in range(ncols)] for _ in range(nrows)]
        if rows and rng.random() < 0.5:   # a dependent row
            a, b = rng.choice(rows), rng.choice(rows)
            c = rng.choice(entries)
            rows.append([x + c * y for x, y in zip(a, b)])
        M = sympy.Matrix(len(rows), ncols, [sympy.Rational(x.numerator, x.denominator)
                                            for row in rows for x in row])
        span = geo._Echelon(ncols, dom)
        for row in rng.sample(rows, len(rows)):
            span.add(row)
        assert len(span.pivots) == M.rank()
        piv, want = _sympy_rref_rows(M, _sympy_fraction)
        assert sorted(span.pivots) == piv, rows
        assert [span.pivots[p] for p in piv] == want, rows


@st.composite
def _int_matrices(draw):
    """(ncols, rows): small integer rows with dependent, duplicate and zero
    rows among them, in a drawn order."""
    ncols = draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -4, 6, 12])
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    if rows:
        # a*r + b*s: a duplicate (b = 0), a zero row (a = b = 0) or a combination
        mix = st.tuples(st.sampled_from(rows), st.sampled_from(rows),
                        st.integers(-3, 3), st.integers(-3, 3))
        for r, s, a, b in draw(st.lists(mix, max_size=3)):
            rows.append([a * x + b * y for x, y in zip(r, s)])
    return ncols, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_int_matrices())
def test_integer_echelon_matches_fraction_echelon_and_sympy(case):
    """Differential test: integer dict rows, as Singer and Killing hand them
    over, give the pivots and canonical null space of the same rows as
    Fractions and of SymPy's rref, `kernel()` is that null space times the
    lcm of the pivot entries, in ints, and every kept integer row is
    primitive with a positive pivot entry and is its RREF row up to that
    scale."""
    sympy = pytest.importorskip("sympy")
    ncols, rows = case
    dom = FractionDomain()
    ints, fracs = geo._Echelon(ncols, dom), geo._Echelon(ncols, dom)
    for row in rows:
        kept = ints.add({c: x for c, x in enumerate(row) if x})
        assert kept == fracs.add([Fraction(x) for x in row])
    assert ints.integral is not False and not fracs.integral
    M = sympy.Matrix(len(rows), ncols, [x for row in rows for x in row])
    piv, rrefs = _sympy_rref_rows(M, _sympy_fraction)
    assert sorted(ints.pivots) == sorted(fracs.pivots) == piv
    want = [[_sympy_fraction(x) for x in v] for v in M.nullspace()]
    assert ints.nullspace() == want
    L = math.lcm(*(ints.pivots[p][p] for p in piv))
    free = [f for f in range(ncols) if f not in piv]
    assert ints.kernel() == {f: [L * x for x in w] for f, w in zip(free, want)}
    assert all(type(x) is int for v in ints.kernel().values() for x in v)
    for p, rref in zip(piv, rrefs):
        assert fracs.pivots[p] == rref
        row = ints.pivots[p]
        assert all(type(x) is int for x in row.values())
        assert row[p] > 0 and math.gcd(*row.values()) == 1
        assert {c: Fraction(x, row[p]) for c, x in row.items()} == rref


def test_echelon_symbolic_matches_sympy():
    """Over Q(a) the kept RREF rows agree with SymPy's, whatever the order."""
    sympy = pytest.importorskip("sympy")
    dom = ExactDomain(("a",))
    a, one, zero = RF("a"), dom.one(), dom.zero()
    rows = [[a, one, zero, a], [one, a, one, zero], [a + one, a + one, one, a]]
    sa = sympy.Symbol("a")
    M = sympy.Matrix([[sa, 1, 0, sa], [1, sa, 1, 0], [sa + 1, sa + 1, 1, sa]])

    def from_sympy(expr):
        def poly(p):
            out = zero
            for (k,), c in sympy.Poly(p, sa).terms():
                out = out + dom.from_fraction(Fraction(int(c.p), int(c.q))) * a ** k
            return out
        num, den = sympy.fraction(sympy.cancel(expr))
        return poly(num) / poly(den)

    piv, want = _sympy_rref_rows(M, from_sympy)
    for order in itertools.permutations(rows):
        span = geo._Echelon(4, dom)
        assert [span.add(r) for r in order].count(True) == 2
        assert sorted(span.pivots) == piv
        for p, w in zip(piv, want):
            got = span.pivots[p]
            assert sorted(got) == sorted(w), (p, got, w)
            assert all(dom.eq(got[c], w[c]) for c in w), (p, got, w)


# ---------------------------------------------------------------------------
# bracket split and torsion ingredients
# ---------------------------------------------------------------------------


def test_bracket_table_reads_mu_store(all_bundled):
    """spec.mu holds mu_store above the diagonal (zeros where it has no
    entry), its negation below and zeros on the diagonal."""
    specs = [loaded.spec for loaded in all_bundled.values()] + random_two_step_specs(4)
    for spec in specs:
        zeros = [spec.domain.zero()] * spec.n
        for a, b in itertools.combinations(range(spec.n), 2):
            upper = spec.mu_store.get((a, b), zeros)
            assert spec.mu[a][b] == upper, (spec.name, a, b)
            assert spec.mu[b][a] == [-x for x in upper], (spec.name, a, b)
        for a in range(spec.n):
            assert spec.mu[a][a] == zeros, (spec.name, a)


def test_bracket_table_negates_numeric_zero_to_zero(kodaira_thurston):
    """A 0.0 above the diagonal is 0.0 below it, not -0.0, as the pinned
    numeric report bytes of S were written."""
    spec = kodaira_thurston.spec
    zeros = [(a, b, c) for a, b in itertools.combinations(range(spec.n), 2)
             for c, x in enumerate(spec.mu[a][b])
             if x == 0.0 and math.copysign(1.0, x) > 0]
    assert zeros
    assert all(math.copysign(1.0, spec.mu[b][a][c]) > 0 for a, b, c in zeros)


def test_split_iwasawa(iwasawa):
    mu_h, mu_m = split_bracket(iwasawa.spec)
    assert mu_h == {}
    assert set(mu_m) == {(0, 2), (0, 3), (1, 2), (1, 3)}


def test_split_sphere(sphere):
    mu_h, mu_m = split_bracket(sphere.spec)
    assert list(mu_h) == [(0, 1)]
    assert mu_m == {}
    assert mu_h[(0, 1)][0] == 1


def test_split_kodaira_printed_bracket(kodaira):
    _, mu_m = split_bracket(kodaira.spec)
    dom = kodaira.spec.domain
    a, b, r, v = (RF(n) for n in ("alpha", "beta", "r", "v"))
    val = mu_m[(0, 1)]
    assert dom.eq(val[0], a / r)
    assert dom.eq(val[1], -b / r)
    assert dom.eq(val[3], -v / r ** 2)
    assert dom.is_zero(val[2])


def test_iwasawa_torsion_ingredients(iwasawa):
    spec = iwasawa.spec
    dom = spec.domain
    tors = geo.torsion_ingredients(spec)
    assert tors.N == {}
    assert tors.F_minus.is_zero(dom)
    a = RF("alpha")
    expected = {(0, 2, 4): -a, (0, 3, 5): -a, (1, 2, 5): -a, (1, 3, 4): a}
    assert set(tors.F.comp) == set(expected)
    for key, want in expected.items():
        assert dom.eq(tors.F.comp[key], want)
    assert tors.F_plus.sub(tors.F, dom).is_zero(dom)


def test_iwasawa_F_equals_dc_omega_via_coboundary(iwasawa):
    """Dual route: F = -J(d omega) through the coboundary machinery."""
    from ghl.multilinear import KForm, coboundary, wedge
    spec = iwasawa.spec
    dom = spec.domain
    n2 = 6
    omega = KForm(n2, 2, {(2 * k, 2 * k + 1): dom.one() for k in range(3)})
    domega = coboundary(spec.mu_m, n2, omega, dom)
    # F = -J(d omega) with coframe transport J e^i = sum_k J[k][i] e^k;
    # evaluated on vectors that reads F(X,Y,Z) = (d omega)(JX, JY, JZ).
    J = spec.I
    Jcols = [[J[r][c] for r in range(n2)] for c in range(n2)]
    F = geo.torsion_ingredients(spec).F
    for key in itertools.combinations(range(n2), 3):
        vecs = [Jcols[k] for k in key]
        lhs = form_evaluate(domega, vecs, dom)
        assert dom.eq(lhs, F.component(key, dom))


def test_kodaira_F_printed(kodaira):
    spec = kodaira.spec
    dom = spec.domain
    tors = geo.torsion_ingredients(spec)
    a, b, r, v = (RF(n) for n in ("alpha", "beta", "r", "v"))
    want = {
        (0, 1, 3): -(a ** 2 / v + b ** 2 / v + v / r ** 2),
        (0, 2, 3): (a ** 2 + b ** 2) * a * r / v ** 2 + a / r,
        (1, 2, 3): -((a ** 2 + b ** 2) * b * r / v ** 2 + b / r),
    }
    assert set(tors.F.comp) == set(want)
    for key, value in want.items():
        assert dom.eq(tors.F.comp[key], value)
    assert tors.N == {}          # integrable
    assert tors.F_minus.is_zero(dom)


def test_kodaira_thurston_ingredients(kodaira_thurston):
    spec = kodaira_thurston.spec
    dom = spec.domain
    tors = geo.torsion_ingredients(spec)
    assert tors.F.is_zero(dom)   # almost-Kaehler
    assert tors.N                # non-integrable


def test_fplus_fminus_relation_random_two_step():
    """F+ + F- = F and F- = 1/4 cyclic<N> on random 2-step nilpotent
    brackets (image in the center: Jacobi automatic).  In real dimension 4
    both sides of the N-relation vanish identically (Lambda^3_- = 0 for
    m = 2); the m = 3 cases with nonzero F- live in test_nonintegrable."""
    import random
    rng = random.Random(3)
    dom = FractionDomain()
    n2 = 4
    quarter = dom.from_fraction(Fraction(1, 4))
    for _ in range(8):
        mu = {}
        for (aa, bb) in ((0, 1), (0, 2), (1, 2)):
            vec = [Fraction(0)] * 4
            vec[3] = Fraction(rng.randint(-2, 2))
            if vec[3]:
                mu[(aa, bb)] = vec
        spec = geo.BracketSpec(0, 2, mu, dom, "rand2step")
        if not geo.validate(spec).ok:
            continue
        tors = geo.torsion_ingredients(spec)
        assert tors.F_plus.add(tors.F_minus, dom).sub(tors.F, dom).is_zero(dom)
        e = [basis_vector(n2, i, dom) for i in range(n2)]
        for key in itertools.combinations(range(n2), 3):
            X, Y, Z = (e[k] for k in key)
            cyc = (dot(N_vec(tors, spec, X, Y), Z)
                   + dot(N_vec(tors, spec, Y, Z), X)
                   + dot(N_vec(tors, spec, Z, X), Y))
            assert dom.eq(tors.F_minus.component(key, dom), quarter * cyc)


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------

# S^mu(e_a) for the Iwasawa threefold, transcribed from the worked example:
# entries are (row, col) positions of +1/-1 inside a factor alpha/2.
IWASAWA_S = {
    0: {(2, 4): 1, (3, 5): 1, (4, 2): -1, (5, 3): -1},
    1: {(2, 5): 1, (3, 4): -1, (4, 3): 1, (5, 2): -1},
    2: {(0, 4): -1, (1, 5): -1, (4, 0): 1, (5, 1): 1},
    3: {(0, 5): -1, (1, 4): 1, (4, 1): -1, (5, 0): 1},
    4: {(0, 2): -1, (1, 3): 1, (2, 0): 1, (3, 1): -1},
    5: {(0, 3): -1, (1, 2): -1, (2, 1): 1, (3, 0): 1},
}

IWASAWA_A = {
    0: {(2, 4): -1, (3, 5): -1, (4, 2): 1, (5, 3): 1},
    1: {(2, 5): -1, (3, 4): 1, (4, 3): -1, (5, 2): 1},
    2: {(0, 4): 1, (1, 5): 1, (4, 0): -1, (5, 1): -1},
    3: {(0, 5): 1, (1, 4): -1, (4, 1): 1, (5, 0): -1},
    4: {},
    5: {},
}


def sparse_mat(n, entries, coeff, dom):
    M = mat_zero(n, dom)
    for (i, j), sign in entries.items():
        M[i][j] = coeff * dom.from_fraction(sign)
    return M


def test_levi_civita_abelian_zero(abelian2):
    S = geo.levi_civita(abelian2.spec)
    dom = abelian2.spec.domain
    assert all(mat_is_zero(M, dom) for M in S)


def test_levi_civita_iwasawa_printed(iwasawa):
    spec = iwasawa.spec
    dom = spec.domain
    S = geo.levi_civita(spec)
    half_a = RF("alpha") / 2
    for x, entries in IWASAWA_S.items():
        want = sparse_mat(6, entries, half_a, dom)
        assert all(dom.eq(S[x][i][j], want[i][j]) for i in range(6) for j in range(6))


def test_levi_civita_numeric_matches_formula_reevaluation(kodaira_thurston):
    """Numeric backend: re-evaluate the defining cyclic formula directly."""
    spec = kodaira_thurston.spec
    dom = spec.domain
    S = geo.levi_civita(spec)
    n2 = 4
    e = [basis_vector(n2, i, dom) for i in range(n2)]
    for x in range(n2):
        for y in range(n2):
            for z in range(n2):
                want = -0.5 * (dot(mu_m_vec(spec, e[x], e[y]), e[z])
                               + dot(mu_m_vec(spec, e[z], e[x]), e[y])
                               + dot(mu_m_vec(spec, e[z], e[y]), e[x]))
                assert abs(S[x][z][y] - want) < 1e-12


def test_gauduchon_iwasawa_printed(iwasawa):
    spec = iwasawa.spec
    dom = spec.domain
    t = geo.symbolic_t()
    A = geo.gauduchon_connection(spec, t)
    coeff = RF("alpha") * (t - 1) / 2
    for x, entries in IWASAWA_A.items():
        want = sparse_mat(6, entries, coeff, dom)
        assert all(dom.eq(A[x][i][j], want[i][j]) for i in range(6) for j in range(6))
    assert mat_is_zero(A[4], dom) and mat_is_zero(A[5], dom)


def test_gauduchon_abelian_zero_any_t(abelian2):
    A = geo.gauduchon_connection(abelian2.spec, geo.symbolic_t())
    assert all(mat_is_zero(M, abelian2.spec.domain) for M in A)


@pytest.mark.parametrize("t", [ExactDomain().from_fraction(1),
                               RationalFunction.const(Fraction(1, 3))])
def test_a_constant_rational_function_t_equals_its_fraction(t):
    """Over a Fraction spec a t given as a constant RationalFunction, as an
    exact domain's `from_fraction` makes it, is cleared as its Fraction
    (`_clear`): A^t, the tables, Omega^t and T^t and the audit equal those
    at that Fraction, all over Fractions."""
    spec = load_ghl(bundled_path("kodaira"), {"alpha": 2, "beta": 1, "r": 1, "v": 3}).spec
    for build in (geo.gauduchon_connection, geo.gauduchon_tables,
                  geo.gauduchon_curvature_torsion, geo.connection_audit):
        assert build(spec, t) == build(spec, t.as_fraction()), build.__name__
    assert {type(x) for M in geo.gauduchon_connection(spec, t) for row in M for x in row} == {
        Fraction}


def test_gauduchon_kt_t_independent(kodaira_thurston, kt_exact):
    # exact variant: A carries no t symbolically
    A = geo.gauduchon_connection(kt_exact.spec, geo.symbolic_t())
    dom = kt_exact.spec.domain
    for M in A:
        for row in M:
            for x in row:
                if isinstance(x, RationalFunction):
                    assert "t" not in x.num.vars and "t" not in x.den.vars
    # numeric variant: equal at two sample t values
    spec = kodaira_thurston.spec
    ndom = spec.domain
    A0 = geo.gauduchon_connection(spec, ndom.from_fraction(0))
    A7 = geo.gauduchon_connection(spec, ndom.from_fraction(Fraction(7, 3)))
    for M0, M7 in zip(A0, A7):
        for r0, r7 in zip(M0, M7):
            for x0, x7 in zip(r0, r7):
                assert abs(x0 - x7) < 1e-9


_I_DOMAINS = {
    "fraction": (FractionDomain(), lambda k: Fraction(k, 3)),
    "ratfun": (ExactDomain(("a", "b")), lambda k: RF("a") * k / (RF("b") ** 2 + 1) + k % 2),
    "float": (NumericDomain(), lambda k: 0.37 * k),
}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_I_DOMAINS)), st.integers(1, 3), st.data())
def test_commuting_with_I_by_index_equals_the_commutator(kind, m, data):
    """`_commutes_with_I` gives the verdict of mat_is_zero(commutator(M, I)),
    on spans of unitary_basis (which commute) and on those plus a few
    random entries (which mostly do not), over Fractions, rational
    functions and floats."""
    dom, scalar = _I_DOMAINS[kind]
    n2 = 2 * m
    U = geo.unitary_basis(m, dom)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(U), max_size=len(U)))
    M = mat_zero(n2, dom)
    for c, B in zip(coeffs, U):
        M = [[x + scalar(c) * b for x, b in zip(row, brow)] for row, brow in zip(M, B)]
    noise = data.draw(st.lists(st.tuples(st.integers(0, n2 - 1), st.integers(0, n2 - 1),
                                         st.integers(-3, 3)), max_size=3))
    for i, j, k in noise:
        M[i][j] = M[i][j] + scalar(k)
    want = mat_is_zero(commutator(M, istd(m, dom)), dom)
    assert geo._commutes_with_I(M, dom) == want
    if not noise and kind != "float":
        assert want


def test_assert_unitary_names_a_perturbed_connection_matrix(kodaira):
    """A^t(e_x) with one skew pair of entries perturbed is still skew but no
    longer commutes with I, and `_assert_unitary` says so; an entry
    perturbed alone breaks skewness first."""
    spec = kodaira.spec
    dom = spec.domain
    for x, M in enumerate(geo.gauduchon_connection(spec, geo.symbolic_t())):
        geo._assert_unitary(M, dom, f"A^t(e{x})")
        B = [list(row) for row in M]
        B[0][2], B[2][0] = B[0][2] + 1, B[2][0] - 1
        with pytest.raises(geo.InternalConsistencyError,
                           match=rf"A\^t\(e{x}\) does not commute with I"):
            geo._assert_unitary(B, dom, f"A^t(e{x})")
        B[1][3] = B[1][3] + 1
        with pytest.raises(geo.InternalConsistencyError, match="not skew-symmetric"):
            geo._assert_unitary(B, dom, f"A^t(e{x})")


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def koszul_oracle(spec):
    """Independent Riemann curvature for q = 0 specs: Levi-Civita matrices
    from the Koszul formula, then Rm(X,Y) = C_{mu(X,Y)} - [C_X, C_Y]."""
    dom = spec.domain
    n2 = 2 * spec.m
    e = [basis_vector(n2, i, dom) for i in range(n2)]
    C = []
    for a in range(n2):
        M = mat_zero(n2, dom)
        for b in range(n2):
            for c in range(n2):
                val = (dot(spec.mu_m(a, b), e[c]) - dot(spec.mu_m(b, c), e[a])
                       + dot(spec.mu_m(c, a), e[b]))
                M[c][b] = dom.from_fraction(Fraction(1, 2)) * val
        C.append(M)

    def Cv(v):
        M = mat_zero(n2, dom)
        for a in range(n2):
            if not dom.is_zero(v[a]):
                for i in range(n2):
                    for j in range(n2):
                        M[i][j] = M[i][j] + v[a] * C[a][i][j]
        return M

    out = {}
    for a, b in itertools.combinations(range(n2), 2):
        out[(a, b)] = mat_sub(Cv(spec.mu_m(a, b)),
                              mat_sub(mat_mul(C[a], C[b]), mat_mul(C[b], C[a])))
    return out


def test_riemann_abelian_zero(abelian2):
    Rm = geo.riemann_curvature(abelian2.spec)
    assert all(mat_is_zero(M, abelian2.spec.domain) for M in itertools.chain.from_iterable(Rm))


def test_riemann_sphere(sphere):
    spec = sphere.spec
    dom = spec.domain
    Rm = geo.riemann_curvature(spec)
    assert dom.eq(Rm[0][1][0][1], dom.from_fraction(-1))
    assert dom.eq(Rm[0][1][1][0], dom.from_fraction(1))
    X = basis_vector(2, 0, dom)
    Y = basis_vector(2, 1, dom)
    assert sectional_curvature(spec, Rm, X, Y) == 1


def test_riemann_iwasawa_matches_koszul_oracle(iwasawa):
    inst = iwasawa.spec.instantiate({"alpha": 1})
    Rm = geo.riemann_curvature(inst)
    oracle = koszul_oracle(inst)
    dom = inst.domain
    for a, b in oracle:
        assert all(dom.eq(Rm[a][b][i][j], oracle[(a, b)][i][j])
                   for i in range(6) for j in range(6))


IWASAWA_OMEGA = {
    (0, 1): (Fraction(1, 2), {(2, 3): -1, (3, 2): 1, (4, 5): 1, (5, 4): -1}),
    (0, 2): (Fraction(1, 4), {(0, 2): 1, (1, 3): 1, (2, 0): -1, (3, 1): -1}),
    (0, 3): (Fraction(1, 4), {(0, 3): 1, (1, 2): -1, (2, 1): 1, (3, 0): -1}),
    (1, 2): (Fraction(1, 4), {(0, 3): -1, (1, 2): 1, (2, 1): -1, (3, 0): 1}),
    (1, 3): (Fraction(1, 4), {(0, 2): 1, (1, 3): 1, (2, 0): -1, (3, 1): -1}),
    (2, 3): (Fraction(1, 2), {(0, 1): -1, (1, 0): 1, (4, 5): 1, (5, 4): -1}),
}


def test_gauduchon_curvature_iwasawa_printed(iwasawa):
    spec = iwasawa.spec
    dom = spec.domain
    t = geo.symbolic_t()
    Om, T = geo.gauduchon_curvature_torsion(spec, t)
    base = RF("alpha") ** 2 * (t - 1) ** 2
    for key in itertools.combinations(range(6), 2):
        M = Om[key[0]][key[1]]
        if key in IWASAWA_OMEGA:
            frac, entries = IWASAWA_OMEGA[key]
            want = sparse_mat(6, entries, base * frac, dom)
        else:
            want = mat_zero(6, dom)
        assert all(dom.eq(M[i][j], want[i][j]) for i in range(6) for j in range(6))


def test_chern_flatness_iwasawa(iwasawa):
    spec = iwasawa.spec
    Om, _ = geo.gauduchon_curvature_torsion(spec, RationalFunction.const(1))
    assert all(mat_is_zero(M, spec.domain) for M in itertools.chain.from_iterable(Om))


def test_gauduchon_abelian_curvature_torsion_zero(abelian2):
    Om, T = geo.gauduchon_curvature_torsion(abelian2.spec, geo.symbolic_t())
    dom = abelian2.spec.domain
    assert all(mat_is_zero(M, dom) for M in itertools.chain.from_iterable(Om))
    assert all(all(dom.is_zero(x) for x in v) for v in itertools.chain.from_iterable(T))


def test_kaehler_case_reduces_to_riemannian(sphere):
    """F = N = 0: the Gauduchon family collapses onto Levi-Civita."""
    spec = sphere.spec
    dom = spec.domain
    t = geo.symbolic_t()
    S = geo.levi_civita(spec)
    A = geo.gauduchon_connection(spec, t)
    assert all(all(dom.eq(a, s) for ra, rs in zip(MA, MS) for a, s in zip(ra, rs))
               for MA, MS in zip(A, S))
    Om, T = geo.gauduchon_curvature_torsion(spec, t)
    Rm = geo.riemann_curvature(spec)
    for a, b in itertools.combinations(range(2), 2):
        assert all(dom.eq(Om[a][b][i][j], Rm[a][b][i][j]) for i in range(2) for j in range(2))
    assert all(all(dom.is_zero(x) for x in v) for v in itertools.chain.from_iterable(T))


def _scalars(x) -> list:
    """The scalars of a vector or a matrix, row by row."""
    return [y for r in x for y in _scalars(r)] if isinstance(x, list) else [x]


def test_pair_tables_are_antisymmetric_with_zero_diagonal(all_bundled):
    """Rm, Omega^t and T^t hold a zero diagonal and the entrywise 0 - x of
    each upper entry below it: .eq on exact specs, == on floats, and a 0.0
    above the diagonal is 0.0 below it, not -0.0.  The Kodaira-Thurston
    sample is the first ROADMAP scale probe; the second does not load."""
    specs = {name: loaded.spec for name, loaded in all_bundled.items()}
    specs.update((spec.name, spec) for spec in random_two_step_specs(3))
    specs["kt-probe"] = load_ghl(bundled_path("kodaira-thurston"), sample={
        "r": Fraction(10 ** 6), "sigma": Fraction(10), "x": Fraction(7), "y": Fraction(0)}).spec
    for name, spec in specs.items():
        dom = spec.domain
        exact = dom.backend == "exact"
        n2 = 2 * spec.m

        def same(x, y):
            return dom.eq(x, y) if exact else x == y

        tables = [("Rm", spec.Rm)]
        for t in [dom.from_fraction(Fraction(2, 7))] + ([geo.symbolic_t()] if exact else []):
            Om, T = geo.gauduchon_curvature_torsion(spec, t)
            tables += [(f"Omega@{t}", Om), (f"T@{t}", T)]
        for label, X in tables:
            where = (name, label)
            assert len(X) == n2 and all(len(row) == n2 for row in X), where
            for a in range(n2):
                assert all(same(x, dom.zero()) for x in _scalars(X[a][a])), where + (a,)
            for a, b in itertools.combinations(range(n2), 2):
                for x, y in zip(_scalars(X[a][b]), _scalars(X[b][a]), strict=True):
                    assert same(y, dom.zero() - x), where + (a, b)
                    if not exact and x == 0.0 and math.copysign(1.0, x) > 0:
                        assert math.copysign(1.0, y) > 0, where + (a, b)


# ---------------------------------------------------------------------------
# Ricci forms and scalar curvature
# ---------------------------------------------------------------------------


def test_ricci_iwasawa_printed(iwasawa):
    spec = iwasawa.spec
    dom = spec.domain
    t = geo.symbolic_t()
    Om, _ = geo.gauduchon_curvature_torsion(spec, t)
    rho1, rho2, scal = geo.ricci_and_scalar(spec, Om)
    assert rho1.is_zero(dom)
    assert dom.is_zero(scal)
    W = geo.rho2_matrix(spec, Om)
    coeff = RF("alpha") ** 2 * (t - 1) ** 2 / 2
    want = sparse_mat(6, {(0, 1): -1, (1, 0): 1, (2, 3): -1, (3, 2): 1,
                          (4, 5): 2, (5, 4): -2}, coeff, dom)
    assert all(dom.eq(W[i][j], want[i][j]) for i in range(6) for j in range(6))


def test_scal_kodaira_closed_form(kodaira):
    spec = kodaira.spec
    dom = spec.domain
    t = geo.symbolic_t()
    Om, _ = geo.gauduchon_curvature_torsion(spec, t)
    _, _, scal = geo.ricci_and_scalar(spec, Om)
    a, b, r, v = (RF(n) for n in ("alpha", "beta", "r", "v"))
    want = -(t - 1) * (a ** 2 * r ** 2 + b ** 2 * r ** 2 + v ** 2) ** 3 / (r ** 4 * v ** 4)
    assert dom.eq(scal, want)


def test_rho2_kodaira_chern_printed(kodaira):
    spec = kodaira.spec
    dom = spec.domain
    Om, _ = geo.gauduchon_curvature_torsion(spec, RationalFunction.const(1))
    rho1, _, scal = geo.ricci_and_scalar(spec, Om)
    assert rho1.is_zero(dom)       # first Chern-Ricci form vanishes
    assert dom.is_zero(scal)
    W = geo.rho2_matrix(spec, Om)
    a, b, r, v = (RF(n) for n in ("alpha", "beta", "r", "v"))
    L1 = a ** 2 * r ** 2 + b ** 2 * r ** 2 + v ** 2
    L2 = a ** 2 * r ** 2 + b ** 2 * r ** 2 - v ** 2
    e01 = -L1 ** 2 * L2 / (2 * r ** 4 * v ** 4)
    e02 = -L1 ** 2 * a / (r ** 3 * v ** 3)
    e03 = -L1 ** 2 * b / (r ** 3 * v ** 3)
    e12 = L1 ** 2 * b / (r ** 3 * v ** 3)
    e13 = -L1 ** 2 * a / (r ** 3 * v ** 3)
    e23 = L1 ** 2 * L2 / (2 * r ** 4 * v ** 4)
    want = [[0, e01, e02, e03],
            [-e01, 0, e12, e13],
            [-e02, -e12, 0, e23],
            [-e03, -e13, -e23, 0]]
    for i in range(4):
        for j in range(4):
            w = want[i][j]
            w = RationalFunction.const(0) if isinstance(w, int) else w
            assert dom.eq(W[i][j], w)


def test_ricci_abelian_all_zero(abelian2):
    spec = abelian2.spec
    dom = spec.domain
    Om, _ = geo.gauduchon_curvature_torsion(spec, geo.symbolic_t())
    rho1, rho2, scal = geo.ricci_and_scalar(spec, Om)
    assert rho1.is_zero(dom) and rho2.is_zero(dom) and dom.is_zero(scal)


# ---------------------------------------------------------------------------
# Lee form
# ---------------------------------------------------------------------------


def test_lee_iwasawa_balanced_zero(iwasawa):
    theta = geo.lee_form(iwasawa.spec)
    dom = iwasawa.spec.domain
    assert all(dom.is_zero(x) for x in theta)


def test_lee_abelian_zero(abelian2):
    theta = geo.lee_form(abelian2.spec)
    assert all(abelian2.spec.domain.is_zero(x) for x in theta)


def test_lee_kodaira_wedge_equation_oracle(kodaira):
    """Solve d(omega) = theta ^ omega by exact linear algebra and compare."""
    from ghl.multilinear import KForm, coboundary
    spec = kodaira.spec
    dom = spec.domain
    theta = geo.lee_form(spec)
    assert any(not dom.is_zero(x) for x in theta)
    n2 = 4
    omega = KForm(n2, 2, {(0, 1): dom.one(), (2, 3): dom.one()})
    domega = coboundary(spec.mu_m, n2, omega, dom)
    # theta ^ omega on basis triples, theta treated as unknown -> solved
    # here directly with the engine's theta, then checked component-wise.
    for key in itertools.combinations(range(n2), 3):
        acc = dom.zero()
        for pos in range(3):
            x = key[pos]
            rest = tuple(k for i, k in enumerate(key) if i != pos)
            sign = (-1) ** pos
            acc = acc + dom.from_fraction(sign) * theta[x] * omega.component(rest, dom)
        assert dom.eq(domega.component(key, dom), acc)


@pytest.mark.parametrize("q, m, mu, name, witness", [
    (2, 1, {(0, 1): [0, 0, 1, 0]}, "h1", "mu(e0,e1) leaves the isotropy block"),
    (1, 1, {(0, 1): [1, 0, 0]}, "h1", "mu(e0,e1) has an isotropy component"),
    # ad(e0) turns e1 into e3, skew but not complex linear
    (1, 2, {(0, 1): [0, 0, 0, 1, 0], (0, 3): [0, -1, 0, 0, 0]}, "h3",
     "ad(e0) does not commute with I"),
])
def test_validate_names_the_first_failure(q, m, mu, name, witness):
    spec = geo.BracketSpec(q, m, {k: [Fraction(x) for x in v] for k, v in mu.items()},
                           FractionDomain())
    rep = geo.validate(spec)
    assert not rep.condition(name).passed
    assert rep.condition(name).witness == witness


@pytest.mark.parametrize("q, m, mu, message", [
    (-1, 1, {}, "need q >= 0 and m >= 1"),
    (0, 0, {}, "need q >= 0 and m >= 1"),
    (0, 1, {(1, 0): [0, 1]}, r"bad bracket key \(1,0\)"),
    (0, 1, {(0, 2): [0, 1]}, r"bad bracket key \(0,2\)"),
    (0, 1, {(0, 1): [0, 1, 0]}, "bracket value has wrong length"),
])
def test_bracket_spec_rejects_bad_dimensions_and_keys(q, m, mu, message):
    """The constructor is the engine's own input check, below the file
    loader's (which names file, section and key)."""
    with pytest.raises(ValueError, match=message):
        geo.BracketSpec(q, m, mu, FractionDomain())


def test_engine_entry_points_reject_what_they_cannot_run(kodaira_thurston):
    """instantiate needs the exact backend; a negative s has no tuple; and
    Singer and Killing need constant structure constants, even on a spec
    that declares no parameter."""
    with pytest.raises(TypeError, match="instantiate applies to the exact backend"):
        kodaira_thurston.spec.instantiate({})
    abelian = geo.BracketSpec(0, 1, {}, FractionDomain())
    with pytest.raises(ValueError, match="s must be >= 0"):
        geo.hermitian_s_tuple(abelian, s=-1)
    x = RationalFunction.param("x")
    hidden = geo.BracketSpec(0, 1, {(0, 1): [x, x]}, ExactDomain())
    for verb in (geo.singer_invariant, geo.killing_generators):
        with pytest.raises(UsageError, match="requires constant structure constants"):
            verb(hidden)


def _direct_sum(*specs):
    """The product of parameter-free q = 0 specs, each on its own block of
    coordinates: the complex structure and the metric are the factors'."""
    n = sum(spec.n for spec in specs)
    mu, off = {}, 0
    for spec in specs:
        pad = [Fraction(0)] * off, [Fraction(0)] * (n - off - spec.n)
        for (a, b), v in spec.mu_store.items():
            mu[(off + a, off + b)] = pad[0] + list(v) + pad[1]
        off += spec.n
    return geo.BracketSpec(0, n // 2, mu, FractionDomain(), "+".join(s.name for s in specs))


def test_lee_form_equals_the_torsion_trace_reference(all_bundled):
    """theta from d omega^{m-1} is the theta of tr T^t = (t+1)/2 theta."""
    kod, iwa = all_bundled["kodaira"].spec, all_bundled["iwasawa"].spec
    at = [kod.instantiate(p) for p in ({"alpha": 1, "beta": Fraction(1, 2), "r": 2, "v": 3},
                                       {"alpha": 2, "beta": 1, "r": Fraction(1, 2), "v": 5},
                                       {"alpha": -1, "beta": 3, "r": 1, "v": Fraction(1, 4)})]
    at.append(iwa.instantiate({"alpha": Fraction(2, 3)}))
    kt = bundled_path("kodaira-thurston")
    at += [load_ghl(kt, sample).spec for sample in (
        {"r": 1, "sigma": 2, "x": Fraction(1, 3), "y": Fraction(-1, 5)},
        {"r": Fraction(3, 2), "sigma": 1, "x": 0, "y": 1},
        {"r": 1000, "sigma": 7, "x": 5, "y": -3},
        {"r": Fraction(1, 1000), "sigma": Fraction(2, 1000), "x": Fraction(1, 10**6), "y": 0})]
    flat_c = geo.BracketSpec(0, 1, {}, FractionDomain(), "C")
    products = [_direct_sum(at[0], flat_c), _direct_sum(flat_c, at[0]),
                _direct_sum(at[0], at[1]), load_ghl(TEST_DATA / "kodaira-times-c.ghl").spec]
    generated = [_nilpotent(seed, m, kind) for seed in range(8)
                 for m, kind in [(2, "abelian"), (2, "generic"), (3, "abelian"),
                                 (3, "generic"), (3, "holomorphic"), (4, "generic")]]
    specs = [loaded.spec for loaded in all_bundled.values()] + at + products + generated
    for spec in specs:
        dom = spec.domain
        theta = geo.lee_form(spec)
        assert len(theta) == 2 * spec.m, spec.name
        assert all(dom.eq(a, b) for a, b in zip(theta, lee_from_torsion_trace(spec))), spec.name
    for spec in products:
        assert spec.m >= 3 and not all(spec.domain.is_zero(x) for x in geo.lee_form(spec))


def test_lee_form_of_a_product_with_c():
    """Kodaira times a flat C keeps Kodaira's theta and is not balanced."""
    loaded = load_ghl(TEST_DATA / "kodaira-times-c.ghl")
    assert loaded.report.ok
    report = build_report(loaded)
    assert report["lee"] == ["7/18", "7/9", "7/6", "0", "0", "0"]
    assert report["flags"] == {"integrable": True, "almost_kahler": False, "balanced": False}


def test_lee_proportionality_symbolic_t(all_bundled):
    """tr T^t(X, .) = (t+1)/2 theta(X) identically in t on every spec."""
    for name, loaded in all_bundled.items():
        spec = loaded.spec
        dom = spec.domain
        n2 = 2 * spec.m
        theta = geo.lee_form(spec)
        if dom.backend == "numeric":
            ts = [dom.from_fraction(Fraction(1, 3)), dom.from_fraction(4)]
        else:
            ts = [geo.symbolic_t()]
        for t in ts:
            _, T = geo.gauduchon_curvature_torsion(spec, t)
            for x in range(n2):
                acc = dom.zero()
                for b in range(n2):
                    if b == x:
                        continue
                    v = T[x][b]
                    acc = acc + v[b]
                want = (t + 1) * theta[x] * dom.from_fraction(Fraction(1, 2))
                assert dom.is_zero(acc - want), (name, x)


# ---------------------------------------------------------------------------
# flags, rescaling, sectional curvature, audit
# ---------------------------------------------------------------------------


def test_metric_flags_all_bundled(all_bundled):
    expected = {
        "abelian2": (True, True, True),
        "sphere": (True, True, True),
        "iwasawa": (True, False, True),
        "kodaira": (True, False, False),
        "kodaira-thurston": (False, True, True),
    }
    for name, loaded in all_bundled.items():
        flags = geo.metric_flags(loaded.spec)
        want = expected[name]
        assert (flags["integrable"], flags["almost_kahler"], flags["balanced"]) == want, name


def test_rescale_iwasawa(iwasawa):
    out = rescale(iwasawa.spec, 2)
    dom = out.domain
    assert dom.eq(out.mu_m(0, 2)[4], RF("alpha") / 2)


def test_rescale_sphere_isotropy_part(sphere):
    out = rescale(sphere.spec, 3)
    dom = out.domain
    assert dom.eq(out.mu_h(0, 1)[0], dom.from_fraction(Fraction(1, 9)))
    # brackets with an isotropy argument are unchanged
    assert dom.eq(out.mu[0][1][2], dom.from_fraction(1))


def test_rescaling_exponent_measured(sphere):
    """sec(c.mu) = c^-2 sec(mu) on the plane (e0, e1), as for the metric
    scaling g -> c^2 g; the source material prints c^-1."""
    spec = sphere.spec
    X, Y = (basis_vector(2, a, spec.domain) for a in (0, 1))
    base = sectional_curvature(spec, spec.Rm, X, Y)
    assert base == 1
    for c in (2, 3, 5):
        scaled = rescale(spec, c)
        assert sectional_curvature(scaled, scaled.Rm, X, Y) == Fraction(1, c * c) * base, c


def test_sectional_curvature_normalized(sphere):
    spec = sphere.spec
    dom = spec.domain
    Rm = geo.riemann_curvature(spec)
    X = [dom.from_fraction(2), dom.from_fraction(0)]
    Y = [dom.from_fraction(1), dom.from_fraction(3)]
    raw = sectional_curvature(spec, Rm, X, Y)
    norm = sectional_curvature(spec, Rm, X, Y, normalize=True)
    assert norm == 1
    assert raw == 36        # |X|^2 |Y|^2 - <X,Y>^2 = 4*10 - 4 = 36
    with pytest.raises(ValueError):
        sectional_curvature(spec, Rm, X, X, normalize=True)


def test_connection_audit_all_bundled(all_bundled):
    for name, loaded in all_bundled.items():
        spec = loaded.spec
        t = geo.symbolic_t() if spec.domain.backend == "exact" \
            else spec.domain.from_fraction(Fraction(5, 7))
        rep = geo.connection_audit(spec, t)
        assert rep.ok, name
        if rep.max_residual is not None:
            assert rep.max_residual < 1e-9
