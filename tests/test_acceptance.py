"""Acceptance suite: one test (or small group) per numbered criterion, each
printing a PASS/FAIL line (run with -s to see them inline).

All worked-example targets are transcribed by hand from the source tables.
One is wrong: the printed Kodaira-Thurston closed form is not invariant under
equivalence of the input data, so no correct pipeline can reproduce it.  The
two criterion-4 tests marked paper_defect therefore assert the true closed
form (kt_scal_closed_form, pinned to the Fraction oracle of
tests/test_kt_oracle.py) and keep the non-invariance of the printed form as a
passing check; their docstrings carry the argument.  Every test must pass.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from ghl import geometry as geo
from ghl.fileio import build_report, bundled_path, load_ghl, serialize_report
from ghl.multilinear import MultiTensor, basis_vector, mat_vec, mat_zero
from ghl.scalars import ExactDomain, RationalFunction

from reference import from_bilinear, from_endo, istd, mat_identity, mat_is_zero, sectional_curvature

from test_geometry import (IWASAWA_A, IWASAWA_OMEGA, IWASAWA_S, koszul_oracle,
                           sparse_mat)
from test_kt_oracle import kt_data, kt_scal_closed_form, mv


def note(line: str) -> None:
    print(f"\n[acceptance] {line}")


def RF(name):
    return RationalFunction.param(name)


# ---------------------------------------------------------------------------
# 1. Iwasawa exact reproduction, symbolic t, < 1 s
# ---------------------------------------------------------------------------


def test_criterion_1_iwasawa_exact(iwasawa):
    spec = iwasawa.spec
    dom = spec.domain
    t = geo.symbolic_t()
    t0 = time.monotonic()
    tors = spec.tors
    S = spec.S
    A = geo.gauduchon_connection(spec, t)
    Om, _ = geo.gauduchon_curvature_torsion(spec, t)
    rho1, _, scal = geo.ricci_and_scalar(spec, Om)
    W = geo.rho2_matrix(spec, Om)
    elapsed = time.monotonic() - t0

    a = RF("alpha")
    want_F = {(0, 2, 4): -a, (0, 3, 5): -a, (1, 2, 5): -a, (1, 3, 4): a}
    assert set(tors.F.comp) == set(want_F)
    assert all(dom.eq(tors.F.comp[k], v) for k, v in want_F.items())

    for x, entries in IWASAWA_S.items():
        want = sparse_mat(6, entries, a / 2, dom)
        assert all(dom.eq(S[x][i][j], want[i][j]) for i in range(6) for j in range(6))
    coeff = a * (t - 1) / 2
    for x, entries in IWASAWA_A.items():
        want = sparse_mat(6, entries, coeff, dom)
        assert all(dom.eq(A[x][i][j], want[i][j]) for i in range(6) for j in range(6))
    assert mat_is_zero(A[4], dom) and mat_is_zero(A[5], dom)

    base = a ** 2 * (t - 1) ** 2
    nonzero_pairs = set(IWASAWA_OMEGA)
    for key in itertools.combinations(range(6), 2):
        M = Om[key[0]][key[1]]
        if key in nonzero_pairs:
            frac, entries = IWASAWA_OMEGA[key]
            want = sparse_mat(6, entries, base * frac, dom)
        else:
            want = mat_zero(6, dom)
        assert all(dom.eq(M[i][j], want[i][j]) for i in range(6) for j in range(6))

    assert rho1.is_zero(dom)
    want_W = sparse_mat(6, {(0, 1): -1, (1, 0): 1, (2, 3): -1, (3, 2): 1,
                            (4, 5): 2, (5, 4): -2}, base / 2, dom)
    assert all(dom.eq(W[i][j], want_W[i][j]) for i in range(6) for j in range(6))
    assert dom.is_zero(scal)
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    note(f"criterion 1 PASS (Iwasawa exact reproduction, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. Chern flatness at t = 1
# ---------------------------------------------------------------------------


def test_criterion_2_chern_flatness(iwasawa):
    spec = iwasawa.spec
    Om, _ = geo.gauduchon_curvature_torsion(spec, RationalFunction.const(1))
    assert all(mat_is_zero(M, spec.domain) for M in itertools.chain.from_iterable(Om))
    note("criterion 2 PASS (Iwasawa Chern connection flat)")


# ---------------------------------------------------------------------------
# 3. Kodaira surface, < 5 s
# ---------------------------------------------------------------------------


def test_criterion_3_kodaira(kodaira):
    spec = kodaira.spec
    dom = spec.domain
    t = geo.symbolic_t()
    t0 = time.monotonic()
    Om, _ = geo.gauduchon_curvature_torsion(spec, t)
    _, _, scal = geo.ricci_and_scalar(spec, Om)
    one = RationalFunction.const(1)
    A1 = geo.gauduchon_connection(spec, one)
    Om1, _ = geo.gauduchon_curvature_torsion(spec, one)
    W1 = geo.rho2_matrix(spec, Om1)
    elapsed = time.monotonic() - t0

    a, b, r, v = (RF(n) for n in ("alpha", "beta", "r", "v"))
    want_scal = -(t - 1) * (a ** 2 * r ** 2 + b ** 2 * r ** 2 + v ** 2) ** 3 / (r ** 4 * v ** 4)
    assert dom.eq(scal, want_scal)

    L1 = a ** 2 * r ** 2 + b ** 2 * r ** 2 + v ** 2
    L2 = a ** 2 * r ** 2 + b ** 2 * r ** 2 - v ** 2
    q12 = L1 ** 2 * L2 / (2 * r ** 4 * v ** 4)
    qa = L1 ** 2 * a / (r ** 3 * v ** 3)
    qb = L1 ** 2 * b / (r ** 3 * v ** 3)
    zero = RationalFunction.const(0)
    want_W1 = [[zero, -q12, -qa, -qb],
               [q12, zero, qb, -qa],
               [qa, -qb, zero, q12],
               [qb, qa, -q12, zero]]
    for i in range(4):
        for j in range(4):
            assert dom.eq(W1[i][j], want_W1[i][j])

    # the four printed Chern connection matrices
    K = ((a ** 2 - b ** 2) * r ** 2 - v ** 2) / (2 * r ** 2 * v)
    Kp = ((a ** 2 - b ** 2) * r ** 2 + v ** 2) / (2 * r ** 2 * v)
    Q = L1 / (2 * r * v ** 2)
    P = L2 / (2 * r * v ** 2)
    ab_v = a * b / v
    want_A = [
        [[zero, -a / r, K, ab_v], [a / r, zero, -ab_v, K],
         [-K, ab_v, zero, a / r], [-ab_v, -K, -a / r, zero]],
        [[zero, b / r, -ab_v, Kp], [-b / r, zero, -Kp, -ab_v],
         [ab_v, Kp, zero, -b / r], [-Kp, ab_v, b / r, zero]],
        [[zero, zero, Q * b, -Q * a], [zero, zero, Q * a, Q * b],
         [-Q * b, -Q * a, zero, zero], [Q * a, -Q * b, zero, zero]],
        [[zero, -(a ** 2 + b ** 2) / v, P * a, P * b],
         [(a ** 2 + b ** 2) / v, zero, -P * b, P * a],
         [-P * a, P * b, zero, (a ** 2 + b ** 2) / v],
         [-P * b, -P * a, -(a ** 2 + b ** 2) / v, zero]],
    ]
    for x in range(4):
        for i in range(4):
            for j in range(4):
                assert dom.eq(A1[x][i][j], want_A[x][i][j]), (x, i, j)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    note(f"criterion 3 PASS (Kodaira surface, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 4. Kodaira-Thurston
# ---------------------------------------------------------------------------


def _kt_printed_closed_form(rv, sv, xv, yv) -> Fraction:
    """The closed form as printed, -r^2/(r^2 s^2 - x^2 - y^2)^2; used only to
    show that it is not invariant."""
    r, s, x, y = (Fraction(v) for v in (rv, sv, xv, yv))
    return -r ** 2 / (r ** 4 * s ** 4 - 2 * r ** 2 * s ** 2 * x ** 2 + x ** 4
                      + y ** 4 - 2 * (r ** 2 * s ** 2 - x ** 2) * y ** 2)


def _phi_image(pt, c):
    """Parameters of the metric that phi_c: e1 -> e1/c, e3 -> e3/c pulls back
    to G(pt); phi_c is then a J-commuting isometric automorphism between them."""
    r, s, x, y = pt
    return (r, c * s, c * x, c * y)


def _kt_engine_scal(pt, tval) -> float:
    loaded = load_ghl(bundled_path("kodaira-thurston"),
                      sample=dict(zip(("r", "sigma", "x", "y"), map(Fraction, pt))))
    spec = loaded.spec
    Om, _ = geo.gauduchon_curvature_torsion(spec, spec.domain.from_fraction(tval))
    _, _, scal = geo.ricci_and_scalar(spec, Om)
    return scal


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _close(got, want) -> bool:
    return abs(got - want) <= 1e-9 * max(1.0, abs(got), abs(want))


def _admissible_points(count: int):
    rng = random.Random(20260810)
    pts = []
    while len(pts) < count:
        r = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        s = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        x = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        y = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        if r > 0 and s > 0 and r * r * s * s > x * x + y * y:
            pts.append((r, s, x, y))
    return pts


def test_criterion_4_kt_t_independence(kodaira_thurston, kt_exact):
    t0 = time.monotonic()
    # exact variant at the bundled sample point: no t in A symbolically
    A = geo.gauduchon_connection(kt_exact.spec, geo.symbolic_t())
    for M in A:
        for row in M:
            for x in row:
                if isinstance(x, RationalFunction):
                    assert "t" not in x.num.vars and "t" not in x.den.vars
    # numeric spec at its bundled samples: A and scal agree across t values
    for sample in ({"r": 1, "sigma": 2, "x": 0, "y": 0},
                   {"r": 1, "sigma": 1, "x": 0, "y": Fraction(1, 2)}):
        loaded = load_ghl(bundled_path("kodaira-thurston"),
                          sample={k: Fraction(v) for k, v in sample.items()})
        spec = loaded.spec
        dom = spec.domain
        vals = []
        for tv in (Fraction(0), Fraction(1), Fraction(7, 3)):
            t = dom.from_fraction(tv)
            A = geo.gauduchon_connection(spec, t)
            Om, _ = geo.gauduchon_curvature_torsion(spec, t)
            _, _, scal = geo.ricci_and_scalar(spec, Om)
            vals.append((A, scal))
        for (A1, s1), (A2, s2) in zip(vals, vals[1:]):
            assert abs(s1 - s2) < 1e-9
            for M1, M2 in zip(A1, A2):
                for r1, r2 in zip(M1, M2):
                    for x1, x2 in zip(r1, r2):
                        assert abs(x1 - x2) < 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0
    note(f"criterion 4 (t-independence subcheck) PASS ({elapsed:.2f}s)")


@pytest.mark.paper_defect
def test_criterion_4_kt_scal_matches_printed_closed_form():
    """Engine scal at t = 0 against the true closed form
    -(t - 1) sigma^2 x^2 / (r^2 sigma^2 - x^2 - y^2)^2 (kt_scal_closed_form,
    pinned exactly to the Fraction oracle in tests/test_kt_oracle.py).

    The name still cites the printed form -r^2/(r^2 s^2 - x^2 - y^2)^2
    because that is the target the source states.  The printed form is not
    the t-Gauduchon scalar curvature of (J, g), nor any invariant of it: the
    automorphism phi_2: e1 -> e1/2, e3 -> e3/2 commutes with J, preserves
    [e0,e1] = -e3 and is an isometry from G(pt) to G(r, 2s, 2x, 2y), yet the
    printed form differs between the two.  That finding is asserted here
    too: at every point the printed form changes under phi_2 while the
    engine's value does not."""
    failures = []
    for pt in _admissible_points(10):
        want = float(kt_scal_closed_form(pt, 0))
        got = _kt_engine_scal(pt, 0)
        if not _close(got, want):
            failures.append((tuple(map(str, pt)), got, want))
        image = _phi_image(pt, 2)
        assert _kt_printed_closed_form(*image) != _kt_printed_closed_form(*pt)
        assert _close(_kt_engine_scal(image, 0), got), (
            "engine scal changed under the J-commuting isometry phi_2")
    note(f"criterion 4 (closed-form subcheck) "
         f"{'FAIL' if failures else 'PASS'} at {10 - len(failures)}/10 points")
    assert not failures, (
        f"engine scal disagrees with the true closed form at {len(failures)}/10 "
        f"points; first (point, engine, closed form): {failures[0]}")


@pytest.mark.paper_defect
def test_criterion_4_kt_spot_value_minus_one_sixteenth(kodaira_thurston):
    """Spot check at r=1, sigma=2, x=y=0, t=1: the true scal is 0.

    The name still cites -1/16, the value the printed closed form gives
    there.  The printed form is not an invariant: phi_2: e1 -> e1/2,
    e3 -> e3/2 commutes with J, preserves the bracket and is an isometry from
    G(1,1,0,0) to G(1,2,0,0) (all checked exactly below), so any invariant
    takes one value on both metrics -- the engine does, the printed form
    gives -1 and -1/16."""
    base = (1, 1, 0, 0)
    spot = _phi_image(base, 2)
    assert kodaira_thurston.sample == dict(zip(("r", "sigma", "x", "y"), map(Fraction, spot)))
    G_base, J, lie = kt_data(*base)
    G_spot, _, _ = kt_data(*spot)
    h = Fraction(1, 2)
    phi = [[1, 0, 0, 0], [0, h, 0, 0], [0, 0, 1, 0], [0, 0, 0, h]]      # phi_2
    phi_T = [list(col) for col in zip(*phi)]
    assert _matmul(phi, J) == _matmul(J, phi)
    e = [[Fraction(1 if i == k else 0) for i in range(4)] for k in range(4)]
    for u, v in itertools.combinations(e, 2):
        assert mv(phi, lie(u, v)) == lie(mv(phi, u), mv(phi, v))
    assert _matmul(phi_T, _matmul(G_spot, phi)) == G_base

    want = kt_scal_closed_form(spot, 1)
    assert want == 0
    spec = kodaira_thurston.spec
    Om, _ = geo.gauduchon_curvature_torsion(spec, spec.domain.from_fraction(1))
    _, _, scal = geo.ricci_and_scalar(spec, Om)
    note(f"criterion 4 (spot subcheck): engine scal = {scal}, true value = {want}, "
         f"printed closed form = {_kt_printed_closed_form(*spot)}")
    assert abs(scal - float(want)) <= 1e-9
    assert _close(_kt_engine_scal(base, 1), scal)
    assert _kt_printed_closed_form(*spot) == Fraction(-1, 16)
    assert _kt_printed_closed_form(*base) == -1


# ---------------------------------------------------------------------------
# 5. theorem-backed property suites on all five bundled specs
# ---------------------------------------------------------------------------


def test_criterion_5_property_suites(all_bundled, s2_tuples):
    for name, loaded in all_bundled.items():
        spec = loaded.spec
        dom = spec.domain
        n2 = 2 * spec.m
        exact = dom.backend == "exact"
        t = geo.symbolic_t() if exact else dom.from_fraction(Fraction(2, 7))

        tors = geo.torsion_ingredients(spec)
        assert tors.F_plus.add(tors.F_minus, dom).sub(tors.F, dom).is_zero(dom), name

        S = geo.levi_civita(spec)
        A = geo.gauduchon_connection(spec, t)                   # asserts u(m)
        Om, T = geo.gauduchon_curvature_torsion(spec, t)
        geo.ricci_and_scalar(spec, Om)                          # asserts traces

        Jt = from_endo(istd(spec.m, dom), dom)
        gt = from_bilinear(mat_identity(n2, dom), dom)
        assert all(map(dom.is_zero, geo.covariant_derivative(spec, Jt, A, 1).comp.values())), name
        assert all(map(dom.is_zero, geo.covariant_derivative(spec, gt, A, 1).comp.values())), name
        assert all(map(dom.is_zero, geo.covariant_derivative(spec, gt, S, 1).comp.values())), name

        Rm = geo.riemann_curvature(spec)
        for a, b in itertools.combinations(range(n2), 2):
            for c, d in itertools.combinations(range(n2), 2):
                lhs = Rm[a][b][d][c]
                rhs = Rm[c][d][b][a]
                assert dom.is_zero(lhs - rhs), name
        e = [basis_vector(n2, i, dom) for i in range(n2)]
        for a, b, c in itertools.combinations(range(n2), 3):
            v1 = mat_vec(Rm[a][b], e[c])
            v2 = mat_vec(Rm[b][c], e[a])
            v3 = mat_vec(Rm[c][a], e[b])
            assert all(dom.is_zero(x + y + z) for x, y, z in zip(v1, v2, v3)), name

        # (X1) on s = 2 tuples: verify=True asserts (i),(ii),(vi),(vii),(viii)
        tup = s2_tuples[name]
        assert (len(tup.J_derivs), len(tup.Rm_derivs)) == (4, 3), name

        audit = geo.connection_audit(spec, t)
        assert audit.ok, name
        if audit.max_residual is not None:
            assert audit.max_residual < 1e-9, name

        theta = geo.lee_form(spec)
        for x in range(n2):
            acc = dom.zero()
            for b in range(n2):
                if b == x:
                    continue
                v = T[x][b]
                acc = acc + v[b]
            want = (t + 1) * theta[x] * dom.from_fraction(Fraction(1, 2))
            assert dom.is_zero(acc - want), name
    note("criterion 5 PASS (property suites on all five bundled specs)")


# ---------------------------------------------------------------------------
# 6. degenerate and oracle checks
# ---------------------------------------------------------------------------


def test_criterion_6_degenerate_and_oracles(abelian2, sphere, iwasawa):
    # abelian: everything vanishes, flags Kaehler
    spec = abelian2.spec
    dom = spec.domain
    t = geo.symbolic_t()
    S = geo.levi_civita(spec)
    A = geo.gauduchon_connection(spec, t)
    assert all(mat_is_zero(M, dom) for M in S + A)
    Om, T = geo.gauduchon_curvature_torsion(spec, t)
    assert all(mat_is_zero(M, dom) for M in itertools.chain.from_iterable(Om))
    assert all(all(dom.is_zero(x) for x in v) for v in itertools.chain.from_iterable(T))
    rho1, rho2, scal = geo.ricci_and_scalar(spec, Om)
    assert rho1.is_zero(dom) and rho2.is_zero(dom) and dom.is_zero(scal)
    Rm = geo.riemann_curvature(spec)
    assert all(mat_is_zero(M, dom) for M in itertools.chain.from_iterable(Rm))
    flags = geo.metric_flags(spec)
    assert flags == {"integrable": True, "almost_kahler": True, "balanced": True}

    # sphere: sec = 1, dim kill = 3 (engine solver vs hand-built null-space
    # oracle for the k=0 system, which is already the full system here)
    sdom = sphere.spec.domain
    sRm = geo.riemann_curvature(sphere.spec)
    X = basis_vector(2, 0, sdom)
    Y = basis_vector(2, 1, sdom)
    assert sectional_curvature(sphere.spec, sRm, X, Y) == 1
    res = geo.killing_generators(sphere.spec)
    assert res.dim == 3
    sympy = pytest.importorskip("sympy")
    # oracle: S = 0 so D^k J = D^k Rm = 0 for k >= 1; the system reduces to
    # A.J = 0 and A.Rm = 0 over (v, A) in R^2 + so(2); build rows directly.
    A01 = [[0, -1], [1, 0]]                 # so(2) generator
    J = [[0, -1], [1, 0]]
    rows = []
    # [A, J] = 0 rows (A = c*A01): commutator is zero
    comm = [[sum(A01[i][k] * J[k][j] - J[i][k] * A01[k][j] for k in range(2))
             for j in range(2)] for i in range(2)]
    for i in range(2):
        for j in range(2):
            rows.append([0, 0, comm[i][j]])
    # (A.Rm)(a,b) = [A, Rm(a,b)] - Rm(Aa,b) - Rm(a,Ab); Rm(e0,e1) = A01
    RmM = A01
    lie = [[sum(A01[i][k] * RmM[k][j] - RmM[i][k] * A01[k][j] for k in range(2))
            for j in range(2)] for i in range(2)]
    slot = [[-RmM[i][j] * 0 for j in range(2)] for i in range(2)]
    # Rm(Ae0, e1) + Rm(e0, Ae1) = Rm(e1,e1) + Rm(e0,-e0) = 0
    for i in range(2):
        for j in range(2):
            rows.append([0, 0, lie[i][j] - slot[i][j]])
    M = sympy.Matrix(rows)
    # every constraint row vanishes: the whole (v, A) space solves
    assert len(M.nullspace()) == res.dim == 3

    # Iwasawa at alpha = 1: engine Rm vs independent Koszul oracle
    inst = iwasawa.spec.instantiate({"alpha": 1})
    engine = geo.riemann_curvature(inst)
    oracle = koszul_oracle(inst)
    idom = inst.domain
    for a, b in oracle:
        assert all(idom.eq(engine[a][b][i][j], oracle[(a, b)][i][j])
                   for i in range(6) for j in range(6))
    note("criterion 6 PASS (degenerate cases and independent oracles)")


# ---------------------------------------------------------------------------
# 7. Singer / Killing structure on instantiated specs
# ---------------------------------------------------------------------------


def test_criterion_7_singer_killing(abelian2, sphere, iwasawa, kodaira, kt_exact):
    instantiated = {
        "abelian2": abelian2.spec,
        "sphere": sphere.spec,
        "iwasawa@1": iwasawa.spec.instantiate({"alpha": 1}),
        "kodaira@pt": kodaira.spec.instantiate(
            {"alpha": 1, "beta": 0, "r": 1, "v": 1}),
        "kt-exact": kt_exact.spec,
    }
    for name, spec in instantiated.items():
        m = spec.m
        sing = geo.singer_invariant(spec)
        assert sing.dims == sorted(sing.dims, reverse=True), name
        assert len(sing.dims) <= m * m + 2, name       # stabilized in m^2+1 steps
        assert sing.k_jg <= m * m - 1, name

        res = geo.killing_generators(spec)             # asserts closure+spanning
        Rm = geo.riemann_curvature(spec)
        dom = spec.domain
        n2 = 2 * m
        # exhaustive Jacobi over the computed basis
        for a, b, c in itertools.combinations(res.basis, 3):
            j1 = geo.nomizu_bracket(spec, a, geo.nomizu_bracket(spec, b, c, Rm), Rm)
            j2 = geo.nomizu_bracket(spec, b, geo.nomizu_bracket(spec, c, a, Rm), Rm)
            j3 = geo.nomizu_bracket(spec, c, geo.nomizu_bracket(spec, a, b, Rm), Rm)
            assert all(dom.is_zero(x + y + z)
                       for x, y, z in zip(j1[0], j2[0], j3[0])), name
            for r in range(n2):
                for cc in range(n2):
                    assert dom.is_zero(j1[1][r][cc] + j2[1][r][cc] + j3[1][r][cc]), name
    note("criterion 7 PASS (Singer chains and Killing algebras)")


# ---------------------------------------------------------------------------
# 8. parser round trip, bundled files, byte determinism
# ---------------------------------------------------------------------------


def test_criterion_8_parser_and_determinism(all_bundled):
    from test_exprparse import _random_ratfun
    from ghl.exprparse import parse_expression, to_scalar
    rng = random.Random(817263545)
    dom = ExactDomain(("alpha", "r", "t"))
    for _ in range(100):
        f = _random_ratfun(rng)
        back = to_scalar(parse_expression(f.text()), dom)
        assert back.eq(f)

    for name, loaded in all_bundled.items():
        assert loaded.report.ok, name
        assert loaded.report.integrable == (name != "kodaira-thurston"), name

    for name, loaded in all_bundled.items():
        fresh = load_ghl(bundled_path(name))
        b1 = serialize_report(build_report(loaded)).encode()
        b2 = serialize_report(build_report(fresh)).encode()
        assert b1 == b2, name
        assert b1 == bundled_path(f"{name}.expected.json").read_bytes(), name
    note("criterion 8 PASS (round trips, bundled files, determinism)")
