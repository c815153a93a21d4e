"""Non-integrable structures with nonvanishing F^- (possible only for m >= 3:
the (3,0)+(0,3) space is zero in real dimension 4), checked against an honest
first-principles oracle.

The oracle builds the Hermitian connection from scratch -- Koszul formula,
true Nijenhuis tensor, fundamental form, honest invariant-form differential
d phi(X,Y,Z) = -phi([X,Y],Z) + phi([X,Z],Y) - phi([Y,Z],X), d^c via
J-conjugation, +/- splitting -- sharing no code with the engine, and the
engine's connection matrices must equal its negative transpose convention.
"""

import itertools
from fractions import Fraction

import pytest

from ghl import geometry as geo
from ghl.multilinear import basis_vector, dot, mat_vec
from ghl.scalars import FractionDomain

from reference import N_vec, form_evaluate, istd, mu_m_vec

DOM = FractionDomain()

# fixed probe: 2-step nilpotent on R^6 with center span(e4,e5); its F^- has
# all eight independent components nonzero
PROBE_MU = {
    (0, 1): (0, -1), (0, 2): (1, -2), (0, 3): (-2, 2),
    (1, 2): (-2, 0), (1, 3): (2, -2), (2, 3): (2, -1),
}


def probe_spec():
    mu = {}
    for (a, b), (c4, c5) in PROBE_MU.items():
        vec = [Fraction(0)] * 6
        vec[4], vec[5] = Fraction(c4), Fraction(c5)
        mu[(a, b)] = vec
    return geo.BracketSpec(0, 3, mu, DOM, "probe6")


def random_two_step_specs(count, seed=7):
    import random
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        mu = {}
        for (a, b) in itertools.combinations(range(4), 2):
            vec = [Fraction(0)] * 6
            vec[4] = Fraction(rng.randint(-2, 2))
            vec[5] = Fraction(rng.randint(-2, 2))
            if any(vec):
                mu[(a, b)] = vec
        if not mu:
            continue
        out.append(geo.BracketSpec(0, 3, mu, DOM, f"rand6-{len(out)}"))
    return out


def test_probe_is_valid_and_has_fminus():
    spec = probe_spec()
    assert geo.validate(spec).ok
    assert not geo.validate(spec).integrable
    tors = geo.torsion_ingredients(spec)
    assert not tors.F_minus.is_zero(DOM)


def test_fminus_is_quarter_cyclic_nijenhuis():
    """F^-(X,Y,Z) = 1/4 (<N(X,Y),Z> + <N(Y,Z),X> + <N(Z,X),Y>) under the
    det-convention for form evaluation (no 1/k! factors)."""
    for spec in [probe_spec()] + random_two_step_specs(4):
        tors = geo.torsion_ingredients(spec)
        e = [basis_vector(6, i, DOM) for i in range(6)]
        quarter = Fraction(1, 4)
        for key in itertools.combinations(range(6), 3):
            X, Y, Z = (e[k] for k in key)
            cyc = (dot(N_vec(tors, spec, X, Y), Z)
                   + dot(N_vec(tors, spec, Y, Z), X)
                   + dot(N_vec(tors, spec, Z, X), Y))
            assert tors.F_minus.component(key, DOM) == quarter * cyc, key


def test_structural_invariants_hold_with_fminus():
    t = geo.symbolic_t()
    for spec in [probe_spec()] + random_two_step_specs(3):
        A = geo.gauduchon_connection(spec, t)              # asserts u(m)
        Om, _ = geo.gauduchon_curvature_torsion(spec, t)
        geo.ricci_and_scalar(spec, Om)                     # asserts traces
        assert geo.connection_audit(spec, t).ok
        geo.hermitian_s_tuple(spec, s=1, verify=True)


# ---------------------------------------------------------------------------
# honest first-principles oracle
# ---------------------------------------------------------------------------


def honest_connection_matrices(spec, tval: Fraction):
    """Hermitian-connection matrices built from scratch at a numeric t."""
    n = 6
    e = [basis_vector(n, i, DOM) for i in range(n)]
    J = istd(3, DOM)

    def memo(f):
        """f memoized on its vector arguments by identity: they are basis
        vectors and memoized results, so each value is computed once.  The
        cache keeps the arguments, so that no id is reused."""
        cache = {}

        def g(*vectors):
            key = tuple(map(id, vectors))
            if key not in cache:
                cache[key] = vectors, f(*vectors)
            return cache[key][1]
        return g

    @memo
    def lie(u, v):
        return mu_m_vec(spec, u, v)

    @memo
    def Jv(X):
        return mat_vec(J, X)

    def ip(u, v):
        return dot(u, v)

    # Koszul, identity metric
    D = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                D[a][c][b] = Fraction(1, 2) * (ip(lie(e[a], e[b]), e[c])
                                               - ip(lie(e[b], e[c]), e[a])
                                               + ip(lie(e[c], e[a]), e[b]))

    def N(X, Y):
        JX, JY = Jv(X), Jv(Y)
        v1 = lie(JX, JY)
        v2 = lie(X, Y)
        v3 = mat_vec(J, [x + y for x, y in zip(lie(JX, Y), lie(X, JY))])
        return [a - b - c for a, b, c in zip(v1, v2, v3)]

    def omega(X, Y):
        return ip(Jv(X), Y)

    def domega(X, Y, Z):
        return (-omega(lie(X, Y), Z) + omega(lie(X, Z), Y) - omega(lie(Y, Z), X))

    @memo
    def dc(X, Y, Z):
        return domega(Jv(X), Jv(Y), Jv(Z))

    def dc_minus(X, Y, Z):
        JX, JY, JZ = Jv(X), Jv(Y), Jv(Z)
        return Fraction(1, 4) * (dc(X, Y, Z) - dc(JX, JY, Z)
                                 - dc(JX, Y, JZ) - dc(X, JY, JZ))

    def dc_plus(X, Y, Z):
        return dc(X, Y, Z) - dc_minus(X, Y, Z)

    NB = []
    for a in range(n):
        M = [[Fraction(0)] * n for _ in range(n)]
        for b in range(n):
            Jb = Jv(e[b])
            for c in range(n):
                Jc = Jv(e[c])
                M[c][b] = (D[a][c][b]
                           - (tval + 1) / 4 * dc_plus(e[a], Jb, Jc)
                           - (tval - 1) / 4 * dc_plus(e[a], e[b], e[c])
                           - Fraction(1, 4) * ip(e[a], N(e[b], e[c]))
                           - Fraction(1, 2) * dc_minus(e[a], e[b], e[c]))
        NB.append(M)
    return NB


@pytest.mark.parametrize("tval", [Fraction(0), Fraction(1), Fraction(-1),
                                  Fraction(5, 3)])
def test_engine_connection_matches_honest_oracle(tval):
    spec = probe_spec()
    NB = honest_connection_matrices(spec, tval)
    # honest self-checks: nabla J = 0 and nabla g = 0 (matrix-level)
    J = istd(3, DOM)
    for a in range(6):
        for i in range(6):
            for j in range(6):
                comm = sum(NB[a][i][k] * J[k][j] - J[i][k] * NB[a][k][j]
                           for k in range(6))
                assert comm == 0
                assert NB[a][i][j] + NB[a][j][i] == 0
    A = geo.gauduchon_connection(spec, DOM.from_fraction(tval))
    for a in range(6):
        for i in range(6):
            for j in range(6):
                assert A[a][i][j] == -NB[a][i][j], (a, i, j)


# ---------------------------------------------------------------------------
# index form against the vector-argument definitions
# ---------------------------------------------------------------------------


def _exact_copy(spec):
    from ghl.scalars import ExactDomain, RationalFunction
    mu = {k: [RationalFunction.const(c) for c in v] for k, v in spec.mu_store.items()}
    return geo.BracketSpec(spec.q, spec.m, mu, ExactDomain(), spec.name + "|exact")


def _index_form_specs():
    from ghl.fileio import bundled_path, load_ghl
    points = {"abelian2": {}, "sphere": {}, "iwasawa": {"alpha": 2},
              "kodaira": {"alpha": 1, "beta": 2, "r": 3, "v": 1}}
    specs = []
    for name, point in points.items():
        spec = load_ghl(bundled_path(name)).spec          # ExactDomain, symbolic
        specs += [spec, spec.instantiate(point)]        # and FractionDomain
    randoms = [probe_spec()] + random_two_step_specs(4, seed=11)
    return specs + randoms + [_exact_copy(s) for s in randoms]


def _vector_torsion(spec):
    """N(e_a, e_b), F(e_a, e_b, e_c) and F^-(e_a, e_b, e_c) from the
    definitions, with I applied as a matrix to basis vectors."""
    dom = spec.domain
    n2 = 2 * spec.m
    I = istd(spec.m, dom)

    def mu(x, y):
        return mu_m_vec(spec, x, y)

    e = [basis_vector(n2, i, dom) for i in range(n2)]
    Ie = [mat_vec(I, v) for v in e]
    N = {}
    for a, b in itertools.combinations(range(n2), 2):
        lhs = [p - q for p, q in zip(mu(Ie[a], Ie[b]), mu(e[a], e[b]))]
        rhs = mat_vec(I, [p + q for p, q in zip(mu(Ie[a], e[b]), mu(e[a], Ie[b]))])
        N[(a, b)] = [p - q for p, q in zip(lhs, rhs)]
    F = {}
    for a, b, c in itertools.combinations(range(n2), 3):
        F[(a, b, c)] = (dot(mu(Ie[a], Ie[b]), e[c]) + dot(mu(Ie[b], Ie[c]), e[a])
                        + dot(mu(Ie[c], Ie[a]), e[b]))
    return N, F, e, Ie


def test_index_form_matches_vector_definitions():
    witnesses = []
    for spec in _index_form_specs():
        dom = spec.domain
        n2 = 2 * spec.m
        tors = geo.torsion_ingredients(spec)
        N, F, e, Ie = _vector_torsion(spec)
        zero = [dom.zero()] * n2
        for key, v in N.items():
            got = tors.N.get(key, zero)
            assert all(dom.eq(x, y) for x, y in zip(got, v)), (spec.name, key)
        quarter = dom.from_fraction(Fraction(1, 4))
        for key, f in F.items():
            assert dom.eq(tors.F.component(key, dom), f), (spec.name, key)
            X, Y, Z = (e[k] for k in key)
            IX, IY, IZ = (Ie[k] for k in key)
            fm = quarter * (form_evaluate(tors.F, [X, Y, Z], dom)
                            - form_evaluate(tors.F, [IX, IY, Z], dom)
                            - form_evaluate(tors.F, [IX, Y, IZ], dom)
                            - form_evaluate(tors.F, [X, IY, IZ], dom))
            assert dom.eq(tors.F_minus.component(key, dom), fm), (spec.name, key)
            assert dom.eq(tors.F_plus.component(key, dom), f - fm), (spec.name, key)
        # h5 reads the same N: its witness is the first pair with N != 0
        bad = [key for key, v in N.items() if any(not dom.is_zero(x) for x in v)]
        h5 = geo.validate(spec).condition("h5")
        assert h5.passed == (not bad), spec.name
        if bad:
            a, b = bad[0]
            assert h5.witness == f"integrability fails on (e{spec.q + a},e{spec.q + b})"
            witnesses.append((spec.name, h5.witness))
    assert ("probe6", "integrability fails on (e0,e2)") in witnesses
