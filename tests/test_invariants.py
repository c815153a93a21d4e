"""Theorem-backed property suites: parallelism contracts, curvature
symmetries, s-tuple identities, Singer filtrations, Killing algebras and the
Nomizu bracket."""

import collections
import copy
import dataclasses
import functools
import hashlib
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from ghl import geometry as geo
from ghl import multilinear
from ghl.fileio import BUNDLED, build_report, bundled_path, load_ghl
from ghl.multilinear import (MultiTensor, basis_vector, commutator,
                             derivation_action, pack, unpack,
                             mat_scale, mat_vec, mat_zero)
from ghl.scalars import (DEFAULT_DEGREE_CAP, DegreeGuardError, ExactDomain, FractionDomain,
                         Layout, Polynomial, RationalFunction, UsageError, set_degree_cap)

from reference import (canonical_part, clear_and_reduce, clear_every_value, curvature_dense,
                       derivation_action_loop, form_basis, from_bilinear, from_endo,
                       full_start_tensors, mat_identity, mat_is_zero, rescale, unfold)
from test_nonintegrable import honest_connection_matrices, random_two_step_specs


def spec_t(spec):
    if spec.domain.backend == "exact":
        return geo.symbolic_t()
    return spec.domain.from_fraction(Fraction(3, 5))


# ---------------------------------------------------------------------------
# structural invariants across all bundled specs
# ---------------------------------------------------------------------------


def test_A_in_unitary_algebra_all_specs(all_bundled):
    """Skewness and [A, I] = 0 are asserted inside gauduchon_connection; a
    failure raises InternalConsistencyError."""
    for name, loaded in all_bundled.items():
        geo.gauduchon_connection(loaded.spec, spec_t(loaded.spec))


@pytest.mark.parametrize("name, sample, t", [
    ("kodaira", None, None), ("kodaira", None, Fraction(1, 3)),
    ("kodaira", {"alpha": 2, "beta": 1, "r": Fraction(1, 2), "v": 5}, None),
    ("kodaira-thurston", {"r": 1, "sigma": 2, "x": Fraction(1, 3), "y": 0}, Fraction(3, 5))])
def test_unitarity_check_fails_on_a_perturbed_connection_term(name, sample, t):
    """A^t's u(m) check runs on every call, on the values A^t is built in:
    one entry S(e_x)_zy of a fresh spec moved (by den in its ring form, so by
    one in S; by one in the domain S of the numeric spec, whose form is
    dense) makes gauduchon_connection name A^t(e_x)'s broken skew symmetry,
    at symbolic and rational t."""
    spec = load_ghl(bundled_path(name), sample).spec
    t = geo.symbolic_t() if t is None else spec.domain.from_fraction(t)
    form = geo._ring_form(spec, t)
    if not form.dense:
        terms = form.terms                      # S's entries first, over den
        (key, _, v), *rest = terms[0]
        terms[0] = [(key, 0, geo._plus(v, form.den))] + rest
    else:
        S = copy.deepcopy(spec.S)
        key = next(i for i, x in enumerate(itertools.chain(*itertools.chain(*S))) if x)
        n2 = 2 * spec.m
        S[key // n2 ** 2][key // n2 % n2][key % n2] += 1
        spec.__dict__["S"] = S
    with pytest.raises(geo.InternalConsistencyError,
                       match=rf"A\^t\(e{key // (2 * spec.m) ** 2}\) is not skew-symmetric"):
        geo.gauduchon_connection(spec, t)


def test_omega_commutes_with_I_all_specs(all_bundled):
    for name, loaded in all_bundled.items():
        spec = loaded.spec
        dom = spec.domain
        Om, _ = geo.gauduchon_curvature_torsion(spec, spec_t(spec))
        for M in itertools.chain.from_iterable(Om):
            assert mat_is_zero(commutator(M, spec.I), dom), name


def test_curvature_pair_symmetry_and_bianchi_all_specs(all_bundled):
    for name, loaded in all_bundled.items():
        spec = loaded.spec
        dom = spec.domain
        n2 = 2 * spec.m
        Rm = geo.riemann_curvature(spec)
        e = [basis_vector(n2, i, dom) for i in range(n2)]
        for a, b in itertools.combinations(range(n2), 2):
            for c, d in itertools.combinations(range(n2), 2):
                lhs = Rm[a][b][d][c]
                rhs = Rm[c][d][b][a]
                assert dom.is_zero(lhs - rhs), (name, a, b, c, d)
        for a, b, c in itertools.combinations(range(n2), 3):
            v1 = mat_vec(Rm[a][b], e[c])
            v2 = mat_vec(Rm[b][c], e[a])
            v3 = mat_vec(Rm[c][a], e[b])
            assert all(dom.is_zero(x + y + z) for x, y, z in zip(v1, v2, v3)), name


def test_trace_consistency_all_specs(all_bundled):
    """2Tr(rho1) = 2Tr(rho2) is asserted inside ricci_and_scalar."""
    for name, loaded in all_bundled.items():
        spec = loaded.spec
        Om, _ = geo.gauduchon_curvature_torsion(spec, spec_t(spec))
        geo.ricci_and_scalar(spec, Om)


def test_fplus_plus_fminus_all_specs(all_bundled):
    for name, loaded in all_bundled.items():
        spec = loaded.spec
        dom = spec.domain
        tors = geo.torsion_ingredients(spec)
        assert tors.F_plus.add(tors.F_minus, dom).sub(tors.F, dom).is_zero(dom), name
        # F- = 0 iff N = 0 on the bundled examples
        n_zero = all(all(dom.is_zero(x) for x in v) for v in tors.N.values())
        assert tors.F_minus.is_zero(dom) == (n_zero or name == "kodaira-thurston"), name


def test_coboundary_squares_to_zero_all_specs(all_bundled):
    from ghl.multilinear import coboundary
    for name, loaded in all_bundled.items():
        spec = loaded.spec
        dom = spec.domain
        n = spec.n
        def mu(a, b):
            return spec.mu[a][b]
        for i in range(n):
            phi = form_basis(n, (i,), dom)
            dd = coboundary(mu, n, coboundary(mu, n, phi, dom), dom)
            assert dd.is_zero(dom), (name, i)


# ---------------------------------------------------------------------------
# covariant derivatives
# ---------------------------------------------------------------------------


def test_gauduchon_parallel_J_and_g_all_specs(all_bundled):
    for name, loaded in all_bundled.items():
        spec = loaded.spec
        dom = spec.domain
        A = geo.gauduchon_connection(spec, spec_t(spec))
        Jt = from_endo(spec.I, dom)
        gt = from_bilinear(mat_identity(2 * spec.m, dom), dom)
        assert all(map(dom.is_zero, geo.covariant_derivative(spec, Jt, A, 1).comp.values())), name
        assert all(map(dom.is_zero, geo.covariant_derivative(spec, gt, A, 1).comp.values())), name
        S = geo.levi_civita(spec)
        assert all(map(dom.is_zero, geo.covariant_derivative(spec, gt, S, 1).comp.values())), name


def test_iwasawa_DJ_is_minus_commutator(iwasawa):
    spec = iwasawa.spec
    dom = spec.domain
    S = geo.levi_civita(spec)
    Jt = from_endo(spec.I, dom)
    DJ = geo.covariant_derivative(spec, Jt, S, 1)
    some_nonzero = False
    for x in range(6):
        want = mat_scale(-dom.one(), commutator(S[x], spec.I))
        got = mat_zero(6, dom)
        for key, val in DJ.comp.items():
            if key[0] == x:
                got[key[1]][key[2]] = val
        assert all(dom.eq(got[i][j], want[i][j]) for i in range(6) for j in range(6))
        if not mat_is_zero(want, dom):
            some_nonzero = True
    assert some_nonzero


def test_derivation_route_matches_covariant_derivative(iwasawa):
    """e0 hook D^g J computed as the commutator [-S(e0), J] equals the
    covariant_derivative output (two independent evaluations of the same
    contract)."""
    spec = iwasawa.spec
    dom = spec.domain
    S = geo.levi_civita(spec)
    via_derivation = commutator(mat_scale(-dom.one(), S[0]), spec.I)
    Jt = from_endo(spec.I, dom)
    DJ = geo.covariant_derivative(spec, Jt, S, 1)
    for r in range(6):
        for c in range(6):
            assert dom.eq(via_derivation[r][c], DJ.get((0, r, c)))


# ---------------------------------------------------------------------------
# Hermitian s-tuples and (X1)
# ---------------------------------------------------------------------------


def test_s_tuple_abelian_all_zero(abelian2):
    tup = geo.hermitian_s_tuple(abelian2.spec, s=2)
    dom = abelian2.spec.domain
    assert all(all(map(dom.is_zero, T.comp.values())) for T in tup.J_derivs)
    assert all(all(map(dom.is_zero, T.comp.values())) for T in tup.Rm_derivs)


def test_s_tuple_sphere_symmetric_space(sphere):
    tup = geo.hermitian_s_tuple(sphere.spec, s=2)
    dom = sphere.spec.domain
    # S = 0: all covariant derivatives of Rm vanish, Rm itself does not
    assert not all(map(dom.is_zero, tup.Rm_derivs[0].comp.values()))
    assert all(map(dom.is_zero, tup.Rm_derivs[1].comp.values()))
    assert all(map(dom.is_zero, tup.Rm_derivs[2].comp.values()))


def test_s_tuple_identity_vii_independent_sides(iwasawa):
    """J^2(X1,X2) - J^2(X2,X1) = -R0(X1^X2).I, both sides built separately."""
    spec = iwasawa.spec
    dom = spec.domain
    tup = geo.hermitian_s_tuple(spec, s=1, verify=False)
    Rm = geo.riemann_curvature(spec)
    D2J = tup.J_derivs[1]
    checked = 0
    for x1, x2 in itertools.combinations(range(6), 2):
        R = Rm[x1][x2]
        rhs = mat_scale(-dom.one(), commutator(R, spec.I))
        for r in range(6):
            for c in range(6):
                lhs = D2J.get((x1, x2, r, c)) - D2J.get((x2, x1, r, c))
                assert dom.is_zero(lhs - rhs[r][c])
                checked += 1
    assert checked


def test_x1_identities_verified_all_specs(all_bundled, s2_tuples):
    """s2_tuples builds each tuple with verify=True, which raises on any
    (X1) failure."""
    for name in all_bundled:
        tup = s2_tuples[name]
        assert (len(tup.J_derivs), len(tup.Rm_derivs)) == (4, 3), name


# sha256 over "i key text" lines of the stored components of D^1J..D^4J, Rm,
# DRm, D^2Rm (i counts the tensors in that order, keys sorted); abelian2
# stores none, so its hash is that of no bytes
S2_TUPLE_SHA256 = {
    "abelian2": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "sphere": "91a153031a423a5ef774a3d215821df28ae98f1f93bc91743709100e20173998",
    "iwasawa": "e73b47de1f1acff176ddede9bc1475050ab02ca7a3acaa8ec8bfaed4b3b83a57",
    "kodaira": "73e17d459f2cc5de86b2b33fc71e918c20aa8d5ba1e100dafba6fcdc15061dee",
    "kodaira-thurston": "08472c78c2e351806aa2daecd4d41645bf9ef4a9e50f90e761996416e652cc94",
}


def _tuple_sha256(tup, dom) -> str:
    h = hashlib.sha256()
    for i, T in enumerate(tup.J_derivs + tup.Rm_derivs):
        for key in sorted(T.comp):
            h.update(f"{i} {key} {dom.text(T.comp[key])}\n".encode())
    return h.hexdigest()


def test_s2_tuple_text_pinned(all_bundled, s2_tuples):
    for name, loaded in all_bundled.items():
        assert _tuple_sha256(s2_tuples[name], loaded.spec.domain) == S2_TUPLE_SHA256[name], name


def _mixed_variable_spec():
    """A filiform bracket over Q(a, b, c) whose entries carry different
    variable sets, [e0,e1] = a e2 + bc e3, [e0,e2] = (a - c) e3 and
    [e1,e2] = b e3: its tuple mixes variable tuples, and some of its entries
    lose b."""
    dom = ExactDomain(("a", "b", "c"))
    a, b, c = (dom.param(x) for x in "abc")
    z = dom.zero()
    mu = {(0, 1): [z, z, a, b * c], (0, 2): [z, z, z, a - c], (1, 2): [z, z, z, b]}
    return geo.BracketSpec(0, 2, mu, dom, "mixed4", ("a", "b", "c"))


# the same digest of the s = 2 tuples of two generated Fraction specs in real
# dimension 6 and of `_mixed_variable_spec`
GENERATED_S2_TUPLE_SHA256 = {
    "rand6-0": "ae25c7dec7e7476b912fa49ce396d5a5b5cdbe1a0a1ac5a27ac4e813cda0e213",
    "rand6-1": "84f0f8bc238e9a358e70e2c6107c97730ea8699d5562c524e02c90e7ddcbffac",
    "mixed4": "777c2d88b8e2cff85995d9f3080d8a2d4db00757437fb1e9f49925e9a683b1fb",
}


def test_generated_s2_tuple_text_pinned():
    for spec in random_two_step_specs(2) + [_mixed_variable_spec()]:
        tup = geo.hermitian_s_tuple(spec, s=2, verify=True)
        assert _tuple_sha256(tup, spec.domain) == GENERATED_S2_TUPLE_SHA256[spec.name], spec.name


# ---------------------------------------------------------------------------
# Singer invariant
# ---------------------------------------------------------------------------


def test_singer_abelian(abelian2):
    res = geo.singer_invariant(abelian2.spec)
    assert res.dims[0] == 4          # all of u(2)
    assert res.k_jg == 0


def test_singer_sphere(sphere):
    res = geo.singer_invariant(sphere.spec)
    assert res.dims[0] == 1          # u(1)
    assert res.k_jg == 0


def test_singer_iwasawa_against_nullspace_oracle(iwasawa):
    sympy = pytest.importorskip("sympy")
    inst = iwasawa.spec.instantiate({"alpha": 1})
    res = geo.singer_invariant(inst)
    assert res.dims == sorted(res.dims, reverse=True)
    assert res.k_jg <= 9 - 1         # <= m^2 - 1
    # oracle for dim j(0): sympy nullspace of the stacked constraints
    dom = inst.domain
    U = geo.unitary_basis(inst.m, dom)
    S = geo.levi_civita(inst)
    Rm = geo.riemann_curvature(inst)
    Jt, Rmt = full_start_tensors(inst)
    tensors = [Rmt,
               geo.covariant_derivative(inst, Jt, S, 1),
               geo.covariant_derivative(inst, Jt, S, 2)]
    rows = []
    for T in tensors:
        acts = [derivation_action(B, T, dom) for B in U]
        keys = set()
        for a in acts:
            keys.update(a.comp.keys())
        for k in sorted(keys):
            rows.append([sympy.Rational(a.get(k)) for a in acts])
    M = sympy.Matrix(rows)
    assert res.dims[0] == len(M.nullspace())


def test_singer_requires_instantiation(iwasawa, kodaira_thurston):
    with pytest.raises(TypeError):
        geo.singer_invariant(iwasawa.spec)
    with pytest.raises(TypeError):
        geo.singer_invariant(kodaira_thurston.spec)


def test_singer_kt_exact(kt_exact):
    res = geo.singer_invariant(kt_exact.spec)
    assert res.dims == sorted(res.dims, reverse=True)
    assert len(res.dims) <= 2 * 2 + 1


# ---------------------------------------------------------------------------
# Killing generators and the Nomizu bracket
# ---------------------------------------------------------------------------


def test_killing_abelian_m1():
    dom = FractionDomain()
    spec = geo.BracketSpec(0, 1, {}, dom, "abelian1")
    res = geo.killing_generators(spec)
    assert res.dim == 2 * 1 + 1      # translations + u(1)


def test_killing_abelian_m2(abelian2):
    res = geo.killing_generators(abelian2.spec)
    assert res.dim == 2 * 2 + 4      # translations + u(2)


def test_killing_sphere(sphere):
    res = geo.killing_generators(sphere.spec)
    assert res.dim == 3


def test_killing_iwasawa(iwasawa):
    inst = iwasawa.spec.instantiate({"alpha": 1})
    res = geo.killing_generators(inst)
    assert res.dim >= 6
    # transitive + isotropy dimension from the Singer filtration
    sing = geo.singer_invariant(inst)
    assert res.dim == 6 + sing.dims[-1]


def test_killing_closure_and_jacobi(iwasawa):
    inst = iwasawa.spec.instantiate({"alpha": 1})
    res = geo.killing_generators(inst)
    Rm = geo.riemann_curvature(inst)
    dom = inst.domain
    n2 = 6

    def to_vec(pair):
        v, A = pair
        return list(v) + [A[r][c] for r in range(n2) for c in range(n2)]

    def bracket(a, b):
        return geo.nomizu_bracket(inst, a, b, Rm)

    # exhaustive Jacobi over the basis
    for a, b, c in itertools.combinations(res.basis, 3):
        j1 = bracket(a, bracket(b, c))
        j2 = bracket(b, bracket(c, a))
        j3 = bracket(c, bracket(a, b))
        total_v = [x + y + z for x, y, z in zip(j1[0], j2[0], j3[0])]
        assert all(dom.is_zero(x) for x in total_v)
        for r in range(n2):
            for cc in range(n2):
                assert dom.is_zero(j1[1][r][cc] + j2[1][r][cc] + j3[1][r][cc])


def test_nomizu_bracket_flat_and_sphere(abelian2, sphere):
    dom = abelian2.spec.domain
    n2 = 4
    v = [dom.from_fraction(x) for x in (1, 0, 2, 0)]
    w = [dom.from_fraction(x) for x in (0, 1, 0, -1)]
    A = mat_zero(n2, dom)
    A[0][1], A[1][0] = dom.from_fraction(-1), dom.from_fraction(1)
    B = mat_zero(n2, dom)
    Rm0 = geo.riemann_curvature(abelian2.spec)
    bv, bA = geo.nomizu_bracket(abelian2.spec, (v, A), (w, B), Rm0)
    assert [x for x in bv] == [x for x in mat_vec(A, w)]
    assert bA == commutator(A, B)    # Rm = 0
    # sphere: [(v,0),(w,0)] = (0, Rm(v,w))
    sdom = sphere.spec.domain
    Rm = geo.riemann_curvature(sphere.spec)
    sv = [sdom.from_fraction(1), sdom.from_fraction(0)]
    sw = [sdom.from_fraction(0), sdom.from_fraction(1)]
    Z = mat_zero(2, sdom)
    bv, bA = geo.nomizu_bracket(sphere.spec, (sv, Z), (sw, Z), Rm)
    assert all(sdom.is_zero(x) for x in bv)
    assert all(sdom.eq(bA[i][j], Rm[0][1][i][j]) for i in range(2) for j in range(2))


def test_killing_kt_exact_and_kodaira_point(kt_exact, kodaira):
    res = geo.killing_generators(kt_exact.spec)
    assert res.dim >= 4              # transitive
    inst = kodaira.spec.instantiate({"alpha": 1, "beta": 0, "r": 1, "v": 1})
    res2 = geo.killing_generators(inst)
    assert res2.dim >= 4


def test_killing_self_checks_fire(kodaira):
    """_check_killing rejects a basis whose v-parts miss a direction and one
    that the Nomizu bracket leads out of."""
    inst = kodaira.spec.instantiate({"alpha": 1, "beta": 0, "r": 1, "v": 1})
    res = geo.killing_generators(inst)
    assert res.dim == 5

    def without(i):
        basis = res.basis[:i] + res.basis[i + 1:]
        return geo.KillingResult(basis, len(basis), res.orders_used)

    with pytest.raises(geo.InternalConsistencyError, match="do not span"):
        geo._check_killing(inst, without(0))
    with pytest.raises(geo.InternalConsistencyError, match="not closed"):
        geo._check_killing(inst, without(2))


# ---------------------------------------------------------------------------
# Singer and Killing on Fractions, rows by the index action
# ---------------------------------------------------------------------------


def _fraction_specs(iwasawa, kodaira, abelian2, sphere):
    """Constant specs over Fractions, with unit and non-unit denominators."""
    specs = [iwasawa.spec.instantiate({"alpha": 1}),
             iwasawa.spec.instantiate({"alpha": Fraction(2, 3)}),
             kodaira.spec.instantiate({"alpha": 1, "beta": 0, "r": 1, "v": 1}),
             kodaira.spec.instantiate({"alpha": 2, "beta": 1, "r": Fraction(1, 2), "v": 5}),
             abelian2.spec.instantiate({}), sphere.spec.instantiate({})]
    specs += random_two_step_specs(3)
    return specs + [rescale(specs[3], c) for c in (2, Fraction(1, 2))]


def _non_monomial_spec():
    """The Heisenberg algebra plus a line over Q(alpha), [e0,e1] = e3/(alpha+1):
    its S has the non-monomial denominator alpha + 1."""
    dom = ExactDomain(("alpha",))
    one, zero = dom.one(), dom.zero()
    c = one / (dom.param("alpha") + one)
    mu = {(0, 1): [zero, zero, zero, c]}
    return geo.BracketSpec(0, 2, mu, dom, "nonmonomial", ("alpha",))


def _ring_value(layout, x):
    """A tower's den or ring value as the tests compare it: a packed one
    (`Layout`) as its Polynomial, any other as it is."""
    return layout.poly(x, {}) if type(x) is dict else x


def _ring_sum(a, b):
    """a + b of two tower values, packed ones term by term."""
    if type(a) is not dict:
        return a + b
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _reference_tower(spec, T, count):
    """T, DT, ... by iterated covariant_derivative over the spec's own domain,
    on a full tuple-keyed T (`reference.full_start_tensors`): no fold."""
    out = [T]
    while len(out) < count:
        out.append(geo.covariant_derivative(spec, out[-1], spec.S, 1))
    return out


def test_integer_tower_equals_fraction_tower(all_bundled, iwasawa, kodaira, abelian2, sphere):
    """Each `_tower` pair (den, ring) of the engine's J and Rm
    (`_towers`), ring's packed keys unpacked and den and its packed values
    as Polynomials (`_ring_value`), equals the canonical
    keys (r < c, and a < b for Rm) of the reduced pair
    (`reference.clear_and_reduce`) of iterated covariant_derivative of the
    full tensors over the spec's own domain, whose other keys are the
    mirrors of those, for J and Rm up to order 3: ints over an int den on the Fraction specs, Polynomials over a
    monomial on the symbolic ones, and den 1 over the domain values
    themselves where `_clear` leaves S as it is (numeric Kodaira-Thurston and
    a non-monomial denominator).  Symbolic kodaira stops at D Rm: its
    reference D^2Rm and D^3Rm take about 20 s and 140 s over
    RationalFunctions, and the s = 2 text pin covers D^2Rm."""
    nonmonomial = _non_monomial_spec()
    S = [a for M in nonmonomial.S for row in M for a in row]
    assert geo._clear(S)[1] is S
    fraction_specs = _fraction_specs(iwasawa, kodaira, abelian2, sphere)
    domain_specs = [all_bundled["kodaira-thurston"].spec, nonmonomial]
    specs = [loaded.spec for loaded in all_bundled.values()] + [nonmonomial] + fraction_specs
    for spec in specs:
        counts = (4, 2 if spec is kodaira.spec else 4)
        layout, *towers = geo._towers(spec)
        for tower, full, count in zip(towers, full_start_tensors(spec), counts):
            ref = _reference_tower(spec, full, count)
            pairs = list(itertools.islice(tower, count))
            T = pairs[0][1]                     # D^0T: the rank and skew of the start
            for k, (den, packed) in enumerate(pairs):
                where, got, den = (spec.name, T.rank, k), packed.unpacked(), _ring_value(layout, den)
                got.comp = {key: _ring_value(layout, x) for key, x in got.comp.items()}
                want_den, want = clear_and_reduce(ref[k])
                canonical = canonical_part(want.comp, T.skew)
                assert den == want_den and got.comp == canonical, where
                assert unfold(canonical, T.skew) == want.comp, where
                if spec in domain_specs:
                    assert den == 1 and got.comp == canonical_part(ref[k].comp, T.skew), where
                if spec in fraction_specs:
                    assert type(den) is int, where
                    assert all(type(x) is int for x in got.comp.values()), where


def test_clear_skipping_zeros_equals_clearing_every_value(kodaira):
    """`_clear` leaves zero values out of the variable names, the top
    exponent and the lcm, and maps them all to one zero ring value; den and
    every ring value are == to clearing every value
    (`reference.clear_every_value`): on kodaira's A^t at symbolic t with its
    bracket table (as `_curvature` clears them), on zeros alone (one with an
    unused variable left in) and on a zero-heavy mix of Fractions and
    rational functions, the packed den and ring values as Polynomials."""
    spec = kodaira.spec
    At = geo.gauduchon_connection(spec, geo.symbolic_t())
    table = [a for M in [*At, *spec.mu] for row in M for a in row]
    zero = RationalFunction.const(0)
    a, t = RationalFunction.param("alpha"), RationalFunction.param("t")
    mixed = [zero, Fraction(0), a / (t ** 2 * 6), zero, Fraction(-3, 4), zero,
             t * a / (a * 4), Fraction(0), zero, (a + t) / (a ** 3 * 10)]
    zeros = [zero, Fraction(0), RationalFunction(Polynomial(("t",), {}))]
    for values in (table, zeros, mixed):
        den, ring, layout = geo._clear(values)
        want_den, want = clear_every_value(values)
        assert layout.poly(den, {}) == want_den and len(ring) == len(want)
        assert all(layout.poly(x, {}) == y for x, y in zip(ring, want))
        assert len({id(x) for x, v in zip(ring, values) if FractionDomain.is_zero(v)}) == 1
    assert 0 < sum(map(FractionDomain.is_zero, table)) < len(table)


def test_s2_tuples_evaluate_to_fractions(all_bundled, s2_tuples):
    """The ring arithmetic behind the tuples runs on int coefficients, and no
    value built from it may evaluate to a float (int / int): every exact
    value evaluates to a Fraction at a sample point, and every constant one
    gives a Fraction from as_fraction."""
    seen = 0
    for name, loaded in all_bundled.items():
        point = {p: Fraction(2 * i + 3, i + 2) for i, p in enumerate(loaded.spec.params)}
        tup = s2_tuples[name]
        for T in tup.J_derivs + tup.Rm_derivs:
            for v in T.comp.values():
                if isinstance(v, RationalFunction):
                    seen += 1
                    assert type(v.evaluate(point)) is Fraction, name
                    if v.is_constant():
                        assert type(v.as_fraction()) is Fraction, name
    assert seen


def _polynomials(x) -> list:
    """The Polynomials inside a scalar value or a `_tower` den or ring value
    (`_ring_value`)."""
    if isinstance(x, Polynomial):
        return [x]
    if isinstance(x, RationalFunction):
        return [x.num, x.den]
    return []


def test_every_polynomial_has_int_coefficients(s2_tuples, monkeypatch):
    """Int is the one Polynomial coefficient type on the engine's paths:
    every Polynomial built while the five bundled reports are loaded and
    built at symbolic t, and every one inside the values and `_tower` pairs
    of the kodaira and iwasawa s = 2 tuples, has int coefficients."""
    built, init = [], Polynomial.__init__

    def recording_init(self, variables, terms):
        init(self, variables, terms)
        built.append(self)

    monkeypatch.setattr(Polynomial, "__init__", recording_init)
    for name in BUNDLED:
        build_report(load_ghl(bundled_path(name)))
    monkeypatch.undo()
    for name in ("kodaira", "iwasawa"):
        tup = s2_tuples[name]
        for T in tup.J_derivs + tup.Rm_derivs:
            built += [p for v in T.comp.values() for p in _polynomials(v)]
        for den, ring in tup.J_pairs + tup.Rm_pairs:
            built += [p for v in (den, *ring.comp.values())
                      for p in _polynomials(_ring_value(tup.layout, v))]
    coeffs = [c for p in built for c in p.terms.values()]
    assert coeffs and all(type(c) is int for c in coeffs)


def test_x1_check_fails_on_a_perturbed_entry(all_bundled, s2_tuples, kodaira):
    """One held entry of D^2J, D^3J or D^2Rm moved by one (den added to the
    ring value at the packed (0, 1, 0, ...), a diagonal End key the tower
    never stores, or at the canonical (0, 1, 0, ..., 0, 1), (0, 1, 0, 1) for
    D^2J and (0, 1, 0, 1, 0, 1) for D^2Rm) breaks (vii), (viii) or (vi):
    symbolic, over Fractions, numeric, and with a non-monomial denominator,
    where the tower holds the spec's own domain values over den 1."""
    inst = kodaira.spec.instantiate({"alpha": 1, "beta": Fraction(1, 2), "r": 2, "v": 3})
    nonmonomial = _non_monomial_spec()
    cases = [(kodaira.spec, s2_tuples["kodaira"]),
             (inst, geo.hermitian_s_tuple(inst, s=2, verify=True)),
             (all_bundled["kodaira-thurston"].spec, s2_tuples["kodaira-thurston"]),
             (nonmonomial, geo.hermitian_s_tuple(nonmonomial, s=2, verify=True))]
    for spec, tup in cases:
        for field, index, label in (("J_pairs", 2, "vii"), ("J_pairs", 3, "viii"),
                                    ("Rm_pairs", 2, "vi")):
            den, T = getattr(tup, field)[index]
            for key in ((0, 1) + (0,) * (T.rank - 2 + 2 * T.has_endo),
                        (0, 1) + (0,) * (T.rank - 2 * T.skew) + (0, 1) * T.skew):
                pairs = list(getattr(tup, field))
                key = pack(key, T.n)
                comp = dict(T.comp)
                comp[key] = _ring_sum(T.get(key), den)
                pairs[index] = den, MultiTensor(T.n, T.rank, T.has_endo, T._zero, comp, T.skew)
                bad = dataclasses.replace(tup, **{field: pairs})
                with pytest.raises(geo.InternalConsistencyError, match=f"identity {label} fails"):
                    geo.check_x1_identities(spec, bad)


def test_x1_check_is_one_kernel_call_per_identity(kodaira, monkeypatch):
    """Inside check_x1_identities on the kodaira s = 1 and s = 2 tuples
    nothing is cleared again and no derivation_action runs: each instance of
    (vii), (viii) and (vi) is one scatter_products call, 2 for s = 1 and 4
    for s = 2."""
    calls, inside = collections.Counter(), []

    def counting(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += bool(inside)
            return f(*args, **kwargs)
        return wrapper

    def checking(*args, **kwargs):
        inside.append(True)
        try:
            return check(*args, **kwargs)
        finally:
            inside.pop()

    check = geo.check_x1_identities
    monkeypatch.setattr(geo, "check_x1_identities", checking)
    monkeypatch.setattr(geo, "_clear", counting("_clear", geo._clear))
    monkeypatch.setattr(geo, "scatter_products", counting("kernel", geo.scatter_products))
    for module in (multilinear, geo):
        if hasattr(module, "derivation_action"):
            monkeypatch.setattr(module, "derivation_action",
                                counting("derivation_action", module.derivation_action))
    for s, kernel in ((1, 2), (2, 4)):
        calls.clear()
        geo.hermitian_s_tuple(kodaira.spec, s=s, verify=True)
        assert (calls["_clear"], calls["derivation_action"], calls["kernel"]) == (0, 0, kernel), s


# the skew and pair-symmetric (e^0^e^1) (x) (e^2^e^3) + (e^2^e^3) (x) (e^0^e^1)
# as moves (a, b, i, j, by) of Rm[a][b][i][j]: it fails the first Bianchi identity
BIANCHI_BREAKER = [(0, 1, 3, 2, 1), (0, 1, 2, 3, -1), (1, 0, 3, 2, -1), (1, 0, 2, 3, 1),
                   (2, 3, 1, 0, 1), (2, 3, 0, 1, -1), (3, 2, 1, 0, -1), (3, 2, 0, 1, 1)]


@pytest.mark.parametrize("moves, label", [
    ([(0, 1, 3, 2, 1)], r"pair symmetry fails on \(0,1,2,3\)"),
    (BIANCHI_BREAKER, r"first Bianchi fails on \(0,1,2\)")])
def test_x1_curvature_checks_fail_on_a_perturbed_rm(kodaira, moves, label):
    """X1's checks of Rm itself fail where a test sees them and name the
    indices: one entry <Rm(e0,e1)e2, e3> moved by one breaks the pair
    symmetry at (0,1,2,3), and a skew, pair-symmetric move
    (`BIANCHI_BREAKER`) keeps it and breaks the first Bianchi identity at
    (0,1,2)."""
    spec = kodaira.spec.instantiate({"alpha": 1, "beta": 0, "r": 1, "v": 1})
    tup = geo.hermitian_s_tuple(spec, s=0, verify=True)
    with pytest.raises(geo.InternalConsistencyError, match=label):
        geo.check_x1_identities(_rm_moved(spec, moves), tup)


def _rm_moved(spec, moves):
    """spec with the undivided Rm of its ring form (`_RingForm.Rm`, held at
    a < b) replaced by a moved copy: each move (a, b, i, j, by) adds by
    times the form's Rm den to the sum at Rm(e_a, e_b)[i][j], and a move at
    a > b goes onto (b, a, i, j) with by negated, as Rm(e_b, e_a) =
    -Rm(e_a, e_b).  A move and its mirror so add up to twice the move at
    a < b."""
    form, n2 = geo._ring_form(spec), 2 * spec.m
    den, sums = form.Rm
    sums = dict(sums)
    for a, b, i, j, by in moves:
        if a > b:
            a, b, by = b, a, -by
        key = ((a * n2 + b) * n2 + i) * n2 + j
        sums[key] = sums.get(key, 0) + by * den
        if not sums[key]:
            del sums[key]
    form.__dict__["Rm"] = den, sums
    return spec


def test_tower_values_are_packed_once_per_s_tuple(monkeypatch):
    """On a fresh spec (its Rm built first), an s-tuple packs nothing
    (`Layout.pack`): S, the bracket table and Rm's sums are already the
    spec's ring form's (`_towers`), J's start is the ring's -1, and nothing
    is packed in the tower steps, the X1 check or a second tuple; every
    factor the scatter kernel sees is packed, none a Polynomial."""
    spec, packs, factors = load_ghl(bundled_path("kodaira")).spec, [], []
    spec.Rm                                     # build the spec's own data first
    pack, kernel = Layout.pack, geo.scatter_products

    def counting(self, p, *args):
        packs.append(p)
        return pack(self, p, *args)

    def recording(runs, *args):
        runs = list(runs)
        factors.extend(type(x) for _, _, _, c, entries in runs for x in (c, *(a for *_, a in entries)))
        return kernel(runs, *args)

    monkeypatch.setattr(Layout, "pack", counting)
    monkeypatch.setattr(geo, "scatter_products", recording)
    for s in (1, 2):
        geo.hermitian_s_tuple(spec, s=s, verify=True)
        assert packs == [], s
    assert factors and set(factors) == {dict}


def test_only_printing_builds_the_divided_rm():
    """Singer and Killing on a fresh Fraction spec and an s-tuple with its
    X1 check on a fresh symbolic spec read the ring form's undivided Rm
    (`_RingForm.Rm`) and leave the divided table `spec.Rm` unbuilt;
    `build_report`, which prints it, builds it."""
    runs = [(geo.singer_invariant, "iwasawa", {"alpha": 1}),
            (geo.killing_generators, "iwasawa", {"alpha": 1}),
            (lambda spec: geo.hermitian_s_tuple(spec, s=1, verify=True), "kodaira", None)]
    for run, name, sample in runs:
        spec = load_ghl(bundled_path(name), sample).spec
        run(spec)
        assert "Rm" not in spec.__dict__, name
    loaded = load_ghl(bundled_path("kodaira"))
    build_report(loaded)
    assert "Rm" in loaded.spec.__dict__


def _skew_broken(spec, table: str, where: tuple):
    """spec with the entry `where` of its cached S, or of its ring form's
    undivided Rm (`_rm_moved`), moved by one, in a copy."""
    if table == "Rm":
        return _rm_moved(spec, [(*where, 1)])
    broken = copy.deepcopy(getattr(spec, table))
    *outer, i, j = where
    M = functools.reduce(operator.getitem, outer, broken)
    M[i][j] = M[i][j] + spec.domain.one()
    spec.__dict__[table] = broken
    return spec


@pytest.mark.parametrize("table, where, label", [
    ("S", (0, 0, 1), r"S\(e0\) is not skew-symmetric at \(0,1\)"),
    ("S", (3, 2, 2), r"S\(e3\) is not skew-symmetric at \(2,2\)"),
    ("Rm", (0, 1, 3, 2), r"Rm\(e0,e1\) is not skew-symmetric at \(2,3\)")])
def test_skew_self_check_names_the_entry(kodaira, table, where, label):
    """Every tower path (the s-tuple, Singer and Killing) first asserts that
    each S(e_x) and each Rm(e_a, e_b) is skew, the premise of its canonical
    keys, and names the matrix and the entry that breaks it."""
    point = {"alpha": 1, "beta": 0, "r": 1, "v": 1}
    for run in (lambda spec: geo.hermitian_s_tuple(spec, s=0, verify=False),
                geo.singer_invariant, geo.killing_generators):
        spec = _skew_broken(kodaira.spec.instantiate(point), table, where)
        with pytest.raises(geo.InternalConsistencyError, match="skew self-check: " + label):
            run(spec)


def test_canonical_keys_cut_kernel_entries_and_rows(monkeypatch):
    """The towers store only canonical keys: one kodaira s = 2 tuple (its Rm
    built too) feeds the scatter kernel 19,212 entries, against 62,328 with
    every mirror stored.  Singer and Killing act only with the kernel left
    before each batch (`_Echelon.kernel`): on iwasawa alpha = 1 Singer acts
    with 9, then 4 matrices per batch (one per free column) and feeds
    `_Echelon.add` 72 rows (2,524 with the full u(m) basis at every batch),
    and Killing with 15, 11, 11, 10, 10, 10 matrices (the generators with a
    nonzero so(2m) part; 15 each with the full basis) and 193 rows, its
    closure check's included (7,309)."""
    entries, rows, gens = [], [], []
    kernel, add, act = geo.scatter_products, geo._Echelon.add, geo._add_index_action

    def counting(runs, *args):
        runs = list(runs)
        entries.extend(len(run[4]) for run in runs)
        return kernel(runs, *args)

    def counting_add(self, row):
        rows.append(1)
        return add(self, row)

    def counting_act(rows, acting, *args):
        gens.append(len({col for col, _ in acting}))        # one matrix per free column
        return act(rows, acting, *args)

    kodaira = load_ghl(bundled_path("kodaira")).spec
    iwasawa = load_ghl(bundled_path("iwasawa"), {"alpha": 1}).spec
    monkeypatch.setattr(geo, "scatter_products", counting)
    monkeypatch.setattr(geo._Echelon, "add", counting_add)
    monkeypatch.setattr(geo, "_add_index_action", counting_act)
    geo.hermitian_s_tuple(kodaira, s=2, verify=False)
    assert sum(entries) <= 24_000
    geo.singer_invariant(iwasawa)
    assert len(rows) <= 100 and gens == [9, 4, 4, 4, 4]
    rows.clear()
    gens.clear()
    geo.killing_generators(iwasawa)
    assert len(rows) <= 300 and gens == [15, 11, 11, 10, 10, 10]


def test_degree_cap_still_guards_the_s_tuple(kodaira, s2_tuples):
    """The kodaira s = 2 tuple builds at the default cap (s2_tuples); at cap 4
    the ring arithmetic still trips the guard.  With its X1 check the s = 1
    tuple needs cap 18 and the s = 2 tuple cap 24, no more than their towers."""
    assert len(s2_tuples["kodaira"].J_derivs) == 4
    try:
        for s, cap, builds in ((2, 4, False), (1, 17, False), (1, 18, True), (2, 24, True)):
            set_degree_cap(cap)
            if builds:
                geo.hermitian_s_tuple(kodaira.spec, s=s, verify=True)
                continue
            with pytest.raises(DegreeGuardError):
                geo.hermitian_s_tuple(kodaira.spec, s=s, verify=True)
    finally:
        set_degree_cap(DEFAULT_DEGREE_CAP)


def test_degree_cap_guards_the_curvature_brackets():
    """The scatter kernel's per-run cap check covers the brackets of
    `_curvature` as Polynomial.__mul__ did: on fresh kodaira specs, Rm from
    the symbolic S needs cap 12 and Omega^t at symbolic t cap 14, and one
    below each raises."""
    t = geo.symbolic_t()
    try:
        for build, cap in ((geo.riemann_curvature, 12),
                           (lambda spec: geo.gauduchon_curvature_torsion(spec, t), 14)):
            spec = load_ghl(bundled_path("kodaira")).spec
            set_degree_cap(cap - 1)
            with pytest.raises(DegreeGuardError):
                build(spec)
            set_degree_cap(cap)
            build(spec)
    finally:
        set_degree_cap(DEFAULT_DEGREE_CAP)


def test_curvature_sums_without_polynomial_products(monkeypatch):
    """Once a spec's own data (its bracket table, S, N and F) are built, Rm,
    A^t, Omega^t and T^t at symbolic t and the connection audit run on
    packed values (`Layout`) from the ring form (`_ring_form`) through the
    scatter kernel, den * den (`Layout.times`) and the divided read: on
    kodaira they make no Polynomial or RationalFunction __mul__ or __sub__
    call."""
    spec = load_ghl(bundled_path("kodaira")).spec
    spec.mu, spec.S, spec.tors                  # build the spec's own data first
    t = geo.symbolic_t()
    calls = []
    for cls, name in itertools.product((Polynomial, RationalFunction), ("__mul__", "__sub__")):
        def counting(self, other, _f=getattr(cls, name), _name=f"{cls.__name__}.{name}"):
            calls.append(_name)
            return _f(self, other)
        monkeypatch.setattr(cls, name, counting)
    geo.riemann_curvature(spec)
    geo.gauduchon_connection(spec, t)
    geo.gauduchon_curvature_torsion(spec, t)
    assert geo.connection_audit(spec, t).ok
    monkeypatch.undo()
    assert calls == []


def test_tower_step_sums_without_polynomial_products(kodaira, monkeypatch):
    """A `_tower` step on kodaira's symbolic Rm runs on packed values
    (`Layout`) from the kernel's sums through den * dS to `_reduce`'s
    quotients: it makes no Polynomial.__mul__ call and builds no
    Polynomial."""
    spec = kodaira.spec
    tower = geo._towers(spec)[2]
    next(tower)
    products, built = [], []
    init, mul = Polynomial.__init__, Polynomial.__mul__

    def counting_init(self, variables, terms):
        built.append(1)
        init(self, variables, terms)

    def counting_mul(self, other):
        products.append((len(self.terms), len(other.terms)))
        return mul(self, other)

    for _ in range(2):                      # Rm -> D Rm (reduced), D Rm -> D^2 Rm
        products.clear()
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Polynomial, "__init__", counting_init)
            patch.setattr(Polynomial, "__mul__", counting_mul)
            _, ring = next(tower)
        assert products == []
        assert len(ring.comp) > 100 and built == []


def test_s_tuple_runs_the_x1_check_once(iwasawa, monkeypatch):
    """hermitian_s_tuple(verify=True) checks its tuple through the public
    check_x1_identities, once; verify=False skips it."""
    calls = []
    check = geo.check_x1_identities

    def counting(spec, tup):
        calls.append(tup)
        return check(spec, tup)

    monkeypatch.setattr(geo, "check_x1_identities", counting)
    tup = geo.hermitian_s_tuple(iwasawa.spec, s=2, verify=True)
    assert calls == [tup]
    geo.hermitian_s_tuple(iwasawa.spec, s=1, verify=False)
    assert len(calls) == 1


def test_curvature_equals_dense_formula(all_bundled):
    """Rm and Omega^t (`_curvature`) equal the dense domain formula entry by
    entry, Omega^t at t in {-1, 0, 1} and at symbolic t: on the bundled
    specs (sphere has q > 0), generated Fraction specs, a spec whose
    denominator alpha + 1 `_clear` leaves as it is, and a second numeric
    Kodaira-Thurston point.  The ring sums (`_ring_form`) run on every exact
    spec but that one, a Fraction spec at symbolic t included."""
    nonmonomial = _non_monomial_spec()
    kt = load_ghl(bundled_path("kodaira-thurston"),
                  sample={"r": 1, "sigma": 2, "x": Fraction(1, 3), "y": Fraction(-1, 5)})
    specs = ([loaded.spec for loaded in all_bundled.values()] + random_two_step_specs(3)
             + [nonmonomial, kt.spec])
    for spec in specs:
        dom = spec.domain
        ts = [dom.from_fraction(t) for t in (-1, 0, 1)]
        if dom.backend == "exact":
            ts.append(geo.symbolic_t())
        cases = [(None, spec.S, geo.riemann_curvature(spec))]
        cases += [(t, geo.gauduchon_connection(spec, t),
                   geo.gauduchon_curvature_torsion(spec, t)[0]) for t in ts]
        for t, C, got in cases:
            ring = not geo._ring_form(spec, t).dense
            assert ring == (dom.backend == "exact" and spec is not nonmonomial), spec.name
            want = curvature_dense(spec, C)
            assert all(dom.eq(got[a][b][i][j], want[a][b][i][j])
                       for a, b, i, j in itertools.product(range(2 * spec.m), repeat=4)), spec.name


def _symbolic_two_step_specs(count: int, seed: int = 11) -> list:
    """Two-step nilpotent m = 3 specs over Q(a, b), each bracket [e_i, e_j],
    i < j < 4, in span(e4, e5) with coefficients drawn from rational
    functions with monomial denominators: every draw is a valid bracket
    (e4 and e5 are central, so Jacobi holds, and q = 0)."""
    rng = random.Random(seed)
    dom = ExactDomain(("a", "b"))
    a, b, one, zero = dom.param("a"), dom.param("b"), dom.one(), dom.zero()
    pool = [zero, zero, one, -2 * one, a, -a, a * b, one / a, b / (a * a), (a + b) / (b * 3)]
    specs = []
    for k in range(count):
        mu = {(i, j): [zero] * 4 + [rng.choice(pool), rng.choice(pool)]
              for i, j in itertools.combinations(range(4), 2)}
        specs.append(geo.BracketSpec(0, 3, mu, dom, f"two-step-ab-{k}", ("a", "b")))
    return specs


SPECIALISED_T = (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1))


def test_specialisation_commutes_for_the_report_pipeline(iwasawa, kodaira):
    """A^t, Omega^t, T^t, scal and the Lee form built over Q(params, t) at
    symbolic t (packed polynomial ring values) and evaluated at three
    rational points and t in {-1, 0, 1/3, 1} equal those built on
    spec.instantiate(point) at that t (int ring values): on iwasawa, kodaira
    and seeded two-step specs over Q(a, b).  On the m = 3 specs, at the
    first point, the evaluated A^t is also the negative of
    `honest_connection_matrices`, the connection built from the Koszul
    formula and the brackets alone."""
    rng = random.Random(20261020)
    specs = [iwasawa.spec, kodaira.spec] + _symbolic_two_step_specs(2)
    for spec in specs:
        n2, t = 2 * spec.m, geo.symbolic_t()
        A = geo.gauduchon_connection(spec, t)
        Om, T = geo.gauduchon_curvature_torsion(spec, t)
        scal, theta = geo.ricci_and_scalar(spec, Om)[2], geo.lee_form(spec)
        for k in range(3):
            point = {p: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
                     for p in spec.params}
            inst = spec.instantiate(point)
            inst_theta = geo.lee_form(inst)
            assert [x.evaluate(point) for x in theta] == inst_theta, spec.name
            for tv in SPECIALISED_T:
                at = dict(point, t=tv)
                Ai = geo.gauduchon_connection(inst, tv)
                Omi, Ti = geo.gauduchon_curvature_torsion(inst, tv)
                where = (spec.name, point, tv)
                assert all(A[x][i][j].evaluate(at) == Ai[x][i][j]
                           for x, i, j in itertools.product(range(n2), repeat=3)), where
                pairs = list(itertools.combinations(range(n2), 2))     # b < a hold the negatives
                assert all(Om[a][b][i][j].evaluate(at) == Omi[a][b][i][j] for a, b in pairs
                           for i, j in itertools.product(range(n2), repeat=2)), where
                assert all(T[a][b][r].evaluate(at) == Ti[a][b][r]
                           for a, b in pairs for r in range(n2)), where
                assert scal.evaluate(at) == geo.ricci_and_scalar(inst, Omi)[2], where
                if spec.m == 3 and k == 0:
                    honest = honest_connection_matrices(inst, tv)
                    assert all(Ai[x][i][j] == -honest[x][i][j]
                               for x, i, j in itertools.product(range(n2), repeat=3)), where


def _moved(table: list, a: int, b: int, i: int, by) -> list:
    """A copy of a pair table with table[a][b][i] moved by `by` (a matrix
    row or a vector entry); the other entries are shared."""
    table = [list(row) for row in table]
    table[a][b] = list(table[a][b])
    table[a][b][i] = (list(map(operator.add, table[a][b][i], by)) if isinstance(by, list)
                      else table[a][b][i] + by)
    return table


def test_ricci_trace_check_fails_on_a_perturbed_omega_entry(all_bundled):
    """Omega(e0, e1) moved by one at (0, 1) gives the two Ricci forms
    different scalar traces (2Tr(rho1) moves by 1, 2Tr(rho2) by 2), and
    ricci_and_scalar names the check: symbolic, with isotropy and numeric."""
    for name in ("kodaira", "sphere", "kodaira-thurston"):
        spec = all_bundled[name].spec
        dom = spec.domain
        Om, _ = geo.gauduchon_curvature_torsion(spec, spec_t(spec))
        geo.ricci_and_scalar(spec, Om)
        row = [dom.zero()] * (2 * spec.m)
        row[1] = dom.one()
        with pytest.raises(geo.InternalConsistencyError, match=r"2Tr\(rho1\) != 2Tr\(rho2\)"):
            geo.ricci_and_scalar(spec, _moved(Om, 0, 1, 0, row))


def _moved_sum(pair: tuple, key: int) -> tuple:
    """`_curvature`'s or `_torsion`'s (den, sums) with sums[key] moved by den:
    the divided value there moves by one, in the ring (`_plus`) or, over den
    1, in the domain."""
    den, sums = pair
    zero = {} if type(den) is dict else 0
    moved = {**sums, key: geo._plus(sums.get(key, zero), den)}
    return den, {k: v for k, v in moved.items() if v != {}}     # no zero sum, as the kernel


def test_audit_fails_on_a_perturbed_torsion_entry(all_bundled, kodaira, monkeypatch):
    """One entry of T^t(e0, e1) moved by one breaks the audit's torsion
    identity and nothing else: symbolic, over Fractions at symbolic and
    rational t, numeric and with isotropy."""
    inst = kodaira.spec.instantiate({"alpha": 1, "beta": Fraction(1, 2), "r": 2, "v": 3})
    cases = [(all_bundled[name].spec, None) for name in ("kodaira", "sphere", "kodaira-thurston")]
    cases += [(inst, None), (inst, Fraction(3, 5))]
    torsion = geo._torsion
    for spec, t in cases:
        t = spec_t(spec) if t is None else spec.domain.from_fraction(t)
        n2 = 2 * spec.m
        with monkeypatch.context() as patch:
            patch.setattr(geo, "_torsion", lambda spec, *args: _moved_sum(torsion(spec, *args),
                                                                          (0 * n2 + 1) * n2 + 1))
            rep = geo.connection_audit(spec, t)
        assert not rep.torsion_identity_ok and rep.curvature_identity_ok, spec.name


def test_audit_fails_on_a_perturbed_omega_entry(all_bundled, kodaira, monkeypatch):
    """One entry of Omega^t moved by one breaks the audit's curvature identity
    and nothing else: symbolic, over Fractions at symbolic and rational t,
    numeric, with isotropy and with a non-monomial denominator."""
    inst = kodaira.spec.instantiate({"alpha": 1, "beta": Fraction(1, 2), "r": 2, "v": 3})
    cases = [(all_bundled[name].spec, None) for name in ("kodaira", "sphere", "kodaira-thurston")]
    cases += [(inst, None), (inst, Fraction(3, 5)), (_non_monomial_spec(), None)]
    curvature = geo._curvature

    def perturbed(spec, form, k, C):
        Om = curvature(spec, form, k, C)
        if C is form.S:
            return Om
        n2 = 2 * spec.m
        return _moved_sum(Om, ((0 * n2 + 1) * n2 + 0) * n2 + 1)

    for spec, t in cases:
        t = spec_t(spec) if t is None else spec.domain.from_fraction(t)
        assert geo.connection_audit(spec, t).ok, spec.name
        with monkeypatch.context() as patch:
            patch.setattr(geo, "_curvature", perturbed)
            rep = geo.connection_audit(spec, t)
        assert rep.torsion_identity_ok and not rep.curvature_identity_ok, spec.name


def test_killing_closure_fails_on_a_perturbed_generator(iwasawa):
    """Adding a skew matrix to one generator's A leads a Nomizu bracket out
    of the span, for each generator of iwasawa at alpha = 1."""
    inst = iwasawa.spec.instantiate({"alpha": 1})
    res = geo.killing_generators(inst)
    for g, (v, A) in enumerate(res.basis):
        B = [list(row) for row in A]
        B[0][3], B[3][0] = B[0][3] + 1, B[3][0] - 1
        basis = res.basis[:g] + [(v, B)] + res.basis[g + 1:]
        with pytest.raises(geo.InternalConsistencyError, match="not closed"):
            geo._check_killing(inst, geo.KillingResult(basis, res.dim, res.orders_used))


def _relabelled(B, T):
    """The action of a skew B with entries in {0, 1, -1} as an index
    relabelling: an entry B[i][r] = s adds -s times each stored component at
    its key with one i relabelled to r, the End slot's indices included."""
    acc = {}
    for key, c in T.comp.items():
        for p, i in enumerate(key):
            for r in range(T.n):
                if B[i][r]:
                    nk = key[:p] + (r,) + key[p + 1:]
                    acc[nk] = acc.get(nk, 0) - B[i][r] * c
    return {key: x for key, x in acc.items() if x}


def test_index_action_rows_equal_derivation_action(iwasawa, kodaira, abelian2, sphere):
    """`_add_index_action` over the int u(m) and so(2m) bases and a `_tower`
    pair (den, T) of the engine's J and Rm (`_towers`) gives int rows
    equal to den times the rows of the Fraction bases acting on the full
    reference tensor T / den (`_reference_tower`), and equal to the index
    relabelling of each basis matrix on the full ring tensor, both at the
    canonical keys of T."""
    specs = [iwasawa.spec.instantiate({"alpha": 1}),
             kodaira.spec.instantiate({"alpha": 1, "beta": 0, "r": 1, "v": 1}),
             abelian2.spec.instantiate({}), sphere.spec.instantiate({})]
    specs += random_two_step_specs(3)
    for spec in specs:
        dom = spec.domain
        bases = (geo.unitary_basis(spec.m, dom), geo.so_basis(2 * spec.m, dom))
        # J, DJ, D^2J, Rm and D Rm as (den, int tensor) pairs and their full references
        pairs = []
        for tower, full, count in zip(geo._towers(spec)[1:], full_start_tensors(spec), (3, 2)):
            pairs += zip(itertools.islice(tower, count),
                         map(clear_and_reduce, _reference_tower(spec, full, count)))
        for ((den, Tp), (ref_den, Ti)), basis in itertools.product(pairs, bases):
            length = Tp.rank + 2 * Tp.has_endo
            T = MultiTensor(Ti.n, Ti.rank, Ti.has_endo, dom.zero(),
                            {key: Fraction(x, ref_den) for key, x in Ti.comp.items()})
            ints = [[[int(x) for x in row] for row in B] for B in basis]
            expected, relabelled = {}, {}
            for col, (B, Bi) in enumerate(zip(basis, ints)):
                for key, x in canonical_part(derivation_action(B, T, dom).comp, Tp.skew).items():
                    expected.setdefault(key, {})[col] = x
                for key, x in canonical_part(_relabelled(Bi, Ti), Tp.skew).items():
                    relabelled.setdefault(key, {})[col] = x
            packed = {}
            geo._add_index_action(packed, list(enumerate(ints)), Tp)
            rows = {unpack(k, Tp.n, length): r for k, r in packed.items()}
            assert all(type(x) is int for r in rows.values() for x in r.values())
            assert rows == relabelled, (spec.name, T.rank, T.has_endo)
            got = {k: {c: Fraction(x, den) for c, x in r.items()} for k, r in rows.items()}
            assert got == expected, (spec.name, T.rank, T.has_endo)
            shifted = {}
            geo._add_index_action(shifted, [(col + 5, [[3 * x for x in row] for row in B])
                                             for col, B in enumerate(ints)], Tp)
            assert shifted == {k: {c + 5: 3 * x for c, x in r.items()} for k, r in packed.items()}


def test_singer_and_killing_feed_integers_to_derivation_action(iwasawa, kodaira, monkeypatch):
    """The tower and the index action under Singer and Killing build no
    Fraction per entry: both factors of every product reaching the scatter
    kernel (the derivation action's sum) are ints."""
    seen = []
    kernel = geo.scatter_products

    def recording(runs, *args):
        runs = list(runs)
        seen.extend(type(a) is int and type(c) is int
                    for _, _, _, c, entries in runs for _, _, a in entries)
        return kernel(runs, *args)

    specs = [iwasawa.spec.instantiate({"alpha": 1}),
             kodaira.spec.instantiate({"alpha": 2, "beta": 1, "r": Fraction(1, 2), "v": 5})]
    for spec in specs:
        spec.Rm                                     # build the spec's own data first
    monkeypatch.setattr(geo, "scatter_products", recording)
    for spec in specs:
        geo.singer_invariant(spec)
        geo.killing_generators(spec)
    assert len(seen) > 50 and all(seen)


def _nilpotent(seed, m, kind):
    """A constant two-step nilpotent bracket with the last complex line Z
    central, as perfbench/gen.py draws them: "abelian" is J-invariant
    (mu(IX, IY) = mu(X, Y)), "holomorphic" complex bilinear (m >= 3) and
    "generic" a random real bracket into the last real line."""
    rng = random.Random(seed)
    n2 = 2 * m
    vdim, zs = (n2 - 1, [n2 - 1]) if kind == "generic" else (n2 - 2, [n2 - 2, n2 - 1])
    mu = {}

    def put(a, b, c, x):
        if a > b:
            a, b, x = b, a, -x
        mu.setdefault((a, b), [Fraction(0)] * n2)[c] += x

    coeffs = [Fraction(v) for v in ("1", "-1", "2", "-1/2", "3/2", "-3")]
    if kind == "holomorphic":
        for j, k in itertools.combinations(range(m - 1), 2):
            x, y = rng.choice(coeffs), rng.choice(coeffs)
            for (a, b), (re, im) in {(2 * j, 2 * k): (x, y), (2 * j + 1, 2 * k): (-y, x),
                                     (2 * j, 2 * k + 1): (-y, x),
                                     (2 * j + 1, 2 * k + 1): (-x, -y)}.items():
                put(a, b, n2 - 2, re)
                put(a, b, n2 - 1, im)
    else:
        slots = [(a, b, c) for a, b in itertools.combinations(range(vdim), 2) for c in zs]
        for a, b, c in rng.sample(slots, min(3, len(slots))):
            x = rng.choice(coeffs)
            put(a, b, c, x)
            if kind == "abelian":               # add mu(I., I.)
                (ia, sa), (ib, sb) = geo._Ie(a), geo._Ie(b)
                put(ia, ib, c, sa * sb * x)
    mu = {k: v for k, v in mu.items() if any(v)}
    return geo.BracketSpec(0, m, mu, FractionDomain(), f"nil{m}-{kind}-{seed}")


def test_killing_dim_is_2m_plus_stable_singer_dim(all_bundled):
    """dim kill = 2m + j_stable, with j_stable the last Singer dim: the
    u(m) and the so(2m) + R^{2m} eliminations agree."""
    points = [("iwasawa", {"alpha": 1}), ("kodaira", {"alpha": 1, "beta": 0, "r": 1, "v": 1}),
              ("abelian2", None), ("sphere", None), ("iwasawa", {"alpha": 2}),
              ("kodaira", {"alpha": 2, "beta": 1, "r": 3, "v": 2})]
    specs = [all_bundled[name].spec if params is None
             else all_bundled[name].spec.instantiate(params) for name, params in points]
    specs += random_two_step_specs(6, seed=11)
    specs += [_nilpotent(seed, m, kind) for seed, m, kind in
              [(1, 2, "abelian"), (2, 2, "generic"), (3, 3, "abelian"), (4, 3, "holomorphic")]]
    for spec in specs:
        assert geo.validate(spec).ok, spec.name
        j_stable = geo.singer_invariant(spec).dims[-1]
        assert geo.killing_generators(spec).dim == 2 * spec.m + j_stable, spec.name


def _add_multiple(row: dict, f, other: dict, skip: int) -> None:
    """row += f * other on every column but skip, dropping zero entries."""
    for c, x in other.items():
        if c != skip:
            y = row.get(c, 0) + f * x
            if y:
                row[c] = y
            else:
                row.pop(c, None)


def _gauss_jordan(pivots: dict, rows) -> None:
    """Add {column: Fraction} rows to `pivots`, {column: reduced row with 1
    there and no entry at another pivot column}, one entry at a time."""
    for row in rows:
        for p in [c for c in row if c in pivots]:
            _add_multiple(row, -row.pop(p), pivots[p], p)
        if row:
            lead = min(row)
            row = {c: x / row[lead] for c, x in row.items()}
            for prow in pivots.values():
                if lead in prow:
                    _add_multiple(prow, -prow.pop(lead), row, lead)
            pivots[lead] = row


def _definition_rows(acting: list, T: MultiTensor, dom, contracted=None) -> list:
    """The distinct rows, each scaled to lead with 1, of sum_i x_i (B_i . T)
    = 0 over the full Fraction tensor T (`derivation_action_loop`), one per
    key, as {column: entry}; with a contracted D^{k+1}T, the columns of
    v . D^{k+1}T (its first slot) come first."""
    width = 0 if contracted is None else contracted.n
    rows = {}
    for col, B in enumerate(acting):
        for key, x in derivation_action_loop(B, T, dom).comp.items():
            rows.setdefault(key, {})[width + col] = x
    for key, x in (contracted.comp.items() if contracted else ()):
        rows.setdefault(key[1:], {})[key[0]] = x
    distinct = {}
    for key in sorted(rows):
        row = rows[key]
        lead = row[min(row)]
        distinct[tuple(sorted((c, x / lead) for c, x in row.items()))] = None
    return [dict(row) for row in distinct]


def _invariants_by_definition(spec):
    """Singer's (dims, k_Jg) and Killing's (dim, orders_used, basis) from
    the full u(m) and so(2m) bases acting on the divided tensors D^kJ and
    D^kRm of `hermitian_s_tuple(spec, s, verify=False)`, each read from the
    least s that holds it, eliminated over Fractions by Gauss-Jordan."""
    dom = spec.domain

    @functools.cache
    def D(T: str, k: int) -> MultiTensor:
        if T == "J":
            return (full_start_tensors(spec)[0] if k == 0 else
                    geo.hermitian_s_tuple(spec, max(k - 2, 0), verify=False).J_derivs[k - 1])
        return geo.hermitian_s_tuple(spec, k, verify=False).Rm_derivs[k]

    def add(pivots: dict, ncols: int, acting: list, T, contracted=None) -> int:
        """Eliminate the rows of `_definition_rows` unless no column is
        left free (they cannot change the null space then); the number of
        free columns after."""
        if len(pivots) < ncols:
            _gauss_jordan(pivots, _definition_rows(acting, T, dom, contracted))
        return ncols - len(pivots)

    U, SO = geo.unitary_basis(spec.m, dom), geo.so_basis(2 * spec.m, dom)
    pivots, dims = {}, []
    add(pivots, len(U), U, D("J", 1))
    while len(dims) < 2 or dims[-1] != dims[-2]:    # D^0Rm..D^kRm and D^1J..D^{k+2}J
        k = len(dims)
        add(pivots, len(U), U, D("Rm", k))
        dims.append(add(pivots, len(U), U, D("J", k + 2)))
    n2, ncols = 2 * spec.m, 2 * spec.m + len(SO)
    kpivots, kdims = {}, []
    while len(kdims) < 2 or kdims[-1] != kdims[-2]:    # v . D^{k+1}T + A . D^kT = 0
        k = len(kdims)
        add(kpivots, ncols, SO, D("J", k), D("J", k + 1))
        kdims.append(add(kpivots, ncols, SO, D("Rm", k), D("Rm", k + 1)))
    basis = []
    for f in (f for f in range(ncols) if f not in kpivots):
        x = [Fraction(c == f) for c in range(ncols)]
        for p, prow in kpivots.items():
            x[p] = -prow.get(f, 0)
        A = [[sum(a * B[r][c] for a, B in zip(x[n2:], SO)) for c in range(n2)] for r in range(n2)]
        basis.append((x[:n2], A))
    return (dims, len(dims) - 2), (len(basis), len(kdims), basis)


def test_singer_and_killing_equal_the_definition(all_bundled):
    """Singer's dims and k_Jg and Killing's dim, orders and basis, entry for
    entry, equal a full-basis elimination by the definition
    (`_invariants_by_definition`): every u(m) and so(2m) basis matrix acts
    by the entrywise loop on the divided tuple, and the engine's action
    (`_add_index_action`, `action_terms`, `scatter_products`) is not used.
    The engine acts only with the kernel left before each batch of rows
    (`_Echelon.kernel`), so this pins that those rows change no pivot.
    iwasawa at alpha = 1 needs three Killing orders, its kernel shrinking
    after order 0.  Every spec here has k_Jg = 0: a probe of 335 generated
    two-step specs (150 of `random_two_step_specs(seed=101)` and the 185
    `_nilpotent` specs of seeds 100-136, each kind) found none with k_Jg > 0."""
    points = [("iwasawa", {"alpha": 1}),
              ("kodaira", {"alpha": 1, "beta": 0, "r": 1, "v": 1}),
              ("kodaira", {"alpha": 2, "beta": 1, "r": Fraction(1, 2), "v": 5}),
              ("abelian2", {}), ("sphere", {})]
    specs = [all_bundled[name].spec.instantiate(params) for name, params in points]
    specs += random_two_step_specs(2, seed=23)
    specs += [_nilpotent(seed, m, kind) for seed, m, kind in
              [(5, 2, "abelian"), (6, 2, "generic"), (7, 2, "abelian"), (8, 2, "generic"),
               (12, 2, "abelian"), (9, 3, "abelian"), (10, 3, "generic"),
               (11, 3, "generic")]]
    orders = []
    for spec in specs:
        (dims, k_jg), (dim, used, basis) = _invariants_by_definition(spec)
        sing, kill = geo.singer_invariant(spec), geo.killing_generators(spec)
        assert (sing.dims, sing.k_jg) == (dims, k_jg), spec.name
        assert (kill.dim, kill.orders_used) == (dim, used), spec.name
        assert kill.basis == basis, spec.name
        orders.append(used)
    assert orders[0] == 3

def _exact_two_step_spec():
    spec = random_two_step_specs(1, seed=3)[0]
    mu = {k: [RationalFunction.const(c) for c in vec] for k, vec in spec.mu_store.items()}
    return geo.BracketSpec(spec.q, spec.m, mu, ExactDomain(), "rand6-exact")


def test_constant_exact_specs_run_on_fractions(abelian2, sphere, monkeypatch):
    """A parameter-free ExactDomain spec is eliminated over plain Fractions,
    and the Killing basis comes back as equal RationalFunctions."""
    specs = [abelian2.spec, sphere.spec, _exact_two_step_spec()]
    for spec in specs:
        spec.Rm                                     # build the spec's own data first
    products = []

    def counting(self, other):
        products.append(1)
        return mul(self, other)

    mul = RationalFunction.__mul__
    monkeypatch.setattr(RationalFunction, "__mul__", counting)
    monkeypatch.setattr(RationalFunction, "__rmul__", counting)
    results = [(geo.singer_invariant(s), geo.killing_generators(s)) for s in specs]
    monkeypatch.undo()
    assert products == []
    for spec, (_, res) in zip(specs, results):
        ref = geo.killing_generators(spec.instantiate({}))
        assert (res.dim, res.orders_used) == (ref.dim, ref.orders_used)
        for (v, A), (rv, rA) in zip(res.basis, ref.basis):
            got = list(v) + [x for row in A for x in row]
            want = list(rv) + [x for row in rA for x in row]
            assert all(isinstance(x, RationalFunction) for x in got), spec.name
            assert all(x.eq(RationalFunction.const(y)) for x, y in zip(got, want)), spec.name


@pytest.mark.parametrize("name, params, dims, k_jg, dim_kill, orders", [
    ("iwasawa", {"alpha": 1}, [4, 4], 0, 10, 3),
    ("kodaira", {"alpha": 1, "beta": 0, "r": 1, "v": 1}, [1, 1], 0, 5, 2),
    ("abelian2", None, [4, 4], 0, 8, 2),
    ("sphere", None, [1, 1], 0, 3, 2),
])
def test_invariant_values_pinned(all_bundled, name, params, dims, k_jg, dim_kill, orders):
    spec = all_bundled[name].spec
    if params is not None:
        spec = spec.instantiate(params)
    sing = geo.singer_invariant(spec)
    assert (sing.dims, sing.k_jg) == (dims, k_jg)
    res = geo.killing_generators(spec)
    assert (res.dim, res.orders_used) == (dim_kill, orders)


def test_singer_and_killing_rows_hold_no_zero_entry(all_bundled, monkeypatch):
    """_Echelon.add takes a dict row as already sparse."""
    dict_rows = []
    add = geo._Echelon.add

    def recording(self, row):
        if isinstance(row, dict):
            dict_rows.append(len(row))
            assert row and all(not self.dom.is_zero(x) for x in row.values())
        return add(self, row)

    monkeypatch.setattr(geo._Echelon, "add", recording)
    for name, params in [("iwasawa", {"alpha": 1}), ("abelian2", None), ("sphere", None),
                         ("kodaira", {"alpha": 1, "beta": 2, "r": 3, "v": 1})]:
        spec = all_bundled[name].spec
        spec = spec if params is None else spec.instantiate(params)
        geo.singer_invariant(spec)
        geo.killing_generators(spec)
    assert len(dict_rows) > 100


def test_singer_and_killing_spans_hold_only_ints(all_bundled, monkeypatch):
    """The echelons that take Singer's and Killing's rows eliminate without
    a Fraction: every kept row holds ints, primitive with a positive pivot."""
    spans = []
    add = geo._Echelon.add

    def recording(self, row):
        if isinstance(row, dict) and self not in spans:
            spans.append(self)
        return add(self, row)

    monkeypatch.setattr(geo._Echelon, "add", recording)
    for name, params in [("iwasawa", {"alpha": 1}),
                         ("kodaira", {"alpha": 2, "beta": 1, "r": Fraction(1, 2), "v": 5})]:
        spec = all_bundled[name].spec.instantiate(params)
        geo.singer_invariant(spec)
        geo.killing_generators(spec)
    assert len(spans) == 4
    for span in spans:
        assert span.integral and span.pivots
        for p, row in span.pivots.items():
            assert all(type(x) is int for x in row.values())
            assert row[p] > 0 and math.gcd(*row.values()) == 1


def test_explicit_kmax_too_small_is_a_usage_error(sphere):
    with pytest.raises(UsageError, match="kmax=0"):
        geo.singer_invariant(sphere.spec, kmax=0)
