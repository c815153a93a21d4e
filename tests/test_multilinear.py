"""Exterior/tensor algebra: wedge, interior product, coboundary, derivations,
(1,1)-projection, complex traces and unitary Gram-Schmidt."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ghl.geometry import _product_terms, _sparse, covariant_derivative
from ghl.multilinear import (FrameError, KForm, MultiTensor, basis_vector,
                             coboundary, commutator, complex_trace,
                             complex_trace_form, derivation_action, dot,
                             action_terms, gram_schmidt_unitary, index_rows, istd,
                             mat_vec, mat_zero, pack, scatter_products, unpack, wedge)
from ghl.scalars import (DEFAULT_DEGREE_CAP, DegreeGuardError, ExactDomain,
                         FractionDomain, Layout, NumericDomain, Polynomial,
                         set_degree_cap)

from reference import (add_product_loop, complex_trace_sym, derivation_action_loop, form_action,
                       form_basis, form_evaluate, from_bilinear, from_endo, kform_scale,
                       canonical_part, interior_product, mat_identity, pi_11, sparse_pairs,
                       tuple_action_terms, tuple_index_rows, tuple_product_terms,
                       tuple_scatter_products, unfold)

DOM = FractionDomain()


def form(n, *entries):
    comp = {}
    for idx, c in entries:
        comp[tuple(idx)] = Fraction(c)
    deg = len(entries[0][0]) if entries else 0
    return KForm(n, deg, comp)


# ---------------------------------------------------------------------------
# wedge and evaluation
# ---------------------------------------------------------------------------


def test_wedge_basis():
    e0 = form_basis(4, (0,), DOM)
    e1 = form_basis(4, (1,), DOM)
    w = wedge(e0, e1, DOM)
    assert w.comp == {(0, 1): Fraction(1)}
    assert wedge(e0, e0, DOM).is_zero(DOM)
    with pytest.raises(ValueError, match="different spaces"):
        wedge(e0, form_basis(3, (0,), DOM), DOM)


def brute_eval(phi: KForm, vectors):
    """Evaluate a k-form via full antisymmetrization over permutations of the
    stored components -- an independent oracle for form_evaluate."""
    total = Fraction(0)
    k = phi.degree
    for key, c in phi.comp.items():
        for perm in itertools.permutations(range(k)):
            sign = 1
            p = list(perm)
            for i in range(k):
                for j in range(i + 1, k):
                    if p[i] > p[j]:
                        sign = -sign
            prod = c * sign
            for slot, pos in enumerate(perm):
                prod *= vectors[slot][key[pos]]
            total += prod
    return total


def test_wedge_four_form_evaluates_to_one():
    a = wedge(form_basis(4, (0,), DOM), form_basis(4, (1,), DOM), DOM)
    b = wedge(form_basis(4, (2,), DOM), form_basis(4, (3,), DOM), DOM)
    w = wedge(a, b, DOM)
    assert w.comp == {(0, 1, 2, 3): Fraction(1)}
    vectors = [basis_vector(4, i, DOM) for i in range(4)]
    assert form_evaluate(w, vectors, DOM) == 1
    assert brute_eval(w, vectors) == 1


@st.composite
def sparse_form(draw, n=4, degree=2):
    keys = list(itertools.combinations(range(n), degree))
    comp = {}
    for key in keys:
        c = draw(st.integers(min_value=-3, max_value=3))
        if c:
            comp[key] = Fraction(c)
    return KForm(n, degree, comp)


@settings(max_examples=40, deadline=None)
@given(sparse_form(degree=1), sparse_form(degree=2), sparse_form(degree=1))
def test_wedge_associative_graded_commutative(a, b, c):
    left = wedge(wedge(a, b, DOM), c, DOM)
    right = wedge(a, wedge(b, c, DOM), DOM)
    assert left.sub(right, DOM).is_zero(DOM)
    ab = wedge(a, b, DOM)
    ba = wedge(b, a, DOM)
    sign = (-1) ** (a.degree * b.degree)
    assert ab.sub(kform_scale(ba, Fraction(sign), DOM), DOM).is_zero(DOM)


def test_interior_product_full_and_partial():
    w = form(6, ((0, 2, 4), 1))
    vecs = [basis_vector(6, i, DOM) for i in (0, 2, 4)]
    assert interior_product(w, vecs, DOM) == 1
    # antisymmetry in supplied vectors
    swapped = [vecs[1], vecs[0], vecs[2]]
    assert interior_product(w, swapped, DOM) == -1
    # partial contraction: e0 hook (e0^e2^e4) = e2^e4
    partial = interior_product(w, [vecs[0]], DOM)
    assert partial.comp == {(2, 4): Fraction(1)}


@settings(max_examples=30, deadline=None)
@given(sparse_form(degree=3), st.integers(0, 3), st.integers(0, 3))
def test_interior_antisymmetric_in_vectors(phi, i, j):
    u = basis_vector(4, i, DOM)
    v = basis_vector(4, j, DOM)
    a = interior_product(phi, [u, v], DOM)
    b = interior_product(phi, [v, u], DOM)
    assert a.sub(kform_scale(b, Fraction(-1), DOM), DOM).is_zero(DOM)


# ---------------------------------------------------------------------------
# coboundary
# ---------------------------------------------------------------------------


def mu_from_dict(n, entries):
    table = {}
    for (a, b), vec in entries.items():
        table[(a, b)] = [Fraction(x) for x in vec]

    def mu(a, b):
        if a == b:
            return [Fraction(0)] * n
        if a < b:
            return table.get((a, b), [Fraction(0)] * n)
        return [-x for x in table.get((b, a), [Fraction(0)] * n)]
    return mu


def test_coboundary_abelian_is_zero():
    mu = mu_from_dict(4, {})
    phi = form(4, ((0, 1), 1), ((2, 3), -2))
    assert coboundary(mu, 4, phi, DOM).is_zero(DOM)


def test_coboundary_kodaira_thurston_frame():
    # [e0,e1] = -e3  =>  d(e^3) = -e^0 ^ e^1, d(e^0)=d(e^1)=d(e^2)=0
    mu = mu_from_dict(4, {(0, 1): [0, 0, 0, -1]})
    d3 = coboundary(mu, 4, form_basis(4, (3,), DOM), DOM)
    assert d3.comp == {(0, 1): Fraction(-1)}
    for i in (0, 1, 2):
        assert coboundary(mu, 4, form_basis(4, (i,), DOM), DOM).is_zero(DOM)


IWASAWA_MU = {(0, 2): [0, 0, 0, 0, 1, 0], (0, 3): [0, 0, 0, 0, 0, 1],
              (1, 2): [0, 0, 0, 0, 0, 1], (1, 3): [0, 0, 0, 0, -1, 0]}


def test_coboundary_iwasawa_omega_squared_closed():
    mu = mu_from_dict(6, IWASAWA_MU)
    omega = form(6, ((0, 1), 1), ((2, 3), 1), ((4, 5), 1))
    om2 = wedge(omega, omega, DOM)
    assert not coboundary(mu, 6, omega, DOM).is_zero(DOM)
    assert coboundary(mu, 6, om2, DOM).is_zero(DOM)


def test_coboundary_squares_to_zero_on_jacobi_brackets():
    for n, entries in ((6, IWASAWA_MU), (4, {(0, 1): [0, 0, 0, -1]})):
        mu = mu_from_dict(n, entries)
        for i in range(n):
            phi = form_basis(n, (i,), DOM)
            dd = coboundary(mu, n, coboundary(mu, n, phi, DOM), DOM)
            assert dd.is_zero(DOM)
        two = KForm(n, 2, {(0, 1): Fraction(1), (1, 2): Fraction(2)})
        assert coboundary(mu, n, coboundary(mu, n, two, DOM), DOM).is_zero(DOM)


# ---------------------------------------------------------------------------
# derivation action
# ---------------------------------------------------------------------------


def rand_skew(rng, n):
    M = mat_zero(n, DOM)
    for i in range(n):
        for j in range(i + 1, n):
            c = Fraction(rng.randint(-3, 3))
            M[i][j] = c
            M[j][i] = -c
    return M


def test_derivation_kills_metric_for_skew():
    rng = random.Random(7)
    A = rand_skew(rng, 4)
    g = from_bilinear(mat_identity(4, DOM), DOM)
    assert all(map(DOM.is_zero, derivation_action(A, g, DOM).comp.values()))


def test_derivation_kills_J_for_unitary():
    J = istd(2, DOM)
    # J itself is in u(m): A.J = [A, J] = 0 when A = J
    out = derivation_action(J, from_endo(J, DOM), DOM)
    assert all(out.get((r, c)) == 0 for r in range(4) for c in range(4))


def test_derivation_pairing_invariance():
    """A . (theta(v)) = 0: the covector law is dual to the vector law."""
    rng = random.Random(11)
    A = rand_skew(rng, 4)
    theta = KForm(4, 1, {(1,): Fraction(2), (3,): Fraction(-1)})
    v = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
    lhs = form_evaluate(form_action(A, theta, DOM), [v], DOM)
    rhs = form_evaluate(theta, [mat_vec(A, v)], DOM)
    assert lhs + rhs == 0
    # the engine's tensor action on theta as a rank-1 tensor agrees
    tensor = derivation_action(A, MultiTensor(4, 1, False, Fraction(0), theta.comp), DOM)
    assert tensor.comp == form_action(A, theta, DOM).comp


def tensor_product_1forms(a: KForm, b: KForm) -> MultiTensor:
    return MultiTensor(a.n, 2, False, Fraction(0),
                       {(i, j): ci * cj for (i,), ci in a.comp.items()
                        for (j,), cj in b.comp.items() if ci * cj})


def test_derivation_leibniz_on_tensor_product():
    rng = random.Random(13)
    for _ in range(5):
        A = rand_skew(rng, 4)
        a = KForm(4, 1, {(i,): Fraction(rng.randint(-2, 2)) for i in range(4)})
        b = KForm(4, 1, {(i,): Fraction(rng.randint(-2, 2)) for i in range(4)})
        a.comp = {k: v for k, v in a.comp.items() if v}
        b.comp = {k: v for k, v in b.comp.items() if v}
        lhs = derivation_action(A, tensor_product_1forms(a, b), DOM)
        rhs = tensor_product_1forms(form_action(A, a, DOM), b)
        rhs2 = tensor_product_1forms(a, form_action(A, b, DOM))
        for key in set(lhs.comp) | set(rhs.comp) | set(rhs2.comp):
            assert lhs.get(key) == rhs.get(key) + rhs2.get(key)


def test_derivation_on_endomorphism_is_commutator():
    rng = random.Random(17)
    A = rand_skew(rng, 4)
    M = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
    out = derivation_action(A, from_endo(M, DOM), DOM)
    want = commutator(A, M)
    assert all(out.get((r, c)) == want[r][c] for r in range(4) for c in range(4))


NAMES = ("a", "b", "c")


@st.composite
def ring_values(draw, poly):
    """A nonzero int, or a Polynomial with int coefficients over a sorted
    subset of NAMES that may hold variables no term uses (an untrimmed
    tuple), so that factors meet over mixed variable tuples."""
    if not poly:
        return draw(st.integers(-3, 3).filter(bool))
    names = tuple(sorted(draw(st.sets(st.sampled_from(NAMES)))))
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    terms = draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
    return Polynomial(names, terms)


@st.composite
def action_cases(draw):
    """(A, T): a sparse matrix and tensor, with or without an End slot, of
    int or Polynomial entries, or a matrix mixing both on a Polynomial
    tensor, so that products of both kinds meet at one key.  With `cancel`,
    A is skew and T holds p times the identity in its End slot or p times
    the metric in two covariant slots, whose action cancels key by key."""
    n = draw(st.sampled_from((2, 4)))
    rank, has_endo = draw(st.integers(0, 2)), draw(st.booleans())
    poly_A, poly_T = draw(st.sampled_from(((True, True), (True, True), (False, False),
                                           (True, False), (False, True), (None, True))))
    if poly_A is None:                              # dense, ints and Polynomials
        entries = st.one_of(ring_values(False), ring_values(True))
    else:
        entries = st.one_of(st.just(0), ring_values(poly_A))
    A = [[draw(entries) for _ in range(n)] for _ in range(n)]
    width = rank + 2 * has_endo
    keys = st.tuples(*[st.integers(0, n - 1)] * width)
    comp = draw(st.dictionaries(keys, ring_values(poly_T), max_size=6))
    if width >= 2 and draw(st.booleans()):         # the cancelling part
        for i in range(n):
            for j in range(i):
                A[i][j] = -A[j][i]
            A[i][i] = 0
        p = draw(ring_values(poly_T))
        comp = {} if draw(st.booleans()) else {k: v for k, v in comp.items() if k[-2] != k[-1]}
        for i in range(n):
            comp[(0,) * (width - 2) + (i, i)] = p
    return A, MultiTensor(n, rank, has_endo, 0, comp)


def _degree(x):
    return x.total_degree() if isinstance(x, Polynomial) else 0


def _largest_product_degree(A, T):
    """The largest deg a + deg c over the products of two Polynomials that
    the action of A on T forms."""
    n, top = T.n, -1
    for key, c in T.comp.items():
        if not isinstance(c, Polynomial) or c.is_zero():
            continue
        factors = [A[i][r] for i in key[:T.rank] for r in range(n)]
        if T.has_endo:
            row, col = key[T.rank:]
            factors += [A[r][row] for r in range(n)] + [A[col][j] for j in range(n)]
        top = max([top] + [_degree(a) + _degree(c) for a in factors
                           if isinstance(a, Polynomial) and not a.is_zero()])
    return top


def _same_tensor(got: MultiTensor, want: MultiTensor) -> bool:
    exact = ExactDomain(NAMES)
    return (got.comp.keys() == want.comp.keys()
            and all(exact.eq(got.comp[k], want.comp[k]) for k in want.comp))


@settings(max_examples=150, deadline=None)
@given(action_cases())
def test_derivation_action_equals_the_entrywise_loop(case):
    """derivation_action (one scatter_products call) equals the entrywise
    reference loop: the same keys, keys whose sum cancels absent, and .eq
    values.  covariant_derivative equals the loop over -C(e_x) at the keys
    (x,) + key.  With the cap one below the largest product degree both
    raise DegreeGuardError, and at that degree both pass."""
    A, T = case
    want = derivation_action_loop(A, T, DOM)
    assert _same_tensor(derivation_action(A, T, DOM), want)
    assert all(not DOM.is_zero(v) for v in want.comp.values())
    C = [[[x if i + j + k < 5 else -x for j, x in enumerate(row)] for i, row in enumerate(A)]
         for k in range(T.n)]
    spec = type("Spec", (), {"domain": DOM, "m": T.n // 2})
    steps = [derivation_action_loop([[-x for x in row] for row in Ck], T, DOM) for Ck in C]
    joined = MultiTensor(T.n, T.rank + 1, T.has_endo, 0,
                         {(x,) + k: v for x, U in enumerate(steps) for k, v in U.comp.items()})
    assert _same_tensor(covariant_derivative(spec, T, C, 1), joined)
    top = _largest_product_degree(A, T)
    if top < 2:
        return
    try:
        set_degree_cap(top - 1)
        for action in (derivation_action, derivation_action_loop):
            with pytest.raises(DegreeGuardError):
                action(A, T, DOM)
        set_degree_cap(top)
        assert _same_tensor(derivation_action(A, T, DOM), derivation_action_loop(A, T, DOM))
    finally:
        set_degree_cap(DEFAULT_DEGREE_CAP)


@st.composite
def bracket_cases(draw):
    """(n, terms): `_product_terms` arguments (key, sign, A, B) over three
    zero-heavy n x n matrices of int, Polynomial or mixed entries, with
    zero rows and untrimmed zero Polynomials among the zeros; A is a matrix
    (the product A B) or a scalar, zero included (the scaled A * B).  Terms
    meet at two keys, and one may repeat with the opposite sign, so that a
    key's sum can cancel."""
    n = draw(st.integers(1, 3))
    poly = draw(st.sampled_from((True, False, None)))
    value = (st.one_of(ring_values(False), ring_values(True)) if poly is None
             else ring_values(poly))
    entry = st.one_of(st.just(0), st.just(Polynomial(("a", "c"), {})), value)

    def matrix():
        zero_rows = draw(st.sets(st.integers(0, n - 1)))
        return [[0 if i in zero_rows else draw(entry) for _ in range(n)] for i in range(n)]
    Ms = [matrix() for _ in range(3)]
    terms = [((draw(st.integers(0, 1)),), draw(st.sampled_from((1, -1))),
              draw(st.sampled_from(Ms)) if draw(st.booleans()) else draw(entry),
              draw(st.sampled_from(Ms))) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        key, sign, A, B = draw(st.sampled_from(terms))
        terms.append((key, -sign, A, B))
    return n, terms


@settings(max_examples=150, deadline=None)
@given(bracket_cases())
def test_product_terms_equal_the_add_product_loop(case):
    """`_product_terms` summed by one `scatter_products` call equals the
    entrywise loop (`add_product_loop`): sign * A B for a matrix A, and for a
    scalar A the identity times B with the factor sign * A.  The same keys,
    keys whose sum cancels absent, and .eq values."""
    n, terms = case
    unit = [[(i, 1)] for i in range(n)]
    accs = {}
    for key, sign, A, B in terms:
        if isinstance(A, list):
            add_product_loop(accs.setdefault(key, {}), sparse_pairs(A), sparse_pairs(B), sign)
        else:
            add_product_loop(accs.setdefault(key, {}), unit, sparse_pairs(B), sign * A)
    want = {key + ij: x for key, acc in accs.items() for ij, x in acc.items()
            if not DOM.is_zero(x)}
    packed = scatter_products(
        itertools.chain.from_iterable(
            _product_terms(*key, n, sign, _sparse(A) if isinstance(A, list) else A, _sparse(B))
            for key, sign, A, B in terms), 0, DOM.is_zero)
    got = {unpack(k, n, 3): x for k, x in packed.items()}       # (kp, i, j)
    exact = ExactDomain(NAMES)
    assert got.keys() == want.keys()
    assert all(exact.eq(got[k], want[k]) for k in want)


# ---------------------------------------------------------------------------
# packed ring values against the definition
# ---------------------------------------------------------------------------


def _sympy(p: Polynomial):
    import sympy
    return sympy.Add(*(c * sympy.Mul(*(sympy.Symbol(v) ** e for v, e in zip(p.vars, exp)))
                       for exp, c in p.terms.items()))


@st.composite
def packed_runs(draw):
    """`scatter_products` runs (base, stride, sign, c, entries) of nonzero
    Polynomials over mixed variable tuples, meeting at up to six keys, with
    runs and entries that may be empty; one run may repeat with the
    opposite sign, so that its sums cancel."""
    value = ring_values(True)
    entry = st.tuples(st.integers(0, 1), st.integers(0, 1), value)
    runs = [(draw(st.integers(0, 2)), 2, draw(st.sampled_from((1, -1))), draw(value),
             draw(st.lists(entry, max_size=3))) for _ in range(draw(st.integers(0, 4)))]
    if runs and draw(st.booleans()):
        base, stride, sign, c, entries = draw(st.sampled_from(runs))
        runs.append((base, stride, -sign, c, entries))
    return runs


@settings(max_examples=100, deadline=None)
@given(packed_runs())
def test_packed_sums_equal_the_sum_of_products(runs):
    """Runs of values packed in one layout (`Layout`), summed by
    `scatter_products`, give at each key the sum of sign * a * c over its
    products as SymPy expands it, and no key whose sum is 0.  With the cap
    one below the largest product degree (when that is at least 2) the
    kernel raises DegreeGuardError naming it, and at that degree it gives
    the same sums."""
    sympy = pytest.importorskip("sympy")
    want = {}
    for base, stride, sign, c, entries in runs:
        for off, r, a in entries:
            key = off + base + r * stride
            want[key] = want.get(key, 0) + sign * _sympy(a) * _sympy(c)
    want = {key: x for key, x in ((key, sympy.expand(x)) for key, x in want.items()) if x != 0}
    layout = Layout(NAMES)
    packed = [(base, stride, sign, layout.pack(c), [(off, r, layout.pack(a)) for off, r, a in entries])
              for base, stride, sign, c, entries in runs]
    got = scatter_products(packed, {}, DOM.is_zero, layout)
    assert got.keys() == want.keys()
    assert all(sympy.expand(_sympy(layout.poly(got[key], {})) - want[key]) == 0 for key in want)
    top = max((a.total_degree() + c.total_degree() for *_, c, entries in runs
               for *_, a in entries), default=0)
    try:
        if top >= 2:
            set_degree_cap(top - 1)
            with pytest.raises(DegreeGuardError, match=f"product degree {top} exceeds cap {top - 1}"):
                scatter_products(packed, {}, DOM.is_zero, layout)
        set_degree_cap(max(top, 1))
        assert scatter_products(packed, {}, DOM.is_zero, layout) == got
    finally:
        set_degree_cap(DEFAULT_DEGREE_CAP)


def test_degree_cap_is_checked_once_per_run_at_the_same_products():
    """The kernel checks the cap once per run, on c and the largest degree
    of its entries list (kept for the call): a product one degree over the
    cap raises and one at the cap does not; the message names the first
    entry over the cap, as a check per product would; a list reused under
    a c of higher degree raises in that run."""
    layout = Layout(NAMES)

    def mono(*exp):
        return Polynomial(NAMES, {exp: 1})

    entries = [(k, 0, layout.pack(mono(e, 0, 0))) for k, e in enumerate((0, 3, 6))]
    low, high = mono(0, 1, 0), mono(0, 0, 2)        # degrees 1 and 2
    runs = [(0, 0, 1, layout.pack(low), entries), (0, 0, -1, layout.pack(high), entries)]
    try:
        set_degree_cap(8)
        assert scatter_products(runs, {}, DOM.is_zero, layout)[2] == layout.pack(
            mono(6, 1, 0) - mono(6, 0, 2))
        for cap, which, degree in ((7, runs, 8), (6, runs[:1], 7), (3, runs[1:], 5)):
            set_degree_cap(cap)
            with pytest.raises(DegreeGuardError, match=f"product degree {degree} exceeds cap {cap}"):
                scatter_products(which, {}, DOM.is_zero, layout)
        set_degree_cap(7)
        assert scatter_products(runs[:1], {}, DOM.is_zero, layout)
    finally:
        set_degree_cap(DEFAULT_DEGREE_CAP)


# ---------------------------------------------------------------------------
# packed keys and runs against the tuple-key kernel
# ---------------------------------------------------------------------------


@st.composite
def key_pairs(draw):
    """(n, a, b): two index tuples of one length 0..6 over range(n), n 1..8."""
    n, length = draw(st.integers(1, 8)), draw(st.integers(0, 6))
    key = st.tuples(*[st.integers(0, n - 1)] * length)
    return n, draw(key), draw(key)


@settings(max_examples=300, deadline=None)
@given(key_pairs())
def test_pack_round_trips_and_keeps_tuple_order(case):
    """unpack(pack(key)) == key, and among keys of one length int order is
    tuple order, so sorting packed rows keeps the elimination's order."""
    n, a, b = case
    assert unpack(pack(a, n), n, len(a)) == a
    assert (pack(a, n) < pack(b, n)) == (a < b)
    assert (pack(a, n) == pack(b, n)) == (a == b)


KINDS = ("int", "fraction", "poly", "float", "mixed")


def kernel_values(kind):
    """Nonzero values of one kind; floats of two scales, so that a sum
    rounds and its order shows in the bits."""
    return {"int": st.integers(-3, 3).filter(bool),
            "fraction": st.fractions(-3, 3, max_denominator=6).filter(bool),
            "poly": ring_values(True),
            "float": st.one_of(st.floats(-1e6, 1e6), st.floats(-1e-3, 1e-3)).filter(bool),
            "mixed": st.one_of(ring_values(False), ring_values(True))}[kind]


def _packed_in(values) -> Layout | None:
    """A layout over NAMES when a Polynomial is among the values: the kernel
    sums those packed (`Layout`), and ints among them as constants."""
    return Layout(NAMES) if any(isinstance(x, Polynomial) for x in values) else None


def _ring(layout, x):
    """x as the kernel takes it: packed in layout, or as it is without one."""
    if layout is None:
        return x
    return layout.pack(x if isinstance(x, Polynomial) else Polynomial.const(x))


def _first_reached(terms, sums: dict) -> dict:
    """sums in the order the (key, sign, a, c) terms first reach their keys,
    the kernel's order: the tuple-key kernel lists its Polynomial sums after
    the others."""
    return {key: sums[key] for key in dict.fromkeys(term[0] for term in terms) if key in sums}


def _identical(x, y) -> bool:
    """Same type and value; floats bit for bit, Polynomials term for term."""
    if type(x) is not type(y):
        return False
    if type(x) is float:
        return x.hex() == y.hex()
    if type(x) is Polynomial:
        return x.vars == y.vars and x.terms == y.terms
    return x == y


@st.composite
def kernel_action_cases(draw):
    """(zero, tagged matrices, T, sign) of one value kind, zero entries
    among the matrices', which may all be skew, and a tensor with or without
    an End slot, which may hold only the canonical keys of some trailing
    index pairs (`MultiTensor.skew`): the End pair only under skew matrices."""
    kind = draw(st.sampled_from(KINDS))
    values, zero = kernel_values(kind), 0.0 if kind == "float" else 0
    n, rank, has_endo = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.booleans())
    entries = st.one_of(st.just(zero), values)
    mats = [[[draw(entries) for _ in range(n)] for _ in range(n)]
            for _ in range(draw(st.integers(1, 3)))]
    skew_mats = draw(st.booleans())
    if skew_mats:
        for M in mats:
            for i, j in itertools.combinations_with_replacement(range(n), 2):
                M[j][i] = -M[i][j] if i < j else zero
    length = rank + 2 * has_endo
    skew = draw(st.integers(0, length // 2 if skew_mats or not has_endo else 0))
    keys = st.tuples(*[st.integers(0, n - 1)] * length)
    comp = {}
    for key, x in draw(st.dictionaries(keys, values, max_size=8)).items():
        key = list(key)
        for p in range(length - 2 * skew, length, 2):
            key[p:p + 2] = sorted(key[p:p + 2])
        comp[tuple(key)] = x
    comp = canonical_part(comp, skew)
    return zero, mats, MultiTensor(n, rank, has_endo, zero, comp, skew), draw(st.sampled_from((1, -1)))


@settings(max_examples=300, deadline=None)
@given(kernel_action_cases())
def test_action_runs_equal_the_tuple_kernel(case):
    """`action_terms` runs on a packed tensor with int tags, summed by
    `scatter_products`, give the tuple-key kernel's terms summed
    (`reference.tuple_scatter_products`): the same keys once decoded, in the
    order the terms first reach them (`_first_reached`), and identical
    values, floats bit for bit and Polynomials packed (`_packed_in`)
    monomial for monomial.  On a tensor held
    on canonical keys the kernel's terms are those of the full tensor
    (`reference.unfold`, each key followed by its mirrors), and the folded
    runs give the same keys as their canonical keys, with identical values."""
    zero, mats, T, sign = case
    n, length = T.n, T.rank + 2 * T.has_endo
    full = MultiTensor(n, T.rank, T.has_endo, zero, unfold(T.comp, T.skew))
    rows = tuple_index_rows((((t,), A) for t, A in enumerate(mats)), DOM.is_zero)
    terms = list(tuple_action_terms(full, *rows, sign))
    want = _first_reached(terms, tuple_scatter_products(terms, zero, DOM.is_zero))
    want = canonical_part(want, T.skew)
    layout = _packed_in([*T.comp.values(), *(x for M in mats for row in M for x in row)])
    want = {k: _ring(layout, x) for k, x in want.items()}
    T.comp = {k: _ring(layout, x) for k, x in T.comp.items()}
    mats = [[[_ring(layout, x) for x in row] for row in M] for M in mats]
    rows = index_rows(((t * n ** length, A) for t, A in enumerate(mats)), DOM.is_zero)
    packed = scatter_products(action_terms(T.packed(), *rows, sign), zero, DOM.is_zero, layout)
    got = {unpack(k, n, length + 1): x for k, x in packed.items()}
    assert list(got) == list(want) if not T.skew else got.keys() == want.keys()
    assert all(_identical(got[k], want[k]) for k in want)


@st.composite
def kernel_product_cases(draw):
    """(zero, n, terms): `_product_terms` arguments (kp, sign, A, B) of one
    value kind, A a matrix or a scalar, zero included, meeting at two kp."""
    kind = draw(st.sampled_from(KINDS))
    values, zero = kernel_values(kind), 0.0 if kind == "float" else 0
    n = draw(st.integers(1, 3))
    entry = st.one_of(st.just(zero), values)
    Ms = [[[draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(3)]
    terms = [(draw(st.integers(0, 1)), draw(st.sampled_from((1, -1))),
              draw(st.sampled_from(Ms)) if draw(st.booleans()) else draw(entry),
              draw(st.sampled_from(Ms))) for _ in range(draw(st.integers(1, 5)))]
    return zero, n, terms


@settings(max_examples=300, deadline=None)
@given(kernel_product_cases())
def test_product_runs_equal_the_tuple_kernel(case):
    """`_product_terms` runs at the packed keys (kp*n + i)*n + j, summed by
    `scatter_products`, give `reference.tuple_product_terms` at (kp, i, j)
    summed by the tuple-key kernel: the same keys in the order the terms
    first reach them (`_first_reached`), and identical values, floats bit
    for bit and Polynomials packed (`_packed_in`) monomial for monomial."""
    zero, n, terms = case
    ref_terms = [term for kp, sign, A, B in terms for term in tuple_product_terms(
        (kp,), sign, sparse_pairs(A) if isinstance(A, list) else A, sparse_pairs(B))]
    want = _first_reached(ref_terms, tuple_scatter_products(ref_terms, zero, DOM.is_zero))
    layout = _packed_in([x for _, _, A, B in terms for M in (A, B)
                         for x in (itertools.chain(*M) if isinstance(M, list) else [M])])
    want = {k: _ring(layout, x) for k, x in want.items()}

    def ring(M):
        return [[_ring(layout, x) for x in row] for row in M]
    packed = scatter_products(itertools.chain.from_iterable(
        _product_terms(kp, n, sign, _sparse(ring(A)) if isinstance(A, list) else _ring(layout, A),
                       _sparse(ring(B))) for kp, sign, A, B in terms), zero, DOM.is_zero, layout)
    got = {unpack(k, n, 3): x for k, x in packed.items()}
    assert list(got) == list(want)
    assert all(_identical(got[k], want[k]) for k in want)


# ---------------------------------------------------------------------------
# complex linear algebra helpers
# ---------------------------------------------------------------------------


def test_pi_11_fixes_11_forms_and_projects():
    J = istd(2, DOM)
    omega = form(4, ((0, 1), 1))          # e^0 ^ e^1, J-invariant
    assert pi_11(omega, J, DOM).sub(omega, DOM).is_zero(DOM)
    alpha = form(4, ((0, 2), 1))
    p = pi_11(alpha, J, DOM)
    assert p.comp == {(0, 2): Fraction(1, 2), (1, 3): Fraction(1, 2)}
    assert pi_11(p, J, DOM).sub(p, DOM).is_zero(DOM)     # idempotent


@settings(max_examples=30, deadline=None)
@given(sparse_form(n=4, degree=2))
def test_pi_11_output_J_invariant(alpha):
    J = istd(2, DOM)
    p = pi_11(alpha, J, DOM)
    Jcols = [[J[r][c] for r in range(4)] for c in range(4)]
    for i in range(4):
        for j in range(4):
            direct = p.component((i, j), DOM) if i != j else Fraction(0)
            rotated = form_evaluate(p, [Jcols[i], Jcols[j]], DOM)
            assert direct == rotated


def test_complex_traces():
    m = 3
    omega = KForm(2 * m, 2, {(2 * k, 2 * k + 1): Fraction(1) for k in range(m)})
    assert complex_trace_form(omega, DOM) == m
    assert complex_trace_sym(mat_identity(2 * m, DOM), DOM) == m
    W = istd(m, DOM)
    assert complex_trace(W, DOM) == -m     # sum of W[2k, 2k+1] = -1 per block


# ---------------------------------------------------------------------------
# unitary Gram-Schmidt (numeric)
# ---------------------------------------------------------------------------

NUM = NumericDomain(tol=1e-9)


def nmat(rows):
    return [[float(x) for x in row] for row in rows]


def test_gs_identity_returns_standard_basis():
    n = 4
    G = nmat([[1 if i == j else 0 for j in range(n)] for i in range(n)])
    J = nmat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    frame = gram_schmidt_unitary(G, J, NUM)
    for i in range(n):
        for j in range(n):
            assert abs(frame[i][j] - (1.0 if i == j else 0.0)) < 1e-12


def _check_frame(G, J, frame, n):
    def ip(u, v):
        return dot(u, mat_vec(G, v))
    for a in range(n):
        for b in range(n):
            assert abs(ip(frame[a], frame[b]) - (1.0 if a == b else 0.0)) < 1e-9
    for k in range(n // 2):
        jw = mat_vec(J, frame[2 * k])
        for c in range(n):
            assert abs(jw[c] - frame[2 * k + 1][c]) < 1e-9


def test_gs_kodaira_thurston_sample():
    G = nmat([[1, 0, 0, 0], [0, 4, 0, 0], [0, 0, 1, 0], [0, 0, 0, 4]])
    J = nmat([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    frame = gram_schmidt_unitary(G, J, NUM)
    _check_frame(G, J, frame, 4)


def test_gs_twenty_random_pd_j_compatible():
    rng = random.Random(20260810)
    J = nmat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    for _ in range(20):
        B = [[rng.uniform(-1, 1) + (2.5 if i == j else 0) for j in range(4)]
             for i in range(4)]
        # G0 = B^T B is PD; average with J^T G0 J to enforce J-compatibility
        G0 = [[sum(B[k][i] * B[k][j] for k in range(4)) for j in range(4)]
              for i in range(4)]
        JG = [[sum(J[k][i] * sum(G0[k][l] * J[l][j] for l in range(4))
                   for k in range(4)) for j in range(4)] for i in range(4)]
        G = nmat([[0.5 * (G0[i][j] + JG[i][j]) for j in range(4)] for i in range(4)])
        frame = gram_schmidt_unitary(G, J, NUM)
        _check_frame(G, J, frame, 4)


def test_gs_rejects_bad_inputs():
    J = nmat([[0, -1], [1, 0]])
    G = nmat([[1, 0], [0, -1]])          # not positive definite
    with pytest.raises(FrameError):
        gram_schmidt_unitary(G, J, NUM)
    G2 = nmat([[1, 0.5], [0, 1]])        # not symmetric
    with pytest.raises(FrameError):
        gram_schmidt_unitary(G2, J, NUM)
    G3 = nmat([[1, 0.3], [0.3, 2]])      # symmetric PD but not J-compatible
    with pytest.raises(FrameError):
        gram_schmidt_unitary(G3, J, NUM)
    G4 = nmat([[0, 0], [0, 0]])          # symmetric, J-compatible, of rank 0
    with pytest.raises(FrameError, match="rank deficiency"):
        gram_schmidt_unitary(G4, J, NUM)
