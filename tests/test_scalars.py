"""Scalar kernel: exact polynomial/rational-function arithmetic and the
numeric backend."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import ghl.scalars
from ghl.scalars import (DEFAULT_DEGREE_CAP, DegreeGuardError, ExactDomain,
                         FractionDomain, Layout, NumericDomain, PoleError, Polynomial,
                         RationalFunction, UsageError, _normal_form,
                         get_degree_cap, set_degree_cap)
from reference import content, normal_form_two_pass, ratfun_text


def P(name):
    return Polynomial((name,), {(1,): 1})


def R(name):
    return RationalFunction.param(name)


def cleared(num: Polynomial, den: Polynomial):
    """(num, den) with Fraction coefficients times the lcm of their
    coefficient denominators: the same value as an int pair, the only kind
    the engine takes."""
    L = math.lcm(*(c.denominator for p in (num, den) for c in p.terms.values()))
    return tuple(Polynomial(p.vars, {e: int(c * L) for e, c in p.terms.items()})
                 for p in (num, den))


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------


def brute_mul(a: dict, b: dict, nvars: int) -> dict:
    """Independent dict-convolution oracle for polynomial products."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def as_dict(p: Polynomial, variables: tuple) -> dict:
    q = p._aligned_to(tuple(sorted(set(variables) | set(p.vars))))
    return {e: c for e, c in q.terms.items() if c != 0}


def test_monomial_product():
    a = P("alpha")
    assert a * a == a ** 2


def test_difference_of_squares():
    t = P("t")
    assert (t - 1) * (t + 1) == t ** 2 - 1


def test_polynomials_are_unhashable_as_equality_is_semantic():
    """Equal polynomials can differ in their variable tuples, and a constant
    equals an int, so no hash could agree with __eq__."""
    pairs = [(Polynomial(("a",), {(1,): 1}), Polynomial(("a", "b"), {(1, 0): 1})),
             (Polynomial.const(3), 3)]
    for x, y in pairs:
        assert x == y
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
    with pytest.raises(TypeError):
        {Polynomial.zero()}


def test_cube_expansion_against_brute_force():
    # ((alpha^2 + beta^2) r^2 + v^2)^3, 10 monomials in the (a^2, b^2, v^2) grouping
    a, b, r, v = P("alpha"), P("beta"), P("r"), P("v")
    base = (a ** 2 + b ** 2) * r ** 2 + v ** 2
    cubed = base ** 3
    variables = ("alpha", "beta", "r", "v")
    d = as_dict(base, variables)
    expected = brute_mul(brute_mul(d, d, 4), d, 4)
    assert as_dict(cubed, variables) == expected
    # grouping by (alpha, beta, v) exponents: multiset of monomials of (x+y+z)^3
    assert len(cubed.terms) == 10


def test_canonicalization_idempotent():
    a, t = P("alpha"), P("t")
    p = (a + t) * (a - t) + t * t   # = a^2
    assert p == a ** 2
    # no stored zero coefficients, exponents aligned to the variable list
    assert all(c != 0 for c in p.terms.values())
    assert all(len(e) == len(p.vars) for e in p.terms)
    # rebuilding from its own terms is the identity
    assert Polynomial(p.vars, dict(p.terms)) == p


def test_polynomial_evaluate():
    a, t = P("alpha"), P("t")
    p = a ** 2 * (t - 1) ** 2
    assert p.evaluate({"alpha": Fraction(2), "t": Fraction(3)}) == 16
    with pytest.raises(ValueError, match="missing assignment"):
        p.evaluate({"alpha": Fraction(2)})


@pytest.mark.parametrize("build", [
    lambda: Polynomial.const(Fraction(1, 2)),
    lambda: Polynomial.const(1) * Fraction(1, 2),
    lambda: Fraction(1, 2) + Polynomial.const(1),
    lambda: RationalFunction(Polynomial(("a",), {(1,): Fraction(1, 2)})),
], ids=["const", "times", "radd", "ratfun"])
def test_polynomial_coefficients_are_ints_only(build):
    """Int is the one coefficient type: a Fraction scalar, or a polynomial
    built with a Fraction coefficient, is a TypeError; rationals enter a
    value through RationalFunction.const."""
    with pytest.raises(TypeError):
        build()


def test_degree_guard_trips():
    set_degree_cap(16)
    try:
        x = P("x")
        p = x ** 8
        with pytest.raises(DegreeGuardError):
            _ = (p * p) * p
    finally:
        set_degree_cap(DEFAULT_DEGREE_CAP)
    assert get_degree_cap() == DEFAULT_DEGREE_CAP


def test_times_one_still_checks_the_degree_cap():
    p = P("x") ** 8
    one = Polynomial.const(1)
    assert one * p is p and p * one is p
    set_degree_cap(7)
    try:
        with pytest.raises(DegreeGuardError):
            _ = one * p
        with pytest.raises(DegreeGuardError):
            _ = p * one
    finally:
        set_degree_cap(DEFAULT_DEGREE_CAP)


def test_degree_cap_is_per_thread():
    """A cap set in one thread is not seen by another, in either direction."""
    import threading

    seen = {}

    def run_thread(cap):
        def worker():
            if cap is not None:
                set_degree_cap(cap)
            seen["thread"] = get_degree_cap()
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()

    run_thread(2)
    assert seen["thread"] == 2
    assert get_degree_cap() == DEFAULT_DEGREE_CAP

    set_degree_cap(2)
    try:
        run_thread(None)
        assert seen["thread"] == DEFAULT_DEGREE_CAP
        assert get_degree_cap() == 2
    finally:
        set_degree_cap(DEFAULT_DEGREE_CAP)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


def test_ratfun_add_same_denominator():
    a, b, r = R("alpha"), R("beta"), R("r")
    assert (a / r + b / r).eq((a + b) / r)


def test_ratfun_product_inverse():
    t, v = R("t"), R("v")
    a = t - 1
    b = v * v
    assert ((a / b) * (b / a)).eq(RationalFunction.const(1))


def test_kodaira_thurston_denominator_forms_equal():
    r, s, x, y = R("r"), R("sigma"), R("x"), R("y")
    expanded = (r ** 4 * s ** 4 - 2 * r ** 2 * s ** 2 * x ** 2 + x ** 4
                + y ** 4 - (r ** 2 * s ** 2 - x ** 2) * y ** 2 * 2)
    factored = (r ** 2 * s ** 2 - x ** 2 - y ** 2) ** 2
    assert (RationalFunction.const(1) / expanded).eq(RationalFunction.const(1) / factored)
    assert (expanded - factored).is_zero()


def test_are_equal_algebraic_identity():
    a, t = R("alpha"), R("t")
    lhs = a ** 2 * (t - 1) ** 2 / 4
    rhs = (a * (t - 1) / 2) ** 2
    assert lhs.eq(rhs)
    assert ((t - 1) - (t - 1)).is_zero()


def test_evaluate_examples():
    a, b, r, v, t = (R(n) for n in ("alpha", "beta", "r", "v", "t"))
    scal = -(t - 1) * (a ** 2 * r ** 2 + b ** 2 * r ** 2 + v ** 2) ** 3 / (r ** 4 * v ** 4)
    assert scal.evaluate({"t": 1, "alpha": 2, "beta": 3, "r": 1, "v": 1}) == 0
    assert scal.evaluate({"t": 0, "alpha": 1, "beta": 0, "r": 1, "v": 1}) == 8
    p = a ** 2 * (t - 1) ** 2 / 2
    assert p.evaluate({"alpha": 2, "t": 3}) == 8


def test_pole_error_names_the_point():
    r = R("r")
    f = RationalFunction.const(1) / r
    with pytest.raises(PoleError, match="pole at assignment r=0"):
        f.evaluate({"r": 0})


def test_division_by_zero_rational_function():
    r = R("r")
    zero = r - r
    assert zero.is_zero()
    with pytest.raises(ZeroDivisionError):
        r / zero
    with pytest.raises(ZeroDivisionError):
        zero.inv()


# ---------------------------------------------------------------------------
# field axioms and homomorphism properties (hypothesis)
# ---------------------------------------------------------------------------

_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=8)


@st.composite
def small_ratfun(draw, names=("a", "b")):
    """Random small rational function in two variables: c0 + sum of c1 x +
    c2 x^2 over the names, each term there or not, Fractions c cleared."""
    def poly():
        terms = {(0,) * len(names): draw(_fracs)}
        for i in range(len(names)):
            for power in (1, 2):
                if draw(st.booleans()):
                    terms[tuple(power if j == i else 0 for j in range(len(names)))] = draw(_fracs)
        return Polynomial(names, {e: c for e, c in terms.items() if c})._trim()
    num = poly()
    den = poly()
    if den.is_zero():
        den = Polynomial.const(1)
    return RationalFunction(*cleared(num, den))


@settings(max_examples=60, deadline=None)
@given(small_ratfun(), small_ratfun(), small_ratfun())
def test_field_axioms(a, b, c):
    assert ((a + b) + c).eq(a + (b + c))
    assert (a * (b + c)).eq(a * b + a * c)
    assert (a + b).eq(b + a)
    if not a.is_zero():
        assert (a * a.inv()).eq(RationalFunction.const(1))


@settings(max_examples=60, deadline=None)
@given(small_ratfun(), small_ratfun(),
       st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_evaluate_is_field_homomorphism(a, b, x, y):
    point = {"a": x, "b": y}
    try:
        va, vb = a.evaluate(point), b.evaluate(point)
    except PoleError:
        return
    assert (a + b).evaluate(point) == va + vb
    assert (a - b).evaluate(point) == va - vb
    assert (a * b).evaluate(point) == va * vb
    if vb != 0 and not b.is_zero():
        assert (a / b).evaluate(point) == va / vb


@settings(max_examples=40, deadline=None)
@given(small_ratfun(), small_ratfun(), small_ratfun())
def test_are_equal_representation_independent(a, b, f):
    if f.num.is_zero():
        return
    # multiplying num and den by a common factor changes nothing
    blown = RationalFunction(a.num * f.num, a.den * f.num)
    assert blown.eq(a)
    assert a.eq(b) == blown.eq(b)


def _terms(x):
    return x.num.terms, x.den.terms


@settings(max_examples=60, deadline=None)
@given(small_ratfun())
def test_zero_and_one_operands_match_a_fresh_build(x):
    zero, one = RationalFunction.const(0), RationalFunction.const(1)
    fresh = RationalFunction(x.num, x.den)
    negated = RationalFunction(-x.num, x.den)
    for got, want in [(x + zero, fresh), (zero + x, fresh), (x - zero, fresh),
                      (zero - x, negated), (x * one, fresh), (one * x, fresh),
                      (x * zero, zero), (zero * x, zero)]:
        assert got.text() == want.text()
        assert _terms(got) == _terms(want)
    if not x.is_zero():                     # else either zero may come back
        assert x + zero is x and zero + x is x and x - zero is x
        assert x * zero is zero and zero * x is zero


def test_domains_share_one_zero_and_one():
    """ExactDomain and FractionDomain return one shared immutable zero and
    one, equal term for term to a fresh build; the bundled report bytes
    that every use of them feeds are pinned in test_acceptance."""
    for dom in (ExactDomain(), ExactDomain(("a",)), FractionDomain()):
        assert dom.zero() is dom.zero() and dom.one() is dom.one()
    assert ExactDomain().zero() is ExactDomain(("a",)).zero()
    exact = ExactDomain()
    assert _terms(exact.zero()) == _terms(RationalFunction.const(0))
    assert _terms(exact.one()) == _terms(RationalFunction.const(1))
    assert FractionDomain.zero() == 0 and FractionDomain.one() == 1
    assert type(FractionDomain.zero()) is Fraction


def test_zero_operands_skip_the_reduction(monkeypatch):
    x = R("a") / (R("b") + 1)
    zero = RationalFunction.const(0)
    calls = []

    def counting(num, den):
        calls.append(1)
        return reduce(num, den)

    reduce = ghl.scalars._normal_form
    monkeypatch.setattr(ghl.scalars, "_normal_form", counting)
    assert x + zero is x
    assert zero * x is zero
    assert calls == []
    RationalFunction(x.num, x.den)
    assert calls == [1]


@settings(max_examples=200, deadline=None)
@given(small_ratfun())
def test_reduction_leaves_a_built_value_unchanged(x):
    """The zero and one rules return an operand where the full path would
    build the normal form once more; the two agree because a pair in normal
    form is its own, returned as the same objects."""
    num, den = _normal_form(x.num, x.den)
    assert num is x.num and den is x.den


def test_reduction_is_idempotent_where_it_used_to_move():
    a, b, r = P("a"), P("b"), P("r")
    # the monomial cancellation leaves 2*r^6, whose content 2 is coprime to num's
    x = RationalFunction(r ** 2 * (a + 1), r ** 8 * 2)
    assert x.den.terms == {(6,): 2}
    # the content 1/28 of the denominator shows only after the unit prefix 6, -5
    y = RationalFunction(*cleared(
        Polynomial(("a",), {(0,): Fraction(-27, 2), (2,): Fraction(-22, 3)}),
        Polynomial(("a", "b"), {(1, 0): 6, (0, 0): -5, (2, 0): Fraction(7, 4),
                                (0, 2): Fraction(10, 7)})))
    for v in (x, y):
        num, den = _normal_form(v.num, v.den)
        assert num is v.num and den is v.den


def test_content_is_exact_after_a_unit_prefix():
    p = Polynomial(("a",), {(0,): 1, (1,): Fraction(1, 2)})
    assert list(p.terms.values()) == [1, Fraction(1, 2)]
    assert content(p) == Fraction(1, 2)


@st.composite
def fraction_pair(draw, names=("a", "b", "r")):
    """(num, den) with Fraction coefficients over a few monomials, den nonzero
    and often not a monomial."""
    def poly(min_size):
        terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(names)),
                                     _fracs.filter(bool), min_size=min_size, max_size=4))
        return Polynomial(names, terms)
    return poly(0), poly(1)


def _in_normal_form(x) -> bool:
    num, den = Polynomial._align(x.num, x.den)
    coeffs = [*num.terms.values(), *den.terms.values()]
    low = [min(e[i] for p in (num, den) for e in p.terms) for i in range(len(num.vars))]
    return (all(type(c) is int for c in coeffs) and math.gcd(*coeffs) == 1
            and not any(low) and den.leading()[1] > 0
            and (bool(num.terms) or den.terms == {(0,) * len(den.vars): 1}))


@settings(max_examples=200, deadline=None)
@given(fraction_pair())
def test_normal_form_prints_as_the_text_normalisation(pair):
    """Built from any pair, a value holds its normal form, and text() of it is
    what normalising the pair for printing gives; rebuilding it from its own
    num and den returns the same objects."""
    num, den = pair
    x = RationalFunction(*cleared(num, den))
    assert x.text() == ratfun_text(num, den)
    assert _in_normal_form(x)
    y = RationalFunction(x.num, x.den)
    assert y.num is x.num and y.den is x.den


def test_constant_values_are_built_in_normal_form():
    for c in (0, 3, -4, Fraction(-6, 4), "5/10"):
        x = RationalFunction.const(c)
        assert _in_normal_form(x)
        assert x.as_fraction() == Fraction(c) and type(x.as_fraction()) is Fraction
        assert x.text() == str(Fraction(c))
    x = ExactDomain(("a",)).param("a")
    assert _in_normal_form(x) and x.text() == "a"
    assert type(x.evaluate({"a": 3})) is Fraction


@settings(max_examples=100, deadline=None)
@given(small_ratfun(), st.tuples(*[st.integers(0, 3)] * 3),
       st.fractions(min_value=-4, max_value=4, max_denominator=8).filter(bool))
def test_text_ignores_a_common_monomial_and_scalar(x, exps, c):
    """(c z num) / (c z den) prints as num / den for a monomial z."""
    z = Polynomial.const(1)
    for name, e in zip(("a", "b", "r"), exps):
        z = z * P(name) ** e
    num, den = (Polynomial(p.vars, {e: k * c for e, k in p.terms.items()})
                for p in (x.num * z, x.den * z))
    assert RationalFunction(*cleared(num, den)).text() == x.text()


def test_text_normalises_by_the_exact_content():
    """The content of den and of num is read over every term, whatever the
    order the terms were inserted in."""
    v = P("v")
    x = RationalFunction(*cleared(
        Polynomial(("a", "v"), {(0, 4): Fraction(1, 2), (4, 0): Fraction(-1, 2)}), v ** 2))
    assert x.text() == "(-1*a^4 + v^4) / (2*v^2)"
    y = RationalFunction(*cleared(Polynomial(("a",), {(0,): 1, (1,): Fraction(1, 2)}), v))
    assert y.text() == "(a + 2) / (2*v)"


_coeffs = st.one_of(st.integers(-6, 6), _fracs).filter(bool)


@st.composite
def mixed_pair(draw, names=("a", "b", "r", "t")):
    """(num, den) over their own sorted subsets of names, an unused variable
    left in now and then, int and Fraction coefficients, num possibly zero,
    den's leading coefficient of either sign, and often a monomial factor
    shared by both."""
    shift = draw(st.tuples(*[st.integers(0, 2)] * len(names)))

    def poly(min_size):
        used = tuple(sorted(draw(st.sets(st.sampled_from(names)))))
        exps = st.tuples(*[st.integers(0, 3)] * len(used)).map(
            lambda e: tuple(x + shift[names.index(v)] for x, v in zip(e, used)))
        return Polynomial(used, draw(st.dictionaries(exps, _coeffs, min_size=min_size,
                                                     max_size=4)))
    return poly(0), poly(1)


def _fields(p: Polynomial):
    return p.vars, p.terms, sorted(type(c).__name__ for c in p.terms.values())


@settings(max_examples=300, deadline=None)
@given(mixed_pair())
@example((Polynomial(("t",), {}), Polynomial(("a",), {(1,): -2, (0,): 1})))
@example((Polynomial(("a", "r"), {(1, 2): Fraction(3, 2), (0, 3): -3}),
          Polynomial(("b", "r", "t"), {(0, 2, 0): -4, (1, 5, 0): -6})))
def test_normal_form_equals_the_two_pass_reference(pair):
    """The one-pass `_normal_form` gives the (vars, terms) pairs, coefficient
    types included, of the two-pass form it replaced
    (`reference.normal_form_two_pass`, which reads the pair before its
    Fractions are cleared), and a pair it returns comes back as the same
    objects."""
    got, want = _normal_form(*cleared(*pair)), normal_form_two_pass(*pair)
    assert [_fields(p) for p in got] == [_fields(p) for p in want]
    again = _normal_form(*got)
    assert again[0] is got[0] and again[1] is got[1]


@settings(max_examples=200, deadline=None)
@given(mixed_pair())
def test_negation_keeps_the_normal_form(pair):
    """-x is RationalFunction(-x.num, x.den) field by field, built without
    `_normal_form`: negating num keeps every property of the normal form."""
    x = RationalFunction(*cleared(*pair))
    neg, want = -x, RationalFunction(-x.num, x.den)
    assert _fields(neg.num) == _fields(want.num) and _fields(neg.den) == _fields(want.den)
    assert neg.den is x.den and (neg is x if x.is_zero() else neg.num is not x.num)
    assert -neg == x and _in_normal_form(neg)


def test_negation_builds_no_normal_form(monkeypatch):
    x = R("a") / (R("b") * 2 - 1)
    monkeypatch.setattr(ghl.scalars, "_normal_form", None)
    assert (-x).num.terms == {(1,): -1}


def test_equality_over_one_denominator_forms_no_product(monkeypatch):
    """Values over one denominator compare by their numerators: no
    Polynomial product, so no degree cap check either."""
    a8 = P("a") ** 8
    x, x1 = RationalFunction(a8, P("b") + 1), RationalFunction(a8 + P("b"), P("b") + 1)
    y = RationalFunction(a8 + 1)
    monkeypatch.setattr(Polynomial, "__mul__", None)
    assert x == RationalFunction(x.num, x.den) and x != x1
    assert y == RationalFunction(y.num) and y != RationalFunction(a8)


# ---------------------------------------------------------------------------
# packed ring values (`Layout`)
# ---------------------------------------------------------------------------


@st.composite
def packed_quotients(draw):
    """(nums, den): int Polynomials over subsets of _NAMES, zero included,
    and a one-term den c * x^e, c of either sign."""
    def poly(min_size, max_size):
        names = tuple(sorted(draw(st.sets(st.sampled_from(_NAMES)))))
        exps = st.tuples(*[st.integers(0, 3)] * len(names))
        terms = st.dictionaries(exps, st.integers(-12, 12).filter(bool),
                                min_size=min_size, max_size=max_size)
        return Polynomial(names, draw(terms))
    return [poly(0, 4) for _ in range(draw(st.integers(1, 3)))], poly(1, 1)


@settings(max_examples=300, deadline=None)
@given(packed_quotients())
def test_packed_divided_read_equals_the_rational_function(case):
    """The divided read of packed numerators over a packed one-term den
    (`geometry._divide`) gives RationalFunction(num, den) for each: num and
    den == term for term, and the same text; the values share one den
    object where their dens are equal."""
    from ghl import geometry as geo
    nums, den = case
    layout = Layout(_NAMES)
    got = geo._divide({i: layout.pack(p) for i, p in enumerate(nums)}, layout.pack(den), layout)
    for i, num in enumerate(nums):
        want = RationalFunction(num, den)
        assert (got[i].num, got[i].den) == (want.num, want.den)
        assert got[i].text() == want.text()
    for x, y in itertools.combinations([x for x in got.values() if not x.is_zero()], 2):
        assert (x.den is y.den) == (x.den == y.den)


# ---------------------------------------------------------------------------
# differential test against SymPy
# ---------------------------------------------------------------------------

_NAMES = ("a", "b", "c")


@st.composite
def int_ratfun(draw):
    """An int-coefficient rational function in up to three variables."""
    def poly(min_size):
        exps = st.tuples(*[st.integers(0, 2)] * len(_NAMES))
        terms = draw(st.dictionaries(exps, st.integers(-5, 5).filter(bool),
                                     min_size=min_size, max_size=3))
        return Polynomial(_NAMES, terms)._trim()
    return RationalFunction(poly(0), poly(1))


def to_sympy(x: RationalFunction):
    import sympy

    def poly(p: Polynomial):
        return sympy.Add(*(c * sympy.Mul(*(sympy.Symbol(v) ** e for v, e in zip(p.vars, exp)))
                           for exp, c in p.terms.items()))
    return poly(x.num) / poly(x.den)


@settings(max_examples=20, deadline=None)
@given(int_ratfun(), int_ratfun(), st.integers(-2, 3),
       st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=5)] * len(_NAMES)))
def test_exact_kernel_agrees_with_sympy(x, y, n, point):
    """+, -, *, /, ** n, evaluate at a rational point, and text() parsed back
    through exprparse, each exactly as SymPy has it: the cancelled
    difference from SymPy's result is 0, that of the parsed text from the
    value too, and away from a pole of the stored den the value at the point
    is SymPy's."""
    sympy = pytest.importorskip("sympy")
    from ghl.exprparse import parse_expression, to_scalar
    X, Y = to_sympy(x), to_sympy(y)
    cases = [(x, X), (x + y, X + Y), (x - y, X - Y), (x * y, X * Y)]
    if not y.is_zero():
        cases.append((x / y, X / Y))
    if n >= 0 or not x.is_zero():
        cases.append((x ** n, X ** n))
    dom = ExactDomain(_NAMES)
    at = dict(zip(_NAMES, point))
    subs = {sympy.Symbol(v): sympy.Rational(q.numerator, q.denominator) for v, q in at.items()}
    for got, want in cases:
        expr = to_sympy(got)
        assert sympy.cancel(expr - want) == 0, got.text()
        back = to_scalar(parse_expression(got.text()), dom)
        assert sympy.cancel(to_sympy(back) - expr) == 0, got.text()
        if got.den.evaluate(at) == 0:
            with pytest.raises(PoleError):
                got.evaluate(at)
        else:
            value = got.evaluate(at)
            assert sympy.Rational(value.numerator, value.denominator) == expr.subs(subs), \
                got.text()


# ---------------------------------------------------------------------------
# numeric backend
# ---------------------------------------------------------------------------


def test_numeric_scalar_basics():
    num = NumericDomain()
    x = 2.0
    assert num.eq(num.sqrt(x), 2.0 ** 0.5)
    assert num.is_zero(x - x)
    assert num.eq(x, 2.0 + 1e-12)
    assert not num.eq(x, 2.1)
    with pytest.raises(ValueError):
        num.sqrt(-1.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        for check in (num.is_zero, num.text, num.sqrt,
                      lambda v: num.eq(v, 1.0), lambda v: num.eq(1.0, v)):
            with pytest.raises(ValueError, match="finite"):
                check(bad)
    for bad_tol in (-1.0, float("nan")):
        with pytest.raises(UsageError):
            NumericDomain(tol=bad_tol)
    with pytest.raises(TypeError, match="no symbolic parameters"):
        num.param("a")


def test_numeric_comparison_is_relative_hybrid():
    num = NumericDomain()
    big = 1e12
    assert num.eq(big, 1e12 * (1 + 1e-10))
    assert not num.eq(big, 1e12 * (1 + 1e-6))


def test_exact_domain_rejects_sqrt_and_undeclared():
    dom = ExactDomain(("alpha",))
    with pytest.raises(TypeError):
        dom.sqrt(dom.one())
    with pytest.raises(KeyError):
        dom.param("beta")
    with pytest.raises(TypeError, match="square roots"):
        FractionDomain.sqrt(Fraction(4))
    with pytest.raises(KeyError, match="undeclared"):
        FractionDomain.param("alpha")


def test_scalar_guards_a_caller_can_reach():
    """Every raise of the scalar kernel's values that no engine path
    reaches, reached from outside: immutable and unhashable values, a
    non-constant as a constant, bad powers, a zero denominator, operands of
    no scalar type, and the degree guards of a packed value (`Layout.pack`,
    as for a value cleared after the cap was lowered) and of a packed
    product (`Layout.times`)."""
    a = R("a")
    for value, name in ((P("a"), "vars"), (a, "num")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, None)
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    with pytest.raises(ValueError, match="not constant"):
        a.as_fraction()
    with pytest.raises(ValueError, match="non-negative integer"):
        P("a") ** -1
    with pytest.raises(ValueError, match="integer"):
        a ** Fraction(1, 2)
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        RationalFunction(P("a"), Polynomial.zero())
    assert P("a") != "a"
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        assert getattr(a, op)("a") is NotImplemented, op
    assert (2 / a).eq(RationalFunction.const(2) / a)
    layout = Layout(("a", "b"))
    with pytest.raises(DegreeGuardError, match=f"degree 200 exceeds cap {layout.limit}"):
        layout.pack(Polynomial(("a", "b"), {(100, 100): 1}))
    cap = get_degree_cap()
    high, low = layout.pack(P("a") ** (cap - 1)), layout.pack(P("a"))
    assert layout.times(high, low) == layout.pack(P("a") ** cap)
    with pytest.raises(DegreeGuardError, match=f"product degree {cap + 1} exceeds cap {cap}"):
        layout.times(high, layout.pack(P("a") ** 2))
