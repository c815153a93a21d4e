"""Expression grammar and the print -> parse round trip."""

import random
from fractions import Fraction

import pytest

from ghl.exprparse import (ExprSyntaxError, UndeclaredParameterError,
                           parse_expression, to_linear_combination, to_scalar)
from ghl.scalars import ExactDomain, RationalFunction

DOM = ExactDomain(("alpha", "beta", "r", "v", "t", "a", "b"))


def val(text):
    return to_scalar(parse_expression(text), DOM)


def test_simple_tree_value():
    got = val("alpha*(t-1)/2")
    expected = RationalFunction.param("alpha") * (RationalFunction.param("t") - 1) / 2
    assert got.eq(expected)


def test_kodaira_scal_expression_evaluates():
    e = val("-(t-1)*(a^2*r^2+b^2*r^2+v^2)^3/(r^4*v^4)")
    assert e.evaluate({"a": 1, "b": 0, "r": 1, "v": 1, "t": 0}) == 8


def test_negative_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expression("alpha^-1")


def test_unary_minus_binds_inside_power():
    # grammar: base := ... | '-' base, so -a^2 is (-a)^2
    assert val("-alpha^2").eq(RationalFunction.param("alpha") ** 2)
    assert val("-(alpha^2)").eq(-(RationalFunction.param("alpha") ** 2))


def test_syntax_error_reports_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("alpha + @")
    assert err.value.offset == 8


@pytest.mark.parametrize("text, message, offset", [
    ("(alpha + 1", "expected ')'", 10),
    ("alpha 1", "unexpected trailing input 1", 6),
    ("alpha)", "unexpected trailing input ')'", 5),
    ("   ", "empty expression", 0),
    ("alpha + *", "expected integer, parameter or '('", 8),
])
def test_syntax_errors_name_what_was_expected(text, message, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression(text)
    assert str(err.value) == f"{message} (at byte offset {offset})"


def test_undeclared_parameter_named():
    with pytest.raises(UndeclaredParameterError, match="gamma"):
        val("gamma + 1")


def test_left_associativity():
    assert val("8/4/2").eq(RationalFunction.const(1))
    assert val("8-4-2").eq(RationalFunction.const(2))


def test_whitespace_insensitive():
    assert val("  alpha *(t - 1)/ 2 ").eq(val("alpha*(t-1)/2"))


def test_linear_combination():
    vec = to_linear_combination(parse_expression("alpha*e4 + beta*e5 - e0/2"), DOM, 6)
    assert vec[4].eq(RationalFunction.param("alpha"))
    assert vec[5].eq(RationalFunction.param("beta"))
    assert vec[0].eq(RationalFunction.const(Fraction(-1, 2)))
    assert all(vec[i].is_zero() for i in (1, 2, 3))


def test_linear_combination_scales_a_vector_from_either_side():
    left = to_linear_combination(parse_expression("e1*alpha/2"), DOM, 4)
    right = to_linear_combination(parse_expression("alpha/2*e1"), DOM, 4)
    assert all(x.eq(y) for x, y in zip(left, right))
    assert left[1].eq(RationalFunction.param("alpha") / 2)


def test_linear_combination_rejections():
    with pytest.raises(ExprSyntaxError):
        to_linear_combination(parse_expression("e0*e1"), DOM, 4)
    with pytest.raises(ExprSyntaxError):
        to_linear_combination(parse_expression("e9"), DOM, 4)
    with pytest.raises(ExprSyntaxError):
        to_linear_combination(parse_expression("alpha"), DOM, 4)  # scalar part
    with pytest.raises(ExprSyntaxError):
        to_linear_combination(parse_expression("1/e1"), DOM, 4)


@pytest.mark.parametrize("text, n, message, offset", [
    ("e1/(a - a)", 4, "division by zero", 3),
    ("e1 + e2/(b*0)", 4, "division by zero", 8),
    ("alpha*e1 + e0*e1", 4, r"vector \* vector", 11),
    ("e0 + 2/e1", 4, "division by a basis vector", 7),
    ("e0 + 2*e9", 4, "basis index out of range: e9", 7),
    ("2 + (e1)^2", 4, "raise a basis vector", 4),
    ("1 + e0", 0, "basis vector e0 not allowed", 4),
    ("  alpha", 4, r"scalar \(basis-free\) part", 2),
])
def test_semantic_errors_name_the_offending_node(text, n, message, offset):
    """A semantic error reports the byte offset of the node at fault: the
    divisor of a division (its '(' when parenthesised), else the node's
    first token."""
    node = parse_expression(text)
    with pytest.raises(ExprSyntaxError, match=message) as err:
        if n:
            to_linear_combination(node, DOM, n)
        else:
            to_scalar(node, DOM)
    assert err.value.offset == offset
    assert str(err.value).endswith(f"(at byte offset {offset})")


def _random_ratfun(rng: random.Random) -> RationalFunction:
    names = ("alpha", "r", "t")

    def poly():
        p = RationalFunction.const(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        for name in names:
            for power in (1, 2, 3):
                if rng.random() < 0.35:
                    c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    p = p + RationalFunction.param(name) ** power * c
        return p
    num = poly()
    den = poly()
    if den.is_zero():
        den = RationalFunction.const(1)
    return num / den


def test_print_parse_round_trip_100_random():
    rng = random.Random(20260810)
    dom = ExactDomain(("alpha", "r", "t"))
    for _ in range(100):
        f = _random_ratfun(rng)
        text = f.text()
        back = to_scalar(parse_expression(text), dom)
        assert back.eq(f), text
