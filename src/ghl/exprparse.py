"""Recursive-descent parser for parameter expressions and bracket values.

Grammar (whitespace-insensitive, left-associative):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' nonneg-int)?
    base   := integer | identifier | '(' expr ')' | '-' base

Identifiers are declared parameter names; inside bracket values the tokens
e0..e{n-1} are reserved basis vectors and the result is a linear combination
of them (scalar * vector products only, no vector * vector).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

__all__ = ["ExprNode", "ExprSyntaxError", "UndeclaredParameterError",
           "parse_expression", "to_scalar", "to_linear_combination"]

_BASIS_RE = re.compile(r"^e(\d+)$")
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class UndeclaredParameterError(ValueError):
    def __init__(self, name: str):
        super().__init__(f"undeclared parameter: {name}")
        self.name = name


@dataclass(frozen=True)
class ExprNode:
    kind: str                       # integer|parameter|add|sub|mul|div|pow|neg
    children: tuple = ()
    value: int | str | None = None  # int payload or parameter name
    offset: int = 0                 # byte offset of the node's first token


def _tokenize(text: str):
    tokens = []
    pos = 0
    text = text.rstrip()
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            at = n - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[:1]!r}", at)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        self.next()

    def parse(self) -> ExprNode:
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {val!r}", off)
        return node

    def expr(self) -> ExprNode:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = ExprNode("add" if val == "+" else "sub", (node, rhs), offset=node.offset)
            else:
                return node

    def term(self) -> ExprNode:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                node = ExprNode("mul" if val == "*" else "div", (node, rhs), offset=node.offset)
            else:
                return node

    def factor(self) -> ExprNode:
        node = self.base()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.next()
            ekind, eval_, eoff = self.peek()
            if ekind != "int":
                raise ExprSyntaxError("exponent must be a non-negative integer literal", eoff)
            self.next()
            node = ExprNode("pow", (node,), eval_, node.offset)
        return node

    def base(self) -> ExprNode:
        kind, val, off = self.next()
        if kind == "int":
            return ExprNode("integer", value=val, offset=off)
        if kind == "name":
            return ExprNode("parameter", value=val, offset=off)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return replace(node, offset=off)
        if kind == "op" and val == "-":
            return ExprNode("neg", (self.base(),), offset=off)
        raise ExprSyntaxError(f"expected integer, parameter or '('", off)


def parse_expression(text: str) -> ExprNode:
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


def to_scalar(node: ExprNode, domain):
    """Evaluate an ExprNode to a domain scalar (no basis vectors allowed)."""
    return _lin(node, domain, 0, domain.zero())[0]


def to_linear_combination(node: ExprNode, domain, n: int):
    """Evaluate a bracket value to a vector: list of n domain scalars.

    Values are affine combinations scalar + sum_i scalar_i * e_i; a nonzero
    pure-scalar part or any vector*vector product is rejected.
    """
    scal, vec = _lin(node, domain, n, domain.zero())
    if not domain.is_zero(scal):
        raise ExprSyntaxError("bracket value has a scalar (basis-free) part", node.offset)
    return vec


def _lin(node: ExprNode, domain, n: int, zero):
    """(scalar part, vector part) of a node; with n = 0 a basis vector is an
    error, so the scalar part is the value of a scalar expression.  An error
    names the offset of the offending node: the divisor of a division, else
    the node itself."""
    if node.kind == "integer":
        return domain.from_fraction(node.value), [zero] * n
    if node.kind == "parameter":
        m = _BASIS_RE.match(node.value)
        if m:
            if n == 0:
                raise ExprSyntaxError(
                    f"basis vector {node.value} not allowed in a scalar expression", node.offset)
            idx = int(m.group(1))
            if idx >= n:
                raise ExprSyntaxError(f"basis index out of range: {node.value}", node.offset)
            vec = [zero] * n
            vec[idx] = domain.one()
            return zero, vec
        if node.value not in domain.params:
            raise UndeclaredParameterError(node.value)
        return domain.param(node.value), [zero] * n
    if node.kind == "neg":
        s, v = _lin(node.children[0], domain, n, zero)
        return -s, [-x for x in v]
    if node.kind == "pow":
        s, v = _lin(node.children[0], domain, n, zero)
        if any(not domain.is_zero(x) for x in v):
            raise ExprSyntaxError("cannot raise a basis vector to a power", node.offset)
        return s ** node.value, [zero] * n
    a_s, a_v = _lin(node.children[0], domain, n, zero)
    b_s, b_v = _lin(node.children[1], domain, n, zero)
    if node.kind == "add":
        return a_s + b_s, [x + y for x, y in zip(a_v, b_v)]
    if node.kind == "sub":
        return a_s - b_s, [x - y for x, y in zip(a_v, b_v)]
    a_isvec = any(not domain.is_zero(x) for x in a_v)
    b_isvec = any(not domain.is_zero(x) for x in b_v)
    if node.kind == "mul":
        if a_isvec and b_isvec:
            raise ExprSyntaxError("vector * vector is not allowed in bracket values", node.offset)
        if a_isvec:
            return a_s * b_s, [x * b_s for x in a_v]
        return a_s * b_s, [a_s * y for y in b_v]
    if node.kind == "div":
        if b_isvec:
            raise ExprSyntaxError("division by a basis vector is not allowed",
                                  node.children[1].offset)
        if domain.is_zero(b_s):
            raise ExprSyntaxError("division by zero", node.children[1].offset)
        return a_s / b_s, [x / b_s for x in a_v]
    raise ValueError(f"unknown node kind {node.kind}")  # pragma: no cover
