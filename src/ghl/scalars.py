"""Exact scalar kernel: sparse multivariate polynomials over the integers and
rational functions over Q, plus a numeric domain over plain floats.

Representation:

  Polynomial      vars:  tuple of parameter names, always sorted alphabetically
                  terms: dict mapping exponent tuples (one int per variable)
                         to int coefficients, the only scalars const, +, -
                         and * take (a Fraction is a TypeError); zero
                         coefficients are never stored, the zero polynomial
                         has terms == {}.  evaluate returns a Fraction.
  RationalFunction  num/den Polynomials in one normal form, fixed when the
                  value is built: coefficients with no common factor, no
                  monomial shared by num and den, den's leading coefficient
                  (graded-lex order) positive, and zero as 0/1.  No GCD is
                  taken, so num and den may still share a non-monomial
                  factor; equality and zero tests go through
                  cross-multiplication (numerators alone over one
                  denominator), which is exact regardless.  Negation keeps
                  the normal form.  text() prints the stored pair.
  NumericDomain   plain Python floats for the numeric backend
                  (square-root-bearing frames); the domain, not the value,
                  holds the comparison tolerance.

Term order everywhere is graded lexicographic over the alphabetically sorted
variable list, which makes serialization deterministic.

Zero and one rules: x + 0, 0 + x, x - 0, -0, x * 0 and 0 * x return an
operand, and Polynomial p * 1 and 1 * p return p once the degree cap is
checked.  A pair in normal form is its own normal form, so that operand is the
(num, den) the full path would rebuild; values are immutable, so sharing it is
thread-safe.
"""

from __future__ import annotations

import operator
from contextvars import ContextVar
from functools import reduce
from fractions import Fraction
from math import gcd as _gcd, isfinite, lcm, prod, sqrt as _math_sqrt
from typing import Iterable, Mapping

__all__ = [
    "DegreeGuardError",
    "PoleError",
    "UsageError",
    "Polynomial",
    "RationalFunction",
    "ExactDomain",
    "NumericDomain",
    "set_degree_cap",
    "get_degree_cap",
    "DEFAULT_DEGREE_CAP",
    "DEFAULT_TOLERANCE",
]

DEFAULT_DEGREE_CAP = 64
DEFAULT_TOLERANCE = 1e-9

# per context (thread or asyncio task), so concurrent callers do not share it
_degree_cap: ContextVar[int] = ContextVar("ghl_degree_cap", default=DEFAULT_DEGREE_CAP)


class DegreeGuardError(ArithmeticError):
    """Total degree exceeded the configured cap: expression blowup."""


class PoleError(ZeroDivisionError):
    """A denominator vanished at the requested parameter point."""


class UsageError(TypeError, ValueError):
    """The caller asked for something the input does not allow: a bad
    literal or option value, a parameter left without a value, or symbolic
    data where constants are needed.  It is a TypeError and a ValueError, as
    the sites that raise it raised one of those before."""


def set_degree_cap(cap: int) -> None:
    if cap < 1:
        raise UsageError("degree cap must be positive")
    _degree_cap.set(cap)


def get_degree_cap() -> int:
    return _degree_cap.get()


_ONE_TERMS = {(): 1}                # the terms of the constant polynomial 1


def _grlex_key(exp: tuple[int, ...]) -> tuple:
    # graded lex: compare total degree first, then exponents left to right.
    return (sum(exp), exp)


class Polynomial:
    """Immutable sparse polynomial with int coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: tuple[str, ...], terms: Mapping[tuple[int, ...], int]):
        # Internal constructor; inputs must already be canonical
        # (sorted variables, no zero coefficients, int coefficients).
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", dict(terms))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial((), {})

    @staticmethod
    def const(c: int) -> "Polynomial":
        if type(c) is not int:
            raise TypeError(f"polynomial coefficients are ints, got {type(c).__name__}")
        return Polynomial((), {(): c} if c else {})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def leading(self) -> tuple[tuple[int, ...], int]:
        """Leading (monomial, coefficient) in graded-lex order, of a nonzero polynomial."""
        m = max(self.terms, key=_grlex_key)
        return m, self.terms[m]

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> int:
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    # -- variable alignment -------------------------------------------------

    def _aligned_to(self, variables: tuple[str, ...]) -> "Polynomial":
        if variables == self.vars:
            return self
        pos = [variables.index(v) for v in self.vars]
        n = len(variables)
        terms = {}
        for exp, c in self.terms.items():
            new = [0] * n
            for p, e in zip(pos, exp):
                new[p] = e
            terms[tuple(new)] = c
        return Polynomial(variables, terms)

    @staticmethod
    def _align(a: "Polynomial", b: "Polynomial"):
        if a.vars == b.vars:
            return a, b
        union = tuple(sorted(set(a.vars) | set(b.vars)))
        return a._aligned_to(union), b._aligned_to(union)

    def _trim(self) -> "Polynomial":
        """Drop variables that no longer occur (keeps keys short)."""
        used = [i for i in range(len(self.vars)) if any(e[i] for e in self.terms)]
        if len(used) == len(self.vars):
            return self
        newvars = tuple(self.vars[i] for i in used)
        terms = {tuple(e[i] for i in used): c for e, c in self.terms.items()}
        return Polynomial(newvars, terms)

    # -- arithmetic ---------------------------------------------------------

    def _combine(self, other, op):
        """self op other for op in (operator.add, operator.sub), term by term;
        with no terms on one side, the other operand (or -other) itself."""
        if type(other) is int:
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other if op is operator.add else -other
        a, b = Polynomial._align(self, other)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            s = op(terms.get(e, 0), c)
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return Polynomial(a.vars, terms)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return Polynomial.const(other) - self

    def __mul__(self, other):
        if type(other) is int:
            if other == 0:
                return Polynomial.zero()
            return Polynomial(self.vars, {e: k * other for e, k in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        cap = _degree_cap.get()
        degree = self.total_degree() + other.total_degree()
        if degree > cap:
            raise DegreeGuardError(f"product degree {degree} exceeds cap {cap}")
        if other.terms == _ONE_TERMS:
            return self
        if self.terms == _ONE_TERMS:
            return other
        a, b = Polynomial._align(self, other)
        if len(b.terms) == 1:
            a, b = b, a
        if len(a.terms) == 1:
            # monomial * polynomial: exponent shift + coefficient scale
            (e1, c1), = a.terms.items()
            if not any(e1):
                return Polynomial(b.vars, {e: c1 * c for e, c in b.terms.items()})
            terms = {tuple(x + y for x, y in zip(e1, e)): c1 * c
                     for e, c in b.terms.items()}
            return Polynomial(a.vars, terms)
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return Polynomial(a.vars, terms)._trim()

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power must be a non-negative integer")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if type(other) is int:
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = Polynomial._align(self, other)
        return a.terms == b.terms

    def __hash__(self):  # pragma: no cover
        raise TypeError("Polynomial is unhashable (equality is semantic)")

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        """sum c * prod(x_i ** e_i) at rational values for every variable."""
        missing = [v for v in self.vars if v not in assignment]
        if missing:
            raise ValueError(f"missing assignment for parameter(s): {', '.join(missing)}")
        point = [Fraction(assignment[v]) for v in self.vars]
        return sum((c * prod(x ** e for x, e in zip(point, exp) if e)
                    for exp, c in self.terms.items()), Fraction(0))

    # -- serialization ------------------------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def text(self) -> str:
        # Round-trip safe under the expression grammar, where unary minus
        # binds inside '^' ("-t^2" would read back as (+t)^2): a leading
        # negative term always spells its coefficient, e.g. "-1*t^2 + 1".
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, exp)
                if e
            )
            coeff = str(abs(c))
            body = coeff if not mono else (mono if c in (1, -1) else f"{coeff}*{mono}")
            parts.append((c < 0, mono, coeff, body))
        neg, mono, coeff, body = parts[0]
        if not neg:
            out = body
        elif mono:
            out = f"-{coeff}*{mono}"   # explicit coefficient: "-1*t^2", "-3*a"
        else:
            out = "-" + body
        for neg, _, _, body in parts[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self):  # pragma: no cover
        return f"Polynomial({self.text()})"


_ZERO = Polynomial((), {})
_ONE = Polynomial((), {(): 1})


def _normal_form(num: Polynomial, den: Polynomial):
    """num/den in normal form: coefficients with no common factor, no
    monomial shared by num and den, den's leading coefficient positive, and
    a zero num over the constant 1.  A pair already in normal form comes
    back as the same objects.  One pass: den's monomial content first (it
    is usually 1 or a monomial), num's only when den has one, then one gcd
    of every coefficient.  Polynomial coefficients are ints, so the gcd is
    the whole content; a Fraction coefficient ends in math.gcd's TypeError."""
    if not num.terms:
        return num, _ONE
    if any(dlow := tuple(map(min, zip(*den.terms)))):
        low = {v: min(e, dlow[den.vars.index(v)])
               for v, e in zip(num.vars, map(min, zip(*num.terms))) if v in den.vars}
        if any(low.values()):
            num, den = (Polynomial(p.vars, {tuple(map(operator.sub, e, shift)): c
                                            for e, c in p.terms.items()})._trim()
                        for p in (num, den) for shift in [[low.get(v, 0) for v in p.vars]])
    g = _gcd(*num.terms.values(), *den.terms.values())
    if den.leading()[1] < 0:
        g = -g
    if g == 1:
        return num, den
    return tuple(Polynomial(p.vars, {e: c // g for e, c in p.terms.items()})
                 for p in (num, den))


class RationalFunction:
    """num/den of Polynomials in normal form (`_normal_form`); equality via
    exact cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = _ONE
        elif den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        num, den = _normal_form(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RationalFunction is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _of(num: Polynomial, den: Polynomial) -> "RationalFunction":
        """The value of a pair already in normal form, taken as it is."""
        v = object.__new__(RationalFunction)
        object.__setattr__(v, "num", num)
        object.__setattr__(v, "den", den)
        return v

    @staticmethod
    def const(c) -> "RationalFunction":
        c = Fraction(c)
        return RationalFunction._of(
            Polynomial((), {(): c.numerator}) if c else _ZERO,
            _ONE if c.denominator == 1 else Polynomial((), {(): c.denominator}))

    @staticmethod
    def param(name: str) -> "RationalFunction":
        return RationalFunction._of(Polynomial((name,), {(1,): 1}), _ONE)

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def eq(self, other: "RationalFunction") -> bool:
        """Representation-independent equality (cross-multiplication)."""
        other = _as_rf(other)
        if self.den == other.den:       # no products over one denominator
            return self.num == other.num
        return (self.num * other.den - other.num * self.den).is_zero()

    def as_fraction(self) -> Fraction:
        return Fraction(self.num.constant_value(), self.den.constant_value())

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.num.terms and other.num.terms):    # x + 0, 0 + x
            return self if self.num.terms else other
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        if not self.num.terms:
            return self
        return RationalFunction._of(-self.num, self.den)    # still normal

    def __sub__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.num.terms and other.num.terms):    # x - 0, 0 - x
            return self if self.num.terms else -other
        if self.den == other.den:
            return RationalFunction(self.num - other.num, self.den)
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return _as_rf(other) - self

    def __mul__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.num.terms and other.num.terms):    # the zero operand
            return other if self.num.terms else self
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_rf(other) / self

    def inv(self) -> "RationalFunction":
        return RationalFunction.const(1) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("power must be an integer")
        if n < 0:
            return self.inv() ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)

    def __eq__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.eq(other)

    def __hash__(self):  # pragma: no cover
        raise TypeError("RationalFunction is unhashable (equality is semantic)")

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        den = self.den.evaluate(assignment)
        if den == 0:
            point = ", ".join(f"{k}={v}" for k, v in sorted(assignment.items()))
            raise PoleError(f"pole at assignment {point}")
        return Fraction(self.num.evaluate(assignment), den)

    # -- serialization ------------------------------------------------------

    def text(self) -> str:
        """`(num) / (den)` of the normal form, den omitted when 1."""
        num, den = self.num, self.den
        if den.is_constant():
            d = den.constant_value()
            if d == 1:
                return num.text()
            if num.is_constant():
                return str(Fraction(num.constant_value(), d))
        return f"({num.text()}) / ({den.text()})"

    def __repr__(self):  # pragma: no cover
        return f"RationalFunction({self.text()})"


class Layout:
    """Packed ring values: {monomial: int} dicts, no zero coefficient, {}
    the zero.  A monomial packs the exponent of names[i] into `width` bits
    at width * i and its degree into the bits from `top` up: while no degree
    exceeds `limit` = 2^width - 1, a monomial product is one int addition
    and a value's degree its largest key >> top (Monagan and Pearce, J.
    Symbolic Comput. 46, 2011).  The width is the degree cap's when the
    layout is made, so a later cap change cannot misread a field."""

    __slots__ = ("names", "width", "top", "limit")

    def __init__(self, names: tuple[str, ...]):
        self.names, self.width = names, _degree_cap.get().bit_length()
        self.top, self.limit = self.width * len(names), (1 << self.width) - 1

    def pack(self, p: Polynomial, shift: int = 0, scale: int = 1) -> dict:
        """scale * p times the monomial keyed shift; the degree is checked
        before packing, as an exponent past its field would carry."""
        degree = p.total_degree() + (shift >> self.top)
        if p.terms and degree > self.limit:
            raise DegreeGuardError(f"degree {degree} exceeds cap {self.limit}")
        offsets = [self.width * self.names.index(x) for x in p.vars]
        return {sum(e << o for e, o in zip(exp, offsets)) + (sum(exp) << self.top) + shift:
                c * scale for exp, c in p.terms.items()}

    def poly(self, v: dict, memo: dict) -> Polynomial:
        """The Polynomial of v over the names it uses, memo keeping the
        exponents of each key under those names."""
        used = reduce(operator.or_, v, 0)
        fields = tuple([o for o in range(0, self.top, self.width) if used >> o & self.limit])
        names = tuple([self.names[o // self.width] for o in fields])
        return Polynomial(names, {memo.get((e, fields)) or memo.setdefault(
            (e, fields), tuple([e >> o & self.limit for o in fields])): c for e, c in v.items()})

    def extreme(self, pick, keys, within: int = -1) -> int:
        """The monomial with each exponent the pick (min or max) of the
        keys', on the variables of the monomial within (all by default)."""
        fields = range(0, self.top, self.width)
        exp = [pick((e >> o & self.limit for e in keys), default=0) if within >> o & self.limit
               else 0 for o in fields]
        return sum(e << o for e, o in zip(exp, fields)) + (sum(exp) << self.top)

    def times(self, m: dict, v: dict) -> dict:
        """m * v for a one-term m, under the degree cap as Polynomial.__mul__."""
        (e, c), = m.items()
        cap = min(_degree_cap.get(), self.limit)
        degree = (e >> self.top) + (max(v, default=0) >> self.top)
        if v and degree > cap:
            raise DegreeGuardError(f"product degree {degree} exceeds cap {cap}")
        return {e + k: c * x for k, x in v.items()}

    def reduce(self, den: dict, values: list, sign: bool = False):
        """(den / g, [v / g for v in values]) for a one-term den and g the
        gcd of every coefficient times the least exponents, negated with
        den's coefficient when `sign`: the normal form of a monomial den."""
        (e, c), = den.items()
        g = _gcd(c, *(x for v in values for x in v.values()))
        g = -g if sign and c < 0 else g
        low = self.extreme(min, [e, *(k for v in values for k in v)], e)
        if g == 1 and not low:
            return den, values
        return {e - low: c // g}, [{k - low: x // g for k, x in v.items()} for v in values]

    def quotient(self, v: dict, den: dict, memo: dict) -> RationalFunction:
        """v / den for a one-term den as `_normal_form` has it; memo shares
        equal dens, and exponents (`poly`), among the calls given it."""
        if not v:
            return _RF_ZERO
        den, (v,) = self.reduce(den, [v], True)
        (e, c), = den.items()
        d = memo.get((e, c)) or memo.setdefault((e, c), self.poly(den, memo))
        return RationalFunction._of(self.poly(v, memo), d)


def _as_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunction.const(x)
    if isinstance(x, Polynomial):
        return RationalFunction(x)
    return NotImplemented


_RF_ZERO, _RF_ONE = RationalFunction.const(0), RationalFunction.const(1)
_FRACTION_ZERO, _FRACTION_ONE = Fraction(0), Fraction(1)


class ExactDomain:
    """Scalar domain Q(params...): values are RationalFunctions."""

    backend = "exact"

    def __init__(self, params: Iterable[str] = ()):
        self.params = tuple(params)

    zero = staticmethod(lambda: _RF_ZERO)        # values are immutable: one of each
    one = staticmethod(lambda: _RF_ONE)

    def from_fraction(self, c) -> RationalFunction:
        return RationalFunction.const(c)

    def param(self, name: str) -> RationalFunction:
        if name not in self.params:
            raise KeyError(f"undeclared parameter: {name}")
        return RationalFunction.param(name)

    @staticmethod
    def is_zero(v) -> bool:
        return v.is_zero()

    @staticmethod
    def eq(a, b) -> bool:
        return _as_rf(a).eq(_as_rf(b))

    @staticmethod
    def text(v) -> str:
        return _as_rf(v).text()

    @staticmethod
    def sqrt(v):
        raise TypeError("the exact backend does not provide square roots")


class FractionDomain:
    """Exact domain over plain Q: values are stdlib Fractions.

    Singer and Killing always run on it (a parameter-free ExactDomain spec is
    copied with `instantiate({})`): Fraction arithmetic is much faster than
    constant RationalFunctions.  Methods tolerate RationalFunction values so
    symbolic t can still flow through mixed expressions."""

    backend = "exact"
    params: tuple = ()

    zero = staticmethod(lambda: _FRACTION_ZERO)  # values are immutable: one of each
    one = staticmethod(lambda: _FRACTION_ONE)

    @staticmethod
    def from_fraction(c) -> Fraction:
        return Fraction(c)

    @staticmethod
    def param(name: str):
        raise KeyError(f"undeclared parameter: {name}")

    @staticmethod
    def is_zero(v) -> bool:
        if isinstance(v, (Polynomial, RationalFunction)):
            return v.is_zero()
        return not v            # numbers, and packed ring values (`Layout`)

    @staticmethod
    def eq(a, b) -> bool:
        if isinstance(a, RationalFunction) or isinstance(b, RationalFunction):
            return _as_rf(a).eq(_as_rf(b))
        return a == b

    @staticmethod
    def text(v) -> str:
        if isinstance(v, RationalFunction):
            return v.text()
        return str(v)

    @staticmethod
    def sqrt(v):
        raise TypeError("the exact backend does not provide square roots")


def _finite(v):
    """v itself; a non-finite float can neither decide a verdict nor print."""
    if not isfinite(v):
        raise ValueError(f"numeric scalar must be finite, got {v!r}")
    return v


class NumericDomain:
    """Scalar domain over plain floats; the domain alone holds the tolerance.

    is_zero is absolute, |a| <= tol; eq is relative,
    |a - b| <= tol * max(1, |a|, |b|)."""

    backend = "numeric"

    def __init__(self, params: Iterable[str] = (), tol: float = DEFAULT_TOLERANCE):
        if not tol >= 0:        # also rejects nan
            raise UsageError("tolerance must be non-negative")
        self.params = tuple(params)
        self.tol = float(tol)

    @staticmethod
    def zero() -> float:
        return 0.0

    @staticmethod
    def one() -> float:
        return 1.0

    @staticmethod
    def from_fraction(c) -> float:
        return float(Fraction(c))

    def param(self, name: str):
        raise TypeError("numeric backend has no symbolic parameters; "
                        "instantiate them via a sample assignment")

    def is_zero(self, v) -> bool:
        return abs(_finite(v)) <= self.tol

    def eq(self, a, b) -> bool:
        a, b = _finite(a), _finite(b)
        return abs(a - b) <= self.tol * max(1.0, abs(a), abs(b))

    @staticmethod
    def text(v) -> str:
        return repr(_finite(v))

    @staticmethod
    def sqrt(v) -> float:
        if _finite(v) < 0:
            raise ValueError("sqrt of negative numeric scalar")
        return _math_sqrt(v)


# -- ring values -----------------------------------------------------------------
#
# A spec's scalars cleared of denominators (`_clear`): ints over an int den,
# or values packed in a `Layout` over a one-term den, as the kernel
# (`multilinear.scatter_products`) sums them; divided back where they leave.


def _plus(a, b, sign: int = 1):
    """a + sign b for sign = +-1, of domain values or of ring values
    (`_clear`): ints, or packed dicts summed monomial by monomial."""
    if type(a) is not dict:
        return a + b if sign > 0 else a - b
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _scale(v, c: int):
    """c v for an int c and a ring value v (`_clear`)."""
    return {e: c * x for e, x in v.items()} if type(v) is dict else c * v


def _clear(values: list, layout: Layout | None = None, den=None):
    """(den, ring, layout) with values[i] == ring[i] / den exactly, in one of
    three ways: Fractions without a layout, RationalFunctions with no
    variable taken as theirs, give an int lcm, ints and no layout;
    RationalFunctions whose denominators are all monomials, and
    Fractions taken as constants (as over a Fraction spec at symbolic t),
    give a one-term den L*x^e, L the lcm of the nonzero values' denominator
    coefficients, and values packed in layout (by default one over the
    values' variables), every zero value the one zero ring value; anything
    else (floats, a non-monomial denominator) gives (1, values, None), the
    list itself.  A given den, a multiple of every value's, is used as it is."""
    consts = () if layout else [v.as_fraction() if isinstance(v, RationalFunction)
                                and not v.num.vars + v.den.vars else v for v in values]
    if layout is None and all(isinstance(v, Fraction) for v in consts):
        den = den or lcm(*(v.denominator for v in consts))
        return den, [v.numerator * (den // v.denominator) for v in consts], None
    if not all(isinstance(v, Fraction) or isinstance(v, RationalFunction)
               and len(v.den.terms) == 1 for v in values):
        return 1, values, None
    nonzero = [(i, v if isinstance(v, RationalFunction) else RationalFunction.const(v))
               for i, v in enumerate(values) if not FractionDomain.is_zero(v)]
    layout = layout or Layout(tuple(sorted({x for _, v in nonzero
                                            for x in v.num.vars + v.den.vars})))
    dens = [next(iter(layout.pack(v.den).items())) for _, v in nonzero]
    den = den or {layout.extreme(max, [e for e, _ in dens]): lcm(*(c for _, c in dens))}
    (top, L), = den.items()
    ring = [{}] * len(values)
    for (i, v), (e, c) in zip(nonzero, dens):
        ring[i] = layout.pack(v.num, top - e, L // c)
    return den, ring, layout


def _times(layout, a, b):
    """a * b of ring values, a one-term when they are packed in layout."""
    return layout.times(a, b) if layout else a * b


def _divide(ring: dict, den, layout) -> dict:
    """{key: ring[key] / den}: Fractions over an int den, RationalFunctions
    over a one-term den in layout (`Layout.quotient`), which share equal
    denominators within the call; values that are not ints stay as they
    are over den 1 (`_tower`'s domain values)."""
    if not layout:
        return {key: Fraction(v, den) if type(v) is int else v for key, v in ring.items()}
    memo = {}
    return {key: layout.quotient(v, den, memo) for key, v in ring.items()}


def _reduce(den, values: list, layout):
    """(den / g, [v / g for v in values]) for g the content that den shares
    with every value: their gcd over an int den and ints, and over a
    one-term den and values packed in layout the gcd of every coefficient
    times the least exponents (`Layout.reduce`).  A reduced pair, and any
    other (den 1 over domain values), comes back as it is."""
    if layout:
        return layout.reduce(den, values)
    if isinstance(den, int) and all(type(v) is int for v in values):
        g = _gcd(den, *values)
        return (den, values) if g == 1 else (den // g, [v // g for v in values])
    return den, values
