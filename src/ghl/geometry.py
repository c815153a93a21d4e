"""Gauduchon-family geometry of a locally homogeneous almost-Hermitian space
presented by Lie-bracket structure constants in an adapted frame.

A BracketSpec stores mu^c_{ab} on R^{q+2m}; the first q coordinates span the
isotropy, the last 2m carry the standard complex structure I (pairs adjacent,
I e_{2k} = e_{2k+1}) and the standard inner product.  All operators on the
reductive complement are 2m x 2m matrices in column action.

Sign conventions are normalized against the worked examples (see tests):

    F(X,Y,Z)   = <mu(IX,IY),Z> + <mu(IY,IZ),X> + <mu(IZ,IX),Y>     (= d^c w)
    N(X,Y)     = mu(IX,IY) - mu(X,Y) - I(mu(IX,Y) + mu(X,IY))
    <S(X)Y,Z>  = -1/2(<mu(X,Y),Z> + <mu(Z,X),Y> + <mu(Z,Y),X>)
    <A_t(X)Y,Z>= <S(X)Y,Z> - (t+1)/4 F+(X,IY,IZ) - (t-1)/4 F+(X,Y,Z)
                 + 1/4 <N(Y,Z),X> - 1/2 F-(X,Y,Z)
    Rm(X,Y)    = ad(mu_h(X,Y)) - [S(X),S(Y)] - S(mu_m(X,Y))
    Om_t(X,Y)  = ad(mu_h(X,Y)) - [A(X),A(Y)] - A(mu_m(X,Y))
    T_t(X,Y)   = A(X)Y - A(Y)X - mu_m(X,Y)
    theta      : d(w^{m-1}) = theta ^ w^{m-1},  w = sum_k e^{2k} ^ e^{2k+1},
                 d = multilinear.coboundary; read as the w-trace
                 theta(X) = sum_k dw(X, e_{2k}, e_{2k+1}); tr T_t(X,.) = (t+1)/2 theta(X)

Ricci forms and the scalar follow the m-pair traces: rho2 is the matrix
sum_k Om(e_{2k}, e_{2k+1}), rho1(X,Y) = 1/2(c(Om(X,Y)) + c(Om(IX,IY))) with
c(W) = sum_k W[2k, 2k+1], and scal = 2 sum_k rho[2k, 2k+1] from either.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .multilinear import (
    KForm, MultiTensor, commutator, complex_trace, action_terms, coboundary, index_rows,
    mat_add, mat_sub, mat_zero, scatter_products, unpack,
    complex_trace_form, _conn_endo, _matrices, _product_terms, _sparse,
)
from .scalars import (FractionDomain, Layout, RationalFunction, UsageError, get_degree_cap,
                      _clear, _divide, _plus, _reduce, _scale, _times)

__all__ = [
    "BracketSpec", "ValidationReport", "ConditionResult", "TorsionData",
    "DerivativeTuple", "SingerResult", "KillingResult", "AuditReport",
    "InternalConsistencyError", "validate", "reduce_non_effective",
    "torsion_ingredients", "levi_civita",
    "gauduchon_connection", "riemann_curvature", "gauduchon_curvature_torsion",
    "gauduchon_tables",
    "ricci_and_scalar", "rho2_matrix", "lee_form", "covariant_derivative",
    "hermitian_s_tuple", "check_x1_identities", "singer_invariant",
    "killing_generators", "nomizu_bracket", "metric_flags", "connection_audit",
    "symbolic_t",
]


class InternalConsistencyError(AssertionError):
    """A theorem-level identity failed: engine defect, not bad data."""


def symbolic_t() -> RationalFunction:
    """The Gauduchon parameter as a polynomial variable."""
    return RationalFunction.param("t")


class BracketSpec:
    """Unitary transitive Lie algebra data in an adapted frame."""

    def __init__(self, q: int, m: int, mu: dict, domain, name: str = "",
                 params: Sequence[str] = ()):
        if q < 0 or m < 1:
            raise ValueError("need q >= 0 and m >= 1")
        self.q = q
        self.m = m
        self.n = q + 2 * m
        self.name = name
        self.params = tuple(params)
        self.domain = domain
        store = {}
        for (a, b), vec in mu.items():
            if not (0 <= a < b < self.n):
                raise ValueError(f"bad bracket key ({a},{b})")
            vec = list(vec)
            if len(vec) != self.n:
                raise ValueError("bracket value has wrong length")
            if any(not domain.is_zero(c) for c in vec):
                store[(a, b)] = vec
        self.mu_store = store
        self._rings = {}            # layout key -> `_RingForm`, built on first use

    # -- bracket access ------------------------------------------------------

    @cached_property
    def mu(self) -> list[list[list]]:
        """mu[a][b] = mu(e_a, e_b) for all a, b in 0..n-1, the `_pair_table`
        of `mu_store`: 0.0 - x below the diagonal keeps a numeric 0.0 from
        printing as -0.0.  Callers must not mutate it."""
        zeros = [self.domain.zero()] * self.n
        return _pair_table(lambda a, b: self.mu_store.get((a, b), zeros), zeros)

    def mu_vec(self, x: Sequence, y: Sequence) -> list:
        """mu(x, y) of coordinate vectors; a term with a factor that tests zero is skipped."""
        dom = self.domain
        out = [dom.zero()] * self.n
        for a, xa in enumerate(x):
            if dom.is_zero(xa):
                continue
            for b, yb in enumerate(y):
                if dom.is_zero(yb):
                    continue
                coeff = xa * yb
                for c, val in enumerate(self.mu[a][b]):
                    if not dom.is_zero(val):
                        out[c] = out[c] + coeff * val
        return out

    def mu_m(self, a: int, b: int) -> list:
        """m-block of mu(e_{q+a}, e_{q+b}), indices a,b in 0..2m-1."""
        return self.mu[self.q + a][self.q + b][self.q:]

    def mu_h(self, a: int, b: int) -> list:
        return self.mu[self.q + a][self.q + b][:self.q]

    # Derived data built once per spec; the builders below stay the one place
    # each formula lives.  Callers must not mutate what these return.

    @cached_property
    def N(self) -> dict:
        return _nijenhuis(self)

    @cached_property
    def tors(self) -> "TorsionData":
        return torsion_ingredients(self)

    @cached_property
    def S(self) -> list[list[list]]:
        return levi_civita(self)

    @cached_property
    def Rm(self) -> list[list[list]]:
        return riemann_curvature(self)

    @cached_property
    def domega(self) -> KForm:
        dom, n2 = self.domain, 2 * self.m
        omega = KForm(n2, 2, {(2 * k, 2 * k + 1): dom.one() for k in range(self.m)})
        return coboundary(self.mu_m, n2, omega, dom)

    def instantiate(self, assignment: dict) -> "BracketSpec":
        """Substitute rational values for all parameters (exact backend)."""
        if self.domain.backend != "exact":
            raise TypeError("instantiate applies to the exact backend")
        assignment = {k: Fraction(v) for k, v in assignment.items()}
        missing = [p for p in self.params if p not in assignment]
        if missing:
            raise UsageError(f"missing assignment for parameter(s): {', '.join(missing)}")
        dom = FractionDomain()
        mu = {k: [c.evaluate(assignment) for c in vec] for k, vec in self.mu_store.items()}
        return BracketSpec(self.q, self.m, mu, dom, self.name, ())


# -- validation ----------------------------------------------------------------


@dataclass
class ConditionResult:
    name: str
    passed: bool
    witness: str = ""


@dataclass
class ValidationReport:
    conditions: list[ConditionResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """h1-h4 all pass (h5 is an informational flag)."""
        return all(c.passed for c in self.conditions if c.name != "h5")

    @property
    def integrable(self) -> bool:
        return self.condition("h5").passed

    def condition(self, name: str) -> ConditionResult:
        return next(c for c in self.conditions if c.name == name)


def validate(spec: BracketSpec) -> ValidationReport:
    dom = spec.domain
    n, q, m = spec.n, spec.q, spec.m
    mu = spec.mu
    rep = ValidationReport()

    def nonzero(v):
        return any(not dom.is_zero(x) for x in v)

    def cyclic(x, y, z):    # mu(mu(e_x, e_y), e_z) = sum_d mu[x][y][d] mu[d][z]
        out = [dom.zero()] * n
        for d, c in enumerate(mu[x][y]):
            if not dom.is_zero(c):
                for e, v in enumerate(mu[d][z]):
                    if not dom.is_zero(v):
                        out[e] = out[e] + c * v
        return out

    def jacobi(a, b, c):
        return [u + v + w for u, v, w in zip(cyclic(a, b, c), cyclic(b, c, a), cyclic(c, a, b))]

    # h1: Jacobi, then closure of the isotropy block; the first failure is the witness
    h1_wit = next(itertools.chain(
        (f"Jacobi fails on (e{a},e{b},e{c})"
         for a, b, c in itertools.combinations(range(n), 3) if nonzero(jacobi(a, b, c))),
        (f"mu(e{a},e{b}) leaves the isotropy block"
         for a, b in itertools.combinations(range(q), 2) if nonzero(mu[a][b][q:])),
        (f"mu(e{z},e{b}) has an isotropy component"
         for z in range(q) for b in range(q, n) if nonzero(mu[z][b][:q]))), "")
    rep.conditions.append(ConditionResult("h1", not h1_wit, h1_wit))

    # h2: ad(Z) skew on the m-block (metric invariance), diagonal included
    h2_wit = next((f"<mu(e{z},.),.> not skew on (e{q + a},e{q + b})"
                   for z in range(q) for a in range(2 * m) for b in range(a, 2 * m)
                   if not dom.is_zero(mu[z][q + a][q + b] + mu[z][q + b][q + a])), "")
    rep.conditions.append(ConditionResult("h2", not h2_wit, h2_wit))

    # h3: ad(Z) commutes with I
    h3_wit = next((f"ad(e{z}) does not commute with I" for z, M in
                   enumerate(_isotropy_ad(mu, q, 2 * m)) if not _commutes_with_I(M, dom)), "")
    rep.conditions.append(ConditionResult("h3", not h3_wit, h3_wit))

    # h4: effectiveness; the isotropy kernel's dimension is q minus the rank
    dead = q - len(_isotropy_echelon(spec).pivots)
    wit = f"isotropy kernel of dimension {dead}" if dead else ""
    rep.conditions.append(ConditionResult("h4", not dead, wit))

    # h5: integrability flag (pass = integrable); witness: first pair with N != 0
    bad = next(iter(spec.N), None)
    rep.conditions.append(ConditionResult(
        "h5", bad is None,
        "" if bad is None else f"integrability fails on (e{q + bad[0]},e{q + bad[1]})"))
    return rep


def _isotropy_ad(mu: list, q: int, n2: int) -> list:
    """ad(e_z) on the m-block for each isotropy vector e_z, read by index
    from the bracket table mu: column b holds the m-part of mu(e_z, e_{q+b})."""
    return [[[mu[z][q + b][q + r] for b in range(n2)] for r in range(n2)] for z in range(q)]


def _isotropy_echelon(spec: BracketSpec) -> _Echelon:
    """Echelon over R^q of the isotropy action's rows, Z -> mu(Z, e_b)_c for
    each m-basis vector e_b and each coordinate c; its null space is the
    kernel {Z in R^q : mu(Z, R^2m) = 0}."""
    q = spec.q
    span = _Echelon(q, spec.domain)
    for b in range(q, spec.n):
        for c in range(spec.n):
            span.add([spec.mu[z][b][c] for z in range(q)])
    return span


class _Echelon:
    """Reduced row echelon form of the rows added so far, over a scalar domain.

    `pivots` maps each pivot column to its kept row, a sparse {column: entry}
    dict with no entry in any other pivot column.  Rows of domain scalars are
    kept with entry 1 at the pivot.  Rows of Python ints, as Singer's and
    Killing's are, are reduced fraction-free (in the spirit of Bareiss, 1968) and
    kept up to a positive scale: primitive, with a positive pivot entry, so
    no Fraction is made until `nullspace()`.  The first nonzero row decides
    which kind an echelon takes.  The RREF of a row space is unique, so
    `nullspace()` does not depend on the order or batching of the rows."""

    def __init__(self, ncols: int, dom):
        self.ncols = ncols
        self.dom = dom
        self.pivots: dict[int, dict] = {}
        self.integral: bool | None = None

    def add(self, row) -> bool:
        """Reduce `row` against the form; keep it iff it is not in the span.
        A sequence row is filtered for zeros; a {column: entry} dict row must
        hold no zero entry, as the Singer and Killing rows do, and is copied."""
        if len(self.pivots) == self.ncols:
            return False
        dom = self.dom
        r = (dict(row) if isinstance(row, dict)
             else {c: x for c, x in enumerate(row) if not dom.is_zero(x)})
        if self.integral is None and r:
            self.integral = all(isinstance(x, int) for x in r.values())
        eliminate = self._eliminate_int if self.integral else self._eliminate
        # reducing by one kept row adds no entry in another pivot column
        for p in [c for c in r if c in self.pivots]:
            eliminate(r, p, self.pivots[p])
        if not r:
            return False
        p = min(r)
        if self.integral:
            g = math.gcd(*r.values())
            if r[p] < 0:
                g = -g
            if g != 1:
                r = {c: x // g for c, x in r.items()}
        else:
            inv = dom.one() / r[p]
            r = {c: dom.one() if c == p else inv * x for c, x in r.items()}
        for prow in self.pivots.values():
            eliminate(prow, p, r)
        self.pivots[p] = r
        return True

    def _eliminate(self, row: dict, p: int, prow: dict) -> None:
        """row -= row[p] * prow, where prow has pivot p; cancelled entries go."""
        f = row.pop(p, None)
        if f is None:
            return
        dom = self.dom
        for c, x in prow.items():
            if c != p:
                v = row.get(c, dom.zero()) - f * x
                if dom.is_zero(v):
                    row.pop(c, None)
                else:
                    row[c] = v

    @staticmethod
    def _eliminate_int(row: dict, p: int, prow: dict) -> None:
        """row <- a*row - f*prow over the integers, where prow has pivot p and
        a = prow[p] > 0, f = row[p] are first divided by their gcd; then the
        content of row is divided out.  Entries in columns prow does not hold
        keep their sign, so a kept row's pivot entry stays positive."""
        f = row.pop(p, None)
        if f is None:
            return
        a = prow[p]
        g = math.gcd(a, f)
        a, f = a // g, f // g
        if a != 1:
            for c in row:
                row[c] *= a
        for c, x in prow.items():
            if c != p:
                v = row.get(c, 0) - f * x
                if v:
                    row[c] = v
                else:
                    row.pop(c, None)
        g = math.gcd(*row.values())
        if g > 1:
            for c in row:
                row[c] //= g

    def kernel(self) -> dict[int, list[int]]:
        """For integer rows: {f: L times the canonical null vector of free
        column f}, L the lcm of the kept pivot entries (1 with no rows), so
        ints throughout.  Each x of the null space is the sum of x_f / L *
        kernel[f], so there a linear form r and the row {f: r(kernel[f])}
        agree up to the factor L: adding either gives the same RREF."""
        L = math.lcm(*(prow[p] for p, prow in self.pivots.items()))
        out = {f: [0] * f + [L] + [0] * (self.ncols - f - 1)
               for f in range(self.ncols) if f not in self.pivots}
        for p, prow in self.pivots.items():
            for f, x in prow.items():
                if f != p:
                    out[f][p] = -L // prow[p] * x
        return out

    def nullspace(self) -> list[list]:
        """For integer rows (or none): the canonical basis, one vector per
        free column f with 1 at f, made into the domain's Fractions from
        `kernel()`."""
        return [[self.dom.from_fraction(Fraction(x, v[f])) for x in v]
                for f, v in self.kernel().items()]


def reduce_non_effective(spec: BracketSpec):
    """Drop the trivially acting part of the isotropy; returns (q', new spec).

    The kernel's canonical basis has 1 at each free column of the isotropy
    action's echelon, so the pivot coordinates span a complement of the
    kernel, and the complement coordinates of an isotropy vector are the
    kept pivot rows (1 at the pivot) applied to it."""
    dom = spec.domain
    q = spec.q
    pivots = _isotropy_echelon(spec).pivots
    if len(pivots) == q:
        return q, spec
    rows = [pivots[p] for p in sorted(pivots)]
    old = sorted(pivots) + list(range(q, spec.n))   # old index of each new basis vector
    mu_new = {}
    for a, b in itertools.combinations(range(len(old)), 2):
        v = spec.mu[old[a]][old[b]]
        out = [sum((x * v[c] for c, x in row.items()), dom.zero()) for row in rows] + v[q:]
        if any(not dom.is_zero(x) for x in out):
            mu_new[(a, b)] = out
    new = BracketSpec(len(rows), spec.m, mu_new, dom, spec.name + "|effective", spec.params)
    if len(_isotropy_echelon(new).pivots) != new.q:
        raise InternalConsistencyError("reduction left a non-effective isotropy part")
    return len(rows), new


# -- torsion ingredients ------------------------------------------------------------


@dataclass
class TorsionData:
    N: dict                    # (a,b) a<b -> R^{2m} vector
    F: KForm
    F_plus: KForm
    F_minus: KForm


def _Ie(a: int) -> tuple[int, int]:
    """I e_a = s e_{a^1} in the adapted frame; returns (a ^ 1, s)."""
    return a ^ 1, -1 if a & 1 else 1


def _signed(s: int, x):
    """s x for s = +-1.  Negates a float as 0.0 - x, so that a numeric 0.0
    stays 0.0 rather than printing as -0.0, and any other value as -x."""
    return x if s > 0 else 0.0 - x if type(x) is float else -x


def _mu_m_table(spec: BracketSpec, clean: bool = False) -> list[list[list]]:
    """tab[a][b] = mu_m(e_a, e_b) for all a, b in 0..2m-1.  With `clean`, an
    entry that tests zero is an exact zero, so a numeric residue below the
    tolerance does not enter N or F."""
    dom = spec.domain
    q = spec.q
    zero = dom.zero()
    return [[[zero if clean and dom.is_zero(x) else x for x in v[q:]] for v in row[q:]]
            for row in spec.mu[q:]]


def _mu_s(tab, x: tuple, y: tuple) -> list:
    """mu_m(s e_a, r e_b) for x = (a, s), y = (b, r): as tab[b][a] = -tab[a][b],
    a sign flip is a transposed read."""
    (a, s), (b, r) = x, y
    return tab[a][b] if s * r > 0 else tab[b][a]


def _nijenhuis(spec: BracketSpec) -> dict:
    """N(e_a, e_b) = mu(Ie_a, Ie_b) - mu(e_a, e_b) - I(mu(Ie_a, e_b) + mu(e_a, Ie_b))
    for a < b, nonzero values only."""
    dom = spec.domain
    n2 = 2 * spec.m
    mu = _mu_m_table(spec, clean=True)
    N = {}
    for a, b in itertools.combinations(range(n2), 2):
        Ia, Ib = _Ie(a), _Ie(b)
        u = [x + y for x, y in zip(_mu_s(mu, Ia, (b, 1)), _mu_s(mu, (a, 1), Ib))]
        # (I u)_c = s u_{c^1}, where I e_{c^1} = s e_c
        v = [x - y - _signed(_Ie(c ^ 1)[1], u[c ^ 1])
             for c, (x, y) in enumerate(zip(_mu_s(mu, Ia, Ib), spec.mu_m(a, b)))]
        if any(not dom.is_zero(x) for x in v):
            N[(a, b)] = v
    return N


def torsion_ingredients(spec: BracketSpec) -> TorsionData:
    dom = spec.domain
    n2 = 2 * spec.m
    mu = _mu_m_table(spec, clean=True)
    comp = {}
    for a, b, c in itertools.combinations(range(n2), 3):
        Ia, Ib, Ic = _Ie(a), _Ie(b), _Ie(c)
        val = _mu_s(mu, Ia, Ib)[c] + _mu_s(mu, Ib, Ic)[a] + _mu_s(mu, Ic, Ia)[b]
        if not dom.is_zero(val):
            comp[(a, b, c)] = val
    F = KForm(n2, 3, comp)

    # F^- = 1/4 (F - F(I.,I.,.) - F(I.,.,I.) - F(.,I.,I.)), the (3,0)+(0,3) part
    quarter = dom.from_fraction("1/4")
    comp = {}
    for a, b, c in itertools.combinations(range(n2), 3):
        (a1, sa), (b1, sb), (c1, sc) = _Ie(a), _Ie(b), _Ie(c)
        v = F.component((a, b, c), dom) \
            - _signed(sa * sb, F.component((a1, b1, c), dom)) \
            - _signed(sa * sc, F.component((a1, b, c1), dom)) \
            - _signed(sb * sc, F.component((a, b1, c1), dom))
        v = quarter * v
        if not dom.is_zero(v):
            comp[(a, b, c)] = v
    F_minus = KForm(n2, 3, comp)
    F_plus = F.sub(F_minus, dom)
    return TorsionData(spec.N, F, F_plus, F_minus)


# -- connections -----------------------------------------------------------------


def levi_civita(spec: BracketSpec) -> list[list[list]]:
    """S: R^{2m} -> so(2m), one matrix per m-basis vector."""
    dom = spec.domain
    n2 = 2 * spec.m
    half = dom.from_fraction("1/2")
    mu = _mu_m_table(spec)
    return [[[-half * (mu[x][y][z] + mu[z][x][y] + mu[z][y][x]) for y in range(n2)]
             for z in range(n2)] for x in range(n2)]


def _connection_terms(spec: BracketSpec) -> list[list]:
    """The t-independent tensors of A^t but S, flat over (x, z, y) at
    (x n2 + z) n2 + y: s_y s_z F+(e_x, e_y^1, e_z^1) (= F+(X, IY, IZ),
    `_Ie`), F+(e_x, e_y, e_z), <N(e_y, e_z), e_x> and F-(e_x, e_y, e_z)."""
    dom, n2, tors = spec.domain, 2 * spec.m, spec.tors
    zeros = [dom.zero()] * n2
    N = _pair_table(lambda a, b: tors.N.get((a, b), zeros), zeros)
    keys = list(itertools.product(range(n2), repeat=3))
    plus, minus = tors.F_plus.component, tors.F_minus.component
    # I e_a = s_a e_{a^1} (`_Ie`), s_y s_z = -1 exactly when y and z differ in parity
    return [[_signed(1 - ((y ^ z) & 1) * 2, plus((x, y ^ 1, z ^ 1), dom)) for x, z, y in keys],
            [plus((x, y, z), dom) for x, z, y in keys], [N[y][z][x] for x, z, y in keys],
            [minus((x, y, z), dom) for x, z, y in keys]]


class _RingForm:
    """The bracket table `mu` (as `BracketSpec.mu`) and the matrices S(e_x)
    as ring values over one den (`_clear`) in one layout, with ad(e_z) of
    each isotropy vector (`_sparse`).  One form per spec and layout serves
    A^t, Omega^t and T^t (`_gauduchon`), Rm, the audit and the derivative
    towers (`_towers`), each reading the members below, built once when
    first asked for.  A dense form (ring None: floats, a non-monomial
    denominator) holds the spec's own mu and S over den 1 with no layout.
    `dom` tests the values' zeros.  Built by `_ring_form` and, for a t that
    `_clear` leaves as it is, `_gauduchon`."""

    def __init__(self, spec: BracketSpec, den, ring: list | None, layout):
        n, q, n2 = spec.n, spec.q, 2 * spec.m
        self.den, self.layout, self.dense = den, layout, ring is None
        self._spec = weakref.ref(spec)      # the spec caches its forms: no cycle
        if self.dense:
            self.dom, self.mu, self.S = spec.domain, spec.mu, spec.S
            self.one, self.zero = spec.domain.one(), spec.domain.zero()
            return
        self.dom = FractionDomain
        self.one, self.zero = ({0: 1}, {}) if layout else (1, 0)
        it = iter(ring)
        self.mu = [[list(itertools.islice(it, n)) for _ in range(n)] for _ in range(n)]
        self.S = _matrices(list(it), n2)
        self.ad = list(map(_sparse, _isotropy_ad(self.mu, q, n2)))

    @cached_property
    def terms(self) -> list:
        """S over den and the `_connection_terms` over 4 den as
        `scatter_products` entries at their flat keys: each term is an
        integer combination of brackets over 4 (module docstring), so
        `_clear` packs it at that den.  Ring forms only."""
        terms = _connection_terms(self._spec())
        _, ring, _ = _clear([x for T in terms for x in T], self.layout, _scale(self.den, 4))
        size = len(terms[0])
        return [[(key, 0, v) for key, v in enumerate(T) if v] for T in [
            _flat(self.S), *(ring[i:i + size] for i in range(0, len(ring), size))]]

    @cached_property
    def Rm(self) -> tuple:
        """Rm's undivided (den, sums) (`_curvature` on S), which the
        towers (`_towers`), X1, the Killing closure and `connection_audit`
        read; only `riemann_curvature`, for printing, divides it."""
        return _curvature(self._spec(), self, self.one, self.S)

    @cached_property
    def tower_S(self) -> tuple:
        """(dS, S) with S reduced once (`_reduce`), as `_tower` steps with it."""
        dS, S = _reduce(self.den, _flat(self.S), self.layout)
        return dS, _matrices(S, 2 * self._spec().m)


def _layout_key(spec: BracketSpec, *values) -> tuple | None:
    """The key of the layout over the spec's parameters, t and the values'
    variables, sorted, at the degree cap's width; None (ints) on a Fraction
    spec where the values bring no variable."""
    names = {x for v in values if isinstance(v, RationalFunction) for x in v.num.vars + v.den.vars}
    if isinstance(spec.domain, FractionDomain) and not names:
        return None
    names.update(spec.params, ("t",))
    return tuple(sorted(names)), get_degree_cap().bit_length()


def _ring_form(spec: BracketSpec, *values) -> _RingForm:
    """The spec's `_RingForm` in the layout of `_layout_key`, cached per
    key; a dense one where `_clear` leaves mu and S as they are."""
    key = _layout_key(spec, *values)
    if key not in spec._rings:
        values = _flat(spec.mu) + _flat(spec.S)
        den, ring, layout = _clear(values, key and Layout(key[0]))
        spec._rings[key] = _RingForm(spec, den, None if ring is values else ring, layout)
    return spec._rings[key]


def _flat(Ms: list) -> list:
    """The entries of a list of matrices, in order (`_matrices` inverts it)."""
    return [x for M in Ms for row in M for x in row]


def _gauduchon(spec: BracketSpec, t):
    """(form, k, A) with A^t(e_x) = A[x] / (form.den k) for ring matrices A:
    t = tn / td cleared in the `_ring_form`'s layout and k = 16 td, so that
    16 td den A^t = 16 td S - (tn + td) FI - (tn - td) F+ + td N - 2 td F-,
    S over den and the rest over 4 den (`_RingForm.terms`), is one
    `scatter_products` call with those ring constants.  A dense form and
    k = 1, with A over the spec's domain, where `_clear` leaves the spec's
    values or t as they are.  Each A^t(e_x) is asserted to lie in u(m)
    (`_assert_unitary`)."""
    dom, n2 = spec.domain, 2 * spec.m
    form, tv = _ring_form(spec, t), [t]
    td, (tn,), _ = cleared = (1, tv, None) if form.dense else _clear(tv, form.layout)
    if cleared[1] is tv:
        quarter, half = dom.from_fraction("1/4"), dom.from_fraction("1/2")
        cp, cm = (t + 1) * quarter, (t - 1) * quarter
        flat = [s - cp * fi - cm * f + quarter * nt - half * fm
                for s, fi, f, nt, fm in zip(_flat(spec.S), *_connection_terms(spec))]
        form, k = form if form.dense else _RingForm(spec, 1, None, None), 1
    else:
        k = _scale(td, 16)
        runs = [(0, 0, sign, c, T) for sign, c, T in zip(
            (1, -1, -1, 1, -1), (k, _plus(tn, td), _plus(tn, td, -1), td, _scale(td, 2)),
            form.terms) if c]
        sums = scatter_products(runs, 0, FractionDomain.is_zero, form.layout)
        flat = [sums.get(key, form.zero) for key in range(n2 ** 3)]
    A = _matrices(flat, n2)
    for x, M in enumerate(A):
        _assert_unitary(M, form.dom, f"A^t(e{x})")
    return form, k, A


def gauduchon_connection(spec: BracketSpec, t) -> list[list[list]]:
    """A^t: R^{2m} -> u(m).  t is a scalar of the spec's domain (or symbolic)."""
    form, k, A = _gauduchon(spec, t)
    return _divided(spec, form, _connection_pair(form, k, A), table=False)


def _connection_pair(form, k, A: list) -> tuple:
    """`_gauduchon`'s A^t as (den, sums) at the flat keys (x n2 + r) n2 + c."""
    return _times(form.layout, form.den, k), dict(enumerate(_flat(A)))


def _assert_unitary(M, dom, label: str):
    """Raise unless M is skew-symmetric and commutes with I
    (`_commutes_with_I`): M in u(m), as every A^t(X) is (Gauduchon 1997).
    Ring values (`_clear`) are checked with their form's dom."""
    _assert_skew(M, dom, label)
    if not _commutes_with_I(M, dom):
        raise InternalConsistencyError(f"{label} does not commute with I")


def _assert_skew(M, dom, label: str):
    add = _plus if type(M[0][0]) is dict else operator.add
    for i, j in itertools.combinations_with_replacement(range(len(M)), 2):
        if not dom.is_zero(add(M[i][j], M[j][i])):
            raise InternalConsistencyError(f"{label} is not skew-symmetric at ({i},{j})")


def _commutes_with_I(M, dom) -> bool:
    """[M, I] == 0, read by index: I e_a = s_a e_{a^1} (`_Ie`), so
    (M I)[i][j] = s_j M[i][j^1] and (I M)[i][j] = s_{i^1} M[i^1][j], and
    s_j s_{i^1} = 1 exactly when i and j differ in parity.  Entry (i, j)
    and entry (i^1, j^1) test the same pair, so even rows i suffice.  A
    dense `commutator` would form 2 (2m)^3 products per matrix."""
    n = len(M)
    return all(dom.is_zero(_plus(M[i][j ^ 1], M[i ^ 1][j], -1 if (i ^ j) & 1 else 1))
               for i in range(0, n, 2) for j in range(n))


# -- curvature --------------------------------------------------------------------


def _pair_table(upper, zero: list) -> list[list]:
    """X[a][b] = X(e_a, e_b) for all a, b of a 2-form on m with vector or
    matrix values, kept as `BracketSpec.mu` is: upper(a, b) above the
    diagonal, the one `zero` on it and the entrywise -x below (as
    `_signed` negates).
    Callers must not mutate it."""
    matrix = isinstance(zero[0], list)
    floats = type(zero[0][0] if matrix else zero[0]) is float

    def negated(row):
        return [0.0 - v for v in row] if floats else [-v for v in row]
    tab = [[zero] * len(zero) for _ in zero]
    for a, b in itertools.combinations(range(len(zero)), 2):
        tab[a][b] = x = upper(a, b)
        tab[b][a] = list(map(negated, x)) if matrix else negated(x)
    return tab


def _curvature(spec: BracketSpec, form, k, C: list) -> tuple:
    """(den, sums) with Om(e_a, e_b)[i][j] = sums[((a n2 + b) n2 + i) n2 + j]
    / den for a < b, where Om[a][b] = ad(mu_h(e_a, e_b)) - [C(e_a), C(e_b)]
    - C(mu_m(e_a, e_b)), for `_gauduchon`'s (form, k, C) or (form, form.one,
    form.S).

    C is over den k and the bracket table over den (the form's), so ad's
    products are scaled by k^2 and C(mu_m)'s by k: every term is a product
    of two ring values over (den k)^2, all summed in one `scatter_products`
    call at the packed (a, b, i, j) and left undivided (`_divided` divides).
    On a dense form the dense formula runs over the spec's own domain, at
    every entry, ad(mu_h) summed over the isotropy's nonzero coefficients
    (`_conn_endo`): its float sums are the ones numeric reports print."""
    q, n2 = spec.q, 2 * spec.m
    pairs = list(itertools.combinations(range(n2), 2))
    if form.dense:
        dom, ad, sums = spec.domain, _isotropy_ad(spec.mu, q, n2), {}
        for a, b in pairs:
            iso = _conn_endo(ad, spec.mu_h(a, b), dom) if q else mat_zero(n2, dom)
            M = mat_sub(mat_sub(iso, commutator(C[a], C[b])), _conn_endo(C, spec.mu_m(a, b), dom))
            sums.update(zip(itertools.count((a * n2 + b) * n2 * n2), itertools.chain(*M)))
        return 1, sums
    layout, mu = form.layout, form.mu
    k2, Cs = _times(layout, k, k), [_sparse(M) for M in C]

    def terms():
        for a, b in pairs:
            key, bracket = a * n2 + b, mu[q + a][q + b]
            for z, h in enumerate(bracket[:q]):
                yield from _product_terms(key, n2, 1, _times(layout, k2, h), form.ad[z])
            yield from _product_terms(key, n2, -1, Cs[a], Cs[b])
            yield from _product_terms(key, n2, 1, Cs[b], Cs[a])
            for c, x in enumerate(bracket[q:]):
                yield from _product_terms(key, n2, -1, _times(layout, k, x), Cs[c])
    den = _times(layout, form.den, k)
    return _times(layout, den, den), scatter_products(terms(), 0, FractionDomain.is_zero, layout)


def _divided(spec: BracketSpec, form, pair: tuple, *, table: bool, matrix: bool = True) -> list:
    """The values of (den, sums), each divided once (`_divide`) into the
    spec's domain, zeros filled in: A^t's n2 matrices (`_connection_pair`),
    or as a pair table (`table`) `_curvature`'s matrices or `_torsion`'s
    n2-vectors (not `matrix`), whose value at a = b = 0 is a zero."""
    n2 = 2 * spec.m
    entries = n2 * n2 if table else n2
    width = n2 * n2 if matrix else n2
    flat = [spec.domain.zero()] * (entries * width)
    for key, x in _divide(pair[1], pair[0], form.layout).items():
        flat[key] = x
    values = _matrices(flat, n2) if matrix else [flat[i:i + n2] for i in range(0, len(flat), n2)]
    return _pair_table(lambda a, b: values[a * n2 + b], values[0]) if table else values


def riemann_curvature(spec: BracketSpec) -> list[list[list]]:
    form = _ring_form(spec)
    return _divided(spec, form, form.Rm, table=True)


def _torsion(spec: BracketSpec, form, k, A: list) -> tuple:
    """(den, sums) with T(e_a, e_b)_r = sums[(a n2 + b) n2 + r] / den for
    a < b, T(e_a, e_b) = A(e_a) e_b - A(e_b) e_a - mu_m(e_a, e_b), on
    `_gauduchon`'s (form, k, A) with mu_m scaled by k."""
    q, n2, layout = spec.q, 2 * spec.m, form.layout
    sums = {(a * n2 + b) * n2 + r: _plus(_plus(A[a][r][b], A[b][r][a], -1),
                                       _times(layout, k, form.mu[q + a][q + b][q + r]), -1)
            for a, b in itertools.combinations(range(n2), 2) for r in range(n2)}
    return _times(layout, form.den, k), {i: v for i, v in sums.items() if v != {}}


def gauduchon_tables(spec: BracketSpec, t) -> tuple:
    """(A^t, Omega^t, T^t) from one `_gauduchon` call, each ring value
    divided once: A^t as `gauduchon_connection` gives it, Omega^t and T^t
    as `gauduchon_curvature_torsion` does."""
    form, k, A = ring = _gauduchon(spec, t)
    return (_divided(spec, form, _connection_pair(form, k, A), table=False),
            _omega(spec, ring), _torsion_table(spec, ring))


def gauduchon_curvature_torsion(spec: BracketSpec, t):
    """(Omega_t, T_t) as pair tables; Omega entries are in u(m), T values are vectors."""
    ring = _gauduchon(spec, t)
    return _omega(spec, ring), _torsion_table(spec, ring)


def _omega(spec: BracketSpec, ring: tuple) -> list:
    """Omega^t of `_gauduchon`'s (form, k, A) as a pair table, divided once."""
    return _divided(spec, ring[0], _curvature(spec, *ring), table=True)


def _torsion_table(spec: BracketSpec, ring: tuple) -> list:
    """T^t of `_gauduchon`'s (form, k, A) as a pair table, divided once."""
    return _divided(spec, ring[0], _torsion(spec, *ring), table=True, matrix=False)


def rho2_matrix(spec: BracketSpec, Om: list) -> list[list]:
    W = mat_zero(2 * spec.m, spec.domain)
    for k in range(spec.m):
        W = mat_add(W, Om[2 * k][2 * k + 1])
    return W


def ricci_and_scalar(spec: BracketSpec, Om: list):
    """(rho1, rho2, scal) with both Ricci forms as KForms; asserts the two
    scalar traces agree."""
    dom = spec.domain
    n2 = 2 * spec.m
    W = rho2_matrix(spec, Om)
    half = dom.from_fraction("1/2")
    comp1 = {}
    for i, j in itertools.combinations(range(n2), 2):
        (i1, si), (j1, sj) = _Ie(i), _Ie(j)
        cij = complex_trace(Om[i][j], dom)
        # Om(I e_i, I e_j) = s_i s_j Om(e_{i^1}, e_{j^1})
        cI = _signed(si * sj, complex_trace(Om[i1][j1], dom))
        v = half * (cij + cI)
        if not dom.is_zero(v):
            comp1[(i, j)] = v
    rho1 = KForm(n2, 2, comp1)

    comp2 = {}
    for i, j in itertools.combinations(range(n2), 2):
        if not dom.is_zero(W[i][j]):
            comp2[(i, j)] = W[i][j]
    rho2 = KForm(n2, 2, comp2)

    two = dom.from_fraction(2)
    scal1 = two * complex_trace_form(rho1, dom)
    scal2 = two * complex_trace_form(rho2, dom)
    if not dom.is_zero(scal1 - scal2):
        raise InternalConsistencyError("2Tr(rho1) != 2Tr(rho2)")
    return rho1, rho2, scal2


def lee_form(spec: BracketSpec) -> list:
    """theta with d omega^{m-1} = theta ^ omega^{m-1}, read as the omega-trace
    theta(e_x) = sum_k d omega(e_x, e_{2k}, e_{2k+1}): d omega is a primitive
    3-form, which has no trace, plus theta ^ omega / (m - 1), whose trace is theta."""
    dom, dw = spec.domain, spec.domega
    return [sum((dw.component((x, 2 * k, 2 * k + 1), dom) for k in range(spec.m)), dom.zero())
            for x in range(2 * spec.m)]


def _check_lee_trace(spec: BracketSpec, T: list, t, theta: list) -> None:
    """Assert tr T^t(X, .) = (t+1)/2 theta(X) on the basis (Gauduchon 1997),
    an identity in t when t is symbolic."""
    dom = spec.domain
    c = (t + 1) * dom.from_fraction(Fraction(1, 2))
    for x, row in enumerate(T):
        if not dom.is_zero(sum((v[b] for b, v in enumerate(row)), dom.zero()) - c * theta[x]):
            raise InternalConsistencyError(f"tr T^t(e{x}, .) is not (t+1)/2 theta(e{x})")


# -- covariant derivatives and s-tuples --------------------------------------------


def covariant_derivative(spec: BracketSpec, Q: MultiTensor, C: list,
                         order: int = 1) -> MultiTensor:
    """Iterated covariant derivative of an invariant tensor:
    (D Q)(X; rest) = (-C(X) . Q)(rest), each step one `_derive` call."""
    Q = Q.packed()
    for _ in range(order):
        Q = _derive(Q, C, spec.domain.is_zero)
    return Q.unpacked()


def _derive(Q: MultiTensor, C: list, is_zero, layout=None) -> MultiTensor:
    """One step of `covariant_derivative` on a packed Q: -C(e_x) at the new first slot x."""
    n, size = Q.n, Q.n ** (Q.rank + 2 * Q.has_endo)
    rows, cols = index_rows(((x * size, M) for x, M in enumerate(C)), is_zero)
    comp = scatter_products(action_terms(Q, rows, cols, -1), Q._zero, is_zero, layout)
    return MultiTensor(n, Q.rank + 1, Q.has_endo, Q._zero, comp, Q.skew)


def _rm_blocks(form) -> list:
    """The form's undivided Rm(e_a, e_b) at a n2 + b for a < b (`_RingForm.Rm`),
    as ring matrices, the form's zero filling the unset entries."""
    n2, sums = len(form.S), form.Rm[1]
    return _matrices([sums.get(key, form.zero) for key in range(n2 ** 4)], n2)


def _towers(spec: BracketSpec):
    """(layout, J's `_tower`, Rm's `_tower`) on the spec's `_ring_form`, after
    the skew self-check they rest on: every S(e_x) and Rm(e_a, e_b) of the
    form is skew.  The packed starts hold the canonical keys r < c and a < b
    (`MultiTensor.skew`): J the ring's -1 at each (2k, 2k+1) over its 1, Rm
    the form's Rm sums at r < c that `form.dom` does not call zero, reduced
    once (`_reduce`)."""
    form, n2 = _ring_form(spec), 2 * spec.m
    pairs, blocks = list(itertools.combinations(range(n2), 2)), _rm_blocks(form)
    for label, M in itertools.chain(((f"S(e{x})", M) for x, M in enumerate(form.S)),
                                    ((f"Rm(e{a},e{b})", blocks[a * n2 + b]) for a, b in pairs)):
        _assert_skew(M, form.dom, "skew self-check: " + label)
    J = MultiTensor(n2, 0, True, form.zero, {2 * k * n2 + 2 * k + 1: _scale(form.one, -1)
                                            for k in range(spec.m)}, 1)
    start = {key: v for key, v in form.Rm[1].items()
             if key // n2 % n2 < key % n2 and not form.dom.is_zero(v)}
    dR, values = _reduce(form.Rm[0], list(start.values()), form.layout)
    Rm = MultiTensor(n2, 2, True, form.zero, zip(start, values), 2)
    return form.layout, *(_tower(T, den, *form.tower_S, form.layout, form.dom.is_zero)
                          for T, den in ((J, form.one), (Rm, dR)))


def _tower(ring: MultiTensor, den, dS, S: list, layout, is_zero):
    """Reduced (den, ring) pairs with D^kT == ring.unpacked() / den, k = 0, 1,
    2, ..., the Levi-Civita covariant derivatives, each built when the caller
    asks for it, ring keyed by packed ints, from the packed D^0T over den
    and S over dS (`_towers`).  A step runs `_derive` on the ring values,
    takes den times dS and divides out the content den shares with every
    value (`_reduce`); ring values packed in layout stay packed throughout.
    D^kT keeps the start's canonical keys (`MultiTensor.skew`): `_derive`
    folds each mirror's image onto them (`action_terms`), as -S(x) is skew,
    and den is the full tensor's, since a mirror shares its value's
    denominator and content."""
    while True:
        yield den, ring
        ring = _derive(ring, S, is_zero, layout)
        den, values = _reduce(_times(layout, den, dS), list(ring.comp.values()), layout)
        ring.comp = dict(zip(ring.comp, values))


@dataclass
class DerivativeTuple:
    """theta^s: covariant J-derivatives D^1J..D^{s+2}J and Rm-derivatives
    D^0Rm..D^sRm for the Levi-Civita connection, held as `_tower` pairs with
    their layout; `J_derivs` and `Rm_derivs` divide them on their first
    read (`_divide`) into full (`MultiTensor.mirrored`) tuple-keyed tensors
    over the domain of `zero`, and keep what they made."""
    s: int
    J_pairs: list           # (den, ring) of D^0 J, D^1 J, ..., D^{s+2} J
    Rm_pairs: list          # (den, ring) of Rm, D Rm, ..., D^s Rm
    zero: object
    layout: Layout | None   # of packed ring values (`_towers`), None over ints or domain values

    J_derivs = cached_property(lambda self: self._divided(self.J_pairs[1:]))  # [D^1 J, ..., D^{s+2} J]
    Rm_derivs = cached_property(lambda self: self._divided(self.Rm_pairs))    # [Rm, D Rm, ..., D^s Rm]

    def _divided(self, pairs) -> list:
        return [MultiTensor(ring.n, ring.rank, ring.has_endo, self.zero,
                            _divide(ring.comp, den, self.layout), ring.skew).mirrored().unpacked()
                for den, ring in pairs]


def hermitian_s_tuple(spec: BracketSpec, s: int = 2, verify: bool = True) -> DerivativeTuple:
    """theta^s from the `_towers` of J and Rm, with verify checked by `check_x1_identities`."""
    if s < 0:
        raise ValueError("s must be >= 0")
    layout, J, Rm = _towers(spec)
    tup = DerivativeTuple(s, list(itertools.islice(J, s + 3)),
                          list(itertools.islice(Rm, s + 1)), spec.domain.zero(), layout)
    if verify:
        check_x1_identities(spec, tup)
    return tup


def check_x1_identities(spec: BracketSpec, tup: DerivativeTuple):
    """Assert the curvature-model identities (pair symmetry, first Bianchi,
    and the Ricci-type alternations on higher derivatives).  An alternation
    T(x1,x2,.) - T(x2,x1,.) = -Rm(x1,x2) . base on the tuple's pairs is
    checked in their ring, cleared of denominators up to shared content
    (`_reduce`), as one `scatter_products` call at the packed (x1, x2, rest),
    x1 < x2, that must leave no sum.  Pair symmetry and first Bianchi read
    the undivided Rm of the spec's form (`_rm_blocks`), Rm(c, a) as -Rm(a, c)."""
    dom = spec.domain
    n2 = 2 * spec.m
    form = _ring_form(spec)
    Rm, is_zero = _rm_blocks(form), form.dom.is_zero

    # (i) pair symmetry <Rm(a,b)e_c, e_d> = <Rm(c,d)e_a, e_b>
    for a, b in itertools.combinations(range(n2), 2):
        for c, d in itertools.combinations(range(n2), 2):
            if not is_zero(_plus(Rm[a * n2 + b][d][c], Rm[c * n2 + d][b][a], -1)):
                raise InternalConsistencyError(f"pair symmetry fails on ({a},{b},{c},{d})")
    # (ii) first Bianchi: Rm(a,b)e_c + Rm(b,c)e_a + Rm(c,a)e_b = 0
    for a, b, c in itertools.combinations(range(n2), 3):
        if any(not is_zero(_plus(_plus(Rm[a * n2 + b][r][c], Rm[b * n2 + c][r][a]),
                                 Rm[a * n2 + c][r][b], -1))
               for r in range(n2)):
            raise InternalConsistencyError(f"first Bianchi fails on ({a},{b},{c})")
    dR, R = tup.Rm_pairs[0]
    layout = tup.layout

    def antisym_check(dT, P, dB, B, label: str):
        scale, (dT,) = _reduce(_times(layout, dR, dB), [dT], layout)
        minus_dT = {e: -c for e, c in dT.items()} if layout else -dT
        length = B.rank + 2 * B.has_endo
        size = n2 ** length
        keys = [(key, *divmod(key // size, n2), v) for key, v in P.comp.items()]
        plus = [(key, 0, v) for key, x1, x2, v in keys if x1 < x2]
        minus = [((x2 * n2 + x1) * size + key % size, 0, v)    # at the mirrored (x2, x1, rest)
                 for key, x1, x2, v in keys if x1 > x2]
        rows, cols = {}, {}
        for key, v in R.comp.items():                       # Rm(x1, x2) at x1 < x2
            x12, rc = divmod(key, n2 * n2)
            r, c = divmod(rc, n2)
            for r, c, a in ((r, c, _times(layout, dT, v)), (c, r, _times(layout, minus_dT, v))):
                rows.setdefault(r, []).append((x12 * size, c, a))
                cols.setdefault(c, []).append((x12 * size, r, a))
        runs = [(0, 0, 1, scale, plus), (0, 0, -1, scale, minus)]
        left = scatter_products(itertools.chain(runs, action_terms(B, rows, cols)),
                                P._zero, dom.is_zero, layout)
        if left:
            x12, rest = divmod(min(left), size)
            raise InternalConsistencyError(
                f"identity {label} fails at {x12 // n2},{x12 % n2},{unpack(rest, n2, length)}")

    # (vii) at k = 0 and (viii) for 1 <= k <= s: D^{k+2}J vs D^kJ
    for k in range(0, tup.s + 1):
        antisym_check(*tup.J_pairs[k + 2], *tup.J_pairs[k], "viii" if k else "vii")
    # (vi): D^{k+2}Rm vs D^kRm for 0 <= k <= s-2
    for k in range(0, tup.s - 1):
        antisym_check(*tup.Rm_pairs[k + 2], *tup.Rm_pairs[k], "vi")


# -- Singer invariant and Killing generators -----------------------------------------


def _constant_spec(spec: BracketSpec, what: str) -> BracketSpec:
    """`spec` itself over a FractionDomain, else its copy over plain Fractions."""
    if spec.domain.backend != "exact" or spec.params:
        raise UsageError(f"{what} requires an exact spec with all parameters "
                         f"instantiated to rationals")
    for vec in spec.mu_store.values():
        for c in vec:
            if isinstance(c, RationalFunction) and not c.is_constant():
                raise UsageError(f"{what} requires constant structure constants")
    return spec if isinstance(spec.domain, FractionDomain) else spec.instantiate({})


def _skew(x: Sequence, n2: int) -> list[list]:
    """The so(n2) matrix of coordinates x over the pairs a < b in
    `itertools.combinations` order: -x_i at (a, b), x_i at (b, a) and
    zeros of x's type elsewhere."""
    M = [[x[0] * 0] * n2 for _ in range(n2)]
    for (a, b), c in zip(itertools.combinations(range(n2), 2), x):
        M[a][b], M[b][a] = -c, c
    return M


def _kernel_rows(kernel: dict, n2: int, Tk, Tk1=None) -> dict:
    """{key: {f: entry}}, the rows of v . Tk1 + A . Tk = 0 (A . Tk = 0 with
    no Tk1) at Tk's packed keys for the kernel left, {free column f: int
    vector (v, A)} (`_Echelon.kernel`), v the first n2 entries when there
    is a Tk1 and A the `_skew` of the rest.  Tk and Tk1 are `_tower` pairs
    (den, T), the rows over the lcm of their dens: A acts by index
    (`action_terms`), v contracts Tk1's first slot, one run per entry."""
    (d0, T), off = Tk, n2 if Tk1 else 0
    d = math.lcm(d0, Tk1[0]) if Tk1 else d0
    size = n2 ** (T.rank + 2 * T.has_endo)
    gens = ((f * size, _skew([x * (d // d0) for x in v[off:]], n2)) for f, v in kernel.items())
    runs = action_terms(T, *index_rows(gens, FractionDomain.is_zero))
    if Tk1:
        d1, T1 = Tk1
        vs = [[(0, f, v[x] * (d // d1)) for f, v in kernel.items() if v[x]] for x in range(n2)]
        runs = itertools.chain(runs, ((key % size, size, 1, x, vs[key // size])
                                      for key, x in T1.comp.items()))
    rows = {}
    for key, x in scatter_products(runs, 0, FractionDomain.is_zero).items():
        f, key = divmod(key, size)
        rows.setdefault(key, {})[f] = x
    return rows


def _stabilize(span: _Echelon, n2: int, batches, limit: int, error, what: str) -> list[int]:
    """Add to span, in key order, the `_kernel_rows` of each batch of each
    order (a batch holds the arguments after the kernel, which is read
    before each batch, and n2).  Returns the free-column counts after each
    order once two in a row agree; raises error after order `limit`."""
    dims = []
    for k, order in enumerate(batches):
        for batch in order:
            rows = _kernel_rows(span.kernel(), n2, *batch)
            for key in sorted(rows):
                span.add(rows[key])
        dims.append(span.ncols - len(span.pivots))
        if len(dims) >= 2 and dims[-1] == dims[-2]:
            return dims
        if k >= limit:
            raise error(f"{what} did not stabilize within kmax={limit}")


@dataclass
class SingerResult:
    dims: list[int]
    k_jg: int


def singer_invariant(spec: BracketSpec, kmax: int | None = None) -> SingerResult:
    """Isotropy filtration dims j(0) >= j(1) >= ... and the first stabilization
    order; not stabilizing by a given kmax is a UsageError.  The filtration
    is cut out of so(2m), in `_skew` coordinates: order 0 annihilates D^0J,
    which leaves u(m), then D^1J, D^0Rm and D^2J, and order k > 0 D^kRm and
    D^{k+2}J."""
    spec = _constant_spec(spec, "singer_invariant")
    n2 = 2 * spec.m
    _, J, Rm = _towers(spec)
    orders = itertools.chain([[(next(J),), (next(J),), (next(Rm),), (next(J),)]],
                             ([(Rmk,), (Jk2,)] for Jk2, Rmk in zip(J, Rm)))
    dims = _stabilize(_Echelon(n2 * (n2 - 1) // 2, spec.domain), n2, orders,
                      spec.m ** 2 + 1 if kmax is None else kmax,
                      InternalConsistencyError if kmax is None else UsageError, "Singer filtration")
    return SingerResult(dims, len(dims) - 2)


@dataclass
class KillingResult:
    basis: list        # list of (v: list, A: matrix) pairs
    dim: int
    orders_used: int


def killing_generators(spec: BracketSpec) -> KillingResult:
    """Basis of the real holomorphic Killing generators (v, A), A in so(2m)
    by its `_skew` coordinates, by solving v . D^{k+1}J + A . D^kJ = 0 and
    v . D^{k+1}Rm + A . D^kRm = 0 for increasing k until the solution space
    stabilizes; not stabilizing by k = m^2 + 2 is an InternalConsistencyError."""
    fspec = _constant_spec(spec, "killing_generators")
    n2 = 2 * spec.m
    span = _Echelon(n2 + n2 * (n2 - 1) // 2, fspec.domain)
    orders = zip(*(itertools.pairwise(T) for T in _towers(fspec)[1:]))
    dims = _stabilize(span, n2, orders, spec.m ** 2 + 2, InternalConsistencyError,
                      "Killing solution space")
    basis = [(vec[:n2], _skew(vec[n2:], n2)) for vec in span.nullspace()]
    res = KillingResult(basis, len(basis), len(dims))
    _check_killing(fspec, res)
    lift = spec.domain.from_fraction        # back into the caller's domain
    res.basis = [(list(map(lift, v)), [list(map(lift, r)) for r in A]) for v, A in basis]
    return res


def _check_killing(spec: BracketSpec, res: KillingResult):
    dom = spec.domain
    n2 = 2 * spec.m
    # v = v'/den, A = A'/den (`_clear`) and Rm(e_i, e_j) = R'_ij/dR (the
    # form's), so `_nomizu` of the ring generators, each sparsified and its A
    # scaled by dR once (`_sparse_generator`), summed on ints, is den^2 dR
    # times their Nomizu bracket: a nonzero scale, which keeps span membership
    size = n2 + n2 * n2
    _, ring, _ = _clear([x for v, A in res.basis for x in [*v, *itertools.chain(*A)]])
    gens = [(ring[i:i + n2], _matrices(ring[i + n2:i + size], n2)[0])
            for i in range(0, len(ring), size)]
    form = _ring_form(spec)
    dR, blocks = form.Rm[0], _rm_blocks(form)
    R = {(i, j): _sparse(blocks[i * n2 + j]) for i, j in itertools.combinations(range(n2), 2)}
    # v-components span R^{2m}
    vspan = _Echelon(n2, dom)
    if sum(vspan.add(v) for v, _ in gens) != n2:
        raise InternalConsistencyError(
            "Killing generators do not span the tangent space: invalid bracket input")

    def flat(v, A):
        return list(v) + [x for row in A for x in row]

    # closure under the Nomizu bracket: no bracket leaves the span
    span = _Echelon(n2 + n2 * n2, dom)
    for v, A in gens:
        span.add(flat(v, A))
    for a, b in itertools.combinations([_sparse_generator(v, A, dR) for v, A in gens], 2):
        if span.add(flat(*_nomizu(a, b, R, 0))):
            raise InternalConsistencyError(
                "Killing generators are not closed under the Nomizu bracket")


def nomizu_bracket(spec: BracketSpec, a, b, Rm: list):
    """[(v,A),(w,B)] = (Aw - Bv, [A,B] + Rm(v,w)) for the pair table Rm."""
    pairs = itertools.combinations(range(2 * spec.m), 2)
    return _nomizu(_sparse_generator(*a, 1), _sparse_generator(*b, 1),
                   {(i, j): _sparse(Rm[i][j]) for i, j in pairs}, spec.domain.zero())


def _sparse_generator(v, A, den):
    """A generator (v, A) as `_nomizu` takes it: v, v as a row-sparse
    column, and A and den * A row-sparse (`_sparse`)."""
    A = _sparse(A)
    return v, _sparse([[x] for x in v]), A, [[(0, j, den * x) for _, j, x in row] for row in A]


def _nomizu(a, b, R: dict, zero):
    """(den * (Aw - Bv), den * [A, B] + R(v, w)) for generators (v, A) and
    (w, B) given by `_sparse_generator(.., den)`, where R = {(i, j):
    row-sparse Rm(e_i, e_j)} over i < j, so that R(v, w) = sum (v_i w_j -
    v_j w_i) R[i, j]; unset entries are `zero`.  With A and B scaled by den
    beforehand, every term of the one `scatter_products` call is a product
    of two values."""
    (v, vc, A, dA), (w, wc, B, dB) = a, b
    n2 = len(v)

    def terms():
        yield from _product_terms(0, n2, 1, dA, wc)
        yield from _product_terms(0, n2, -1, dB, vc)
        yield from _product_terms(1, n2, 1, dA, B)
        yield from _product_terms(1, n2, -1, dB, A)
        for (i, j), M in R.items():
            yield from _product_terms(1, n2, 1, v[i] * w[j] - v[j] * w[i], M)
    out = [zero] * n2, [[zero] * n2 for _ in range(n2)]
    for key, x in scatter_products(terms(), zero, FractionDomain.is_zero).items():
        if key >= n2 * n2:
            out[1][key // n2 % n2][key % n2] = x
        else:
            out[0][key // n2] = x               # j = 0: w and v are columns
    return out


# -- flags ----------------------------------------------------------------------


def metric_flags(spec: BracketSpec) -> dict:
    """balanced: theta ^ omega^{m-1} = 0 iff theta = 0 (L^{m-1} is injective)."""
    dom = spec.domain
    return {"integrable": not spec.N,
            "almost_kahler": spec.domega.is_zero(dom),
            "balanced": all(map(dom.is_zero, lee_form(spec)))}


# -- audits ------------------------------------------------------------------------


@dataclass
class AuditReport:
    torsion_identity_ok: bool
    curvature_identity_ok: bool
    max_residual: float | None   # max |residual| as a float; None when exact (all 0)

    @property
    def ok(self) -> bool:
        return self.torsion_identity_ok and self.curvature_identity_ok


def connection_audit(spec: BracketSpec, t) -> AuditReport:
    """Two theorem-level identities linking the Gauduchon data back to the
    Levi-Civita data, each computed along two independent formula paths:

      torsion:   2<G+(X,Y),Z> = <T(X,Y),Z> - <T(Y,Z),X> + <T(Z,X),Y>
                 with G+ := S + A
      curvature: Om - Rm = X . (D_Y G-) - Y . (D_X G-) - [G-_X, G-_Y]
                 with G- := S - A  (the (1,2)-tensor nabla - D)
    """
    dom, n2 = spec.domain, 2 * spec.m
    form, k, A = ring = _gauduchon(spec, t)
    Om, T = _curvature(spec, *ring)[1], _torsion(spec, *ring)[1]
    # On `_gauduchon`'s ring values, over E = den k: A, T and k S are over E,
    # Om, k^2 Rm and the products below over E^2 (a dense form's are the
    # domain's, with E = 1).  Each identity is one `scatter_products` call
    # that leaves the residues.
    layout, one, zero = form.layout, form.one, form.zero
    S = [[[_times(layout, k, x) for x in row] for row in M] for M in form.S]
    Rm, kk = form.Rm[1], _times(layout, k, k)

    def entries(Ms):        # <M(e_x) e_y, e_z> at (x n2 + z) n2 + y
        return [((x * n2 + z) * n2 + y, 0, v) for x, M in enumerate(Ms) for z, row in enumerate(M)
                for y, v in enumerate(row) if not FractionDomain.is_zero(v)]

    minus, plus = [], []    # -T(X,Y)_Z + T(Y,Z)_X - T(Z,X)_Y, with T(b,a) = -T(a,b)
    for key, v in T.items():
        (a, b), r = divmod(key // n2, n2), key % n2
        minus += [((x * n2 + z) * n2 + y, 0, v) for x, y, z in ((a, b, r), (r, b, a), (b, r, a))]
        plus += [((x * n2 + z) * n2 + y, 0, v) for x, y, z in ((b, a, r), (r, a, b), (a, r, b))]
    two = _scale(one, 2)
    residuals = list(scatter_products([(0, 0, 1, two, entries(S)), (0, 0, 1, two, entries(A)),
                                       (0, 0, -1, one, minus), (0, 0, 1, one, plus)],
                                      zero, FractionDomain.is_zero, layout).values())
    tors_ok = all(map(form.dom.is_zero, residuals))

    # X . (D_Y G-) = [G-_X, S_Y] + G-_{S(Y)X}
    Gm = [[[_plus(x, y, -1) for x, y in zip(r, ra)] for r, ra in zip(M, MA)] for M, MA in zip(S, A)]
    Ss, Gs = list(map(_sparse, S)), list(map(_sparse, Gm))

    def terms():
        yield 0, 0, 1, one, [(key, 0, v) for key, v in Om.items()]
        yield 0, 0, -1, kk, [(key, 0, v) for key, v in Rm.items()]
        for X, Y in itertools.combinations(range(n2), 2):
            p = X * n2 + Y
            for U, V, c in ((X, Y, 1), (Y, X, -1)):
                yield from _product_terms(p, n2, -c, Gs[U], Ss[V])
                yield from _product_terms(p, n2, c, Ss[V], Gs[U])
                for i, x in enumerate(row[U] for row in S[V]):
                    yield from _product_terms(p, n2, -c, x, Gs[i])
            yield from _product_terms(p, n2, 1, Gs[X], Gs[Y])
            yield from _product_terms(p, n2, -1, Gs[Y], Gs[X])
    rest = list(scatter_products(terms(), zero, FractionDomain.is_zero, layout).values())
    curv_ok = all(map(form.dom.is_zero, rest))
    residuals.extend(rest)

    max_res = None
    if dom.backend == "numeric":
        max_res = max((abs(r) for r in residuals), default=0.0)
    return AuditReport(tors_ok, curv_ok, max_res)
