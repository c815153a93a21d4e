"""Reference helpers for the tests: vector-argument and permutation-sum
evaluations of definitions that the engine evaluates by index, the curvature
of a connection by dense matrix products, which the engine sums sparsely over
one denominator, the Lee form read from the Gauduchon torsion, which the
engine reads from d omega^{m-1}, the printed form of a rational function
normalised from any num/den pair, which the engine fixes when it builds the
value, and the derivation action and the matrix brackets summed entry by
entry with each scalar's own arithmetic, which the engine sums on packed
monomials, and the two-pass normal form and the clearing of every value,
zeros included, which the engine does in one pass and with zeros skipped,
and the reduced pair of a tensor, which the engine's derivative tower keeps,
and the sum-of-products kernel on tuple keys with one term per product,
which the engine runs on packed int keys with one run of terms per factor,
and the full J and Rm tensors with every sign mirror, which the engine's
derivative tower folds onto canonical keys,
and the rescaling c.mu, the matrix zero test and the sectional curvature of
any two vectors, which `ghl sweep` reads off `Rm` on basis planes, and an
endomorphism as a tensor and a scaled k-form, which no engine path builds.

The engine calls none of these.  They are the independent path the tests
compare the engine against."""

import itertools
import math
import operator
from fractions import Fraction
from math import gcd
from typing import Sequence

from ghl import geometry as geo
from ghl.geometry import BracketSpec, InternalConsistencyError, _conn_endo, validate
from ghl.scalars import (DegreeGuardError, FractionDomain, Polynomial, RationalFunction,
                         get_degree_cap)
from ghl.multilinear import (KForm, MultiTensor, _sort_sign, dot, mat_mul, mat_scale, mat_sub,
                             mat_vec, mat_zero)


def mat_identity(n: int, dom) -> list[list]:
    M = mat_zero(n, dom)
    for i in range(n):
        M[i][i] = dom.one()
    return M


def mat_is_zero(A, dom) -> bool:
    return all(dom.is_zero(a) for row in A for a in row)


def from_endo(M, dom) -> MultiTensor:
    """The endomorphism M as a MultiTensor with an End slot only."""
    comp = {(r, c): x for r, row in enumerate(M) for c, x in enumerate(row)
            if not dom.is_zero(x)}
    return MultiTensor(len(M), 0, True, dom.zero(), comp)


def kform_scale(phi: KForm, c, dom) -> KForm:
    """c * phi."""
    if dom.is_zero(c):
        return KForm(phi.n, phi.degree)
    return KForm(phi.n, phi.degree, {k: c * v for k, v in phi.comp.items()})


def from_bilinear(rows, dom) -> MultiTensor:
    """(0,2)-tensor from a matrix of values T(e_i, e_j) = rows[i][j]."""
    n = len(rows)
    t = MultiTensor(n, 2, False, dom.zero())
    for i in range(n):
        for j in range(n):
            if not dom.is_zero(rows[i][j]):
                t.comp[(i, j)] = rows[i][j]
    return t


# -- k-forms ------------------------------------------------------------------

def form_basis(n: int, indices, dom) -> KForm:
    """e^{i1} ^ ... ^ e^{ik}."""
    key, sign = _sort_sign(indices)
    if key is None:
        return KForm(n, len(indices))
    c = dom.one() if sign > 0 else -dom.one()
    return KForm(n, len(indices), {key: c})


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _inverse_perm(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


def form_evaluate(phi: KForm, vectors, dom):
    """Full evaluation of phi on phi.degree vectors."""
    assert len(vectors) == phi.degree
    total = dom.zero()
    for key, c in phi.comp.items():
        # sum over permutations of key against the vector slots
        for perm in itertools.permutations(range(phi.degree)):
            sign = _perm_sign(perm)
            prod = c if sign > 0 else -c
            ok = True
            for slot, pos in enumerate(perm):
                fac = vectors[slot][key[pos]]
                if dom.is_zero(fac):
                    ok = False
                    break
                prod = prod * fac
            if ok:
                total = total + prod
    return total


def interior_product(phi: KForm, vectors, dom):
    """Contract phi against up to phi.degree vectors (in the leading slots).

    Full contraction returns a scalar, partial contraction a lower-degree
    KForm."""
    l = len(vectors)
    if l > phi.degree:
        raise ValueError("more vectors than form slots")
    if any(len(v) != phi.n for v in vectors):
        raise ValueError("dimension mismatch")
    if l == phi.degree:
        return form_evaluate(phi, vectors, dom)
    comp: dict[tuple, object] = {}
    for key, c in phi.comp.items():
        # choose which positions of key the vectors hit
        for chosen in itertools.permutations(range(phi.degree), l):
            rest = [key[p] for p in sorted(set(range(phi.degree)) - set(chosen))]
            # sign of moving chosen slots to the front, preserving order of rest
            perm = list(chosen) + sorted(set(range(phi.degree)) - set(chosen))
            sign = _perm_sign(_inverse_perm(perm))
            prod = c if sign > 0 else -c
            ok = True
            for slot, pos in enumerate(chosen):
                fac = vectors[slot][key[pos]]
                if dom.is_zero(fac):
                    ok = False
                    break
                prod = prod * fac
            if not ok:
                continue
            rkey, rsign = _sort_sign(rest)
            if rkey is None:
                continue
            if rsign < 0:
                prod = -prod
            s = comp.get(rkey)
            s = prod if s is None else s + prod
            if dom.is_zero(s):
                comp.pop(rkey, None)
            else:
                comp[rkey] = s
    return KForm(phi.n, phi.degree - l, comp)


def form_action(A, phi: KForm, dom) -> KForm:
    """Derivation action of A in gl(n) on a form: (A.phi)(X..) = -sum phi(..AXi..)."""
    n = phi.n
    comp: dict[tuple, object] = {}
    for key, c in phi.comp.items():
        for slot in range(phi.degree):
            # (A.phi)_J = -sum_r A[r][J_i] phi_{J:i->r}; scattering from the
            # stored component phi_K this lands at J = K:i->r with weight
            # -A[K_i][r].
            col = key[slot]
            for r in range(n):
                a = A[col][r]
                if dom.is_zero(a):
                    continue
                newkey, sign = _sort_sign(key[:slot] + (r,) + key[slot + 1:])
                if newkey is None:
                    continue
                add = -(a * c) if sign > 0 else (a * c)
                s = comp.get(newkey)
                s = add if s is None else s + add
                if dom.is_zero(s):
                    comp.pop(newkey, None)
                else:
                    comp[newkey] = s
    return KForm(n, phi.degree, comp)


def derivation_action_loop(A, T: MultiTensor, dom) -> MultiTensor:
    """Derivation action of A in gl(n) on a MultiTensor: each covariant slot
    transforms as (A.T)(..X..) = -T(..AX..), and an End slot by the
    commutator [A, W]; every partial sum is the scalars' own + and *."""
    n = T.n
    out = MultiTensor(n, T.rank, T.has_endo, T._zero)
    row_nz = [[(c, A[r][c]) for c in range(n) if not dom.is_zero(A[r][c])]
              for r in range(n)]
    col_nz = [[(r, A[r][c]) for r in range(n) if not dom.is_zero(A[r][c])]
              for c in range(n)]
    comp = out.comp
    zero = out._zero
    for key, c in T.comp.items():
        cov = key[:T.rank]
        for slot in range(T.rank):
            for r, a in row_nz[cov[slot]]:
                nk = key[:slot] + (r,) + key[slot + 1:]
                comp[nk] = comp.get(nk, zero) - a * c
        if T.has_endo:
            row, col = key[T.rank], key[T.rank + 1]
            for r, a in col_nz[row]:
                nk = cov + (r, col)
                comp[nk] = comp.get(nk, zero) + a * c
            for j, a in row_nz[col]:
                nk = cov + (row, j)
                comp[nk] = comp.get(nk, zero) - c * a
    for k in [k for k, v in comp.items() if dom.is_zero(v)]:
        del comp[k]
    return out


def add_product_loop(acc: dict, A: list, B: list, c=1) -> None:
    """acc[(i, j)] += c * (A B)[i][j] for row-sparse A and B (`_sparse`), so
    no product with a zero factor is formed."""
    for i, row in enumerate(A):
        for k, a in row:
            a = c * a
            for j, b in B[k]:
                x = acc.get((i, j))
                acc[i, j] = a * b if x is None else x + a * b


# -- complex linear algebra ------------------------------------------------------

def pi_11(alpha: KForm, J, dom) -> KForm:
    """(1,1)-projection of a 2-form: 1/2(a(X,Y) + a(JX,JY))."""
    assert alpha.degree == 2
    n = alpha.n
    half = dom.from_fraction("1/2")
    comp: dict[tuple, object] = {}
    Jcols = [[J[r][c] for r in range(n)] for c in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        v = alpha.component((i, j), dom) + form_evaluate(alpha, [Jcols[i], Jcols[j]], dom)
        v = half * v
        if not dom.is_zero(v):
            comp[(i, j)] = v
    return KForm(n, 2, comp)


def complex_trace_sym(h, dom):
    """tr^C of h in Sym^{1,1}: half the real trace."""
    n = len(h)
    acc = dom.zero()
    for i in range(n):
        acc = acc + h[i][i]
    return dom.from_fraction("1/2") * acc


# -- brackets and torsion on vectors ---------------------------------------------

def split_bracket(spec):
    """Coordinate projections of mu on m-pairs: (mu_h, mu_m) as dicts."""
    mu_h, mu_m = {}, {}
    dom = spec.domain
    for a, b in itertools.combinations(range(2 * spec.m), 2):
        h = spec.mu_h(a, b)
        mm = spec.mu_m(a, b)
        if any(not dom.is_zero(x) for x in h):
            mu_h[(a, b)] = h
        if any(not dom.is_zero(x) for x in mm):
            mu_m[(a, b)] = mm
    return mu_h, mu_m


def mu_m_vec(spec, x, y) -> list:
    """mu_m of two R^{2m} vectors."""
    dom = spec.domain
    out = [dom.zero()] * (2 * spec.m)
    for a in range(2 * spec.m):
        if dom.is_zero(x[a]):
            continue
        for b in range(2 * spec.m):
            if dom.is_zero(y[b]):
                continue
            coeff = x[a] * y[b]
            for c, val in enumerate(spec.mu_m(a, b)):
                if not dom.is_zero(val):
                    out[c] = out[c] + coeff * val
    return out


def N_vec(tors, spec, x, y) -> list:
    """The Nijenhuis tensor of two R^{2m} vectors, from the stored tors.N."""
    dom = spec.domain
    out = [dom.zero()] * (2 * spec.m)
    for a in range(2 * spec.m):
        if dom.is_zero(x[a]):
            continue
        for b in range(2 * spec.m):
            if dom.is_zero(y[b]):
                continue
            v = tors.N.get((a, b)) if a < b else None
            if a > b and (b, a) in tors.N:
                v = [-c for c in tors.N[(b, a)]]
            if v is None:
                continue
            coeff = x[a] * y[b]
            for c, val in enumerate(v):
                out[c] = out[c] + coeff * val
    return out


# -- curvature by dense matrix products -------------------------------------------

def curvature_dense(spec, C) -> list:
    """Om[a][b] = ad(mu_h(e_a, e_b)) - [C_a, C_b] - sum_c mu_m(e_a, e_b)_c C_c
    for every a and b, each entry a dense sum over the spec's domain; the
    isotropy acts by ad(h)[r][c] = sum_z h_z mu(e_z, e_{q+c})_{q+r}."""
    dom = spec.domain
    q, n2 = spec.q, 2 * spec.m
    out = []
    for a in range(n2):
        out.append([])
        for b in range(n2):
            h = spec.mu_h(a, b)
            M = [[sum((h[z] * spec.mu[z][q + c][q + r] for z in range(q)), dom.zero())
                  for c in range(n2)] for r in range(n2)]
            M = mat_sub(M, mat_sub(mat_mul(C[a], C[b]), mat_mul(C[b], C[a])))
            for c, x in enumerate(spec.mu_m(a, b)):
                M = mat_sub(M, mat_scale(x, C[c]))
            out[-1].append(M)
    return out


# -- the Lee form from the Gauduchon torsion ---------------------------------------

def lee_from_torsion_trace(spec) -> list:
    """theta(X) = tr T^1(X, .), read from tr T^t = (t+1)/2 theta at t = 1
    (Gauduchon 1997); asserts that tr T^0 is half of it."""
    dom = spec.domain
    n2 = 2 * spec.m

    def torsion_trace(t):
        T = geo.gauduchon_curvature_torsion(spec, t)[1]
        return [sum((T[x][b][b] for b in range(n2)), dom.zero()) for x in range(n2)]

    theta = torsion_trace(dom.one())
    half = dom.from_fraction("1/2")
    assert all(dom.eq(half * a, b) for a, b in zip(theta, torsion_trace(dom.zero())))
    return theta


# -- the printed form of a rational function ----------------------------------------

def content(p: Polynomial) -> Fraction:
    """Positive rational content (gcd of numerators / lcm of denominators)."""
    num_gcd, den_lcm = 0, 1
    for c in map(Fraction, p.terms.values()):
        num_gcd = gcd(num_gcd, c.numerator)
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    return Fraction(num_gcd, den_lcm) if num_gcd else Fraction(1)


def ratfun_text(num: Polynomial, den: Polynomial) -> str:
    """The printed form of num/den: den's leading coefficient made positive,
    their shared monomial cancelled, den scaled to coprime integers and
    num's fractions cleared into both."""
    if num.is_zero():
        return "0"
    if den.leading()[1] < 0:
        num, den = -num, -den
    num, den = Polynomial._align(num, den)
    low = tuple(min(e[i] for p in (num, den) for e in p.terms) for i in range(len(num.vars)))
    num, den = (Polynomial(p.vars, {tuple(a - b for a, b in zip(e, low)): c
                                    for e, c in p.terms.items()}) for p in (num, den))
    scale = content(den)
    k = (content(num) / scale).denominator / scale     # den / scale, then num, made integral
    num, den = (Polynomial(p.vars, {e: int(c * k) for e, c in p.terms.items()})
                for p in (num, den))
    if den == Polynomial.const(1):
        return num.text()
    if num.is_constant() and den.is_constant():
        return str(Fraction(num.constant_value()) / den.constant_value())
    return f"({num.text()}) / ({den.text()})"


# -- the normal form in two passes, and clearing every value ------------------------

_ONE = Polynomial((), {(): 1})


def monomial_content(p: Polynomial) -> tuple[int, ...]:
    """Componentwise min exponent over all terms (common monomial factor)."""
    if not p.terms or not p.vars:
        return (0,) * len(p.vars)
    mins = None
    for e in p.terms:
        mins = e if mins is None else tuple(map(min, mins, e))
        if not any(mins):
            break
    return mins


def normal_form_two_pass(num: Polynomial, den: Polynomial):
    """num/den in normal form: int coefficients with no common factor, no
    monomial shared by num and den, den's leading coefficient positive, and
    a zero num over the constant 1.  A pair already in normal form comes
    back as the same objects."""
    if not num.terms:
        return num, _ONE
    if any(monomial_content(num)) and any(monomial_content(den)):
        pair = Polynomial._align(num, den)
        low = tuple(map(min, *map(monomial_content, pair)))
        if any(low):
            num, den = (Polynomial(p.vars, {tuple(map(operator.sub, e, low)): c
                                            for e, c in p.terms.items()})._trim()
                        for p in pair)
    coeffs = [*num.terms.values(), *den.terms.values()]
    L = math.lcm(*[c.denominator for c in coeffs])
    g = math.gcd(*[c.numerator * (L // c.denominator) for c in coeffs])
    if den.leading()[1] < 0:
        g = -g
    if L == 1 and g == 1 and all(type(c) is int for c in coeffs):
        return num, den
    return tuple(Polynomial(p.vars, {e: c.numerator * (L // c.denominator) // g
                                     for e, c in p.terms.items()})
                 for p in (num, den))


def clear_every_value(values: list):
    """(den, ring) with values[i] == ring[i] / den exactly, in one of three ways:
    Fractions give an int lcm and ints; RationalFunctions whose denominators
    are all monomials, with any Fractions among them taken as constants (as
    over a Fraction spec at symbolic t), give a monomial Polynomial L*x^e,
    L the lcm of the denominators' coefficients, and Polynomials with int
    coefficients; anything else (no values, floats, a non-monomial
    denominator) gives (1, values), the list itself."""
    if values and all(isinstance(v, Fraction) for v in values):
        den = math.lcm(*(v.denominator for v in values))
        return den, [v.numerator * (den // v.denominator) for v in values]
    if not (values and all(isinstance(v, Fraction) or isinstance(v, RationalFunction)
                           and len(v.den.terms) == 1 for v in values)):
        return 1, values
    values = [RationalFunction.const(v) if isinstance(v, Fraction) else v for v in values]
    names = tuple(sorted({x for v in values for x in v.num.vars + v.den.vars}))
    dens = [next(iter(v.den._aligned_to(names).terms.items())) for v in values]
    top = tuple(map(max, zip(*(e for e, _ in dens))))
    L = math.lcm(*(c for _, c in dens))
    ring = []
    for v, (e, c) in zip(values, dens):
        shift, k = tuple(a - b for a, b in zip(top, e)), L // c
        ring.append(Polynomial(names, {tuple(map(operator.add, x, shift)): a * k
                                       for x, a in v.num._aligned_to(names).terms.items()}))
    return Polynomial(names, {top: L}), ring


def clear_and_reduce(T: MultiTensor):
    """(den, ring tensor) with T == ring / den: `clear_every_value` over T's
    stored values, then the content that den shares with every ring value
    divided out, their gcd over ints and over a monomial den the gcd of all
    coefficients times the least exponents; (1, T) itself where
    clear_every_value leaves the values as they are."""
    values = list(T.comp.values())
    den, ring = clear_every_value(values)
    if ring is values:
        return 1, T
    if isinstance(den, int):
        g = gcd(den, *ring)
        return den // g, MultiTensor(T.n, T.rank, T.has_endo, 0,
                                     {k: v // g for k, v in zip(T.comp, ring)})
    polys = [den, *ring]
    g = gcd(*(content(p).numerator for p in polys))
    low = tuple(map(min, *map(monomial_content, polys)))
    den, *ring = (Polynomial(p.vars, {tuple(map(operator.sub, e, low)): c // g
                                      for e, c in p.terms.items()}) for p in polys)
    return den, MultiTensor(T.n, T.rank, T.has_endo, Polynomial.zero(), zip(T.comp, ring))


# -- full tensors and their canonical keys -------------------------------------------

def full_start_tensors(spec: BracketSpec) -> tuple[MultiTensor, MultiTensor]:
    """J and Rm as full tuple-keyed tensors: every nonzero I[r][c], and
    every nonzero Rm[a][b][r][c] read off both halves of the pair table."""
    dom, n2 = spec.domain, 2 * spec.m
    Rm = {(a, b, r, c): spec.Rm[a][b][r][c]
          for a, b, r, c in itertools.product(range(n2), repeat=4)
          if not dom.is_zero(spec.Rm[a][b][r][c])}
    return from_endo(spec.I, dom), MultiTensor(n2, 2, True, dom.zero(), Rm)


def is_canonical(key: tuple, skew: int) -> bool:
    """Whether each of the last `skew` index pairs of key is increasing."""
    return all(key[-2 * p - 2] < key[-2 * p - 1] for p in range(skew))


def canonical_part(comp: dict, skew: int) -> dict:
    """The entries of a tuple-keyed comp at canonical keys (`is_canonical`)."""
    return {key: x for key, x in comp.items() if is_canonical(key, skew)}


def unfold(comp: dict, skew: int) -> dict:
    """The full comp of one held on canonical keys: each key followed by its
    sign mirrors, with one or more of the last `skew` index pairs swapped."""
    out = {}
    for key, x in comp.items():
        for swaps in itertools.product((False, True), repeat=skew):
            k, sign = list(key), 1
            for p, swap in enumerate(swaps):
                if swap:
                    k[-2 * p - 2], k[-2 * p - 1] = k[-2 * p - 1], k[-2 * p - 2]
                    sign = -sign
            out[tuple(k)] = x if sign > 0 else -x
    return out


# -- the sum-of-products kernel on tuple keys ---------------------------------------

def tuple_scatter_products(terms, zero, is_zero) -> dict:
    """{key: sum of sign * a * c} over the (key, sign, a, c) in terms, sign
    +-1, without the sums that is_zero.  A product of Polynomials passes the
    degree cap check and adds into one {monomial: coefficient} dict per key,
    each monomial packed into an int with a cap.bit_length()-bit field per
    variable, then one Polynomial per key.  Other products sum from zero."""
    cap = get_degree_cap()
    width = cap.bit_length()
    shifts, packed, sums, out = {}, {}, {}, {}   # packed: id(p) -> (p kept alive, pairs, degree)

    def pack(p):
        offsets = [shifts.setdefault(v, width * len(shifts)) for v in p.vars]
        pairs = [(sum(x << o for x, o in zip(e, offsets)), k) for e, k in p.terms.items()]
        return packed.setdefault(id(p), (p, pairs, p.total_degree()))

    get = out.get
    for key, sign, a, c in terms:
        if type(a) is not Polynomial or type(c) is not Polynomial:
            out[key] = get(key, zero) + a * c if sign > 0 else get(key, zero) - a * c
            continue
        _, pa, da = packed.get(id(a)) or pack(a)
        _, pc, dc = packed.get(id(c)) or pack(c)
        if pa and pc and da + dc > cap:     # a zero factor adds nothing
            raise DegreeGuardError(f"product degree {da + dc} exceeds cap {cap}")
        acc = sums.setdefault(key, {})
        for ea, ka in pa:
            ka *= sign
            for ec, kc in pc:
                acc[ea + ec] = acc.get(ea + ec, 0) + ka * kc
    names = tuple(sorted(shifts))
    fields = [(shifts[v], (1 << width) - 1) for v in names]
    for key, acc in sums.items():
        poly = {tuple(e >> o & mask for o, mask in fields): k for e, k in acc.items() if k}
        if poly or key in out:
            x = Polynomial(names, poly)
            out[key] = out[key] + x if key in out else x
    return {key: x for key, x in out.items() if not is_zero(x)}


def tuple_index_rows(tagged, is_zero):
    """Nonzero A[i][j] of (tag, A) pairs as rows[i] of (tag, j, a), cols[j] of (tag, i, a)."""
    rows, cols = {}, {}
    for tag, A in tagged:
        for i, row in enumerate(A):
            for j, a in enumerate(row):
                if not is_zero(a):
                    rows.setdefault(i, []).append((tag, j, a))
                    cols.setdefault(j, []).append((tag, i, a))
    return rows, cols


def tuple_action_terms(T: MultiTensor, rows: dict, cols: dict, sign: int = 1):
    """`scatter_products` terms of the derivation action of sign * A on T at
    tag + key, for each tagged A in `index_rows`: (A.T)(..X..) = -T(..AX..)
    on each covariant slot, and the commutator [A, W] on an End slot."""
    rank, none, neg = T.rank, (), -sign
    for key, c in T.comp.items():
        # (A.T)_J = -sum_r A[r][J_i] T_{J:i->r}: T_K lands at K:i->r times -A[K_i][r]
        for slot in range(rank):
            head, tail = key[:slot], key[slot + 1:]
            for tag, r, a in rows.get(key[slot], none):
                yield tag + head + (r,) + tail, neg, a, c
        if T.has_endo:
            cov, row, col = key[:rank], key[rank], key[rank + 1]
            for tag, r, a in cols.get(row, none):          # A@W
                yield tag + cov + (r, col), sign, a, c
            for tag, j, a in rows.get(col, none):          # -W@A
                yield tag + cov + (row, j), neg, a, c


def sparse_pairs(M: list) -> list:
    """The rows of a matrix as [(column, entry)] lists of its nonzero entries."""
    return [[(j, x) for j, x in enumerate(row) if not FractionDomain.is_zero(x)] for row in M]


def tuple_product_terms(key: tuple, sign: int, A, B: list):
    """`scatter_products` terms of sign * (A B)[i][j] at key + (i, j) for
    row-sparse A and B (`_sparse`), or of sign * A * B[i][j] for a scalar A,
    so that no product with a zero factor is formed."""
    if isinstance(A, list):
        for i, row in enumerate(A):
            for k, a in row:
                for j, b in B[k]:
                    yield key + (i, j), sign, a, b
    elif not FractionDomain.is_zero(A):
        for i, row in enumerate(B):
            for j, b in row:
                yield key + (i, j), sign, A, b


# -- rescaling and sectional curvature -----------------------------------------


def rescale(spec: BracketSpec, c) -> BracketSpec:
    """(c.mu): h-argument brackets unchanged, mu_h -> mu_h/c^2, mu_m -> mu_m/c."""
    dom = spec.domain
    if isinstance(c, (int, Fraction)):
        c = dom.from_fraction(c)
    if dom.is_zero(c):
        raise ValueError("rescaling constant must be nonzero")
    q = spec.q
    inv2 = dom.one() / (c * c)
    inv1 = dom.one() / c
    mu = {}
    for (a, b), vec in spec.mu_store.items():
        if a < q:
            mu[(a, b)] = list(vec)
        else:
            mu[(a, b)] = [x * inv2 for x in vec[:q]] + [x * inv1 for x in vec[q:]]
    out = BracketSpec(spec.q, spec.m, mu, dom, spec.name + "|rescaled", spec.params)
    rep = validate(out)
    if not rep.ok:
        raise InternalConsistencyError("rescaling broke h1-h4")
    return out


def sectional_curvature(spec: BracketSpec, Rm: list, X: Sequence, Y: Sequence,
                        normalize: bool = False):
    """sec(X,Y) = <Rm(X,Y)X, Y>, optionally divided by |X|^2|Y|^2 - <X,Y>^2."""
    dom = spec.domain
    M = _conn_endo([_conn_endo(row, Y, dom) for row in Rm], X, dom)
    val = dot(mat_vec(M, X), Y)
    if normalize:
        denom = dot(X, X) * dot(Y, Y) - dot(X, Y) * dot(X, Y)
        if dom.is_zero(denom):
            raise ValueError("sectional curvature of linearly dependent vectors")
        val = val / denom
    return val
