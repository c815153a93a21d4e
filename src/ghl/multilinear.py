"""Exterior/tensor algebra over an abstract scalar domain.

Vectors are plain lists of scalars, endomorphisms are row-major lists of rows
in column-action convention (column b holds the image of e_b).  KForm stores
sparse antisymmetric components on strictly increasing index tuples.
MultiTensor is a dense-by-meaning, sparse-by-storage covariant tensor with an
optional endomorphism slot (used for covariant derivatives of J and Rm).

Form-evaluation convention: (e^{i1}^...^e^{ik})(e_{j1},...,e_{jk}) =
det(delta^{i_a}_{j_b}), no 1/k! factors.  The coboundary follows the sign the
worked examples pin down: (d phi)(X0,...,Xk) =
-sum_{i<j} (-1)^{i+j} phi(mu(X_i,X_j), X_0,...,^X_i,...,^X_j,...,X_k),
so for brackets [e0,e1] = -e3 one gets d(e^3) = -e^0^e^1.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from .scalars import DegreeGuardError, FractionDomain, get_degree_cap

__all__ = [
    "basis_vector", "vec_sub", "vec_scale", "dot",
    "mat_zero", "mat_add", "mat_sub", "mat_scale",
    "mat_mul", "mat_vec", "commutator",
    "KForm", "MultiTensor", "coboundary",
    "derivation_action", "complex_trace", "complex_trace_form",
    "gram_schmidt_unitary", "FrameError",
]


# -- vectors ----------------------------------------------------------------

def basis_vector(n: int, i: int, dom) -> list:
    v = [dom.zero()] * n
    v[i] = dom.one()
    return v


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def vec_scale(c, u):
    return [c * a for a in u]


def dot(u, v):
    it = iter(zip(u, v))
    a, b = next(it)
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc


# -- matrices (column action) ------------------------------------------------

def mat_zero(n: int, dom) -> list[list]:
    z = dom.zero()
    return [[z] * n for _ in range(n)]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(c, A):
    return [[c * a for a in row] for row in A]


def mat_mul(A, B):
    n = len(A)
    return [[dot(A[i], [B[k][j] for k in range(n)]) for j in range(n)] for i in range(n)]


def mat_vec(A, v):
    return [dot(row, v) for row in A]


def commutator(A, B):
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


# -- k-forms ------------------------------------------------------------------

def _sort_sign(idx: Sequence[int]):
    """Sort an index tuple; return (sorted tuple, permutation sign) or
    (None, 0) when an index repeats."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), sign


class KForm:
    """Sparse antisymmetric k-form on an n-dimensional space."""

    __slots__ = ("n", "degree", "comp")

    def __init__(self, n: int, degree: int, comp=None):
        self.n = n
        self.degree = degree
        self.comp = dict(comp or {})  # strictly increasing tuples -> scalar

    def component(self, idx: Sequence[int], dom):
        key, sign = _sort_sign(idx)
        if key is None or key not in self.comp:
            return dom.zero()
        c = self.comp[key]
        return c if sign > 0 else -c

    def add(self, other: "KForm", dom) -> "KForm":
        comp = dict(self.comp)
        for k, c in other.comp.items():
            s = comp.get(k)
            s = c if s is None else s + c
            if dom.is_zero(s):
                comp.pop(k, None)
            else:
                comp[k] = s
        return KForm(self.n, self.degree, comp)

    def neg(self) -> "KForm":
        return KForm(self.n, self.degree, {k: -v for k, v in self.comp.items()})

    def sub(self, other: "KForm", dom) -> "KForm":
        return self.add(other.neg(), dom)

    def is_zero(self, dom) -> bool:
        return all(dom.is_zero(c) for c in self.comp.values())


def coboundary(mu: Callable[[int, int], Sequence], n: int, phi: KForm, dom) -> KForm:
    """Chevalley-Eilenberg differential in the worked examples' sign:

        (d phi)(X0..Xk) = -sum_{i<j} (-1)^{i+j} phi(mu(Xi,Xj), rest)
    """
    k = phi.degree
    comp: dict[tuple, object] = {}
    for key in itertools.combinations(range(n), k + 1):
        total = dom.zero()
        for i, j in itertools.combinations(range(k + 1), 2):
            rest = [key[p] for p in range(k + 1) if p != i and p != j]
            bracket = mu(key[i], key[j])
            acc = dom.zero()
            for c in range(n):
                fc = bracket[c]
                if dom.is_zero(fc):
                    continue
                val = phi.component((c, *rest), dom)
                if dom.is_zero(val):
                    continue
                acc = acc + fc * val
            if (i + j) % 2 == 0:
                total = total - acc
            else:
                total = total + acc
        if not dom.is_zero(total):
            comp[key] = total
    return KForm(n, k + 1, comp)


# -- multi tensors -------------------------------------------------------------

class MultiTensor:
    """Covariant tensor with `rank` vector slots and an optional End slot.

    Components are stored sparsely: keys are (i1..irank) or
    (i1..irank, row, col) when End-valued.  The last `skew` index pairs (the
    End slot's (row, col) first, then covariant slots two by two) are skew
    and stored on their canonical keys i < j only: each mirror, with i and j
    swapped, is the negative of its stored key's value (`mirrored`)."""

    __slots__ = ("n", "rank", "has_endo", "comp", "_zero", "skew")

    def __init__(self, n: int, rank: int, has_endo: bool, zero, comp=None, skew: int = 0):
        self.n = n
        self.rank = rank
        self.has_endo = has_endo
        self._zero = zero
        self.comp = dict(comp or {})
        self.skew = skew

    def get(self, key):
        return self.comp.get(key, self._zero)

    def packed(self) -> "MultiTensor":
        """This tensor keyed by `pack`ed ints, the form the kernel runs on."""
        return MultiTensor(self.n, self.rank, self.has_endo, self._zero,
                           {pack(k, self.n): v for k, v in self.comp.items()}, self.skew)

    def unpacked(self) -> "MultiTensor":
        """The tuple-keyed tensor of a `packed` one."""
        n, length = self.n, self.rank + 2 * self.has_endo
        return MultiTensor(n, self.rank, self.has_endo, self._zero,
                           {unpack(k, n, length): v for k, v in self.comp.items()}, self.skew)

    def mirrored(self) -> "MultiTensor":
        """The full tensor of a packed one: each key, then its mirrors."""
        comp, n = {}, self.n
        for key, v in self.comp.items():
            keys, signed = [(key, 0)], (v, -v)
            for lo, hi in ((n ** (2 * p), n ** (2 * p + 1)) for p in range(self.skew)):
                keys += [(k + (k // lo % n - k // hi % n) * (hi - lo), 1 - s) for k, s in keys]
            comp.update((k, signed[s]) for k, s in keys)
        return MultiTensor(n, self.rank, self.has_endo, self._zero, comp)


def pack(key, n: int) -> int:
    """The index tuple key over range(n) as one int, sum k_i n^(L-1-i): slot
    0 is most significant, so among keys of one length int order is tuple
    order, a new first slot x is x * n^L + k and dropping it is k % n^L."""
    return sum(k * n ** p for p, k in enumerate(reversed(key)))


def unpack(x: int, n: int, length: int) -> tuple:
    """The key of that length which `pack` turns into x; slot 0 takes what
    is left, so a tag there may exceed n."""
    key = [x] * length
    for i in range(length - 1, 0, -1):
        key[0], key[i] = divmod(key[0], n)
    return tuple(key)


def scatter_products(runs, zero, is_zero, layout=None) -> dict:
    """{key: sum of sign * a * c} over the runs (base, stride, sign +-1, c,
    entries), each entry (offset, r, a) at key offset + base + r * stride,
    without the sums that is_zero (an int one: that are 0).  Without a
    layout the products sum from zero in run and entry order.  Nonzero
    values packed in layout (`scalars.Layout`) sum into one {monomial:
    coefficient} dict per key, each monomial product one int addition, and
    come back packed.  The degree cap is checked once per run, on c and the
    largest degree of its entries list (kept by id for the call, as lists
    repeat across runs); a run over the cap raises at its first entry
    over it, as a check per product would.  This is Johnson's
    sum-of-products scheme (1974) as Monagan and Pearce use it (2009)."""
    out = {}
    get = out.get
    if layout is None:
        for base, stride, sign, c, entries in runs:
            for off, r, a in entries:
                key = off + base + r * stride
                out[key] = get(key, zero) + a * c if sign > 0 else get(key, zero) - a * c
        return {key: x for key, x in out.items() if (x if type(x) is int else not is_zero(x))}
    top, cap, degrees = layout.top, min(get_degree_cap(), layout.limit), {}
    for base, stride, sign, c, entries in runs:
        dc = max(c) >> top
        if id(entries) not in degrees:      # the list is kept, so its id is not reused
            degrees[id(entries)] = entries, max((max(a) for _, _, a in entries), default=0) >> top
        if entries and degrees[id(entries)][1] + dc > cap:
            da = next(d for _, _, a in entries if (d := max(a) >> top) + dc > cap)
            raise DegreeGuardError(f"product degree {da + dc} exceeds cap {cap}")
        c = list(c.items()) if sign > 0 else [(e, -k) for e, k in c.items()]
        for off, r, a in entries:
            key = off + base + r * stride
            acc = get(key)
            if acc is None:
                acc = out[key] = {}
            for ea, ka in a.items():
                for ec, kc in c:
                    e = ea + ec
                    acc[e] = acc.get(e, 0) + ka * kc
    return {key: v for key, acc in out.items() if (v := {e: k for e, k in acc.items() if k})}


def index_rows(tagged, is_zero):
    """Nonzero A[i][j] of (tag, A) pairs, int tags, as rows[i] of (tag, j, a)
    and cols[j] of (tag, i, a): the entries of `scatter_products` runs."""
    rows, cols = {}, {}
    for tag, A in tagged:
        for i, row in enumerate(A):
            for j, a in enumerate(row):
                if not is_zero(a):
                    rows.setdefault(i, []).append((tag, j, a))
                    cols.setdefault(j, []).append((tag, i, a))
    return rows, cols


def action_terms(T: MultiTensor, rows: dict, cols: dict, sign: int = 1):
    """`scatter_products` runs, one per stored component and slot, of the
    derivation action of sign * A on T, keys packed (`MultiTensor.packed`),
    at tag + key for each A in `index_rows`: (A.T)(..X..) = -T(..AX..) on
    each covariant slot, and the commutator [A, W] on an End slot.

    On a skew pair (`MultiTensor.skew`) the run of an index is split in two:
    the entries whose output lands canonical, and those landing on a mirror,
    which go at the mirror's canonical key (the partner index moved to this
    slot, the output index to the partner's) with the sign flipped; outputs
    on the diagonal are dropped.  The full action on the mirrored T sums the
    mirror's images there, so the runs give its canonical keys exactly when
    the action keeps the pair skew: on covariant slots for any A, on the End
    slot for skew A (as S(x), Rm(x1, x2) and the u(m), so(2m) bases are)."""
    n, none, neg = T.n, (), -sign
    # (stride, sign, table, partner stride or 0, entries of canonical outputs lie below it)
    slots = [[n ** p, neg, rows, 0, False] for p in reversed(range(T.rank + 2 * T.has_endo))]
    if T.has_endo:
        slots[-2][1:3] = sign, cols                 # A@W on the row, -W@A on the col
    for p in range(len(slots) - 2 * T.skew, len(slots), 2):
        slots[p][3:], slots[p + 1][3:] = (slots[p + 1][0], True), (slots[p][0], False)
    splits = {(id(t), i, o): ([e for e in E if e[1] < o], [e for e in E if e[1] > o])
              for t in (rows, cols) for i, E in t.items() for o in range(n)} if T.skew else {}
    for key, c in T.comp.items():
        # (A.T)_J = -sum_r A[r][J_i] T_{J:i->r}: T_K lands at K:i->r times -A[K_i][r]
        for stride, sgn, table, partner, below in slots:
            i = key // stride % n
            if not partner:
                yield key - i * stride, stride, sgn, c, table.get(i, none)
                continue
            o = key // partner % n
            split = splits.get((id(table), i, o), (none, none))
            base = key - i * stride
            yield base, stride, sgn, c, split[not below]
            yield base + o * (stride - partner), partner, -sgn, c, split[below]


def derivation_action(A, T: MultiTensor, dom) -> MultiTensor:
    """Derivation action of A in gl(n) on a MultiTensor (`action_terms`),
    without the entries of A and the sums that dom.is_zero."""
    runs = action_terms(T.packed(), *index_rows([(0, A)], dom.is_zero))
    return MultiTensor(T.n, T.rank, T.has_endo, T._zero,
                       scatter_products(runs, T._zero, dom.is_zero), T.skew).unpacked()


def _conn_endo(C: list, v: Sequence, dom):
    """sum_a v[a] C[a] over the nonzero coefficients."""
    M = mat_zero(len(C[0]), dom)
    for a, c in enumerate(v):
        if not dom.is_zero(c):
            M = mat_add(M, mat_scale(c, C[a]))
    return M


def _matrices(flat: list, n: int) -> list:
    """The n x n matrices of a flat list, in order."""
    return [[flat[i:i + n] for i in range(j, j + n * n, n)] for j in range(0, len(flat), n * n)]


def _sparse(M: list) -> list:
    """The rows of a matrix as [(0, column, entry)] lists of its nonzero entries."""
    return [[(0, j, x) for j, x in enumerate(row) if not FractionDomain.is_zero(x)] for row in M]


def _product_terms(kp: int, n: int, sign: int, A, B: list):
    """`scatter_products` runs of sign * (A B)[i][j] at (kp*n + i)*n + j for
    row-sparse A and B (`_sparse`), or of sign * A * B[i][j] for a scalar A,
    so that no product with a zero factor is formed: a dense ring product
    made the iwasawa report slower than the domain one."""
    if isinstance(A, list):
        for i, row in enumerate(A):
            base = (kp * n + i) * n
            for _, k, a in row:
                yield base, 1, sign, a, B[k]
    elif not FractionDomain.is_zero(A):
        for i, row in enumerate(B):
            yield (kp * n + i) * n, 1, sign, A, row


# -- complex linear algebra helpers -------------------------------------------

def complex_trace(W, dom):
    """tr^C(J o W) for skew W commuting with I_st: sum_k W[2k, 2k+1]."""
    n = len(W)
    acc = dom.zero()
    for k in range(n // 2):
        acc = acc + W[2 * k][2 * k + 1]
    return acc


def complex_trace_form(alpha: KForm, dom):
    """Tr^C_g of a 2-form in a unitary frame: sum_k alpha(e_{2k}, e_{2k+1}).

    Insensitive to the (2,0)+(0,2) part, so no (1,1)-projection is needed."""
    acc = dom.zero()
    for k in range(alpha.n // 2):
        acc = acc + alpha.component((2 * k, 2 * k + 1), dom)
    return acc


# -- unitary Gram-Schmidt (numeric backend) ------------------------------------

class FrameError(ValueError):
    """Gram-Schmidt input is not a positive-definite J-compatible metric."""


def gram_schmidt_unitary(G, J, dom):
    """J-adapted orthonormal frame for a positive-definite symmetric G with
    G(J.,J.) = G.  Input basis is processed in order; each new direction is
    orthonormalized and immediately followed by its J-image, so the output
    satisfies G(w_a,w_b) = delta and J w_{2k} = w_{2k+1}."""
    n = len(G)
    for i in range(n):
        for j in range(n):
            if not dom.eq(G[i][j], G[j][i]):
                raise FrameError("metric matrix is not symmetric")
    JG = mat_mul([list(r) for r in zip(*J)], mat_mul(G, J))  # J^T G J
    for i in range(n):
        for j in range(n):
            if not dom.eq(JG[i][j], G[i][j]):
                raise FrameError("metric is not J-compatible: G(J.,J.) != G")

    def ip(u, v):
        return dot(u, mat_vec(G, v))

    frame: list[list] = []
    for idx in range(n):
        if len(frame) == n:
            break
        v = basis_vector(n, idx, dom)
        for w in frame:
            v = vec_sub(v, vec_scale(ip(v, w), w))
        norm2 = ip(v, v)
        if dom.is_zero(norm2):
            continue
        if norm2 < 0:
            raise FrameError("metric is not positive definite")
        inv = dom.one() / dom.sqrt(norm2)
        w = vec_scale(inv, v)
        frame.append(w)
        frame.append(mat_vec(J, w))
    if len(frame) != n:
        raise FrameError("metric is not positive definite (rank deficiency)")
    return frame
