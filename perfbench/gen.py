"""Seeded input generators for the benchmark.

Every generator takes a `random.Random` and returns plain data (Fractions,
dicts) together with the `.ghl` text the engine reads, so the oracles in
`oracle.py` work from the generator's own coefficients and never from the
engine's parse of them.

Two-step nilpotent brackets put `mu: V x V -> Z` with `Z` central, so the
Jacobi identity holds by construction.  With `Z` the last complex line the
bracket is integrable when it is J-invariant (`mu(IX, IY) = mu(X, Y)`) or
complex bilinear (`mu(IX, Y) = I mu(X, Y)`), since the Nijenhuis tensor is
linear in `mu` and vanishes on both kinds; a random real bilinear bracket is
generically not integrable.  For m = 2 every 2-form on `V = R^2` is
J-invariant, so the non-integrable m = 2 kind puts `Z` on the last real line
only (as the Kodaira-Thurston algebra does).

A coefficient is a linear form in the parameters: a dict mapping a parameter
name, or None for the constant term, to a Fraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

COEFFS = [Fraction(v) for v in ("1", "-1", "2", "-2", "1/2", "-1/2", "3/2", "-3/2", "3", "-3")]


@dataclass
class Nilpotent:
    """A generated two-step nilpotent bracket on R^{2m} (q = 0)."""
    name: str
    m: int
    params: tuple
    mu: dict                       # (a, b) a < b -> {c: linear form}
    integrable: bool | None        # True by construction, None if unknown
    sample: dict = field(default_factory=dict)   # params -> Fraction, no poles

    def instantiate(self, assignment: dict) -> dict:
        """Constant brackets (a, b) -> {c: Fraction} at a parameter point."""
        out = {}
        for key, vec in self.mu.items():
            vals = {c: _eval_linear(form, assignment) for c, form in vec.items()}
            vals = {c: v for c, v in vals.items() if v}
            if vals:
                out[key] = vals
        return out

    def text(self, scale=Fraction(1)) -> str:
        """The `.ghl` file; `scale` multiplies every structure constant."""
        lines = [f"# generated two-step nilpotent bracket ({self.name})",
                 "[algebra]", f"name = {self.name}", "q = 0", f"m = {self.m}",
                 "params = " + ", ".join(self.params), "backend = exact", "", "[brackets]"]
        for (a, b), vec in sorted(self.mu.items()):
            terms = []
            for c, form in sorted(vec.items()):
                form = {p: scale * v for p, v in form.items() if v}
                if form:
                    terms.append(f"({_linear_text(form)})*e{c}")
            if terms:
                lines.append(f"e{a},e{b} = " + " + ".join(terms))
        return "\n".join(lines) + "\n"


def _eval_linear(form: dict, assignment: dict) -> Fraction:
    return sum((v * (Fraction(1) if p is None else assignment[p]) for p, v in form.items()),
               Fraction(0))


def _linear_text(form: dict) -> str:
    parts = []
    for p, v in sorted(form.items(), key=lambda kv: (kv[0] is not None, kv[0] or "")):
        body = str(abs(v)) if p is None else f"{abs(v)}*{p}"
        parts.append(("-" if v < 0 else "+", body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _add(form: dict, other: dict) -> dict:
    out = dict(form)
    for p, v in other.items():
        out[p] = out.get(p, Fraction(0)) + v
    return {p: v for p, v in out.items() if v}


def _random_form(rng: random.Random, params: tuple) -> dict:
    """A nonzero coefficient: a rational, times one of the parameters when
    there are any."""
    p = rng.choice(params) if params else None
    return {p: rng.choice(COEFFS)}


def _i_image(k: int) -> tuple[int, int]:
    """I e_k = sign * e_j on the standard structure: (j, sign)."""
    return (k + 1, 1) if k % 2 == 0 else (k - 1, -1)


def nilpotent(rng: random.Random, m: int, kind: str, nparams: int = 0,
              nbase: int = 3, name: str = "nil", lines_only: bool = False) -> Nilpotent:
    """kind: 'abelian' (J-invariant), 'holomorphic' (complex bilinear, m >= 3),
    'mixed' (their sum) or 'generic' (random real, not integrable in general).
    `nbase` random real entries seed the abelian and generic parts; a fixed
    count keeps the cost of one seed close to another's.  The generic m = 2
    bracket always couples the two complex lines (mu(e0, e2) has an e3 part),
    which is what breaks integrability there.  `lines_only` draws the base
    entries from complex lines (e_{2j}, e_{2j+1}) only, the sparsest shape.
    """
    params = ("alpha", "beta")[:nparams]
    n = 2 * m
    if kind == "generic" and m == 2:
        vdim, zs = 3, [3]
    else:
        vdim, zs = n - 2, [n - 2, n - 1]
    forms = {}          # (a, b, c) with a < b < vdim, c in zs -> linear form

    def put(a, b, c, form):
        if a == b or not form:
            return
        if a > b:
            a, b = b, a
            form = {p: -v for p, v in form.items()}
        forms[(a, b, c)] = _add(forms.get((a, b, c), {}), form)

    if kind in ("generic", "abelian", "mixed"):
        slots = [(a, b, c) for a in range(vdim) for b in range(a + 1, vdim) for c in zs
                 if not lines_only or (a % 2 == 0 and b == a + 1)]
        if kind == "generic" and m == 2:
            chosen = [(0, 2, 3)] + rng.sample([x for x in slots if x != (0, 2, 3)], nbase - 1)
        else:
            chosen = rng.sample(slots, min(nbase, len(slots)))
        base = {key: _random_form(rng, params) for key in sorted(chosen)}
        for (a, b, c), form in base.items():
            put(a, b, c, form)
            if kind != "generic":
                # J-invariant part: add mu0(I., I.) so that mu(IX, IY) = mu(X, Y)
                ia, sa = _i_image(a)
                ib, sb = _i_image(b)
                put(ia, ib, c, {p: sa * sb * v for p, v in form.items()})
    if kind in ("holomorphic", "mixed"):
        if m < 3:
            raise ValueError("a complex bilinear bracket needs m >= 3")
        # complex antisymmetric V x V -> C with V = C^{m-1}; w_jk = x + i y
        zr, zi = n - 2, n - 1
        for j in range(m - 1):
            for k in range(j + 1, m - 1):
                x, y = _random_form(rng, params), _random_form(rng, params)
                neg = lambda f: {p: -v for p, v in f.items()}
                # mu(v_j, v_k) = w, mu(iv_j, v_k) = mu(v_j, iv_k) = i w,
                # mu(iv_j, iv_k) = -w, with i w = -y + i x
                for (a, b), (re, im) in {
                        (2 * j, 2 * k): (x, y),
                        (2 * j + 1, 2 * k): (neg(y), x),
                        (2 * j, 2 * k + 1): (neg(y), x),
                        (2 * j + 1, 2 * k + 1): (neg(x), neg(y))}.items():
                    put(a, b, zr, re)
                    put(a, b, zi, im)
    mu = {}
    for (a, b, c), form in forms.items():
        if form:
            mu.setdefault((a, b), {})[c] = form
    integrable = True if kind in ("abelian", "holomorphic", "mixed") else None
    sample = {p: Fraction(rng.randint(1, 5), rng.randint(1, 3)) for p in params}
    return Nilpotent(name, m, params, mu, integrable, sample)


# -- frame-metric sample points ------------------------------------------------------


@dataclass
class FramePoint:
    """A frame-metric input at one rational sample point: real-frame brackets,
    an integer J (column action), a rational metric G and the `.ghl` text."""
    name: str
    m: int
    brackets: dict                 # (a, b) -> {c: Fraction}
    J: list
    G: list
    params: dict                   # the sample assignment passed with --params
    text: str
    scale: Fraction


KT_J = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]


def log_uniform_scale(rng: random.Random, lo_exp: int, hi_exp: int) -> Fraction:
    """A rational in [10^lo_exp, 10^hi_exp): a decade drawn uniformly (the
    decade 10^lo_exp when the two are equal), times a mantissa in [1, 10) on
    a 1/8 grid."""
    k = rng.randint(lo_exp, hi_exp - 1) if hi_exp > lo_exp else lo_exp
    mant = Fraction(rng.randint(8, 79), 8)
    return mant * Fraction(10) ** k


def kodaira_thurston_point(rng: random.Random, scale: Fraction, kt_text: str,
                           slice_x0: bool = False) -> FramePoint:
    """A point (r, sigma, x, y) of the bundled Kodaira-Thurston family with
    r^2 sigma^2 > x^2 + y^2, the metric scaled by scale^2 (r, sigma by scale,
    x, y by scale^2)."""
    r0 = Fraction(rng.randint(2, 8), 4)
    s0 = Fraction(rng.randint(2, 8), 4)
    bound = r0 * s0
    x0 = Fraction(0) if slice_x0 else bound * Fraction(rng.randint(-6, 6), 10)
    y0 = bound * Fraction(rng.randint(-6, 6), 10)
    if not slice_x0 and x0 == 0:
        x0 = bound / 5
    r, s, x, y = r0 * scale, s0 * scale, x0 * scale ** 2, y0 * scale ** 2
    G = [[r * r, -y, 0, -x],
         [-y, s * s, x, 0],
         [0, x, r * r, -y],
         [-x, 0, -y, s * s]]
    G = [[Fraction(c) for c in row] for row in G]
    return FramePoint("kodaira-thurston", 2, {(0, 1): {3: Fraction(-1)}}, KT_J, G,
                      {"r": r, "sigma": s, "x": x, "y": y}, kt_text, scale)


def _std_j(n: int) -> list:
    """Standard structure J e_{2k} = e_{2k+1}, as rows of a column-action matrix."""
    J = [[0] * n for _ in range(n)]
    for k in range(0, n, 2):
        J[k + 1][k] = 1
        J[k][k + 1] = -1
    return J


def j_invariant_point(rng: random.Random, nil: Nilpotent, scale: Fraction,
                      name: str) -> FramePoint:
    """Constant brackets of `nil` with the J-invariant metric
    G = s (A^T A + J^T A^T A J) for a random integer A with det != 0."""
    n = 2 * nil.m
    J = _std_j(n)
    while True:
        A = [[Fraction(rng.randint(-2, 2) + (3 if i == j else 0)) for j in range(n)]
             for i in range(n)]
        if _det(A) != 0:
            break
    AtA = [[sum(A[k][i] * A[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    JtMJ = [[sum(J[k][i] * AtA[k][l] * J[l][j] for k in range(n) for l in range(n))
             for j in range(n)] for i in range(n)]
    G0 = [[AtA[i][j] + JtMJ[i][j] for j in range(n)] for i in range(n)]
    G = [[scale * G0[i][j] for j in range(n)] for i in range(n)]
    mu = nil.instantiate({})
    lines = [f"# generated J-invariant metric on a two-step nilpotent bracket ({name})",
             "[frame]", f"name = {name}", f"m = {nil.m}", "params = s", "", "[brackets]"]
    for (a, b), vec in sorted(mu.items()):
        lines.append(f"e{a},e{b} = " + " + ".join(f"({v})*e{c}" for c, v in sorted(vec.items())))
    lines += ["", "[J]"]
    lines += [f"row{i} = " + ",".join(str(x) for x in J[i]) for i in range(n)]
    lines += ["", "[metric]"]
    for i in range(n):
        for j in range(i, n):
            if G0[i][j]:
                lines.append(f"e{i},e{j} = ({G0[i][j]})*s")
    lines += ["", "[samples]", "s0 = s=1"]
    return FramePoint(name, nil.m, mu, J, G, {"s": scale}, "\n".join(lines) + "\n", scale)


def _det(M) -> Fraction:
    M = [list(r) for r in M]
    n = len(M)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if M[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        for i in range(c + 1, n):
            f = M[i][c] / M[c][c]
            M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return det
