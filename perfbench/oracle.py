"""Independent output checks.

Everything here works in `fractions.Fraction` from the generators' own data
and reads the engine's results only as text: report scalars are evaluated by
the small parser below, not by `ghl.exprparse`.  Each check returns a list of
failure reasons (empty when the output is right).
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

# -- evaluating the engine's canonical scalar text -----------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")


def eval_text(text: str, env: dict) -> Fraction:
    """Value of an exact-backend scalar string ('(num) / (den)', '-3/4*a^2 + 1',
    ...) at a rational point `env`."""
    toks = []
    for num, name, op in _TOKEN.findall(text):
        toks.append(("n", int(num)) if num else ("v", name) if name else ("o", op))
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else ("o", "")

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        v = term()
        while peek() in (("o", "+"), ("o", "-")):
            op = take()[1]
            v = v + term() if op == "+" else v - term()
        return v

    def term():
        v = factor()
        while peek() in (("o", "*"), ("o", "/")):
            op = take()[1]
            v = v * factor() if op == "*" else v / factor()
        return v

    def factor():
        v = base()
        if peek() == ("o", "^"):
            take()
            v = v ** take()[1]
        return v

    def base():
        kind, val = take()
        if kind == "n":
            return Fraction(val)
        if kind == "v":
            return env[val]
        if val == "-":
            return -base()
        if val == "(":
            v = expr()
            if take() != ("o", ")"):
                raise ValueError(f"unbalanced scalar text {text!r}")
            return v
        raise ValueError(f"unexpected {val!r} in scalar text {text!r}")

    out = expr()
    if pos != len(toks):
        raise ValueError(f"trailing input in scalar text {text!r}")
    return out


def close(engine: float, exact: Fraction, rel: float = 1e-7) -> bool:
    """Relative agreement; no absolute floor, so it holds at every scale."""
    return abs(engine - float(exact)) <= rel * abs(float(exact)) or engine == float(exact)


# -- exact bracket algebra in a general frame -----------------------------------------


def bracket(mu: dict, n: int, a: int, b: int) -> list:
    """mu(e_a, e_b) as a dense Fraction vector from {(a<b): {c: Fraction}}."""
    out = [Fraction(0)] * n
    if a == b:
        return out
    sign = 1
    if a > b:
        a, b, sign = b, a, -1
    for c, v in mu.get((a, b), {}).items():
        out[c] += sign * v
    return out


def milnor_sum(mu: dict, n: int, G: list | None = None) -> Fraction:
    """1/4 sum_{ijkl} G^{ik} G^{jl} G(mu_ij, mu_kl) = 1/2 sum_{i<j} |mu(e_i, e_j)|^2
    in an orthonormal frame.  For a nilpotent metric Lie algebra this equals
    -scal = sum_{a != b} <Rm(e_a, e_b) e_b, e_a> with the engine's Rm = -R."""
    if G is None:
        return sum((sum(x * x for x in bracket(mu, n, i, j))
                    for i, j in itertools.combinations(range(n), 2)), Fraction(0)) / 2
    Gi = inverse(G)
    br = {(i, j): bracket(mu, n, i, j) for i in range(n) for j in range(n)}

    def g(u, v):
        return sum(u[p] * G[p][q] * v[q] for p in range(n) for q in range(n) if u[p] and v[q])

    total = Fraction(0)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        if Gi[i][k] and Gi[j][l]:
            total += Gi[i][k] * Gi[j][l] * g(br[(i, j)], br[(k, l)])
    return total / 4


def domega_zero(mu: dict, n: int, G: list | None = None, J: list | None = None) -> bool:
    """d(omega) = 0 for omega(X, Y) = G(JX, Y) (the standard omega when G and
    J are omitted), from the cyclic sum omega(mu(a,b), c) + ... on basis
    triples."""
    if G is None:
        def omega(u, c):
            # omega = sum_k e^{2k} ^ e^{2k+1}
            return u[c - 1] if c % 2 else -u[c + 1]
    else:
        W = [[sum(J[i][a] * G[i][b] for i in range(n)) for b in range(n)] for a in range(n)]

        def omega(u, c):
            return sum(u[a] * W[a][c] for a in range(n))
    for a, b, c in itertools.combinations(range(n), 3):
        if (omega(bracket(mu, n, a, b), c) + omega(bracket(mu, n, b, c), a)
                + omega(bracket(mu, n, c, a), b)):
            return False
    return True


def inverse(M: list) -> list:
    n = len(M)
    aug = [[Fraction(x) for x in M[i]] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


# -- checks on verb outputs ------------------------------------------------------------


def rm_trace_text(report: dict, value) -> object:
    """sum_{a != b} Rm(e_a, e_b)[a][b] from a report's "Rm" block, each entry
    mapped through `value` (text -> number)."""
    total = 0
    for key, M in report["Rm"].items():
        a, b = map(int, key.split(","))
        total += 2 * value(M[a][b])
    return total


def check_validate_output(text: str, integrable: bool | None) -> list:
    fails = []
    lines = dict(l.split(": ", 1) for l in text.strip().splitlines() if ": " in l)
    for h in ("h1", "h2", "h3", "h4"):
        if lines.get(h) != "pass":
            fails.append(f"{h} is {lines.get(h)!r}, expected pass")
    if integrable is not None and lines.get("integrable") != ("yes" if integrable else "no"):
        fails.append(f"integrable is {lines.get('integrable')!r}, expected {integrable}")
    return fails


def check_exact_report(report: dict, mu: dict, m: int, sample: dict,
                       integrable: bool | None) -> list:
    """Milnor identity at `sample` (t = 0 where t appears), almost-Kahler
    verdict against exact d(omega) = 0, and integrability by construction."""
    n = 2 * m
    fails = []
    env = dict(sample, t=Fraction(0))
    inst = _instantiate(mu, sample)
    want = milnor_sum(inst, n)
    got = rm_trace_text(report, lambda s: eval_text(s, env))
    if got != want:
        fails.append(f"Milnor identity: engine {got} != {want}")
    ak = domega_zero(inst, n)
    if report["flags"]["almost_kahler"] != ak:
        fails.append(f"almost_kahler={report['flags']['almost_kahler']}, d(omega)=0 is {ak}")
    if integrable is not None and report["flags"]["integrable"] != integrable:
        fails.append(f"integrable={report['flags']['integrable']}, expected {integrable}")
    return fails


def check_numeric_report(report: dict, point) -> list:
    """Frame-metric report against the original-frame Fraction oracles."""
    n = 2 * point.m
    fails = []
    want = milnor_sum(point.brackets, n, point.G)
    got = rm_trace_text(report, float)
    if not close(got, want):
        fails.append(f"Milnor identity: engine {got!r} != {float(want)!r}")
    ak = domega_zero(point.brackets, n, point.G, point.J)
    if report["flags"]["almost_kahler"] != ak:
        fails.append(f"almost_kahler={report['flags']['almost_kahler']}, d(omega)=0 is {ak}")
    return fails


def _instantiate(mu: dict, sample: dict) -> dict:
    """Brackets at `sample`; a coefficient is a Fraction or a linear form
    {param | None: Fraction}."""
    def value(form):
        if isinstance(form, Fraction):
            return form
        return sum((v * (Fraction(1) if p is None else sample[p]) for p, v in form.items()),
                   Fraction(0))
    return {k: {c: value(f) for c, f in vec.items()} for k, vec in mu.items()}


def check_tuple(tup, s: int, mu: dict, m: int, sample: dict) -> list:
    """Shape of the s-tuple and the Milnor identity on its Rm tensor."""
    fails = []
    if len(tup.J_derivs) != s + 2 or len(tup.Rm_derivs) != s + 1:
        fails.append(f"tuple shape {len(tup.J_derivs)}/{len(tup.Rm_derivs)} for s={s}")
    n = 2 * m
    want = milnor_sum(_instantiate(mu, sample), n)
    Rm = tup.Rm_derivs[0]
    got = Fraction(0)
    for a in range(n):
        for b in range(n):
            if a != b:
                got += Fraction(Rm.get((a, b, a, b)).evaluate(sample))
    if got != want:
        fails.append(f"Milnor identity on D^0 Rm: {got} != {want}")
    return fails
