"""Scalar-kernel microbench.

Operands are built through the public parsing path
(`exprparse.parse_expression` + `to_scalar`) and sized like the symbolic
Kodaira s-tuple profile: 4 variables, numerators of degree up to 22 with
about 27 terms, monomial denominators in r and v.
"""

from __future__ import annotations

import random
import statistics
import time

VARS = ("alpha", "beta", "r", "v")


def operand_texts(rng: random.Random, count: int = 8) -> list[str]:
    texts = []
    for _ in range(count):
        monos = set()
        while len(monos) < 27:
            deg = rng.randint(8, 22)
            cuts = sorted(rng.randint(0, deg) for _ in range(3))
            monos.add((cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], deg - cuts[2]))
        terms = []
        for exps in sorted(monos):
            coeff = rng.choice([1, 2, 3, 5, 7, 9, 12, 16, 25, 27])
            mono = "*".join(f"{v}^{e}" for v, e in zip(VARS, exps) if e)
            terms.append(f"{coeff}*{mono}" if mono else str(coeff))
            if rng.random() < 0.5:
                terms[-1] = "(-" + terms[-1] + ")"
        den = f"r^{rng.randint(1, 6)}*v^{rng.randint(1, 6)}"
        texts.append(f"({' + '.join(terms)}) / ({den})")
    return texts


def run(rng: random.Random, repeats: int = 3) -> dict:
    """Operations per second for mul, add, is_zero and text (median of
    `repeats` timed rounds over a fixed operand set)."""
    from ghl.exprparse import parse_expression, to_scalar
    from ghl.scalars import ExactDomain

    dom = ExactDomain(VARS)
    ops = [to_scalar(parse_expression(t), dom) for t in operand_texts(rng)]
    pairs = [(a, b) for i, a in enumerate(ops) for b in ops[i + 1:]][:12]
    work = {
        "mul": (lambda: [a * b for a, b in pairs], len(pairs)),
        "add": (lambda: [a + b for a, b in pairs], len(pairs)),
        "is_zero": (lambda: [dom.is_zero(a - a) for a in ops], len(ops)),
        "text": (lambda: [dom.text(a) for a in ops], len(ops)),
    }
    out = {}
    for name, (fn, n) in work.items():
        rates = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            rates.append(n / (time.perf_counter() - t0))
        out[f"scalars.{name}_per_s"] = statistics.median(rates)
    return out
