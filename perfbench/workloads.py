"""The benchmark's workloads, built as system source text from a seed.

The program only ever sees the text made here.  Each instance carries its
known optimal order where one is known, for the correctness gate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# Why each workload exists: the layer it loads, and the optimizations it
# should show no change for.  Later changes cite these by workload name.
WHY = {
    "cubic": (
        "cubic_cycle(6) then cubic_bicycle(6): a deep search of 17,002 nodes. "
        "The pruning rules take 74-80% of self time and SearchState.extended "
        "17-21%; every other layer stays under 3%, so a change to pruning or "
        "state shows here. bicycle has about twice the rule cost per call of "
        "cycle, because it has more nonsquares per node."
    ),
    "wide": (
        "The Allen-Cahn/Chafee-Infante chain with 10 variables, "
        "x_i' = x_{i-1} + x_{i+1} - x_i - x_i^3 with zero boundary neighbours; "
        "its optimum is 10, with z_i = x_i^2. The search is shallow, 165 "
        "nodes. initial_incumbent materializes the 4^10 degree box, takes "
        "most of the time and drives the peak RSS. ROADMAP's closed-form "
        "incumbent shows here, and pruning work should show no change."
    ),
    "corpus": (
        "200 small systems parsed from text: 1-2 variables, total degree at "
        "most 5, 1-4 terms per equation, 0-2 symbolic parameters, exact "
        "rational coefficients. Many short independent solves, each with cold "
        "per-system caches. The median instance is set by fixed per-call "
        "costs (parse, state init, incumbent, Lie derivatives with "
        "parameters, extract, render); a tail of heavier searches sets "
        "solve_s. SearchState.extended is a larger share of the traced split "
        "than on cubic and the c4 rule a smaller one."
    ),
}


@dataclass(frozen=True)
class Instance:
    name: str
    text: str
    optimum: int | None  # known optimal order, or None


def cubic_cycle_text(n: int) -> str:
    """Source text of benchmark_system("cubic_cycle", n)."""
    return "\n".join(f"x{i}' = x{i % n + 1}^3" for i in range(1, n + 1)) + "\n"


def cubic_bicycle_text(n: int) -> str:
    """Source text of benchmark_system("cubic_bicycle", n)."""
    return "\n".join(
        f"x{i}' = x{(i - 2) % n + 1}^3 + x{i % n + 1}^3" for i in range(1, n + 1)
    ) + "\n"


def allen_cahn_text(n: int) -> str:
    """Semi-discretized Allen-Cahn/Chafee-Infante chain, zero boundary neighbours."""
    lines = []
    for i in range(1, n + 1):
        neighbours = [f"x{j}" for j in (i - 1, i + 1) if 1 <= j <= n]
        lines.append(f"x{i}' = " + " + ".join(neighbours) + f" - x{i} - x{i}^3")
    return "\n".join(lines) + "\n"


# The corpus's monomial supports, in variable order, come from this fixed
# seed; the run seed draws the rest: coefficients, parameters and where they
# sit, names and term order.  The supports and the variable order set the
# search, and a few heavy instances dominate a pass: with seed-drawn supports
# the summed node count of a pass spread 0.29 and its time 0.54 (quartile
# distance over median, ten seeds), and swapping the variable order by seed
# still spread the node count 0.05.  With fixed supports the node count
# moves only where random coefficients cancel.
CORPUS_SUPPORT_SEED = 20210315
CORPUS_SIZE = 200
_VARIABLE_NAMES = (("x", "y"), ("u", "v"), ("p", "q"), ("s", "t"), ("x1", "x2"))
_PARAMETER_NAMES = (("a", "b"), ("k", "r"), ("alpha", "beta"), ("mu", "nu"))


def _random_support(rng: random.Random) -> list[list[tuple[int, ...]]]:
    """Per equation, 1-4 distinct monomials of total degree at most 5."""
    nv = rng.choice((1, 2))
    equations = []
    for _ in range(nv):
        monomials = set()
        for _ in range(rng.randint(1, 4)):
            exps = [0] * nv
            for _ in range(rng.randint(0, 5)):
                exps[rng.randrange(nv)] += 1
            monomials.add(tuple(exps))
        equations.append(sorted(monomials))
    return equations


def _term_text(coeff: Fraction, param: str | None, mono, names) -> str:
    factors = [] if coeff == 1 else [str(coeff)]
    if param is not None:
        factors.append(param)
    for name, e in zip(names, mono):
        if e:
            factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors) if factors else "1"


def _system_text(support, rng: random.Random) -> str:
    nv = len(support)
    names = rng.choice(_VARIABLE_NAMES)[:nv]
    params = rng.choice(_PARAMETER_NAMES)[:rng.randint(0, 2)]
    lines = []
    for name, monomials in zip(names, support):
        monomials = list(monomials)
        rng.shuffle(monomials)
        body = ""
        for k, mono in enumerate(monomials):
            coeff = Fraction(rng.randint(1, 9), rng.choice((1, 1, 2, 3, 5, 7)))
            param = rng.choice(params) if params and rng.random() < 0.4 else None
            term = _term_text(coeff, param, mono, names)
            negative = rng.random() < 0.5
            if k == 0:
                body = "-" + term if negative else term
            else:
                body += (" - " if negative else " + ") + term
        lines.append(f"{name}' = {body}")
    return "\n".join(lines) + "\n"


def corpus(seed: int) -> list[Instance]:
    supports = random.Random(CORPUS_SUPPORT_SEED)
    rng = random.Random(seed)
    return [Instance(f"corpus-{i:03d}", _system_text(_random_support(supports), rng), None)
            for i in range(CORPUS_SIZE)]


def build(workload: str, seed: int) -> list[Instance]:
    """The instances of one pass; the same seed gives the same instances."""
    if workload == "cubic":
        return [Instance("cubic_cycle(6)", cubic_cycle_text(6), 12),
                Instance("cubic_bicycle(6)", cubic_bicycle_text(6), 12)]
    if workload == "wide":
        return [Instance("allen_cahn(10)", allen_cahn_text(10), 10)]
    if workload == "corpus":
        return corpus(seed)
    raise ValueError(f"unknown workload {workload!r}")
