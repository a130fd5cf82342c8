"""Shared fixtures: worked example systems, the random test corpus, the
factorizations of a monomial, and the nonsquares of a state and the
packing rule's factor sets from the definition, the pruning-rule
configurations of the ablation, the search without its count-5 exact
step, the degree-box quadratization, and a
record of the bound the search starts from, the benchmark's workloads and
random systems that a permutation of their variables maps onto
themselves."""

import importlib.util
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb
from pathlib import Path

import pytest

import quadratize.pruning
import quadratize.solver
from quadratize.bruteforce import MAX_POOL, box_candidates
from quadratize.parsing import parse_system
from quadratize.polynomials import (
    ODESystem,
    add_term,
    divisors,
    grlex_key,
    lie_derivative_support,
    monomial_mul,
    unit_monomial,
    variable_monomial,
)
from quadratize.pruning import EXACT_COUNT
from quadratize.solver import bnb_search, per_variable_degrees

WORKED_EXAMPLES = {
    "scalar_x5": "x' = x^5",
    "fig_x4_x3": "x' = x^4 + x^3",
    "two_var_counterexample": "x1' = x2^4\nx2' = x1^2",
    "rabinovich_fabrikant": (
        "x' = y*(z - 1 + x^2) + a*x\n"
        "y' = x*(3*z + 1 - x^2) + a*y\n"
        "z' = -2*z*(b + x*y)\n"
    ),
}


def allen_cahn_text(n: int) -> str:
    """x_i' = x_{i-1} + x_{i+1} - x_i - x_i^3: optimum n, degree box 4^n monomials."""
    lines = []
    for i in range(1, n + 1):
        neighbours = [f"x{j}" for j in (i - 1, i + 1) if 1 <= j <= n]
        lines.append(f"x{i}' = " + " + ".join(neighbours) + f" - x{i} - x{i}^3")
    return "\n".join(lines)


def factor_pairs(m):
    """The unordered factorizations m = a * b, as pairs with a <= b in tuple
    order, sorted by a; straight from the definition, one exponent at a time."""
    pairs = []
    for a in product(*(range(e + 1) for e in m)):
        b = tuple(e - f for e, f in zip(m, a))
        if a <= b:
            pairs.append((a, b))
    return pairs


def explicit_product_set(state):
    """All pairwise products of the generalized variables, materialized."""
    return {monomial_mul(a, b) for a, b in combinations_with_replacement(state.vars_set, 2)}


def definition_nonsquares(state):
    """Nonsquares straight from the definition, via the materialized products."""
    n = state.system.num_vars
    derived = set()
    for i in range(n):
        derived |= lie_derivative_support(variable_monomial(n, i), state.system)
    for z in state.new_vars:
        derived |= lie_derivative_support(z, state.system)
    return derived - explicit_product_set(state)


def definition_factor_set(m, vars_set):
    """C(m) straight from the definition: the factors of m's factorizations
    that are not in vars_set."""
    return {f for pair in factor_pairs(m) for f in pair} - set(vars_set)


RULE_CONFIGS = ("none", "packing", "quadratic", "all")


@contextmanager
def rules(config):
    """Run bnb_search with only the pruning rules that `config` names.

    The search always calls both rules, so a rule is switched off by
    substituting it in quadratize.solver by one that never prunes: the
    packing rule's count (packing_count) by one that proves nothing.  The
    search also calls the packing rule to skip children before extending
    them, so switching it off switches that skip off too, and its exact
    steps at needs 4 to 6 at a visited node (node_completes) as well.
    Sibling exclusion is no rule and stays on in every configuration; its
    banned variables act only through the packing rule.  The root lower
    bound (pruning.lower_bound), which ends the search at an answer that
    meets it, stays on too: it changes no answer.  The real rules are back
    on exit.
    """
    if config not in RULE_CONFIGS:
        raise ValueError(f"unknown rule configuration {config!r}")
    names = ("packing_count", "node_completes", "prune_by_quadratic_bound")
    saved = [getattr(quadratize.solver, name) for name in names]
    if config not in ("packing", "all"):
        quadratize.solver.packing_count = lambda state, bound, *args: 0
        quadratize.solver.node_completes = lambda *args: True
    if config not in ("quadratic", "all"):
        quadratize.solver.prune_by_quadratic_bound = lambda state, bound: False
    try:
        yield
    finally:
        for name, rule in zip(names, saved):
            setattr(quadratize.solver, name, rule)


@contextmanager
def without_the_count_five_step():
    """Run bnb_search without the exact step at a count of EXACT_COUNT: the
    root lower bound's ladder stops a count lower (pruning.EXACT_COUNT,
    which it reads when called), and node_completes with that count keeps
    every visited node, as at need 6.  So the search is the one that ran
    before the step went up to that count.  The step prunes most of the
    nodes at which the brute-force soundness tests check the other rules
    and steps, so their searches run without it and keep their reach; the
    tests of the step itself run the search as it is.  The real step is
    back on exit."""
    real = quadratize.solver.node_completes
    quadratize.pruning.EXACT_COUNT = EXACT_COUNT - 1
    quadratize.solver.node_completes = lambda *args: args[5] == EXACT_COUNT or real(*args)
    try:
        yield
    finally:
        quadratize.pruning.EXACT_COUNT = EXACT_COUNT
        quadratize.solver.node_completes = real


def degree_box_incumbent(system, floor=0):
    """The degree-box quadratization and its order, in graded-lex order.

    Every monomial dividing D = per_variable_degrees(system), except 1 and
    the variables, materialized: the search's starting incumbent before
    the greedy one, and a stand-in for initial_incumbent where a test needs
    a loose first bound.  It takes initial_incumbent's floor and ignores it.
    """
    n = system.num_vars
    skip = {unit_monomial(n)} | {variable_monomial(n, i) for i in range(n)}
    box = sorted((m for m in divisors(per_variable_degrees(system)) if m not in skip),
                 key=grlex_key)
    return tuple(box), len(box)


def follow_incumbent(monkeypatch, tracked):
    """Start a bound followed from outside where the search starts its own.

    Wraps quadratize.solver.initial_incumbent so that tracked["bound"]
    becomes its order + 1, the search's first bound without a cap, and
    tracked["descent"] is True while it runs: wrappers of generate_children
    or SearchState.extended pass its calls through unrecorded.
    """
    real = quadratize.solver.initial_incumbent
    tracked["descent"] = False

    def following(system, floor):
        tracked["descent"] = True
        try:
            result = real(system, floor)
        finally:
            tracked["descent"] = False
        tracked["bound"] = result[1] + 1
        return result

    monkeypatch.setattr(quadratize.solver, "initial_incumbent", following)


def benchmark_workloads():
    """perfbench/workloads.py, imported by path and only read: the
    instances the benchmark builds, as source text."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclass looks its module up there
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.fixture(scope="session")
def worked_systems():
    return {name: parse_system(text) for name, text in WORKED_EXAMPLES.items()}


def random_polynomial_system(rng: random.Random) -> ODESystem:
    """A small random system: up to 3 variables, total degree at most 4."""
    n = rng.choice((1, 1, 2, 2, 2, 3, 3))
    per_var_cap = 4 if n <= 2 else 3
    num_params = rng.choice((0, 0, 0, 1))
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    parameters = ("a",) if num_params else ()

    def random_monomial():
        while True:
            mono = tuple(rng.randint(0, per_var_cap) for _ in range(n))
            if sum(mono) <= 4:
                return mono

    rhs = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = random_monomial()
            params = (rng.randint(0, 1),) if num_params else ()
            coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                             rng.choice((1, 1, 2)))
            key = (mono, params)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        # terms that summed to zero go; ODESystem rejects zero coefficients
        rhs.append({key: coeff for key, coeff in terms.items() if coeff})
    if num_params and not any(params != (0,) for poly in rhs for _, params in poly):
        # cancellation can leave a declared parameter unused; drop it so the
        # system echoes through the text format unchanged
        parameters = ()
        rhs = [{(mono, ()): coeff for (mono, _), coeff in poly.items()} for poly in rhs]
    return ODESystem(variables, parameters, tuple(rhs))


def wide_box(system: ODESystem) -> tuple[int, ...]:
    """The uniform box with every bound equal to the largest variable degree."""
    degree = max(per_variable_degrees(system), default=0)
    return (degree,) * system.num_vars


def _oracle_feasible(system: ODESystem, order: int) -> bool:
    # Exhaustive certification must stay desk scale: bound the number of
    # candidate subsets the oracle will enumerate up to the claimed order.
    pool = len(box_candidates(system, wide_box(system)))
    if pool > MAX_POOL:
        return False
    return sum(comb(pool, k) for k in range(order + 1)) <= 200_000


def build_random_corpus(count: int, seed: int) -> list[ODESystem]:
    """Random systems whose optimum is certifiable by the brute-force oracle."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        system = random_polynomial_system(rng)
        result, _ = bnb_search(system)
        if _oracle_feasible(system, result.order):
            corpus.append(system)
    return corpus


@pytest.fixture(scope="session")
def random_stream():
    """The first 400 systems of the random corpus's stream."""
    return build_random_corpus(count=400, seed=20240811)


@pytest.fixture(scope="session")
def soundness_corpus(random_stream):
    """The random corpus and the next 50 systems of its stream.

    The soundness tests check every pruned or skipped node by brute force;
    on the first 50 systems alone the search prunes and skips too few.
    """
    return random_stream[:100]


@pytest.fixture(scope="session")
def later_corpus(random_stream):
    """The 100 systems of the stream after the soundness corpus.

    The search stops at an answer that meets its root lower bound, which
    proves 99 of the soundness corpus's optima, so the nodes it would visit
    after them go; these systems give the soundness tests more to check.
    """
    return random_stream[100:200]


@pytest.fixture(scope="session")
def stream_tail(random_stream):
    """The 200 systems of the stream after the later corpus, for the same
    reason: the root lower bound proves every optimum among them, but the
    searches still visit the nodes before the first answer that meets it,
    and the soundness tests check those."""
    return random_stream[200:]


@pytest.fixture(scope="session")
def random_corpus(soundness_corpus):
    return soundness_corpus[:50]


def permuted_monomial(mono, sigma):
    """The monomial with the exponent of variable j moved to variable sigma[j]."""
    out = [0] * len(mono)
    for j, e in enumerate(mono):
        out[sigma[j]] = e
    return tuple(out)


def permutation_closed_system(rng):
    """A random system of 2 to 5 variables that a random permutation sigma,
    not the identity, maps onto itself; returns (system, sigma).

    A random right-hand side f is drawn for one variable i of each cycle of
    sigma, and variable sigma^k(i) gets f renamed by sigma^k.  Around a
    cycle of length L this comes back to f renamed by tau = sigma^L, which
    fixes i, so f is first summed over the powers of tau, which makes it
    invariant under tau.
    """
    n = rng.randint(2, 5)
    identity = tuple(range(n))
    sigma = identity
    while sigma == identity:
        sigma = tuple(rng.sample(range(n), n))
    powers = [identity]  # powers[k] = sigma^k; 120 = 5! is a multiple of its order
    for _ in range(120):
        powers.append(tuple(sigma[j] for j in powers[-1]))
    parameters = ("a",) if rng.random() < 0.5 else ()
    rhs = [None] * n
    for i in range(n):
        if rhs[i] is not None:
            continue
        cycle = [i]
        while sigma[cycle[-1]] != i:
            cycle.append(sigma[cycle[-1]])
        tau_powers = powers[::len(cycle)]
        order = tau_powers.index(identity, 1)
        f = {}
        for _ in range(rng.randint(1, 3)):
            mono = tuple(rng.randint(0, 2) for _ in range(n))
            params = tuple(rng.randint(0, 1) for _ in parameters)
            coeff = rng.choice((-2, -1, 1, 2, 3))
            for tau in tau_powers[:order]:
                add_term(f, (permuted_monomial(mono, tau), params), coeff)
        for k, v in enumerate(cycle):
            rhs[v] = {(permuted_monomial(m, powers[k]), p): c for (m, p), c in f.items()}
    return ODESystem(tuple(f"x{i}" for i in range(1, n + 1)), parameters, tuple(rhs)), sigma


def closed_systems(count):
    """The first `count` systems that permutation_closed_system draws from
    random.Random(14), the permutation-closed systems the tests number from
    0 in this order."""
    rng = random.Random(14)
    return [permutation_closed_system(rng)[0] for _ in range(count)]
