"""Independent brute-force references used by the tests.

Nothing here shares logic with the search: quadratization checks materialize
the full product set of the generalized variables, the graph capacity is
found by exhaustive enumeration with a definitional closed-walk check, and
the optimal order is found by trying candidate subsets in increasing size.
These run only at desk scale and guard the fast implementations.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product

from .output import ResultDocument
from .polynomials import (
    Monomial,
    ODESystem,
    grlex_key,
    lie_derivative,
    lie_derivative_support,
    monomial_mul,
    unit_monomial,
    variable_monomial,
)

DegreeBox = tuple[int, ...]  # per-variable exponent bound for candidate monomials

# Largest candidate pool brute_force_optimal enumerates subsets of.
MAX_POOL = 64


def quadratization_violations(system: ODESystem,
                              new_vars) -> list[tuple[Monomial, Monomial]]:
    """All (variable, derivative monomial) pairs breaking the degree-2 property.

    Definitional check: the product set of the generalized variables is
    materialized and every monomial of every derivative is looked up in it.
    Empty result means new_vars is a monomial quadratization.
    """
    n = system.num_vars
    gen_vars = [unit_monomial(n)]
    gen_vars += [variable_monomial(n, i) for i in range(n)]
    gen_vars += list(new_vars)
    products = {monomial_mul(a, b)
                for a, b in combinations_with_replacement(gen_vars, 2)}
    violations = []
    for v in gen_vars[1:]:
        for m in sorted(lie_derivative_support(v, system), key=grlex_key):
            if m not in products:
                violations.append((v, m))
    return violations


def is_quadratization(system: ODESystem, new_vars) -> bool:
    return not quadratization_violations(system, new_vars)


def box_candidates(system: ODESystem, box: DegreeBox) -> list[Monomial]:
    """Monomials inside the box, excluding 1 and the variables, graded-lex order."""
    n = system.num_vars
    if len(box) != n:
        raise ValueError("box must give one bound per variable")
    skip = {unit_monomial(n)} | {variable_monomial(n, i) for i in range(n)}
    pool = [m for m in product(*(range(d + 1) for d in box)) if m not in skip]
    pool.sort(key=grlex_key)
    return pool


def brute_force_optimal(system: ODESystem, box: DegreeBox) -> tuple[int, tuple[Monomial, ...]]:
    """Smallest subset of the box candidates that quadratizes the system.

    Subsets are enumerated by increasing cardinality, so the first hit is
    optimal *within the box* (an optimum may use monomials outside any fixed
    box, so certification is box-relative).  Raises ValueError when the box
    has more than MAX_POOL candidates.
    """
    pool = box_candidates(system, box)
    if len(pool) > MAX_POOL:
        raise ValueError(f"candidate pool of {len(pool)} exceeds limit {MAX_POOL}")

    n = system.num_vars
    base = [unit_monomial(n)] + [variable_monomial(n, i) for i in range(n)]
    support_of = {m: lie_derivative_support(m, system) for m in pool}
    base_support = frozenset().union(
        *(lie_derivative_support(v, system) for v in base[1:]))

    for size in range(len(pool) + 1):
        for subset in combinations(pool, size):
            gen_vars = base + list(subset)
            products = {monomial_mul(a, b)
                        for a, b in combinations_with_replacement(gen_vars, 2)}
            needed = set(base_support)
            for z in subset:
                needed |= support_of[z]
            if needed <= products:
                return size, subset
    raise ValueError("no quadratization inside the box; enlarge the bounds")


# --- exhaustive capacity of loop-limited graphs -----------------------------

def _has_forbidden_walk_through(adjacency, edge_id: int, a: int, b: int) -> bool:
    """Is there a closed 4-edge walk using edge (a, b) with distinct adjacent edges?"""
    starts = [(a, b)] if a == b else [(a, b), (b, a)]
    for start, first_stop in starts:
        for v2, f in adjacency[first_stop]:
            if f == edge_id:
                continue
            for v3, g in adjacency[v2]:
                if g == f:
                    continue
                for v4, h in adjacency[v3]:
                    if h == g or h == edge_id:
                        continue
                    if v4 == start:
                        return True
    return False


def is_c4star_free(num_vertices: int, edges) -> bool:
    """Definitional check on an arbitrary pseudograph (loops, multi-edges allowed).

    A graph fails iff it contains a closed walk of four edges in which every
    two cyclically adjacent edges are distinct (vertices and edges may repeat
    elsewhere in the walk).
    """
    adjacency = {v: [] for v in range(num_vertices)}
    for edge_id, (a, b) in enumerate(edges):
        adjacency[a].append((b, edge_id))
        if a != b:
            adjacency[b].append((a, edge_id))
    for edge_id, (a, b) in enumerate(edges):
        if _has_forbidden_walk_through(adjacency, edge_id, a, b):
            return False
    return True


def exhaustive_c4_capacity(n: int, m: int) -> int:
    """Exact maximum edge count over the loop-limited walk-free graphs, n <= 6.

    Multi-edges and double loops are excluded up front (each is itself a
    forbidden walk); loop sets are placed on a vertex prefix, which loses no
    generality because unlabeled vertices are interchangeable.  The remaining
    edge subsets are searched exhaustively with the walk check of
    is_c4star_free applied incrementally.
    """
    if n < 0 or m < 0:
        raise ValueError("vertex and loop counts must be nonnegative")
    if n == 0:
        return 0
    if n > 6:
        raise ValueError("exhaustive search is limited to n <= 6")

    plain_edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    best = 0
    for loop_count in range(min(m, n) + 1):
        loops = [(v, v) for v in range(loop_count)]
        adjacency = {v: [] for v in range(n)}
        for edge_id, (a, b) in enumerate(loops):
            adjacency[a].append((b, edge_id))

        def extend(index: int, count: int) -> None:
            nonlocal best
            if count > best:
                best = count
            if count + (len(plain_edges) - index) <= best:
                return
            for i in range(index, len(plain_edges)):
                a, b = plain_edges[i]
                edge_id = loop_count + 1000 * (i + 1)  # unique per candidate
                adjacency[a].append((b, edge_id))
                adjacency[b].append((a, edge_id))
                if not _has_forbidden_walk_through(adjacency, edge_id, a, b):
                    extend(i + 1, count + 1)
                adjacency[a].pop()
                adjacency[b].pop()

        extend(0, loop_count)
    return best


# --- result document checking ------------------------------------------------

def document_violations(system: ODESystem, document: ResultDocument) -> list[str]:
    """Check an emitted quadratic system (standard or Laurent) term by term.

    Verifies that every introduced variable has a name of its own (no input
    variable or parameter name, no name used twice), that exactly the input
    and introduced variables have equations, that every factor is 1, an
    original variable, or an introduced variable (so each term has degree at
    most two over the extended variable set), and that substituting the
    factor monomials back into each equation reproduces the Lie derivative
    of that variable's monomial exactly.
    Returns human-readable discrepancies (empty list = valid).
    """
    n = system.num_vars
    input_names = set(system.variables) | set(system.parameters)
    problems = []
    mono_of = {}
    for i, name in enumerate(system.variables):
        mono_of[name] = variable_monomial(n, i)
    for name, mono, _display in document.new_variables:
        if name in input_names:
            problems.append(f"new variable {name} reuses an input name")
        elif name in mono_of:
            problems.append(f"new variable name {name} is used twice")
        else:
            mono_of[name] = mono
    for var in mono_of:
        if var not in document.quadratic_rhs:
            problems.append(f"{var}: no equation")
    factor_mono = {"1": unit_monomial(n), **mono_of}

    for var, terms in document.quadratic_rhs.items():
        if var not in mono_of:
            problems.append(f"{var}: equation for an unknown variable")
            continue
        expected = lie_derivative(mono_of[var], system)
        actual: dict = {}
        for t in terms:
            if t.factor1 not in factor_mono or t.factor2 not in factor_mono:
                problems.append(f"{var}: unknown factor in {t}")
                continue
            key = (monomial_mul(factor_mono[t.factor1], factor_mono[t.factor2]), t.params)
            actual[key] = actual.get(key, 0) + t.coeff
        actual = {k: c for k, c in actual.items() if c}
        if actual != expected:
            problems.append(f"{var}: expanded right-hand side differs from the derivative")
    return problems
