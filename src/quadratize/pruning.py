"""The three lower-bound pruning rules.

Each rule answers: can the current variable set still be extended to a
monomial quadratization of order strictly below N?  It returns True when
that is provably impossible, and is sound but not complete (False promises
nothing).

Rule 1 packs disjoint factor sets.  A nonsquare m of a state S is written
m = a*b in any quadratization T containing S, with a and b generalized
variables of T, and at least one of a, b is not a variable of S.  So T has
a new variable in C(m), the divisors of m that are not variables of S (the
factors of m's decompositions outside vars_set).  If the C(m) of k
nonsquares are pairwise disjoint, T needs at least k more variables: the
disjoint-sets lower bound for hitting set.  The packing is greedy,
smallest C(m) first.

Rule 2 bounds how many nonsquares r additional variables could cover: each
new variable z covers at most mult(z) nonsquares of the form z*v with v a
current variable (mult taken from the quotient multiset), and products of
two new variables cover at most r(r+1)/2 more.

Rule 3 replaces r(r+1)/2 by the maximum edge count of a pseudograph on r
vertices containing no closed 4-edge walk with pairwise-distinct adjacent
edges.  Loops correspond to squares, so the loop count is the number of
members that are perfect squares (every exponent even; x*y has even degree
but is no square).
The bound is applied to a subset of the nonsquares with pairwise-distinct
products, which is what forbids such walks in the covering graph.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from math import isqrt

from .polynomials import (
    Monomial,
    degree,
    divides,
    divisors,
    grlex_key,
    is_square,
    monomial_mul,
    monomial_quotient,
)
from .state import SearchState

# Exact maximum edge counts, row n = vertices, column m = allowed loops
# (0 <= m <= n).  A pseudograph of this kind never has more than n loops,
# so lookups clamp m to n.  Rows up to 7 are exact; beyond that
# c4_capacity falls back to an analytic bound.
C4_CAPACITY_TABLE: dict[int, tuple[int, ...]] = {
    1: (0, 1),
    2: (1, 2, 2),
    3: (3, 3, 4, 4),
    4: (4, 5, 5, 6, 6),
    5: (6, 6, 7, 7, 8, 8),
    6: (7, 8, 9, 9, 9, 10, 10),
    7: (9, 10, 11, 12, 12, 12, 12, 12),
}


def c4_capacity(n: int, m: int) -> int:
    """Upper bound (exact for n <= 7) on edges of the loop-limited graphs above."""
    if n <= 0:
        return 0
    m = min(m, n)
    row = C4_CAPACITY_TABLE.get(n)
    if row is not None:
        return row[m]
    # floor(n/2 * (1 + sqrt(4n - 3))) + m, computed exactly in integers
    return (n + isqrt(n * n * (4 * n - 3))) // 2 + m


def quotient_multiplicities(targets, var_monomials) -> list[int]:
    """Multiplicities of the quotient multiset {t/v : v divides t}, descending.

    Every divisible (target, variable) pair counts, including v = 1 and v = t.
    """
    counts = Counter(monomial_quotient(t, v)
                     for t in targets for v in var_monomials if divides(v, t))
    return sorted(counts.values(), reverse=True)


def build_squarefree_subset(monomials) -> tuple[Monomial, ...]:
    """Greedy subset whose pairwise products (squares included) are all distinct.

    Traversal order: total degree descending, then ascending exponent order;
    a candidate is kept iff it preserves distinctness of all products.
    """
    chosen: list[Monomial] = []
    products: set[Monomial] = set()
    for m in sorted(monomials, key=lambda m: (-degree(m), m)):
        new_products = [monomial_mul(m, e) for e in chosen]
        new_products.append(monomial_mul(m, m))
        if any(p in products for p in new_products):
            continue
        chosen.append(m)
        products.update(new_products)
    return tuple(chosen)


def smallest_k(count: int, mult: list[int], capacity: Callable[[int], int]) -> int:
    """Least k with count <= mult[1] + ... + mult[k] + capacity(k)."""
    k, prefix = 0, 0
    while count > prefix + capacity(k):
        k += 1
        if k <= len(mult):
            prefix += mult[k - 1]
    return k


def uncovered_factors(m: Monomial, vars_set) -> frozenset[Monomial]:
    """C(m): the divisors of m that are not in vars_set."""
    return frozenset(d for d in divisors(m) if d not in vars_set)


def prune_by_packing_bound(state: SearchState, incumbent_order: int) -> bool:
    """Same contract as prune_by_quadratic_bound, via disjoint factor sets.

    The C(m) are taken in order of (size, graded-lex m) and each one
    disjoint from those kept is kept.  k kept sets need k more variables,
    and k never exceeds the number of nonsquares, so no set is built when
    that number is already too small.
    """
    need = incumbent_order - len(state.new_vars)
    if need <= 0:
        return True
    if len(state.nonsquares) < need:
        return False
    covers = [(uncovered_factors(m, state.vars_set), m) for m in state.nonsquares]
    packed: set[Monomial] = set()
    for cover, _ in sorted(covers, key=lambda c: (len(c[0]), grlex_key(c[1]))):
        if packed.isdisjoint(cover):
            packed |= cover
            need -= 1
            if not need:
                return True
    return False


def prune_by_quadratic_bound(state: SearchState, incumbent_order: int) -> bool:
    """True if no extension can quadratize with fewer than incumbent_order vars."""
    mult = quotient_multiplicities(state.nonsquares, state.vars_set)
    k = smallest_k(len(state.nonsquares), mult, lambda k: k * (k + 1) // 2)
    return k + len(state.new_vars) >= incumbent_order


def prune_by_c4_bound(state: SearchState, incumbent_order: int) -> bool:
    """Same contract as prune_by_quadratic_bound, via the graph capacity bound."""
    subset = build_squarefree_subset(state.nonsquares)
    mult = quotient_multiplicities(subset, state.vars_set)
    loops = sum(map(is_square, subset))
    k = smallest_k(len(subset), mult, lambda k: c4_capacity(k, loops))
    return k + len(state.new_vars) >= incumbent_order
