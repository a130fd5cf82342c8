"""The three lower-bound pruning rules.

Each rule answers: can the current variable set still be extended to a
monomial quadratization of order strictly below N?  It returns True when
that is provably impossible, and is sound but not complete (False promises
nothing).

Rule 1 packs disjoint factor sets.  A nonsquare m of a state S is written
m = a*b in any quadratization T containing S, with a and b generalized
variables of T, and at least one of a, b is not a variable of S.  So T has
a new variable in C(m), the divisors of m that are not variables of S (the
factors of m's factorizations outside vars_set).  If the C(m) of k
nonsquares are pairwise disjoint, T needs at least k more variables: the
disjoint-sets lower bound for hitting set.  The packing is greedy,
smallest C(m) first (packs).  The search also applies it to a child before
building it, from the parent and the child's additions A: a nonsquare of
the parent that is not a product with a factor in A (state.is_product)
stays a nonsquare of the child, with C(m) = D(m) - vars_set - A as its set
there, and the bound holds for any subset of the nonsquares.  D(m), the
set of all divisors of m, depends on m alone, so the rule keeps it in a
dict the caller passes in, one per search, and builds each at most once
there and only on demand: x^1000000 has a million divisors.  This module
is the only one that builds a factor set.

When the bound leaves room for exactly one more variable z (need 2: the
bound less the new variables and the additions), the rule decides instead
whether one exists, a last-level probe: with V the generalized variables
of S + A, each uncovered nonsquare m is z*w with w in V or w = z, so z
lies in every P(m) = {m/v : v in V, v divides m}, plus the square root of
m when m is a square; and z' must be covered over V and z.  Two disjoint
C(m) give two disjoint P(m), so greedy packing adds nothing there, and
packs runs only at need 3 or more.

Both calls may also get banned variables: monomials that no completion
below the bound contains.  They are the sets of one variable that sibling
exclusion forbids (solver.py), each kept there as a pair with 1.  The
rule then bounds only the completions that avoid them, which have a new
variable in C(m) minus the banned ones, so it packs those sets; a
nonsquare with nothing left has no such completion at all.  At need 2 a
banned monomial is no candidate for z.

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
    lie_derivative_support,
    monomial_mul,
    monomial_quotient,
)
from .state import SearchState, is_product

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


def packs(sets, need: int) -> bool:
    """Whether greedy packing keeps `need` pairwise disjoint sets.

    `sets` holds (C, m) pairs.  They are taken in order of (size of C,
    graded-lex m), and each C disjoint from those kept is kept.  An empty
    C comes first and packs any need: nothing can cover its m.
    """
    packed: set[Monomial] = set()
    for cover, _ in sorted(sets, key=lambda c: (len(c[0]), grlex_key(c[1]))):
        if not cover:
            return True
        if packed.isdisjoint(cover):
            packed |= cover
            need -= 1
            if not need:
                return True
    return False


def one_variable_completes(state: SearchState, vars_set, added, left, banned) -> bool:
    """Whether at most one more variable z, not in vars_set nor banned,
    covers every monomial of `left`, and z' when there is one, with the
    additions made; vars_set is state.vars_set with the additions.

    A covered m is z * w with w in vars_set or w = z, so z lies in P(m): the
    quotients m / v by the v in vars_set that divide m, and the square root
    of m when m is a square.  The candidates are those of the first m, and
    each later m keeps the ones with m / z in vars_set or equal to z (a z
    that does not divide m leaves a negative exponent there).  A candidate
    completes when every monomial of its derivative is a product over
    vars_set and z: is_product over the state's new variables and the
    additions, or a quotient by z in vars_set or equal to z.
    """
    left = iter(left)
    first = next(left, None)
    if first is None:
        return True
    candidates = {monomial_quotient(first, v) for v in vars_set if divides(v, first)}
    if is_square(first):
        candidates.add(tuple(e // 2 for e in first))
    candidates.difference_update(vars_set, banned)
    for m in left:
        candidates = {z for z in candidates
                      if (w := monomial_quotient(m, z)) in vars_set or w == z}
        if not candidates:
            return False
    introduced = state.new_vars + added
    system = state.system
    return any(all((w := monomial_quotient(d, z)) in vars_set or w == z
                   or is_product(d, vars_set, introduced)
                   for d in lie_derivative_support(z, system))
               for z in candidates)


def prune_by_packing_bound(state: SearchState, incumbent_order: int,
                           added: tuple[Monomial, ...] = (),
                           divisor_sets: dict | None = None,
                           banned=frozenset()) -> bool:
    """Same contract as prune_by_quadratic_bound for state.extended(added),
    decided without building that state.

    The nonsquares it bounds are those of the state that the additions
    leave uncovered (is_product with the additions): each stays a nonsquare
    of the extended state, with C(m) = D(m) - vars_set - added as its set
    there.  Bounding a subset of the nonsquares keeps the rule sound; with
    no additions it is the rule on the state itself.  With banned
    variables, which the caller guarantees no completion below
    incumbent_order contains, each set also loses them.

    need = incumbent_order - |new_vars| - |added| is how many more
    variables a completion below the bound may have, plus one.  At need 1
    none: any nonsquare left prunes.  At need 2 one, z, and the rule
    decides exactly whether one exists (one_variable_completes): a
    completion T with fewer than incumbent_order variables adds at most one
    z, and at least one, since an uncovered m stays a nonsquare; T covers
    each such m as a * b with a and b not both generalized variables, so
    one factor is z and the other a generalized variable or z, and T covers
    z' too; z is not banned.  With no additions and at a visited node the
    test is exact; before extension it ignores the child's fresh
    nonsquares, a subset again.  At need 3 or more the rule packs the sets
    C(m) greedily (packs): k disjoint ones need k more variables, and a
    nonsquare left with an empty set prunes at once.  k never exceeds the
    number of sets, so no set is built when there are too few.
    divisor_sets maps m to D(m) and is filled here; the search passes one
    per search, and without it each call uses a fresh one, with the same
    answer.  Only packing builds a divisor set.
    """
    need = incumbent_order - len(state.new_vars) - len(added)
    if need <= 0:
        return True
    if need > 2 and len(state.nonsquares) < need:
        return False
    left = state.nonsquares
    vars_set = state.vars_set
    if added:
        vars_set = vars_set.union(added)
        left = (m for m in left if not is_product(m, vars_set, added))
    if need == 1:
        # Every C(m) holds m itself, so any one nonsquare left packs.
        return any(True for _ in left)
    if need == 2:
        return not one_variable_completes(state, vars_set, added, left, banned)
    left = list(left)
    if len(left) < need:
        return False
    if divisor_sets is None:
        divisor_sets = {}
    for m in left:
        if m not in divisor_sets:
            divisor_sets[m] = frozenset(divisors(m))
    return packs([(divisor_sets[m].difference(state.vars_set, added, banned), m) for m in left],
                 need)


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
