"""The search's two pruning rules, the graph capacity bound, and the root
lower bound.

Each rule answers: can the current variable set still be extended to a
monomial quadratization of order strictly below N?  It returns True when
that is provably impossible, and is sound but not complete (False promises
nothing).  The search runs rules 1 and 2 at every visited node below the
root.  The two counting bounds compare a number with N: the state's new
variables plus the k more they prove (quadratic_bound, c4_bound).
lower_bound takes the largest of the three bounds at a state; the search
takes it once, at the root, which is the only place the graph capacity
bound acts: below it, the exact probes of rule 1 and rule 2 leave it
nothing to prune.

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
m when m is a square (polynomials.partners); and z' must be covered
over V and z.
Two disjoint C(m) give two disjoint P(m), so greedy packing adds nothing
there.  When it leaves room for two (need 3), the rule decides whether at
most two more variables complete the node (two_variables_complete): an
uncovered m1 is z*w with z new and w in V or w = z (case A), or z1*z2 with
both new and distinct (case B), and each case leaves few candidates.  So
the rule packs only at need 4 or more.

Both calls may also get banned variables: monomials that no completion
below the bound contains.  They are the sets of one variable that sibling
exclusion forbids (solver.py), each kept there as a pair with 1.  The
rule then bounds only the completions that avoid them, which have a new
variable in C(m) minus the banned ones, so it packs those sets; a
nonsquare with nothing left has no such completion at all.  At need 2 and
3 a banned monomial is no candidate for a new variable.

Rule 2 bounds how many nonsquares r additional variables could cover: each
new variable z covers at most mult(z) nonsquares of the form z*v with v a
current variable (mult taken from the quotient multiset), and products of
two new variables cover at most r(r+1)/2 more.

The graph capacity bound replaces r(r+1)/2 by the maximum edge count of a
pseudograph on r vertices containing no closed 4-edge walk with
pairwise-distinct adjacent edges.  Loops correspond to squares, so the loop
count is the number of members that are perfect squares (every exponent
even; x*y has even degree but is no square).  The bound is applied to a
subset of the nonsquares with pairwise-distinct products, which is what
forbids such walks in the covering graph.
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
    partners,
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


def packs(sets, need: int) -> int:
    """How many pairwise disjoint sets greedy packing keeps, at most `need`.

    `sets` holds (C, m) pairs.  They are taken in order of (size of C,
    graded-lex m), and each C disjoint from those kept is kept; the count
    stops at `need`.  An empty C comes first and counts as `need`: nothing
    can cover its m.
    """
    packed: set[Monomial] = set()
    count = 0
    for cover, _ in sorted(sets, key=lambda c: (len(c[0]), grlex_key(c[1]))):
        if not cover:
            return need
        if packed.isdisjoint(cover):
            packed |= cover
            count += 1
            if count == need:
                break
    return count


def factor_sets(left, vars_set, banned, divisor_sets: dict) -> list:
    """The (C(m), m) pairs of the monomials `left`: C(m) = D(m) less
    vars_set and the banned monomials, with D(m) taken from divisor_sets
    and added there when missing."""
    for m in left:
        if m not in divisor_sets:
            divisor_sets[m] = frozenset(divisors(m))
    return [(divisor_sets[m].difference(vars_set, banned), m) for m in left]


def covered(d: Monomial, vars_set, introduced, fresh) -> bool:
    """Whether d is a product of two of vars_set and the `fresh` monomials;
    `introduced` holds the members of vars_set that may be a factor."""
    return (any((w := monomial_quotient(d, z)) in vars_set or w in fresh for z in fresh)
            or is_product(d, vars_set, introduced))


def one_variable_completes(system, vars_set, introduced, left, banned) -> bool:
    """Whether at most one more variable z, not in vars_set nor banned,
    covers every monomial of `left`, and z' when there is one; vars_set is
    1, the x_i and the `introduced` monomials.

    A covered m is z * w with w in vars_set or w = z, so z lies in
    partners(m).  The candidates are those of the first m, and each later m
    keeps the ones with m / z in vars_set or equal to z (a z that does not
    divide m leaves a negative exponent there).  A candidate completes when
    every monomial of its derivative is covered over vars_set and z.
    """
    left = iter(left)
    first = next(left, None)
    if first is None:
        return True
    candidates = partners(first, vars_set, introduced, banned)
    for m in left:
        candidates = {z for z in candidates
                      if (w := monomial_quotient(m, z)) in vars_set or w == z}
        if not candidates:
            return False
    return any(all(covered(d, vars_set, introduced, (z,))
                   for d in lie_derivative_support(z, system))
               for z in candidates)


def two_variables_complete(system, vars_set, introduced, left, banned) -> bool:
    """Whether at most two more variables, not in vars_set nor banned, cover
    every monomial of the list `left` and their own derivatives; vars_set
    is 1, the x_i and the `introduced` monomials.  With fewer than two
    monomials in `left` it answers True: it does not look for two new
    factors of a lone monomial.

    Let m1 be the monomial of `left` with the fewest partners (graded-lex
    order breaks ties).  A completion covers it in one of two ways.  Case A:
    m1 = z * w with z new and w in vars_set or w = z, so z is in
    partners(m1).  Every other m that z does not cover is z2 * w with w in
    vars_set, z or z2, so a second variable z2 lies in partners(m), or is
    m / z; so does every monomial of z' that is not covered over vars_set
    and z.  z completes alone when no monomial asks for a z2; otherwise a
    candidate z2 completes when its own derivative is covered over
    vars_set, z and z2.  Case B: m1 = z1 * z2 with both new and distinct.
    The next monomial m2 is no product of the two, which is m1, so it is
    zi * w with w in vars_set or w = zi, and zi is in partners(m2) and
    divides m1.  So p runs over partners(m2) that divide m1 and q = m1 / p,
    outside vars_set, not banned and other than p, and the pair completes
    when every monomial of `left` and of p' and q' is covered over vars_set,
    p and q.
    """
    if len(left) < 2:
        return True
    ranked = sorted(((partners(m, vars_set, introduced, banned), m) for m in left),
                    key=lambda pm: (len(pm[0]), grlex_key(pm[1])))
    (first, m1), rest = ranked[0], ranked[1:]
    for z in first:
        # The candidates for z2, None while no monomial asks for one.
        candidates = None
        for group, m in rest:
            w = monomial_quotient(m, z)
            if w in vars_set or w == z:
                continue
            if divides(z, m) and w not in banned:
                group = group | {w}
            candidates = group if candidates is None else candidates & group
            if not candidates:
                break
        if candidates is not None and not candidates:
            continue
        for d in lie_derivative_support(z, system):
            if covered(d, vars_set, introduced, (z,)):
                continue
            group = partners(d, vars_set, introduced, banned)
            w = monomial_quotient(d, z)
            if divides(z, d) and w not in banned:
                group.add(w)
            candidates = group if candidates is None else candidates & group
            if not candidates:
                break
        if candidates is None:
            return True
        if any(all(covered(d, vars_set, introduced, (z, z2))
                   for d in lie_derivative_support(z2, system))
               for z2 in candidates):
            return True
    for p in rest[0][0]:
        if not divides(p, m1):
            continue
        q = monomial_quotient(m1, p)
        if q == p or q in vars_set or q in banned:
            continue
        pair = (p, q)
        if (all(covered(m, vars_set, introduced, pair) for m in left)
                and all(covered(d, vars_set, introduced, pair)
                        for z in pair for d in lie_derivative_support(z, system))):
            return True
    return False


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
    nonsquares, a subset again.  At need 3 two, and the rule decides
    whether at most two complete the node (two_variables_complete, which
    gives the two ways a completion covers a nonsquare), by the same
    argument; it is exact at a visited node with two nonsquares or more,
    and keeps a node with one.  Neither probe looks at forbidden pairs,
    which only keeps more nodes.  At need
    4 or more the rule packs the sets C(m) greedily (packs): k disjoint
    ones need k more variables, and a nonsquare left with an empty set
    prunes at once.  k never exceeds the number of sets, so no set is
    built when there are too few.
    divisor_sets maps m to D(m) and is filled here; the search passes one
    per search, and without it each call uses a fresh one, with the same
    answer.  Only packing builds a divisor set.
    """
    introduced = state.new_vars + added
    need = incumbent_order - len(introduced)
    if need <= 0:
        return True
    if need > 3 and len(state.nonsquares) < need:
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
        return not one_variable_completes(state.system, vars_set, introduced, left, banned)
    left = list(left)
    if need == 3:
        return not two_variables_complete(state.system, vars_set, introduced, left, banned)
    if len(left) < need:
        return False
    if divisor_sets is None:
        divisor_sets = {}
    return packs(factor_sets(left, vars_set, banned, divisor_sets), need) == need


def quadratic_bound(state: SearchState) -> int:
    """The pair-count rule's lower bound on the order of every quadratization
    that contains the state: its new variables and k more."""
    mult = quotient_multiplicities(state.nonsquares, state.vars_set)
    return len(state.new_vars) + smallest_k(len(state.nonsquares), mult,
                                            lambda k: k * (k + 1) // 2)


def c4_bound(state: SearchState) -> int:
    """The same bound as quadratic_bound, via the graph capacity bound."""
    subset = build_squarefree_subset(state.nonsquares)
    mult = quotient_multiplicities(subset, state.vars_set)
    loops = sum(map(is_square, subset))
    return len(state.new_vars) + smallest_k(len(subset), mult, lambda k: c4_capacity(k, loops))


def prune_by_quadratic_bound(state: SearchState, incumbent_order: int) -> bool:
    """True if no extension can quadratize with fewer than incumbent_order vars."""
    return quadratic_bound(state) >= incumbent_order


def prune_by_c4_bound(state: SearchState, incumbent_order: int) -> bool:
    """Same contract as prune_by_quadratic_bound, via the graph capacity bound."""
    return c4_bound(state) >= incumbent_order


def lower_bound(state: SearchState, divisor_sets: dict) -> int:
    """A proven lower bound on the order of every quadratization that
    contains the state: the largest of the two rules' bounds and the graph
    capacity bound.

    A state with a nonsquare needs one more variable at least.  The probes
    are exact with no additions and no banned variables: two more when no
    one variable completes the state, three when no two do either (which
    needs two nonsquares or more).  The packing count and the counting
    rules' k never exceed the number of nonsquares, so they are taken only
    when there are more nonsquares than that; the packing's divisor sets go
    to divisor_sets, the search's memo.  So, with no banned variables, the
    two rules and prune_by_c4_bound together prune the state at bound N
    exactly when N is at most this.
    """
    left = state.nonsquares
    if not left:
        return len(state.new_vars)
    system, vars_set, introduced, banned = state.system, state.vars_set, state.new_vars, ()
    more = 1
    if not one_variable_completes(system, vars_set, introduced, left, banned):
        two = two_variables_complete(system, vars_set, introduced, list(left), banned)
        more = 2 if two else 3
    if len(left) > more:
        more = max(more, packs(factor_sets(left, vars_set, banned, divisor_sets), len(left)))
    if len(left) > more:
        return max(len(introduced) + more, quadratic_bound(state), c4_bound(state))
    return len(introduced) + more
