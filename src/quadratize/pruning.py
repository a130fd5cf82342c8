"""The search's two pruning rules and the root lower bound.

Each rule answers: can the current variable set still be extended to a
monomial quadratization of order strictly below N?  It returns True when
that is provably impossible, and is sound but not complete (False promises
nothing).  The search runs rules 1 and 2 at every visited node below the
root.  Rule 2 compares a number with N: the state's new variables plus
the k more it proves (quadratic_bound).

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

The exact step (node_completes).  It decides whether at most k more
variables, k from 0 to 5 (EXACT_COUNT), complete a state: cover every
nonsquare and every monomial of their own derivatives.  A nonsquare stays
one until a new variable covers it, so with k = 0 the step holds exactly
when none is left.  With k = 1 the new z covers every nonsquare m, so it
is a partner of each (one_variable_completes, whose docstring gives why,
polynomials.partners).  With k from 2 to 5 a completion covers the
nonsquare m1 with the fewest partners in one of two ways
(two_variables_complete's docstring gives both): as z * w with z a new
partner of m1, or as p * q with p and q new.  Each leaves the state with
z, or with p and q, and at most k - 1 or k - 2 more variables, and the
step for that smaller count decides exactly.  With one nonsquare m left,
no other nonsquare names a factor of a completion {p, m / p} of two new
factors, so the step walks the factor pairs of m, half of D(m), and builds
no set.  The search pays as much without it: a node it keeps is branched
on m, generate_children lists the same divisors, and each child of two new
factors is extended, which takes both derivatives.  From k = 3 on, where
m1 has more than MAX_WALKED_DIVISORS divisors, the step answers that the
state may complete rather than walk half of them for each nested state:
that only keeps a node or lowers the root bound, and no search of the
benchmark's workloads, the cubic families or the dense capped searches
meets such an m1, so there the step is exact.

Before the step asks about a nested state that may add two or more
variables, it packs the monomials it holds that the new variables leave
uncovered, nonsquares of the nested state and so a subset again: one
disjoint C(m) more than it may add refutes it with no derivative taken
(packs_past).  The step stays exact, so the packing's order changes no
answer; it goes fewest divisors first, tests the last set it needs by
divisibility and so never builds the largest set, and fills the search's
divisor memo.  Nearly every need-5 and need-6 call at a visited node
refutes (on cubic_cycle(9), 716 of 717 need-5 calls before the need-6
step, and 675 of 676 need-6 calls with it), and most of a refutation went
to the nested states with a partner z: the partner sets and cover tests
of the monomials of z'.  Without the packing the need-5 step cost the
cubic families about 15% more time; with it they are no slower.

The need ladder.  need = N - |new variables| - |A| is how many more
variables a completion below N may have, plus one, and rule 1 acts by
need (packing_count, which counts the variables the rule proves, and
prune_by_packing_bound, which compares that count with need):
- need 0 or less: the state is too large already, and the rule prunes.
- needs 1 to 3: the exact step with k = need - 1.  At need 1 any
  nonsquare left prunes: every C(m) holds m itself.  At need 2 two
  disjoint C(m) give two disjoint partner sets, so packing adds nothing.
- need 4 or more: greedy packing, k disjoint sets need k more variables,
  and a nonsquare left with an empty set prunes at once.  k never exceeds
  the number of sets, so no set is built when there are too few.
- needs 4 to 6 at a visited node, once greedy packing and then rule 2
  have kept it: the search asks the exact step with k = need - 1, and
  counts a node it refutes as pruned by rule 1.  So rule 1 is exact at a
  visited node through need 5, and through need 6 where the step runs.
  At need 6 it runs only where greedy packing came close: where it found
  at least 3 disjoint sets (solver.TOP_STEP_PACKED), or where it did not
  pack, since fewer nonsquares are left than 6.  Where the sets overlap,
  as on dense systems, a need-6 call took 10 to 70 ms, against about 1 ms
  on the cubic families, and the nodes it pruned saved less than that.
  A probe skipped only keeps a node, so the answer stays optimal.  Three
  other places cost more than they save:
  - before extension too: there the step mostly refutes children that
    building and then packing would prune anyway, so it removes about as
    many nodes as it prunes and runs on every child;
  - before rule 2: on dense systems rule 2 prunes the same nodes for a
    count of quotients;
  - in place of greedy packing: packing refutes most of those nodes from
    sets the search keeps, where the step takes derivatives.
With no additions and at a visited node the step is exact; before
extension it ignores the child's fresh nonsquares, a subset again.  The
step looks at no forbidden pair, which only keeps more nodes.

Both calls may also get banned variables: monomials that no completion
below the bound contains.  They are the sets of one variable that sibling
exclusion forbids (solver.py), each kept there as a pair with 1.  The
rule then bounds only the completions that avoid them, which have a new
variable in C(m) minus the banned ones, so it packs those sets; a
nonsquare with nothing left has no such completion at all.  In the
exact step a banned monomial is no candidate for a new variable.

Rule 2 bounds how many nonsquares r additional variables could cover: each
new variable z covers at most mult(z) nonsquares of the form z*v with v a
current variable (mult taken from the quotient multiset), and products of
two new variables cover at most r(r+1)/2 more.

The root lower bound, and why the root takes no rule.  lower_bound is the
largest N at which the rules prune a state with no additions and no
banned variables.  It raises its bound while the exact step refutes the
state with k from 0 to 5, the steps of needs 1 to 6, before any greedy
packing count: so it is exact through need 6 by construction, on every
root.  From k = 2 on the steps share one set of partner groups.  Then,
only when there are more nonsquares than the variables proven so far, it
takes the greedy packing count and the k of rule 2: neither exceeds the
number of nonsquares.  So rule 1 with its steps at needs 4 to 6, the
need-6 step run whatever packing finds, and rule 2 together prune the
state at N exactly when N is at most lower_bound.  The search takes it
once, at the root, and visits the root only when it is below the
search's bound, where the rules would keep the root: so the root takes
no rule.

The paper's graph capacity rule (prune_by_c4_bound) is reproduced at the
end of the module, and the search does not run it; the note there gives
why.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from itertools import chain
from math import isqrt

from .polynomials import (
    Monomial,
    degree,
    divides,
    divisor_count,
    divisors,
    grlex_key,
    is_square,
    lie_derivative_support,
    monomial_mul,
    monomial_quotient,
    partners,
)
from .state import SearchState, is_product

# The largest count the exact step (node_completes) decides: the root lower
# bound's ladder runs it through this count, and the search at a visited
# node at needs 4 to EXACT_COUNT + 1.
EXACT_COUNT = 5

# Case B of more_variables_complete walks half of D(m1), and each pair asks
# about a nested state.  Where m1 has more divisors than this the probe
# answers that the state may complete, which only keeps a node or lowers
# the root lower bound.  On x' = y^200, y' = x^200 the count-5 rung at the
# root meets nested states whose m1, a monomial of the derivative of a new
# variable, has 20,100 to 40,200 divisors, and took 2.4 s; no probe of the
# benchmark's workloads, the cubic families to size 8 or the dense capped
# searches meets an m1 with more than 210.
MAX_WALKED_DIVISORS = 10_000


def quotient_multiplicities(targets, var_monomials) -> list[int]:
    """Multiplicities of the quotient multiset {t/v : v divides t}, descending.

    Every divisible (target, variable) pair counts, including v = 1 and v = t.
    """
    counts = Counter(monomial_quotient(t, v)
                     for t in targets for v in var_monomials if divides(v, t))
    return sorted(counts.values(), reverse=True)


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
    graded-lex m) (ranked), and each C disjoint from those kept is kept;
    the count stops at `need`.  An empty C comes first and counts as
    `need`: nothing can cover its m.
    """
    packed: set[Monomial] = set()
    count = 0
    for cover, _ in ranked(sets):
        if not cover:
            return need
        if packed.isdisjoint(cover):
            packed |= cover
            count += 1
            if count == need:
                break
    return count


def divisor_set(m: Monomial, divisor_sets: dict) -> frozenset:
    """D(m), taken from divisor_sets and added there when missing."""
    if m not in divisor_sets:
        divisor_sets[m] = frozenset(divisors(m))
    return divisor_sets[m]


def factor_sets(left, vars_set, banned, divisor_sets: dict) -> list:
    """The (C(m), m) pairs of the monomials `left`: C(m) = D(m) less
    vars_set and the banned monomials (divisor_set)."""
    return [(divisor_set(m, divisor_sets).difference(vars_set, banned), m) for m in left]


def packs_past(left, vars_set, banned, count: int, divisor_sets: dict) -> bool:
    """Whether greedy packing finds count + 1 pairwise disjoint C(m) among
    the monomials `left`, C(m) taken over vars_set and the banned
    monomials (factor_sets).

    The packed members are outside vars_set and not banned, so they meet
    C(m) exactly when they meet D(m), and exactly when one divides m: C(m)
    is built only for a set that is packed.  The monomials go by
    divisor_count, fewest divisors first, and the walk stops once too few
    are left.  The last set it needs is tested by divisibility unless
    divisor_sets holds D(m) already, so the last monomial, one with the
    most divisors, never has its set built.  Unlike packs, whose order sets
    which nodes greedy packing prunes, this serves exact probes, where the
    order changes no answer.
    """
    left = sorted(left, key=divisor_count)
    packed: set[Monomial] = set()
    need = count + 1
    for i, m in enumerate(left):
        if len(left) - i < need:
            return False
        if need == 1:
            return any(packed.isdisjoint(divisor_sets[last]) if last in divisor_sets
                       else not any(divides(d, last) for d in packed) for last in left[i:])
        divs = divisor_set(m, divisor_sets)
        if packed.isdisjoint(divs):
            packed |= divs.difference(vars_set, banned)
            need -= 1
    return False


def covered_by(m: Monomial, vars_set, fresh) -> bool:
    """Whether m, no product over vars_set, is a product of two of vars_set
    and the `fresh` monomials: a factor is fresh, so some m / z, z fresh, is
    in vars_set or fresh.  A nonsquare of the state qualifies: no probe needs
    to test it against vars_set again."""
    return any((w := monomial_quotient(m, z)) in vars_set or w in fresh for z in fresh)


def covered(d: Monomial, vars_set, introduced, fresh) -> bool:
    """Whether d is a product of two of vars_set and the `fresh` monomials;
    `introduced` holds the members of vars_set that may be a factor.  For a
    monomial that is no product over vars_set, covered_by gives the same
    answer for less: only a fresh derivative monomial needs this test."""
    return covered_by(d, vars_set, fresh) or is_product(d, vars_set, introduced)


def new_factor_pairs(m: Monomial, vars_set, banned):
    """The pairs (p, q) with m = p * q, p below q in tuple order and neither
    in vars_set nor banned, each unordered pair once, walked lazily.

    The divisors of m come in ascending tuple order and m / p descends as p
    ascends, so the walk stops where m / p is no longer above p, half way
    through D(m), and builds no set.
    """
    for p in divisors(m):
        q = monomial_quotient(m, p)
        if not p < q:
            return
        if not (p in vars_set or q in vars_set or p in banned or q in banned):
            yield p, q


def one_variable_completes(system, vars_set, introduced, left,
                           banned) -> tuple[Monomial, ...] | None:
    """The at most one more variable z, not in vars_set nor banned, that
    covers every monomial of `left`, and z' when there is one: () when
    `left` is empty, (z,) for the first such z found, None when there is
    none.  vars_set is 1, the x_i and the `introduced` monomials, and no
    monomial of `left` is a product over it.  `left` may be an iterator,
    read only while candidates remain.

    A completion covers each m as a * b with a and b not both in vars_set
    (m is no product over it), so as z * w with w in vars_set or w = z, and
    z lies in partners(m).  The candidates are those of the first m, and each later m
    keeps the ones with m / z in vars_set or equal to z (a z that does not
    divide m leaves a negative exponent there).  A candidate completes when
    every monomial of its derivative is covered over vars_set and z.
    """
    left = iter(left)
    first = next(left, None)
    if first is None:
        return ()
    candidates = partners(first, vars_set, introduced, banned)
    for m in left:
        candidates = {z for z in candidates
                      if (w := monomial_quotient(m, z)) in vars_set or w == z}
        if not candidates:
            return None
    return next(((z,) for z in candidates
                 if all(covered(d, vars_set, introduced, (z,))
                        for d in lie_derivative_support(z, system))), None)


def uncovered_groups(groups, z: Monomial, vars_set, banned):
    """The (P(m), m) groups whose m z does not cover, with P(m) updated for
    z, lazily.  vars_set holds the variables P(m) was taken over, over which
    no m is a product, and may hold z and the other new variables too.  So
    z covers m, as z * w with w in vars_set or w = z, exactly when m / z is
    in vars_set or is z.  P(m) then gains m / z when z divides m and m / z
    is not banned, and it loses z, which it holds only when z covers m."""
    for group, m in groups:
        w = monomial_quotient(m, z)
        if w in vars_set or w == z:
            continue
        yield (group | {w} if divides(z, m) and w not in banned else group), m


def ranked(groups) -> list:
    """The (P(m), m) pairs in order of (size of P(m), graded-lex m)."""
    return sorted(groups, key=lambda pm: (len(pm[0]), grlex_key(pm[1])))


def two_variables_complete(system, vars_set, introduced, groups, banned) -> bool:
    """Whether at most two more variables, not in vars_set nor banned, cover
    every monomial m of the (P(m), m) pairs `groups` and their own
    derivatives; vars_set is 1, the x_i and the `introduced` monomials, no
    m is a product over it, and P(m) is partners(m) over it.  It answers
    True when there are none.

    Let m1 be the monomial with the fewest partners (graded-lex order
    breaks ties).  A completion covers it in one of two ways.  Case A:
    m1 = z * w with z new and w in vars_set or w = z, so z is in
    partners(m1).  Every other m that z does not cover is z2 * w with w in
    vars_set, z or z2, so a second variable z2 lies in partners(m), or is
    m / z; so does every monomial of z' that is not covered over vars_set
    and z.  z completes alone when no monomial asks for a z2; otherwise a
    candidate z2 completes when its own derivative is covered over
    vars_set, z and z2.  Case B: m1 = p * q with both new and distinct,
    which covers m1.  A next monomial m2 is no product of the two, which is
    m1, so it is p * w, say, with w in vars_set or w = p, and p is in
    partners(m2) and divides m1: so p runs over those partners and
    q = m1 / p.  With m1 alone nothing names a factor, so the pairs are
    those of new_factor_pairs.  A pair with p or q in vars_set or banned,
    or with p = q, is skipped before any derivative is taken, and a pair
    completes when every other monomial and every monomial of p' and q' is
    covered over vars_set, p and q.
    """
    if not groups:
        return True
    (first, m1), *rest = ranked(groups)
    for z in first:
        # The candidates for z2, None while no monomial asks for one.
        candidates = None
        for group, _ in uncovered_groups(rest, z, vars_set, banned):
            candidates = group if candidates is None else candidates & group
            if not candidates:
                break
        if candidates is not None and not candidates:
            continue
        for d in lie_derivative_support(z, system):
            if covered(d, vars_set, introduced, (z,)):
                continue
            if candidates is None:
                candidates = partners(d, vars_set, introduced, banned)
                w = monomial_quotient(d, z)
                if divides(z, d) and w not in banned:
                    candidates.add(w)
            else:
                # The same intersection, without building partners(d).
                candidates = {z2 for z2 in candidates
                              if (w := monomial_quotient(d, z2)) in vars_set or w in (z, z2)}
            if not candidates:
                break
        if candidates is None:
            return True
        if any(all(covered(d, vars_set, introduced, (z, z2))
                   for d in lie_derivative_support(z2, system))
               for z2 in candidates):
            return True
    if rest:
        # p is a partner of m2, so it is neither in vars_set nor banned.
        pairs = ((p, q) for p in rest[0][0]
                 if divides(p, m1) and (q := monomial_quotient(m1, p)) != p
                 and q not in vars_set and q not in banned)
    else:
        pairs = new_factor_pairs(m1, vars_set, banned)
    for pair in pairs:
        if (all(covered_by(m, vars_set, pair) for _, m in rest)
                and all(covered(d, vars_set, introduced, pair)
                        for z in pair for d in lie_derivative_support(z, system))):
            return True
    return False


def more_variables_complete(system, vars_set, introduced, groups, banned, more: int,
                            divisor_sets: dict) -> bool:
    """Whether at most `more` more variables, 3 to EXACT_COUNT, not in
    vars_set nor banned, cover every monomial m of the (P(m), m) pairs
    `groups` and their own derivatives; vars_set is 1, the x_i and the
    `introduced` monomials, the monomials of the groups are every monomial
    of their derivatives that is no product over it, the nonsquares of a
    state, and P(m) is partners(m) over it.  It answers True when there
    are none, and when m1 below has more than MAX_WALKED_DIVISORS divisors.

    Let m1 be the monomial with the fewest partners (graded-lex order
    breaks ties).  As in two_variables_complete, a completion covers it in
    one of two ways, each with new variables `new`: a partner z of m1 (case
    A), or the two new factors p and q of m1 (case B), the pairs of
    new_factor_pairs, walked lazily, since the other variables may cover
    every other monomial and so none names p.  Then at most more - |new|
    complete the state with them, which the probe for that count decides
    (groups_complete): more - 1 for case A, more - 2 for case B.
    Its monomials are those of the groups that the new variables leave
    uncovered and those of their derivatives that are no product over
    vars_set and them.  With one more allowed they are read lazily, those
    of the groups first; otherwise they come with their partner sets, the
    held ones updated for each new variable (uncovered_groups).  Before
    the probe asks about a state that may add two or more variables, the
    held monomials that the new variables leave uncovered are packed
    (packs_past, with D(m) from divisor_sets, the search's memo): one
    disjoint set more than it may add refutes it before any derivative of
    the new variables is taken.
    """
    if not groups:
        return True
    (first, m1), *rest = ranked(groups)
    if divisor_count(m1) > MAX_WALKED_DIVISORS:
        return True
    held = {m for _, m in groups}
    # Case A's (z,) for each partner z of m1, then case B's pairs (p, q).
    for new in chain(zip(first), new_factor_pairs(m1, vars_set, banned)):
        after, grown, count = vars_set.union(new), introduced + new, more - len(new)
        fresh = (d for z in new for d in lie_derivative_support(z, system)
                 if d not in held and not covered(d, vars_set, introduced, new))
        if count == 1:
            uncovered = chain((m for _, m in rest if not covered_by(m, vars_set, new)), fresh)
            completes = one_variable_completes(system, after, grown, uncovered, banned) is not None
        else:
            inner = rest
            for z in new:
                inner = uncovered_groups(inner, z, after, banned)
            inner = list(inner)
            if packs_past((m for _, m in inner), after, banned, count, divisor_sets):
                continue
            # p' and q' may share a monomial: each is one group.
            inner.extend((partners(d, after, grown, banned), d) for d in dict.fromkeys(fresh))
            completes = groups_complete(system, after, grown, inner, banned, count, divisor_sets)
        if completes:
            return True
    return False


def groups_complete(system, vars_set, introduced, groups, banned, more: int,
                    divisor_sets: dict) -> bool:
    """node_completes for a count of 2 or more, given the (P(m), m) partner
    groups of its monomials: the probe for that count."""
    if more == 2:
        return two_variables_complete(system, vars_set, introduced, groups, banned)
    return more_variables_complete(system, vars_set, introduced, groups, banned, more,
                                   divisor_sets)


def node_completes(system, vars_set, introduced, left, banned, more: int,
                   divisor_sets: dict) -> bool:
    """Whether at most `more` more variables, 0 to EXACT_COUNT, not in
    vars_set nor banned, cover every monomial of `left` and their own
    derivatives: the exact step of the module docstring.  vars_set is 1,
    the x_i and the `introduced` monomials, and `left`, which may be an
    iterator, holds every monomial of the derivatives that is no product
    over vars_set, the nonsquares of a state.  From 2 on, the probe gets
    the partner groups of `left` (polynomials.partners); divisor_sets is
    the search's memo."""
    if more == 0:
        return not any(True for _ in left)
    if more == 1:
        return one_variable_completes(system, vars_set, introduced, left, banned) is not None
    return groups_complete(system, vars_set, introduced,
                           [(partners(m, vars_set, introduced, banned), m) for m in left],
                           banned, more, divisor_sets)


def packing_count(state: SearchState, incumbent_order: int,
                  added: tuple[Monomial, ...] = (), divisor_sets: dict | None = None,
                  banned=frozenset()) -> int:
    """How many more variables rule 1 proves that every completion of
    state.extended(added) needs, decided without building that state and
    counted up to need = incumbent_order - |new_vars| - |added|: the rule
    prunes exactly when the count is at least need.

    It bounds the nonsquares of the state that the additions leave
    uncovered (is_product with the additions), and only the completions
    that avoid the banned variables, which the caller guarantees no
    completion below incumbent_order contains; with no additions and none
    banned it is the rule on the state itself.  The module docstring gives
    the need ladder, and the argument for each step, for the additions and
    for the banned variables: at needs 1 to 3 the count is need or 0, and
    from need 4 on it is the greedy packing count, 0 when fewer nonsquares
    are left than need.  divisor_sets maps m to D(m) and is filled here;
    the search passes one per search, and without it each call uses a
    fresh one, with the same answer.  Only packing builds a divisor set.
    """
    introduced = state.new_vars + added
    need = incumbent_order - len(introduced)
    if need <= 0:
        return 0
    if need > 3 and len(state.nonsquares) < need:
        return 0
    left = state.nonsquares
    vars_set = state.vars_set
    if added:
        vars_set = vars_set.union(added)
        left = (m for m in left if not is_product(m, vars_set, added))
    if divisor_sets is None:
        divisor_sets = {}
    if need <= 3:
        return 0 if node_completes(state.system, vars_set, introduced, left, banned, need - 1,
                                   divisor_sets) else need
    left = list(left)
    if len(left) < need:
        return 0
    return packs(factor_sets(left, vars_set, banned, divisor_sets), need)


def prune_by_packing_bound(state: SearchState, incumbent_order: int,
                           added: tuple[Monomial, ...] = (),
                           divisor_sets: dict | None = None,
                           banned=frozenset()) -> bool:
    """Same contract as prune_by_quadratic_bound for state.extended(added):
    whether packing_count reaches the need."""
    need = incumbent_order - len(state.new_vars) - len(added)
    return packing_count(state, incumbent_order, added, divisor_sets, banned) >= need


def quadratic_bound(state: SearchState) -> int:
    """The pair-count rule's lower bound on the order of every quadratization
    that contains the state: its new variables and k more."""
    mult = quotient_multiplicities(state.nonsquares, state.vars_set)
    return len(state.new_vars) + smallest_k(len(state.nonsquares), mult,
                                            lambda k: k * (k + 1) // 2)


def prune_by_quadratic_bound(state: SearchState, incumbent_order: int) -> bool:
    """True if no extension can quadratize with fewer than incumbent_order vars."""
    return quadratic_bound(state) >= incumbent_order


def lower_bound(state: SearchState, divisor_sets: dict) -> int:
    """A proven lower bound on the order of every quadratization that
    contains the state: the largest of the exact step's count and the two
    rules' bounds.

    It raises the bound while the exact step (node_completes) refutes the
    state with 0 to EXACT_COUNT more variables, so the bound is the optimum
    whenever the optimum has at most five variables more than the state;
    from a count of 2 on the probes share one list of partner groups.
    Then it takes the greedy packing count and the pair-count rule's k when
    there are more nonsquares than that: neither exceeds the number of
    nonsquares.  Every divisor set it builds goes to divisor_sets, the
    search's memo.  So, with no banned variables, the two rules and the
    steps at needs 4 to 6 together prune the state at bound N exactly
    when N is at most this (the module docstring gives why, and why the
    root takes no rule).
    """
    system, vars_set, introduced = state.system, state.vars_set, state.new_vars
    left, more = state.nonsquares, 0
    while more < 2 and not node_completes(system, vars_set, introduced, left, (), more,
                                          divisor_sets):
        more += 1
    if more == 2:
        # The partner groups, built once for every count from 2 on.
        groups = [(partners(m, vars_set, introduced, ()), m) for m in left]
        while more <= EXACT_COUNT and not groups_complete(system, vars_set, introduced, groups,
                                                          (), more, divisor_sets):
            more += 1
    new = len(introduced)
    if len(left) > more:
        packed = packs(factor_sets(left, vars_set, (), divisor_sets), len(left))
        return max(new + more, new + packed, quadratic_bound(state))
    return new + more


# The paper's graph capacity rule, a reproduction that the search does not
# run.  It is rule 2 with r(r+1)/2 replaced by the maximum edge count of a
# pseudograph on r vertices containing no closed 4-edge walk with
# pairwise-distinct adjacent edges.  Loops correspond to squares, so the
# loop count is the number of members that are perfect squares (every
# exponent even; x*y has even degree but is no square).  The bound is
# applied to a subset of the nonsquares with pairwise-distinct products,
# which is what forbids such walks in the covering graph.  The table is
# checked against bruteforce.exhaustive_c4_capacity (acceptance criterion
# 05, demos/04_graph_capacity.py).  The search stopped using the rule once
# the exact step reached need 5: as a term of the root lower bound it
# lifted none of 884 roots checked, and without it every SearchStats and
# answer stayed the same on 739 systems and the benchmark's workloads.
# solver imports prune_by_c4_bound only because the benchmark's tracer
# wraps it by name; the import, the function and the helpers behind it go
# when the benchmark stops wrapping names.

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


def prune_by_c4_bound(state: SearchState, incumbent_order: int) -> bool:
    """Same contract as prune_by_quadratic_bound, via the graph capacity bound."""
    subset = build_squarefree_subset(state.nonsquares)
    mult = quotient_multiplicities(subset, state.vars_set)
    loops = sum(map(is_square, subset))
    k = smallest_k(len(subset), mult, lambda k: c4_capacity(k, loops))
    return len(state.new_vars) + k >= incumbent_order
