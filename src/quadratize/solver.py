"""Depth-first branch-and-bound driver, Laurent lifting, and benchmark systems.

The search first bounds the order of every quadratization from the root
(pruning.lower_bound): the largest bound at which its two rules prune
the root.  A cap below it raises at once.  Then it builds a greedy
quadratization (initial_incumbent): a descent inside the per-variable
degree box of the system that takes the child with the fewest
nonsquares, the reverse-delete step of greedy set cover, and, while the
order is above the root lower bound, a swap step of local search that
trades two variables for at most one, possibly outside the box.  Its
order, or an order cap when smaller, sets the initial bound one above
it, and the search explores the subproblem tree depth first with two
pruning rules at each node: disjoint factor-set packing and pair
counting.  The result is a monomial quadratization of provably minimal
order, plus search statistics.  The bound starts one above the greedy
order, not at it, so the search returns the first optimum it reaches
depth first rather than the greedy set; the tests pin that a start from
the degree box gives the same answers.

The search ends at the first quadratization it visits whose order meets
the root lower bound.  A later incumbent would have to be smaller, and
none is, so the answer and the incumbents found are those of the search
run to its end; only the nodes that would prove again what the root bound
proves go.  The root is visited only when that bound is below the
search's, and takes no rule; pruning's module docstring gives why.

A node's children are drawn fewest new variables first, and the bound
only falls, so the first child with at least as many new variables as the
bound ends the node: neither it, nor any later sibling, nor any superset
of them can beat the incumbent.  Two kinds of children below the bound are
skipped before they are extended, decided from the parent alone.  A child
is skipped when it contains a forbidden set (sibling exclusion, below).
And a child is skipped when the packing rule, applied to the parent's
nonsquares that the child's additions leave uncovered, needs as many more
variables as the child is short of the bound (pruning.packing_count;
pruning's module docstring gives its need ladder and the argument for
each step).  Neither changes the answer.

Sibling exclusion.  The children of a node P cover every quadratization
T that contains P: T covers the branch monomial, so it contains one of
the children.  Depth first, the child P + A is handled (skipped, pruned,
or visited with its whole subtree) before the next child is drawn, and
after that no quadratization containing P + A is smaller than the bound,
which only falls.  So in the subtrees of P's later children a set that
contains A cannot beat the bound: A is forbidden there, and a child whose
variables contain a forbidden set is skipped.  A forbidden set of one
variable z bans z: a completion that beats the bound avoids z, so the
packing rule leaves z out of every factor set, in both of its calls.  A
child's forbidden sets are its parent's plus the additions of its earlier
siblings.  So no set is visited twice: on the later of two paths to it,
it holds the additions of a child the earlier path visited.

The search also skips symmetric subproblems.  Once per search it finds
the system's automorphisms: the permutations of the variables that map
every right-hand side onto the right-hand side of the image variable,
with equal coefficients and the parameters fixed.  The key of a set of new
variables is its least image under that group, packed into one int, and a
per-search table holds the key of every visited set.  A child whose key is
there, an image of a visited set, is skipped before it is extended.  This
never changes the answer: a visited set that is not an ancestor of the
child has been fully explored under a bound at least the current one,
ancestors are strictly smaller, and images of a set have completions of
the same sizes, so the skipped subtree holds no strictly better
incumbent.  Exclusion keeps "fully explored": the completions of a
visited set that contain a forbidden set are at least the bound that
held when it was forbidden, so its subtree still holds every completion
below the bound or one no larger.  The size test and the two skips above
come first and their sets never enter the table, so it holds visited sets
only and the argument is unchanged; a later image of a skipped set is
judged afresh, like any child.  When the group is larger than
MAX_GROUP_ORDER, or finding it takes more than MAX_AUTOMORPHISM_STEPS
steps, the identity alone is used.  Under the identity alone no table is kept: it could only
find a set visited twice.

Stabilizer exclusion (orbital branching: Ostrowski, Linderoth, Rossi and
Smriglio, Math. Program. 2011).  The stabilizer of a node P is the group
elements that map its set of new variables onto itself.  Such a sigma
permutes 1 and the x_i too, so it maps P's generalized variables onto
themselves, and an addition A of P onto a set sigma(A) disjoint from them.
Once the child P + A is settled, so is P + sigma(A): a quadratization T
that contains it gives sigma^-1(T), of the same size, which contains
P + A, so T is no smaller than the bound that held when A was forbidden.
So P forbids its last child's additions A and their stabilizer images
when it draws its next child below the bound: A's subtree is done then,
and earlier the images would cut it, since it may hold sigma(A) and a
better incumbent with it.  An image is settled as A is, so the orbit
table's argument above is unchanged, and so are the incumbents found.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .branching import generate_children
from .parsing import parse_system
from .polynomials import (
    Monomial,
    ODESystem,
    degree,
    divides,
    grlex_key,
    image,
    lie_derivative_support,
    monomial_gcd,
    monomial_mul,
    monomial_quotient,
    orbit_key,
    unit_monomial,
    variable_monomial,
)
# The search never calls prune_by_c4_bound; the benchmark's tracer wraps
# it here by name, and the import goes when the tracer reads an observer.
from .pruning import (
    EXACT_COUNT,
    lower_bound,
    node_completes,
    one_variable_completes,
    packing_count,
    prune_by_c4_bound,
    prune_by_quadratic_bound,
)
from .state import SearchState, is_product


SearchStats = namedtuple("SearchStats", "nodes_visited pruned_by_packing pruned_by_quadratic "
                                        "pruned_by_symmetry incumbent_updates optimal_order")
SearchStats.as_dict = SearchStats._asdict


# optimal is False only for the Laurent lifting.
QuadratizationResult = namedtuple("QuadratizationResult", "new_vars order optimal document")


def per_variable_degrees(system: ODESystem) -> tuple[int, ...]:
    """D_i = the largest exponent of variable i across all right-hand sides."""
    maxes = unit_monomial(system.num_vars)
    for poly in system.rhs:
        for mono, _ in poly:
            maxes = tuple(map(max, maxes, mono))
    return maxes


def initial_incumbent(system: ODESystem, floor: int = 0) -> tuple[tuple[Monomial, ...], int]:
    """A greedy quadratization, in graded-lex order: the search's first bound.

    Descent: from the root, extend every child (generate_children) whose
    additions all divide the degree-box monomial D = per_variable_degrees,
    and go on from the one with the fewest nonsquares; a tie goes to the
    earlier child, and the scan stops at a child with none.  Then reverse
    delete, as in greedy set cover: each variable, last added first, is
    dropped when the rest still quadratize.

    The descent ends, inside the box.  Every generalized variable v divides
    D or is a variable x_i, and each monomial of v' is v / x_i times a term
    of x_i', so every nonsquare m divides D^2.  Its pair {a, m / a} with
    a = min(m, D), taken exponent by exponent, is two box monomials, and
    they are not both generalized variables, so some child lies in the box.
    Every step adds a box monomial other than 1 and the x_i, so the descent
    stops within the box's order, prod(D_i + 1) - 1 - #{i : D_i >= 1},
    steps, at a quadratization of at most that order.

    Dropping z keeps a quadratization exactly when every monomial that z
    divides, in the derivatives of the other generalized variables, is
    still a product over them: a factorization of any other monomial never
    uses z, and z' need no longer be covered.

    Swap step, while the order is above `floor` (bnb_search passes the root
    lower bound, which no quadratization is below).  Each round takes the
    pairs {a, b} of the kept set in graded-lex order, and the first that can
    go for at most one variable z goes; then a new round starts.  Such a z
    covers every monomial the drop leaves uncovered, as z * w with w a
    remaining generalized variable or z, and its own derivative is covered:
    one_variable_completes finds it among the partners of those monomials.
    z may lie outside the box.  It may also be a or b, and then only the
    other goes: a swap can leave a variable that the rest can do without,
    and the pair of it and any other variable v then goes for v.  z divides
    each of those monomials and has degree 2 or more, so a pair whose
    uncovered monomials have a gcd of degree below 2 (monomial_gcd) is
    passed over without the probe.  Dropping {a, b} uncovers a monomial m
    of the derivatives, unless m is a product of 1 and the x_i, exactly
    when each of its factor pairs holds a or b and m lies in the derivative
    of a variable other than a and b.  One pass per round over the products
    of a kept variable and a generalized variable that are monomials of the
    derivatives fills one map for every pair: under {a} the monomials each
    factor pair of which holds a, under {a, b} those each factor pair of
    which holds a or b, and the pair {a, b} reads its monomials off {a, b},
    {a} and {b}.  Each change lowers the order, so the step ends, within as
    many rounds as the descent's order, at a quadratization from which no
    variable can be dropped and no pair traded for at most one variable.
    The descent stays in the box; the final set need not.

    It leaves the supports it derives in the system's memo
    (lie_derivative_support), unlike bnb_search and laurent_quadratize:
    bnb_search calls it after the root lower bound, reuses them, and
    empties the memo when it ends.
    """
    box = per_variable_degrees(system)
    state = SearchState.initial(system)
    while state.nonsquares:
        best = None
        for added in generate_children(state):
            if all(divides(a, box) for a in added):
                child = state.extended(added)
                if best is None or len(child.nonsquares) < len(best.nonsquares):
                    best = child
                    if not best.nonsquares:
                        break
        state = best
    kept = set(state.new_vars)
    vars_set = set(state.vars_set)
    for z in reversed(state.new_vars):
        kept.remove(z)
        vars_set.remove(z)
        if not all(is_product(m, vars_set, kept)
                   for v in vars_set for m in lie_derivative_support(v, system)
                   if divides(z, m)):
            kept.add(z)
            vars_set.add(z)
    base = vars_set - kept
    while len(kept) > floor:
        vars_set = base | kept
        owners = {}  # m -> the generalized variables whose derivative holds m
        for v in vars_set:
            for m in lie_derivative_support(v, system):
                owners.setdefault(m, set()).add(v)
        factor_pairs = {}  # m -> its factor pairs that hold a kept variable
        for z in kept:
            for w in vars_set:
                if (m := monomial_mul(z, w)) in owners:
                    factor_pairs.setdefault(m, []).append((z, w))
        # Of the monomials that are no product of 1 and the x_i, hits[{a}]
        # holds those each factor pair of which holds a, and hits[{a, b}]
        # those each factor pair of which holds a or b.
        hits = {}
        for m, pairs in factor_pairs.items():
            if is_product(m, base, ()):
                continue  # a product whatever goes
            for a in kept.intersection(pairs[0]):
                rest = [pair for pair in pairs if a not in pair]
                for b in kept.intersection(*rest) if rest else (a,):
                    hits.setdefault(frozenset((a, b)), set()).add(m)
        for a, b in combinations(sorted(kept, key=grlex_key), 2):
            out = {a, b}
            found = hits.get(frozenset(out), set()).union(hits.get(frozenset((a,)), ()),
                                                          hits.get(frozenset((b,)), ()))
            left = [m for m in found if not owners[m] <= out]  # uncovered and still needed
            if left and degree(monomial_gcd(left)) < 2:
                continue  # a replacement has degree 2 or more, and divides each
            # z may be a or b: then only the other goes.
            completion = one_variable_completes(system, vars_set - out, kept - out, left, ())
            if completion is not None:
                kept = (kept - out).union(completion)
                break
        else:
            break
    return tuple(sorted(kept, key=grlex_key)), len(kept)


class NoQuadratizationWithinCap(ValueError):
    """Every monomial quadratization of the system needs more than the cap.

    lower_bound is the larger of cap + 1 and the search's root lower bound,
    and the message names both the cap and it.
    """

    def __init__(self, cap: int, floor: int):
        self.lower_bound = max(cap + 1, floor)
        super().__init__(f"no monomial quadratization with at most {cap} new variables; "
                         f"every one has at least {self.lower_bound}")


# At a visited node's top need, EXACT_COUNT + 1, the search runs the exact
# step only where greedy packing found at least this many disjoint factor
# sets, or did not pack, since fewer nonsquares are left than the need.
# Where it finds fewer the sets overlap, as on the dense capped searches,
# where a need-6 probe took 10 to 70 ms; on the cubic families packing
# finds 3 to 5 sets and a probe takes about 1 ms.  A skipped probe only
# keeps a node.
TOP_STEP_PACKED = 3


# The key of a set costs one image per group element, so a larger group is
# replaced by the identity; so is one whose search takes more steps.
MAX_GROUP_ORDER = 64
MAX_AUTOMORPHISM_STEPS = 10_000


def automorphisms(system: ODESystem) -> tuple[tuple[int, ...], ...]:
    """Variable permutations that map the system onto itself, identity first.

    sigma[i] is the image of variable i.  sigma is an automorphism when, for
    every i, renaming each variable j to sigma[j] in the right-hand side of i
    gives the right-hand side of sigma[i] term for term: same monomials, same
    coefficients, same parameter exponents.  Found one level at a time: the
    partial maps of variables 0..level-1 are each extended by every unused
    candidate with the same invariants as variable `level`, and a term is
    checked as soon as its equation and its variables are all assigned.
    When such a term holds variable `level`, the candidates are the
    variables that complete its image under the partial map to a term of
    the system, usually one or two, which keeps the search about linear
    in n on cycles and chains; otherwise they are every variable with
    those invariants.  Candidates are taken in increasing order, so the
    group comes out in lexicographic order.  Returns the identity alone
    when the group has more than MAX_GROUP_ORDER elements or the search
    spends more than MAX_AUTOMORPHISM_STEPS steps, one per unused candidate
    and one per term checked.
    """
    n = system.num_vars
    identity = (tuple(range(n)),)
    # Each term as (equation, sparse monomial, parameters, coefficient); a
    # sparse monomial holds the (variable, exponent) pairs with exponent > 0.
    terms = [(i, tuple((j, e) for j, e in enumerate(mono) if e), params, coeff)
             for i, poly in enumerate(system.rhs)
             for (mono, params), coeff in poly.items()]
    lookup = {(i, frozenset(sparse), params): coeff for i, sparse, params, coeff in terms}
    # What every automorphism keeps of a variable: the terms of its own
    # equation, and the terms that contain it, with its exponent there.
    invariants = [[] for _ in range(n)]
    # The terms to check once sigma[level] is assigned, where level is the
    # last of the term's equation and its variables.
    checks = [[] for _ in range(n)]
    for term in terms:
        i, sparse, params, coeff = term
        total = sum(e for _, e in sparse)
        invariants[i].append((0, total, params, coeff))
        for j, e in sparse:
            invariants[j].append((e, total, params, coeff, j == i))
        checks[max([i] + [j for j, _ in sparse])].append(term)
    least = {}  # each class of invariants to its least variable
    kind = [least.setdefault(tuple(sorted(inv)), v) for v, inv in enumerate(invariants)]

    def hole(term, v, sigma):
        """The term renamed by sigma, with -1 wherever variable v stands."""
        i, sparse, params, coeff = term
        return (sigma[i] if i != v else -1,
                frozenset((sigma[j] if j != v else -1, e) for j, e in sparse), params, coeff)

    # Each term with a hole at one of its variables, to the variables that
    # fill the hole with a term of the system.
    fillers = {}
    for term in terms:
        i, sparse, _, _ = term
        for v in {i}.union(j for j, _ in sparse):
            fillers.setdefault(hole(term, v, identity[0]), []).append(v)
    for filling in fillers.values():
        filling.sort()

    # Each partial map is (images of variables 0..level-1, bitmask of those
    # images), and has passed the checks of levels 0..level-1.
    partials = [((), 0)]
    steps = 0
    for level in range(n):
        extended = []
        for images, used in partials:
            # A term of checks[level] holds `level`, and its other variables
            # are assigned.
            candidates = (fillers.get(hole(checks[level][0], level, images), ())
                          if checks[level] else range(n))
            for t in candidates:
                if used >> t & 1 or kind[t] != kind[level]:
                    continue
                steps += 1 + len(checks[level])
                if steps > MAX_AUTOMORPHISM_STEPS:
                    return identity
                sigma = images + (t,)
                if all(lookup.get((sigma[i], frozenset((sigma[j], e) for j, e in sparse), params))
                       == coeff for i, sparse, params, coeff in checks[level]):
                    extended.append((sigma, used | 1 << t))
        partials = extended
    # Each term maps to a term of equal coefficient in the image equation,
    # which has as many terms: the equations match.
    if len(partials) > MAX_GROUP_ORDER:
        return identity
    return tuple(sigma for sigma, _ in partials)


def bnb_search(system: ODESystem, *,
               max_order_cap: int | None = None) -> tuple[QuadratizationResult, SearchStats]:
    """Find a minimal-order monomial quadratization by branch and bound.

    The module docstring gives how a node's children are drawn, which of
    them are skipped before extension (the size test, sibling and
    stabilizer exclusion, the packing rule on the parent, the orbit table)
    and why no skip loses a strictly better incumbent.  Pruning's module
    docstring gives the rules that every visited node other than the root
    takes, unless it is a quadratization, and why: the packing rule with
    the node's banned variables, then the pair-count rule, then at needs 4
    to 6 node_completes, whose prunes count in pruned_by_packing; at need 6
    only where packing came close (TOP_STEP_PACKED).  The root takes none
    of the skips' tests, no orbit key and, as pruning's module docstring
    gives why, no rule.  Skipped children count in no
    statistic but pruned_by_symmetry, which counts the orbit table's
    skips.  One dict of divisor sets serves every packing call of the
    search, the exact steps and the root lower bound.  The rules are sound
    lower bounds, so they change only nodes_visited and the prune counts,
    never the answer.  At need 1 any nonsquare left prunes, so a node the
    rules keep has depth + 1 < bound, and no separate depth cutoff is
    needed.

    The root lower bound is taken first: a max_order_cap below it raises
    NoQuadratizationWithinCap before the greedy descent, and it is
    initial_incumbent's floor, so the swap step runs only while the greedy
    order is above it.  The first bound is one above the order of
    initial_incumbent, or above max_order_cap when that is smaller.  A
    quadratization of the greedy order exists, so without a cap the search
    always finds one itself: incumbent_updates counts the quadratizations it
    visits, at least 1.  A search that finds none without a cap has an
    unsound rule, and raises RuntimeError.  The search returns at the first
    quadratization whose order equals the root lower bound
    (pruning.lower_bound, the largest of the rules' bounds at the root,
    taken once per search).  Any later incumbent would be smaller than that
    bound, so the answer, incumbent_updates and optimal_order are those of
    the search run to its end, and only nodes_visited and the prune counts
    fall.

    Deterministic: identical inputs give identical results and statistics.
    The result's new_vars are in graded-lex order, the order of the
    document's names: new_vars[i] is z(i+1).
    max_order_cap, when set, bounds the answer: the result is still
    optimal, and NoQuadratizationWithinCap is raised when every
    quadratization needs more than max_order_cap new variables; its
    lower_bound is the larger of max_order_cap + 1 and the root lower
    bound.  max_order_cap must be None or a non-negative int (a bool is not
    one); anything else raises ValueError.  The search checks no size of
    its own: ODESystem admits no term with more than MAX_EXPONENT + 1
    divisors (polynomials.too_many_divisors).  The search fills the
    system's memo of derivative supports (lie_derivative_support) and
    empties it when it returns or raises, so a caller that keeps its
    systems keeps none of it.
    """
    if max_order_cap is not None and (type(max_order_cap) is not int or max_order_cap < 0):
        raise ValueError("max_order_cap must be None or a non-negative int, "
                         f"not {max_order_cap!r}")
    try:
        nodes = pruned_packing = pruned_quadratic = pruned_symmetry = updates = 0
        root = SearchState.initial(system)
        divisor_sets = {}  # the packing rule's D(m), for all of its calls
        # No quadratization is smaller, so the first one this size ends the
        # search.  The rules keep the root whenever floor < bound.
        floor = lower_bound(root, divisor_sets)
        if max_order_cap is not None and max_order_cap < floor:
            raise NoQuadratizationWithinCap(max_order_cap, floor)
        order = initial_incumbent(system, floor)[1]
        bound = (order if max_order_cap is None else min(order, max_order_cap)) + 1
        best = None
        group = automorphisms(system)
        # Orbit keys of the visited sets of new variables, kept only when the
        # group is more than the identity: exclusion alone visits no set twice.
        seen = set() if len(group) > 1 else None
        # The sets forbidden on the stack, kept in place as pairs: a pair
        # {a, b} makes b a partner of a and a of b.  A single variable z is the
        # pair {1, z}: 1 is a variable of every state, so the pair test covers
        # it, and the banned variables are the partners of 1.  Each frame lists
        # the pairs it forbade, and they are lifted when it is popped.  So a
        # child's test looks only at the forbidden sets that meet its
        # additions.
        unit = unit_monomial(system.num_vars)
        partners = {unit: set()}

        def forbid(added, settled):
            # A pair already forbidden, by an ancestor's frame or as another
            # image, is left alone: each pair is lifted only by the frame that
            # added it, so no pop lifts a pair that is still forbidden below it.
            a, b = added if len(added) == 2 else (unit, *added)
            if b in partners.setdefault(a, set()):
                return
            partners[a].add(b)
            partners.setdefault(b, set()).add(a)
            settled.append((a, b))

        # Depth-first over a stack of (parent, iterator of its children, the
        # pairs its children forbade, the parent's stabilizer without the
        # identity, the last child that passed the exclusion test); a frame
        # forbids that child's additions and their stabilizer images when it
        # draws its next child below the bound.  A child is extended only when
        # it is visited.  A frame ends at its first child too large to beat the
        # bound: children come fewest additions first and the bound only falls,
        # so every later sibling is too large as well.  A child below the bound
        # is skipped when it contains a forbidden set, when the packing of the
        # parent's nonsquares it leaves uncovered reaches the bound, or when an
        # image of its set was visited.  The root is the one child, (), of a
        # frame over itself; it adds nothing, so it skips those tests, and it
        # takes no rule: it is visited only when floor < bound, where the
        # rules would keep it.
        stack = [(root, iter(((),)), [], (), [])] if floor < bound else []
        while stack:
            parent, children, settled, stabilizer, pending = stack[-1]
            added = next(children, None)
            if added is None or (size := len(parent.new_vars) + len(added)) >= bound:
                stack.pop()
                for a, b in settled:
                    partners[a].remove(b)
                    partners[b].remove(a)
                continue
            if pending:
                # The last child's subtree is done, so it is settled, and so are
                # its images, which forbidden earlier would cut that subtree.
                last = pending.pop()
                forbid(last, settled)
                for sigma in stabilizer:
                    forbid(tuple(image(last, sigma)), settled)
            if added:
                # Only a forbidden set that meets `added` can fit: the parent
                # passed this test, and of the sets forbidden since, only its own
                # frame's are still forbidden, all outside its variables.
                if any(b in added or b in parent.vars_set for a in added for b in partners.get(a, ())):
                    continue  # forbidding it excludes nothing new: it holds a forbidden set
                pending.append(added)
                if packing_count(parent, bound, added, divisor_sets, partners[unit]) >= bound - size:
                    continue
                if seen is not None:
                    key = orbit_key(parent.new_vars + added, group)
                    if key in seen:
                        pruned_symmetry += 1
                        continue
                    seen.add(key)
            state = parent.extended(added)
            nodes += 1
            if state.is_quadratization:
                # size < bound was checked above, and extended adds exactly `added`.
                best, bound = state.new_vars, size
                updates += 1
                if size == floor:
                    break
                continue
            if added:  # the root was checked against floor
                need = bound - size
                packed = packing_count(state, bound, (), divisor_sets, partners[unit])
                if packed >= need:
                    pruned_packing += 1
                    continue
                if prune_by_quadratic_bound(state, bound):
                    pruned_quadratic += 1
                    continue
                if (4 <= need <= EXACT_COUNT + 1
                        and (need <= EXACT_COUNT or packed >= TOP_STEP_PACKED
                             or len(state.nonsquares) < need)
                        and not node_completes(system, state.vars_set, state.new_vars,
                                               state.nonsquares, partners[unit], need - 1,
                                               divisor_sets)):
                    pruned_packing += 1
                    continue
            # The elements that map the set of new variables onto itself;
            # sigma does exactly when its inverse does, so image's convention
            # does not matter here.
            new_vars = set(state.new_vars)
            stabilizer = [sigma for sigma in group[1:] if new_vars.issuperset(image(new_vars, sigma))]
            stack.append((state, iter(generate_children(state)), [], stabilizer, []))

        if best is None:
            if max_order_cap is None:
                raise RuntimeError(f"no quadratization found, though the greedy one has order "
                                   f"{order}: a pruning rule is unsound")
            raise NoQuadratizationWithinCap(max_order_cap, floor)
        stats = SearchStats(nodes, pruned_packing, pruned_quadratic, pruned_symmetry, updates,
                            len(best))
        final = root.extended(best)
        result = QuadratizationResult(new_vars=final.new_vars, order=len(best), optimal=True,
                                      document=final.extract_quadratic_system(stats=stats.as_dict()))
        return result, stats
    finally:
        system._lie_cache.clear()


def laurent_quadratize(system: ODESystem) -> QuadratizationResult:
    """Linear-size quadratization with Laurent-monomial variables.

    For every monomial m of the i-th right-hand side, introduce z = m / x_i
    unless it is 1 or an original variable.  Then x_i' is a sum of terms
    z * x_i, and the derivative of each z is a sum of products of z with
    another such ratio, so the ratios quadratize the system (Carothers et al.,
    EJDE 2005).  The ratios are introduced into the search's own state and
    the result is extracted the same way, which checks that the nonsquare
    set is empty: names follow graded-lex order and every term uses the
    least factor pair.  The order is not certified optimal.  Like
    bnb_search, it empties the system's memo of derivative supports when it
    returns or raises.
    """
    n = system.num_vars
    ratios = {monomial_quotient(mono, variable_monomial(n, i))
              for i, poly in enumerate(system.rhs) for mono, _ in poly}
    try:
        root = SearchState.initial(system)
        state = root.extended(ratios - root.vars_set)
        return QuadratizationResult(new_vars=state.new_vars, order=len(state.new_vars),
                                    optimal=False,
                                    document=state.extract_quadratic_system(optimal=False))
    finally:
        system._lie_cache.clear()


# Each built-in family that takes a size: (its least size, what the size
# is, the source text for size n).
BENCHMARK_FAMILIES = {
    "scalar_power": (1, "an exponent n >= 1", lambda n: f"x' = x^{n}"),
    "cubic_cycle": (2, "a size n > 1", lambda n: "\n".join(
        f"x{i}' = x{i % n + 1}^3" for i in range(1, n + 1))),
    "cubic_bicycle": (2, "a size n > 1", lambda n: "\n".join(
        f"x{i}' = x{(i - 2) % n + 1}^3 + x{i % n + 1}^3" for i in range(1, n + 1))),
}


def benchmark_system(name: str, n: int | None = None) -> ODESystem:
    """Built-in benchmark families, generated as source text and parsed:
    rf, and the families of BENCHMARK_FAMILIES for a size n."""
    if name == "rf":
        if n is not None:
            raise ValueError("rf does not take a size")
        return parse_system(
            "x' = y*(z - 1 + x^2) + a*x\n"
            "y' = x*(3*z + 1 - x^2) + a*y\n"
            "z' = -2*z*(b + x*y)\n"
        )
    if name not in BENCHMARK_FAMILIES:
        raise ValueError(f"unknown benchmark {name!r}")
    least, what, text = BENCHMARK_FAMILIES[name]
    if n is None or n < least:
        raise ValueError(f"{name} needs {what}")
    return parse_system(text(n))
