"""Depth-first branch-and-bound driver, Laurent lifting, and benchmark systems.

The search starts from the guaranteed quadratization given by all monomials
inside the per-variable degree box of the system (minus 1 and the variables
themselves), which supplies the initial incumbent order (an order cap, when
smaller, is the initial bound instead), and explores the subproblem tree
depth first with the three pruning rules: disjoint factor-set packing, pair
counting and the graph capacity bound.  The result is a monomial
quadratization of provably minimal order, plus search statistics.  The order
of the box is counted in closed form; the box itself is built only when it is
the optimum.

Two kinds of children are skipped before they are extended, decided from
the parent alone.  A child with at least as many new variables as the bound
is skipped: neither it nor any superset can beat the incumbent.  A child one
variable short of the bound is skipped when some nonsquare of the parent
has none of its additions as a factor (state.is_product with the additions)
and so stays a nonsquare: the child is not a quadratization, and every
superset of it reaches the bound.  Neither skip changes the answer.

The search also skips repeated and symmetric subproblems.  Once per search
it finds the system's automorphisms: the permutations of the variables that
map every right-hand side onto the right-hand side of the image variable,
with equal coefficients and the parameters fixed.  The key of a set of new
variables is its least image under that group, packed into one int, and a
per-search table holds the key of every visited set.  A child whose key is
already there is skipped before it is extended.  This never changes the
answer: a visited set that is not an ancestor of the child has been fully
explored under a bound at least the current one, ancestors are strictly
smaller, and images of a set have completions of the same sizes, so the
skipped subtree holds no strictly better incumbent.  The two skips above
come first and their sets never enter the table, so it holds visited sets
only and the argument is unchanged; a later image of a skipped set is judged
afresh, like any child.  When the group is larger than MAX_GROUP_ORDER, or
finding it takes more than MAX_AUTOMORPHISM_STEPS steps, the identity alone
is used, which still skips sets reached by a second path.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from operator import itemgetter

from .branching import generate_children
from .parsing import parse_system
from .polynomials import (
    Monomial,
    ODESystem,
    divisor_count,
    divisors,
    grlex_key,
    monomial_quotient,
    unit_monomial,
    variable_monomial,
)
from .pruning import prune_by_c4_bound, prune_by_packing_bound, prune_by_quadratic_bound
from .state import SearchState, is_product


SearchStats = namedtuple("SearchStats", "nodes_visited pruned_by_packing pruned_by_quadratic "
                                        "pruned_by_c4 pruned_by_symmetry incumbent_updates "
                                        "optimal_order")
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


def degree_box_order(system: ODESystem) -> int:
    """Order of the degree-box quadratization, without building the box.

    The box holds prod(D_i + 1) monomials, of which 1 and every variable x_i
    with D_i >= 1 are not introduced.
    """
    degrees = per_variable_degrees(system)
    return divisor_count(degrees) - 1 - sum(1 for d in degrees if d >= 1)


def initial_incumbent(system: ODESystem) -> tuple[tuple[Monomial, ...], int]:
    """Degree-box quadratization, the result when the search finds no smaller one.

    Every monomial with exponents bounded by the per-variable degrees, except
    1 and the variables themselves, is introduced.  Any monomial in any
    resulting derivative has exponents at most twice the box bound, so it
    splits into two box monomials; hence this is always a quadratization.
    """
    n = system.num_vars
    skip = {unit_monomial(n)} | {variable_monomial(n, i) for i in range(n)}
    box = [m for m in divisors(per_variable_degrees(system)) if m not in skip]
    box.sort(key=grlex_key)
    return tuple(box), len(box)


class NoQuadratizationWithinCap(ValueError):
    """Every monomial quadratization of the system needs more than the cap."""

    def __init__(self, cap: int):
        super().__init__(f"no monomial quadratization with at most {cap} new variables")
        self.lower_bound = cap + 1


# The key of a set costs one image per group element, so a larger group is
# replaced by the identity; so is one whose backtracking takes more steps.
MAX_GROUP_ORDER = 64
MAX_AUTOMORPHISM_STEPS = 10_000


def automorphisms(system: ODESystem) -> tuple[tuple[int, ...], ...]:
    """Variable permutations that map the system onto itself, identity first.

    sigma[i] is the image of variable i.  sigma is an automorphism when, for
    every i, renaming each variable j to sigma[j] in the right-hand side of i
    gives the right-hand side of sigma[i] term for term: same monomials, same
    coefficients, same parameter exponents.  Found by backtracking over
    sigma[0], sigma[1], ..., among the variables with the same invariants,
    checking each term as soon as its equation and its variables are all
    assigned.  Returns the identity alone when the group has more than
    MAX_GROUP_ORDER elements or the backtracking spends more than
    MAX_AUTOMORPHISM_STEPS steps, one per candidate looked at and one per
    term checked.
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
        degree = sum(e for _, e in sparse)
        invariants[i].append((0, degree, params, coeff))
        for j, e in sparse:
            invariants[j].append((e, degree, params, coeff, j == i))
        checks[max([i] + [j for j, _ in sparse])].append(term)
    invariants = [tuple(sorted(inv)) for inv in invariants]
    classes = {}
    for v, inv in enumerate(invariants):
        classes.setdefault(inv, []).append(v)
    candidates = [classes[inv] for inv in invariants]

    sigma = [None] * n
    used = [False] * n
    group = []
    steps = 0
    stack = [iter(candidates[0])]
    while stack:
        level = len(stack) - 1
        if sigma[level] is not None:
            used[sigma[level]] = False
            sigma[level] = None
        for t in stack[-1]:
            steps += 1
            if used[t]:
                continue
            steps += len(checks[level])
            if steps > MAX_AUTOMORPHISM_STEPS:
                return identity
            sigma[level] = t
            if all(lookup.get((sigma[i], frozenset((sigma[j], e) for j, e in sparse), params))
                   == coeff for i, sparse, params, coeff in checks[level]):
                used[t] = True
                break
        else:
            sigma[level] = None
            stack.pop()
            continue
        if level + 1 < n:
            stack.append(iter(candidates[level + 1]))
            continue
        # Each term maps to a term of equal coefficient in the image
        # equation, which has as many terms: the equations match.
        group.append(tuple(sigma))
        if len(group) > MAX_GROUP_ORDER:
            return identity
    return tuple(group)


def orbit_key(monomials, group) -> int:
    """The least image of a set of monomials under the group, as one int.

    Equal exactly when the two sets are images of each other under some
    element of the group.  Each image is a sorted list of exponent tuples.
    The least one is packed behind a leading 1 bit, `width` bits per
    exponent, where `width` is the bit length of the largest exponent (the
    same in every image), so the bit length gives the number of monomials.
    Below that come a 0 bit and `width` 1 bits, which give `width` back.  So
    the key is injective for any exponent size.  The group must hold the
    inverse of each element: the images computed here are those under the
    inverses.
    """
    width = max(1, max((max(m) for m in monomials), default=0).bit_length())
    least = min(sorted(map(itemgetter(*sigma), monomials)) for sigma in group)
    packed = 1
    for e in (chain.from_iterable(least) if len(group[0]) > 1 else least):
        packed = packed << width | e
    return (packed << (width + 1)) | ((1 << width) - 1)


def bnb_search(system: ODESystem, *,
               max_order_cap: int | None = None) -> tuple[QuadratizationResult, SearchStats]:
    """Find a minimal-order monomial quadratization by branch and bound.

    Before a child is extended, with size its number of new variables, it
    is skipped when size >= bound, or when size + 1 == bound and a nonsquare
    of the parent is not a product with one of the child's additions as a
    factor (is_product), so it stays a nonsquare.  In the first case every
    completion has at least `bound` variables; in the second the child is
    not a quadratization and each proper superset has at least `bound`.
    So neither skip loses a strictly better incumbent.  Skipped children
    are counted in no statistic and never enter the orbit table, which so
    holds visited sets only, as the module docstring's argument needs.

    Every visited node that is not a quadratization goes through the
    packing rule, then the pair-count rule, then the graph rule.  The
    packing rule finds nonsquares whose sets of factors outside the current
    variables are pairwise disjoint; any completion needs a new variable in
    each such set, so k of them need k more variables.  All three are sound
    lower bounds, so they change only the number of nodes visited, never
    the answer.  Such a node has a nonsquare to cover, so each rule's bound
    is at least its depth + 1: a node the rules keep has depth + 1 < bound,
    and no separate depth cutoff is needed.

    Deterministic: identical inputs give identical results and statistics.
    max_order_cap, when set, is the search's initial bound: the result is
    still optimal, and NoQuadratizationWithinCap is raised when every
    quadratization needs more than max_order_cap new variables.
    """
    nodes = pruned_packing = pruned_quadratic = pruned_c4 = pruned_symmetry = updates = 0
    box = degree_box_order(system)
    bound = box if max_order_cap is None else min(box, max_order_cap + 1)
    best = None
    root = SearchState.initial(system)
    group = automorphisms(system)
    seen = set()  # orbit keys of the visited sets of new variables
    # Depth-first over a stack of (parent, iterator of its children); a child
    # is extended only when it is visited.  It is skipped before that when it
    # is too large to beat the bound, or one short of it with a nonsquare of
    # the parent left uncovered, or when an image of its set was visited.
    stack = [(root, iter(((),)))]
    while stack:
        parent, children = stack[-1]
        added = next(children, None)
        if added is None:
            stack.pop()
            continue
        size = len(parent.new_vars) + len(added)
        if size >= bound:
            continue
        if size + 1 == bound:
            vars_set = parent.vars_set.union(added)
            if not all(is_product(m, vars_set, added) for m in parent.nonsquares):
                continue
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
            continue
        if prune_by_packing_bound(state, bound):
            pruned_packing += 1
            continue
        if prune_by_quadratic_bound(state, bound):
            pruned_quadratic += 1
            continue
        if prune_by_c4_bound(state, bound):
            pruned_c4 += 1
            continue
        stack.append((state, iter(generate_children(state))))

    if best is None:
        if max_order_cap is not None and max_order_cap < box:
            raise NoQuadratizationWithinCap(max_order_cap)
        best = initial_incumbent(system)[0]
    stats = SearchStats(nodes, pruned_packing, pruned_quadratic, pruned_c4, pruned_symmetry,
                        updates, len(best))
    document = root.extended(best).extract_quadratic_system(stats=stats.as_dict())
    result = QuadratizationResult(new_vars=best, order=len(best), optimal=True,
                                  document=document)
    return result, stats


def laurent_quadratize(system: ODESystem) -> QuadratizationResult:
    """Linear-size quadratization with Laurent-monomial variables.

    For every monomial m of the i-th right-hand side, introduce z = m / x_i
    unless it is 1 or an original variable.  Then x_i' is a sum of terms
    z * x_i, and the derivative of each z is a sum of products of z with
    another such ratio, so the ratios quadratize the system (Carothers et al.,
    EJDE 2005).  The ratios are introduced into the search's own state and
    the result is extracted the same way, which checks that the nonsquare
    set is empty: names follow graded-lex order and every term uses the
    least factor pair.  The order is not certified optimal.
    """
    n = system.num_vars
    ratios = {monomial_quotient(mono, variable_monomial(n, i))
              for i, poly in enumerate(system.rhs) for mono, _ in poly}
    root = SearchState.initial(system)
    state = root.extended(ratios - root.vars_set)
    return QuadratizationResult(new_vars=state.new_vars, order=len(state.new_vars),
                                optimal=False,
                                document=state.extract_quadratic_system(optimal=False))


def benchmark_system(name: str, n: int | None = None) -> ODESystem:
    """Built-in benchmark families, generated as source text and parsed."""
    if name == "scalar_power":
        if n is None or n < 1:
            raise ValueError("scalar_power needs an exponent n >= 1")
        return parse_system(f"x' = x^{n}" if n > 1 else "x' = x")
    if name == "cubic_cycle":
        if n is None or n < 2:
            raise ValueError("cubic_cycle needs a size n > 1")
        lines = [f"x{i}' = x{i % n + 1}^3" for i in range(1, n + 1)]
        return parse_system("\n".join(lines))
    if name == "cubic_bicycle":
        if n is None or n < 2:
            raise ValueError("cubic_bicycle needs a size n > 1")
        lines = []
        for i in range(1, n + 1):
            left = (i - 2) % n + 1
            right = i % n + 1
            lines.append(f"x{i}' = x{left}^3 + x{right}^3")
        return parse_system("\n".join(lines))
    if name == "rf":
        if n is not None:
            raise ValueError("rf does not take a size")
        return parse_system(
            "x' = y*(z - 1 + x^2) + a*x\n"
            "y' = x*(3*z + 1 - x^2) + a*y\n"
            "z' = -2*z*(b + x*y)\n"
        )
    raise ValueError(f"unknown benchmark {name!r}")
