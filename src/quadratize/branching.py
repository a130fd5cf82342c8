"""Branching: pick the cheapest nonsquare and split over its factorizations."""

from __future__ import annotations

from .polynomials import Monomial, decompositions, divisor_count, grlex_key
from .state import SearchState


def select_branch_monomial(state: SearchState) -> Monomial:
    """The nonsquare with the fewest factorizations; graded-lex breaks ties."""
    if not state.nonsquares:
        raise ValueError("no nonsquares to branch on")
    return min(state.nonsquares, key=lambda m: (divisor_count(m), grlex_key(m)))


def generate_children(state: SearchState) -> list[tuple[Monomial, ...]]:
    """One child per factorization of the selected nonsquare, cheapest first.

    A child is the tuple of factors not already among the generalized
    variables (always at least one), in graded-lex order; coinciding children
    are merged.  Children are sorted by their sum of degrees plus n times
    their length, then by their monomials in graded-lex order.
    """
    m = select_branch_monomial(state)
    n = state.system.num_vars
    children = set()
    for m1, m2 in decompositions(m):
        added = tuple(sorted({f for f in (m1, m2) if f not in state.vars_set},
                             key=grlex_key))
        if added:
            children.add(added)
    return sorted(children, key=lambda added: (sum(map(sum, added)) + n * len(added),
                                               tuple(map(grlex_key, added))))
