"""Branching: pick the cheapest nonsquare and split over its covers."""

from __future__ import annotations

from .polynomials import Monomial, divisor_count, grlex_key, new_factor_pairs, partners
from .state import SearchState


def select_branch_monomial(state: SearchState) -> Monomial:
    """The nonsquare with the fewest factorizations; graded-lex breaks ties."""
    if not state.nonsquares:
        raise ValueError("no nonsquares to branch on")
    return min(state.nonsquares, key=lambda m: (divisor_count(m), grlex_key(m)))


def generate_children(state: SearchState) -> list[tuple[Monomial, ...]]:
    """One child per cover of the selected nonsquare m (the covering
    argument at polynomials.partners), fewest new variables first: (z,)
    for each partner z of m, then (p, q) for each new factor pair of m,
    each pair and each of the two lists in graded-lex order.

    This is one child per factorization {d, m / d} of m: the factors of
    the pair that are not generalized variables yet.  Since m is a
    nonsquare, at most one of them is.  A pair with one gives the other, a
    partner of m, and so does {r, r} for a square m = r * r; a pair with
    none gives both, a new factor pair.  So every child adds one or two
    variables, and no two factorizations give the same child: a partner z
    comes only from the pair {z, m / z}.
    """
    m = select_branch_monomial(state)
    ones = sorted(partners(m, state.vars_set, state.new_vars, ()), key=grlex_key)
    twos = sorted(sorted(map(grlex_key, pair)) for pair in new_factor_pairs(m, state.vars_set, ()))
    return [(z,) for z in ones] + [(p, q) for (_, p), (_, q) in twos]
