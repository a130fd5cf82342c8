"""Branching: pick the cheapest nonsquare and split over its factorizations."""

from __future__ import annotations

from .polynomials import Monomial, divisor_count, divisors, grlex_key, monomial_quotient
from .state import SearchState


def select_branch_monomial(state: SearchState) -> Monomial:
    """The nonsquare with the fewest factorizations; graded-lex breaks ties."""
    if not state.nonsquares:
        raise ValueError("no nonsquares to branch on")
    return min(state.nonsquares, key=lambda m: (divisor_count(m), grlex_key(m)))


def generate_children(state: SearchState) -> list[tuple[Monomial, ...]]:
    """One child per factorization of the selected nonsquare m, fewest new
    variables first, then in graded-lex order.

    A factorization is an unordered pair {d, m / d} of divisors of m.  Its
    child is the tuple of the factors not already among the generalized
    variables, in graded-lex order.  Since m is a nonsquare, no pair lies
    inside them, so every child adds one or two variables.  Two
    factorizations never give the same child: a child of two factors is the
    pair itself, and a child of one factor f comes only from the pair
    {f, m / f}.
    """
    m = select_branch_monomial(state)
    vars_set = state.vars_set
    # (sort key, child), one list per number of additions.  Each key is taken
    # once, so sorting the pairs sorts by key alone.
    ones, twos = [], []
    for d in divisors(m):
        rest = monomial_quotient(m, d)
        if d > rest:
            continue
        if d == rest or rest in vars_set:
            ones.append((grlex_key(d), (d,)))
        elif d in vars_set:
            ones.append((grlex_key(rest), (rest,)))
        else:
            kd, kr = grlex_key(d), grlex_key(rest)
            twos.append(((kd, kr), (d, rest)) if kd < kr else ((kr, kd), (rest, d)))
    ones.sort()
    twos.sort()
    return [child for _, child in ones + twos]
