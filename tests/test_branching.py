import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadratize.branching import generate_children, select_branch_monomial
from quadratize.parsing import parse_system
from quadratize.polynomials import divisor_count, divisors, grlex_key, monomial_quotient
from quadratize.state import SearchState

from conftest import factor_pairs, random_polynomial_system


def synthetic_state(system_text, nonsquares):
    """A state with a hand-picked nonsquare set, for selection tests."""
    state = SearchState.initial(parse_system(system_text))
    return SearchState(state.system, state.new_vars, state.vars_set, frozenset(nonsquares))


def definition_children(state):
    """The children as first defined: each pair's factors outside the
    generalized variables as a set, sorted, and the list sorted once by
    number of additions, then graded-lex keys."""
    m = select_branch_monomial(state)
    children = []
    for d in divisors(m):
        rest = monomial_quotient(m, d)
        if d <= rest:
            children.append(tuple(sorted({d, rest} - state.vars_set, key=grlex_key)))
    return sorted(children, key=lambda added: (len(added), tuple(map(grlex_key, added))))


class TestSelection:
    def test_prefers_fewest_factorizations(self):
        state = SearchState.initial(parse_system("x' = x^4 + x^3"))
        assert select_branch_monomial(state) == (3,)  # 4 factor pairs vs 5

    def test_tie_breaks_on_graded_lex(self):
        state = synthetic_state("x1' = x2\nx2' = x1", [(1, 1), (3, 0)])
        assert divisor_count((1, 1)) == divisor_count((3, 0)) == 4
        assert select_branch_monomial(state) == (1, 1)

    def test_singleton(self):
        state = SearchState.initial(parse_system("x' = x^5"))
        assert select_branch_monomial(state) == (5,)

    def test_requires_nonsquares(self):
        state = SearchState.initial(parse_system("x' = x^2"))
        with pytest.raises(ValueError):
            select_branch_monomial(state)


class TestChildren:
    def test_two_term_scalar_root(self):
        state = SearchState.initial(parse_system("x' = x^4 + x^3"))
        # x^3 = 1 * x^3 = x * x^2
        assert generate_children(state) == [((2,),), ((3,),)]

    def test_scalar_power_root(self):
        state = SearchState.initial(parse_system("x' = x^5"))
        # one new variable first, then the pair x^2 * x^3
        assert generate_children(state) == [((4,),), ((5,),), ((2,), (3,))]

    def test_square_factorization_adds_one_variable(self):
        # x^4 = 1 * x^4 = x * x^3 = x^2 * x^2, and the last adds x^2 once
        state = SearchState.initial(parse_system("x' = x^4 + y\ny' = x"))
        assert generate_children(state) == [((2, 0),), ((3, 0),), ((4, 0),)]

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_one_child_per_factorization(self, seed):
        # Every unordered factorization of the selected nonsquare gives the
        # child of its factors outside the generalized variables, never
        # empty, and no two give the same child.
        rng = random.Random(seed)
        state = SearchState.initial(random_polynomial_system(rng))
        while state.nonsquares and len(state.new_vars) <= 3:
            m = select_branch_monomial(state)
            pairs = factor_pairs(m)
            expected = {frozenset({a, b} - state.vars_set) for a, b in pairs}
            children = generate_children(state)
            assert len(children) == len(pairs) == -(-divisor_count(m) // 2)
            assert {frozenset(added) for added in children} == expected
            assert len(expected) == len(pairs)
            assert frozenset() not in expected
            state = state.extended(rng.choice(children))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_the_definition(self, seed):
        # The same list as the definition, at every node of a random
        # descent.
        rng = random.Random(seed)
        state = SearchState.initial(random_polynomial_system(rng))
        while state.nonsquares and len(state.new_vars) <= 4:
            children = generate_children(state)
            assert children == definition_children(state)
            state = state.extended(rng.choice(children))

    def test_every_child_adds_a_variable(self):
        rng = random.Random(11)
        for _ in range(30):
            state = SearchState.initial(random_polynomial_system(rng))
            while state.nonsquares:
                children = generate_children(state)
                selected = select_branch_monomial(state)
                assert 0 < len(children) <= -(-divisor_count(selected) // 2)
                for added in children:
                    assert 1 <= len(added) <= 2
                    assert not set(added) & state.vars_set
                state = state.extended(children[0])
                if len(state.new_vars) > 3:
                    break

    def test_deterministic(self):
        state = SearchState.initial(parse_system("x1' = x2^4\nx2' = x1^2"))
        assert generate_children(state) == generate_children(state)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_children_sorted_by_key(self, seed):
        # Fewest new variables first, then graded-lex, each child in
        # graded-lex order.  This is also sorted by sum of degrees plus n
        # times the length: a factor of m has degree at most deg(m), so
        # every one-variable child comes before every pair.
        state = SearchState.initial(random_polynomial_system(random.Random(seed)))
        if not state.nonsquares:
            return
        n = state.system.num_vars
        children = generate_children(state)
        for added in children:
            assert list(added) == sorted(added, key=grlex_key)
        keys = [(len(added), tuple(map(grlex_key, added))) for added in children]
        assert keys == sorted(set(keys))
        costs = [sum(map(sum, added)) + n * len(added) for added in children]
        assert costs == sorted(costs)
