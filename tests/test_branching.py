import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadratize.branching import generate_children, select_branch_monomial
from quadratize.parsing import parse_system
from quadratize.polynomials import divisor_count
from quadratize.state import SearchState

from conftest import random_polynomial_system


def synthetic_state(system_text, nonsquares):
    """A state with a hand-picked nonsquare set, for selection tests."""
    state = SearchState.initial(parse_system(system_text))
    return SearchState(state.system, state.new_vars, state.vars_set, frozenset(nonsquares))


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
        # keys 2 + 1 and 3 + 1: degree sum plus n times the length
        assert generate_children(state) == [((2,),), ((3,),)]

    def test_scalar_power_root(self):
        state = SearchState.initial(parse_system("x' = x^5"))
        # keys 4 + 1, 5 + 1 and 5 + 2
        assert generate_children(state) == [((4,),), ((5,),), ((2,), (3,))]

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
        state = SearchState.initial(random_polynomial_system(random.Random(seed)))
        if not state.nonsquares:
            return
        n = state.system.num_vars
        keys = [sum(map(sum, added)) + n * len(added) for added in generate_children(state)]
        assert keys == sorted(keys)
