import random
from itertools import combinations, combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadratize.pruning
import quadratize.solver
from quadratize.bruteforce import box_candidates, is_quadratization
from quadratize.parsing import parse_system
from quadratize.polynomials import monomial_mul
from quadratize.pruning import (
    C4_CAPACITY_TABLE,
    build_squarefree_subset,
    c4_capacity,
    prune_by_c4_bound,
    prune_by_packing_bound,
    prune_by_quadratic_bound,
    quotient_multiplicities,
    smallest_k,
)
from quadratize.solver import benchmark_system, bnb_search
from quadratize.state import SearchState, is_product

from conftest import definition_factor_set, rules, wide_box


class TestQuotientMultiplicities:
    def test_two_targets(self):
        # quotients: x^3/1, x^3/x, x^4/1, x^4/x -> {x^3: 2, x^2: 1, x^4: 1}
        assert quotient_multiplicities([(3,), (4,)], [(0,), (1,)]) == [2, 1, 1]

    def test_empty_targets(self):
        assert quotient_multiplicities([], [(0,), (1,)]) == []

    def test_target_inside_vars(self):
        assert quotient_multiplicities([(2,)], [(0,), (1,), (2,)]) == [1, 1, 1]


def pair_capacity(k):
    return k * (k + 1) // 2


class TestSmallestK:
    def test_quadratic_example(self):
        assert smallest_k(2, [2, 1, 1], pair_capacity) == 1

    def test_zero_count(self):
        assert smallest_k(0, [], pair_capacity) == 0
        assert smallest_k(0, [], lambda k: c4_capacity(k, 0)) == 0

    @given(st.lists(st.integers(1, 5), max_size=6), st.integers(0, 40),
           st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_minimality(self, mult, count, loops):
        mult = sorted(mult, reverse=True)

        def q_bound(k):
            return sum(mult[:k]) + pair_capacity(k)

        def c_bound(k):
            return sum(mult[:k]) + c4_capacity(k, loops)

        k = smallest_k(count, mult, pair_capacity)
        assert count <= q_bound(k)
        if k:
            assert count > q_bound(k - 1)

        k = smallest_k(count, mult, lambda k: c4_capacity(k, loops))
        assert count <= c_bound(k)
        if k:
            assert count > c_bound(k - 1)


class TestSquarefreeSubset:
    def test_examples(self):
        assert build_squarefree_subset([(3,), (4,)]) == ((4,), (3,))
        assert build_squarefree_subset([(1,), (2,), (3,)]) == ((3,), (2,))
        assert build_squarefree_subset([]) == ()

    @given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_products_distinct_and_greedy(self, monomials):
        subset = build_squarefree_subset(monomials)
        assert set(subset) <= set(monomials)
        products = [monomial_mul(a, b)
                    for a, b in combinations_with_replacement(subset, 2)]
        assert len(products) == len(set(products))
        # greedy: every rejected monomial conflicts with the kept prefix
        for m in monomials:
            if m in subset:
                continue
            extended = [monomial_mul(m, e) for e in subset] + [monomial_mul(m, m)]
            assert len(set(products) | set(extended)) < len(products) + len(extended)


class TestCapacity:
    def test_table_entries(self):
        assert c4_capacity(3, 2) == 4
        assert c4_capacity(7, 7) == 12
        assert c4_capacity(0, 0) == 0
        assert c4_capacity(1, 0) == 0

    def test_loop_count_clamps(self):
        for n in range(1, 8):
            for extra in range(1, 4):
                assert c4_capacity(n, n + extra) == c4_capacity(n, n)
        assert c4_capacity(9, 20) == c4_capacity(9, 9)

    def test_fallback_above_table(self):
        # floor(8/2 * (1 + sqrt(29))) = 25
        assert c4_capacity(8, 0) == 25
        assert c4_capacity(8, 3) == 28

    def test_fallback_dominates_table_row(self):
        # the analytic bound must stay an upper bound where we know exact values
        for n, row in C4_CAPACITY_TABLE.items():
            analytic = (n + pow(n * n * (4 * n - 3), 0.5)) / 2
            for m, exact in enumerate(row):
                assert exact <= analytic + m

    def test_nondecreasing_in_vertices(self):
        for m in range(0, 4):
            values = [c4_capacity(n, m) for n in range(0, 12)]
            assert values == sorted(values)


class TestPruneRules:
    def test_two_term_scalar_root_not_pruned(self):
        state = SearchState.initial(parse_system("x' = x^4 + x^3"))
        assert not prune_by_packing_bound(state, 3)
        assert not prune_by_quadratic_bound(state, 3)
        assert not prune_by_c4_bound(state, 3)

    def test_boundary_prunes(self):
        state = SearchState.initial(parse_system("x' = x^4 + x^3"))
        # every rule finds k = 1 here, so any incumbent order <= 1 prunes
        assert prune_by_packing_bound(state, 1)
        assert not prune_by_packing_bound(state, 2)
        assert prune_by_quadratic_bound(state, 1)
        assert prune_by_c4_bound(state, 1)

    def test_empty_nonsquares(self):
        state = SearchState.initial(parse_system("x' = x^2"))
        for rule in (prune_by_packing_bound, prune_by_quadratic_bound, prune_by_c4_bound):
            assert rule(state, 0)
            assert not rule(state, 1)

    def test_c4_rule_can_dominate(self):
        # four cubes: pair products cover at most C(k, 0) < k(k+1)/2 of them
        state = SearchState.initial(benchmark_system("cubic_cycle", 4))
        assert prune_by_c4_bound(state, 3)
        assert not prune_by_quadratic_bound(state, 3)

    def test_monotone_in_incumbent_order(self):
        rng = random.Random(5)
        from conftest import random_polynomial_system

        checked = 0
        while checked < 25:
            state = SearchState.initial(random_polynomial_system(rng))
            if not state.nonsquares:
                continue
            checked += 1
            for rule in (prune_by_packing_bound, prune_by_quadratic_bound, prune_by_c4_bound):
                fired = [n for n in range(0, 8) if rule(state, n)]
                # if it fires for N it fires for every smaller N
                assert fired == list(range(0, len(fired)))


def packing_root_bound(system):
    """The largest N at which the packing rule prunes the root."""
    root = SearchState.initial(system)
    return max(n for n in range(len(root.nonsquares) + 1) if prune_by_packing_bound(root, n))


MONOMIALS = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3))


class TestPackingBound:
    @given(st.sets(MONOMIALS, min_size=2, max_size=4), st.sets(MONOMIALS, max_size=12),
           st.sets(MONOMIALS, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_uncovered_factors_are_the_new_factors_of_decompositions(self, nonsquares,
                                                                     vars_set, added):
        # At need 2, the rule packs one set for each nonsquare the additions
        # leave uncovered, when there are two or more: C(m) over the state's
        # variables and the additions, as the definition gives it.
        vars_set = frozenset(vars_set | {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)})
        nonsquares = {m for m in nonsquares if not is_product(m, vars_set, vars_set)}
        state = SearchState(None, (), vars_set, frozenset(nonsquares))
        added = tuple(sorted(added - vars_set))
        after = state.vars_set.union(added)
        left = {m for m in state.nonsquares if not is_product(m, after, added)}
        packed = []

        def recording(sets, need):
            packed.extend(sets)
            return real_packs(sets, need)

        real_packs = quadratize.pruning.packs
        with mock.patch.object(quadratize.pruning, "packs", recording):
            prune_by_packing_bound(state, len(added) + 2, added)
        assert sorted(m for _, m in packed) == (sorted(left) if len(left) >= 2 else [])
        for cover, m in packed:
            assert cover == definition_factor_set(m, after), m

    @pytest.mark.parametrize("name,n,bound", [
        ("cubic_cycle", 6, 6),
        ("cubic_bicycle", 6, 6),
        ("rf", None, 2),
    ])
    def test_root_bounds(self, name, n, bound):
        assert packing_root_bound(benchmark_system(name, n)) == bound

    def test_packing_rule_can_dominate(self):
        # six cubes x_i^3 with disjoint factor sets {x_i^2, x_i^3}; the
        # other two rules stop at 3
        state = SearchState.initial(benchmark_system("cubic_cycle", 6))
        assert prune_by_packing_bound(state, 6)
        assert not prune_by_quadratic_bound(state, 4)
        assert not prune_by_c4_bound(state, 4)

    def test_banned_variables_leave_the_sets(self):
        # x^4 and x^5 have the overlapping sets {x^2, x^3, x^4} and
        # {x^2, .., x^5}, which pack 1, short of 2.  Banning x^2 and x^3
        # leaves {x^4} and {x^4, x^5}, which still overlap; banning x^4 too
        # empties the first, and no completion that avoids all three exists.
        state = SearchState.initial(parse_system("x' = x^4 + x^5"))
        assert sorted(state.nonsquares) == [(4,), (5,)]
        assert not prune_by_packing_bound(state, 2)
        assert not prune_by_packing_bound(state, 2, (), {}, {(2,), (3,)})
        assert prune_by_packing_bound(state, 2, (), {}, {(2,), (3,), (4,)})


class TestPrunedNodesAreSound:
    @pytest.mark.parametrize("rule,config,count", [
        ("prune_by_packing_bound", "packing", 939),
        ("prune_by_packing_bound", "all", 673),
        ("prune_by_quadratic_bound", "quadratic", 911),
        ("prune_by_c4_bound", "c4", 871),
    ])
    def test_no_smaller_completion_in_the_wide_box(self, soundness_corpus, rule, config, count):
        # Every node a rule prunes at bound N, with the other rules off (or,
        # under "all", in the search as it runs): the brute-force checker
        # finds no quadratization among the supersets of its variables, drawn
        # from the wide-box candidates, with fewer than N variables.  The
        # packing rule also prunes children before they are extended, given
        # the parent and the child's additions; those count as nodes too.
        pruned = []
        original = getattr(quadratize.solver, rule)

        def recording(state, bound, *args):
            if original(state, bound, *args):
                added = args[0] if args else ()
                pruned.append((state.new_vars + added, bound))
                return True
            return False

        checked = 0
        for system in soundness_corpus:
            pruned.clear()
            with rules(config):
                setattr(quadratize.solver, rule, recording)
                bnb_search(system)
            pool = box_candidates(system, wide_box(system))
            for new_vars, bound in pruned:
                free = [m for m in pool if m not in new_vars]
                for size in range(bound - len(new_vars)):
                    for extra in combinations(free, size):
                        assert not is_quadratization(system, new_vars + extra), (
                            f"{rule} pruned {new_vars} at bound {bound}, "
                            f"but adding {extra} quadratizes")
                checked += 1
        assert checked == count
