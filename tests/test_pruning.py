import random
from itertools import combinations, combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadratize.pruning
import quadratize.solver
from quadratize.bruteforce import box_candidates, is_quadratization, quadratization_violations
from quadratize.parsing import parse_system
from quadratize.polynomials import divisors, monomial_mul, unit_monomial, variable_monomial
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

from conftest import (
    benchmark_workloads,
    definition_factor_set,
    rules,
    wide_box,
)


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
        system = parse_system("x' = x^4 + x^3")
        state = SearchState.initial(system)
        # Every rule finds k = 1 here, so any incumbent order <= 1 prunes.
        assert prune_by_packing_bound(state, 1)
        assert prune_by_quadratic_bound(state, 1)
        assert prune_by_c4_bound(state, 1)
        # No single variable quadratizes the system, and at incumbent order
        # 2 the packing rule decides exactly that; the other two rules
        # still find k = 1.
        pool = box_candidates(system, wide_box(system))
        assert not any(is_quadratization(system, (z,)) for z in pool)
        assert prune_by_packing_bound(state, 2)
        assert not prune_by_quadratic_bound(state, 2)
        assert not prune_by_c4_bound(state, 2)

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
    @given(st.sets(MONOMIALS, min_size=4, max_size=6), st.sets(MONOMIALS, max_size=12),
           st.sets(MONOMIALS, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_uncovered_factors_are_the_new_factors_of_decompositions(self, nonsquares,
                                                                     vars_set, added):
        # At need 4, the rule packs one set for each nonsquare the additions
        # leave uncovered, when there are four or more: C(m) over the
        # state's variables and the additions, as the definition gives it.
        # Below need 4 it takes derivatives, which a state without a
        # system has none of.
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
            prune_by_packing_bound(state, len(added) + 4, added)
        assert sorted(m for _, m in packed) == (sorted(left) if len(left) >= 4 else [])
        for cover, m in packed:
            assert cover == definition_factor_set(m, after), m

    @pytest.mark.parametrize("name,n,bound", [
        ("cubic_cycle", 6, 6),
        ("cubic_bicycle", 6, 6),
        # No two variables complete rf's root, so the bound is its optimum.
        ("rf", None, 3),
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
        # At need 2: z = x^4 alone quadratizes x' = x^5, and no other single
        # variable does, so banning x^4 prunes the root at incumbent order
        # 2 and banning x^5 does not.
        state = SearchState.initial(parse_system("x' = x^5"))
        assert not prune_by_packing_bound(state, 2)
        assert not prune_by_packing_bound(state, 2, (), {}, {(5,)})
        assert prune_by_packing_bound(state, 2, (), {}, {(4,)})
        # At need 3: x*y and z^2 quadratize x' = x^2*y, y' = x*y^2,
        # z' = z^3.  z^3 needs z^2 or z^3, and neither covers x^2*y, whose
        # other partners, x^2 and x^2*y, cover no x*y^2, so banning x*y
        # prunes; so does banning z^2 and z^3, which leaves z^3 uncovered.
        state = SearchState.initial(parse_system("x' = x^2*y\ny' = x*y^2\nz' = z^3"))
        assert sorted(state.nonsquares) == [(0, 0, 3), (1, 2, 0), (2, 1, 0)]
        assert not prune_by_packing_bound(state, 3)
        assert prune_by_packing_bound(state, 3, (), {}, {(1, 1, 0)})
        assert prune_by_packing_bound(state, 3, (), {}, {(0, 0, 2), (0, 0, 3)})
        # At need 4, with w' = w^3 too: x^2*y and x*y^2 have the sets
        # {x*y, x^2, x^2*y} and {x*y, y^2, x*y^2}, which meet in x*y, and
        # z^3 and w^3 have {z^2, z^3} and {w^2, w^3}, so they pack 3, short
        # of 4.  Banning x*y makes all four disjoint; banning w^2 and w^3
        # empties the last set, and no completion that avoids them exists.
        state = SearchState.initial(parse_system("x' = x^2*y\ny' = x*y^2\nz' = z^3\nw' = w^3"))
        assert len(state.nonsquares) == 4
        assert not prune_by_packing_bound(state, 4)
        assert prune_by_packing_bound(state, 4, (), {}, {(1, 1, 0, 0)})
        assert prune_by_packing_bound(state, 4, (), {}, {(0, 0, 0, 2), (0, 0, 0, 3)})


class TestPrunedNodesAreSound:
    @pytest.mark.parametrize("rule,config,count", [
        ("prune_by_packing_bound", "packing", 625),
        ("prune_by_packing_bound", "all", 625),
        ("prune_by_quadratic_bound", "quadratic", 2404),
        ("prune_by_c4_bound", "none", 2035),
    ])
    def test_no_smaller_completion_in_the_wide_box(self, soundness_corpus, later_corpus,
                                                   rule, config, count):
        # Every node a rule prunes at bound N, with the other rules off (or,
        # under "all", in the search as it runs): the brute-force checker
        # finds no quadratization among the supersets of its variables, drawn
        # from the wide-box candidates, with fewer than N variables.  The
        # packing rule also prunes children before they are extended, given
        # the parent and the child's additions; those count as nodes too.
        # The search takes the graph capacity bound at the root only, so it
        # is checked in the pair-count rule's place, on the states the
        # search hands to that rule, with both rules off.
        pruned = []
        original = getattr(quadratize.pruning, rule)
        slot = "prune_by_quadratic_bound" if rule == "prune_by_c4_bound" else rule

        def recording(state, bound, *args):
            if original(state, bound, *args):
                added = args[0] if args else ()
                pruned.append((state.new_vars + added, bound))
                return True
            return False

        checked = 0
        for system in soundness_corpus + later_corpus:
            pruned.clear()
            with rules(config):
                setattr(quadratize.solver, slot, recording)
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


@pytest.fixture(scope="module")
def packing_calls(soundness_corpus, later_corpus):
    """Every call of the packing rule at need 2 or 3, as (need, system,
    new_vars, added, banned, nonsquares of the state, pruned), and (need,
    pruned) for every call of the pair-count rule and for the graph
    capacity bound, which the search takes at the root only, on the state
    of each such call that the pair-count rule keeps, over corpus
    seeds 11 and 12 of the benchmark, cubic_cycle(4..6), the soundness
    corpus and the later corpus."""
    calls = []
    other_calls = []
    real_packing = quadratize.solver.prune_by_packing_bound

    def recording_packing(state, bound, added, divisor_sets, banned):
        pruned = real_packing(state, bound, added, divisor_sets, banned)
        need = bound - len(state.new_vars) - len(added)
        if need in (2, 3):
            calls.append((need, state.system, state.new_vars, added, frozenset(banned),
                          len(state.nonsquares), pruned))
        return pruned

    def recording_quadratic(state, bound):
        need = bound - len(state.new_vars)
        pruned = prune_by_quadratic_bound(state, bound)
        other_calls.append((need, pruned))
        if not pruned:
            other_calls.append((need, prune_by_c4_bound(state, bound)))
        return pruned

    systems = ([parse_system(instance.text)
                for seed in (11, 12) for instance in benchmark_workloads().corpus(seed)]
               + [benchmark_system("cubic_cycle", n) for n in (4, 5, 6)]
               + soundness_corpus + later_corpus)
    with mock.patch.multiple(quadratize.solver, prune_by_packing_bound=recording_packing,
                             prune_by_quadratic_bound=recording_quadratic):
        for system in systems:
            bnb_search(system)
    return calls, other_calls


class TestNeedTwoIsExact:
    # With one more variable allowed below the bound (need 2), a completion
    # adds exactly one variable z, and the packing rule decides whether one
    # exists.  Checked by brute force over every divisor z of every
    # monomial the variables leave uncovered, outside them and not banned:
    # a z that completes divides every such monomial, so none is missed.

    @pytest.fixture(scope="class")
    def need_two(self, packing_calls):
        """The need-2 calls of packing_calls, as (system, new_vars, added,
        banned, pruned), and the other bounds' results."""
        calls, other_calls = packing_calls
        return ([(system, new_vars, added, banned, pruned)
                 for need, system, new_vars, added, banned, _, pruned in calls if need == 2],
                other_calls)

    @staticmethod
    def one_variable_candidates(system, new_vars, banned):
        """The monomials of the derivatives that new_vars leaves uncovered
        (quadratization_violations), and their divisors outside the
        generalized variables and not banned."""
        n = system.num_vars
        variables = {unit_monomial(n)} | {variable_monomial(n, i) for i in range(n)} | set(new_vars)
        uncovered = {m for _, m in quadratization_violations(system, new_vars)}
        return uncovered, {z for m in uncovered for z in divisors(m)} - variables - banned

    def test_pruned_calls_have_no_one_variable_completion(self, need_two):
        calls, _ = need_two
        checked = 0
        for system, new_vars, added, banned, pruned in calls:
            if not pruned:
                continue
            uncovered, candidates = self.one_variable_candidates(system, new_vars + added, banned)
            assert uncovered, (new_vars, added)
            for z in candidates:
                assert not is_quadratization(system, new_vars + added + (z,)), (
                    f"pruned {new_vars + added} at need 2, but adding {z} quadratizes")
            checked += 1
        assert checked == 665

    def test_kept_visited_nodes_have_one(self, need_two):
        # A call with no additions is for a visited node.
        calls, _ = need_two
        checked = 0
        for system, new_vars, added, banned, pruned in calls:
            if pruned or added:
                continue
            _, candidates = self.one_variable_candidates(system, new_vars, banned)
            assert any(is_quadratization(system, new_vars + (z,)) for z in candidates), (
                f"kept {new_vars} at need 2, but no one variable completes it")
            checked += 1
        assert checked == 390

    def test_other_rules_prune_no_node_at_need_two(self, need_two):
        # A visited node reaches them only when the packing rule keeps it,
        # and at need 2 it then has a completion below the bound.
        _, other_calls = need_two
        assert sum(need == 2 for need, _ in other_calls) == 780
        assert not any(pruned for need, pruned in other_calls if need == 2)


def completes_within(system, new_vars, banned, more):
    """Whether at most `more` monomials, outside the generalized variables
    and not banned, complete new_vars to a quadratization, by brute force
    with the checker (quadratization_violations).

    A completion covers each monomial the checker reports as a product with
    one of its members as a factor, so some member divides the first; and
    with one member left to add, that member divides every one.
    """
    uncovered = sorted({m for _, m in quadratization_violations(system, new_vars)})
    if not uncovered:
        return True
    if not more:
        return False
    n = system.num_vars
    variables = {unit_monomial(n)} | {variable_monomial(n, i) for i in range(n)} | set(new_vars)
    candidates = set(divisors(uncovered[0]))
    if more == 1:
        for m in uncovered[1:]:
            candidates.intersection_update(divisors(m))
    return any(completes_within(system, new_vars + (z,), banned, more - 1)
               for z in sorted(candidates - variables - banned))


class TestNeedThreeIsExact:
    # With two more variables allowed below the bound (need 3), the packing
    # rule decides whether at most two complete the node; checked by brute
    # force (completes_within).  Before a child is extended the rule sees
    # only the parent's nonsquares that the additions leave uncovered, so a
    # kept call is checked only at a visited node; and with one nonsquare
    # it does not look for two new factors of it, so a kept call is checked
    # only with two or more.

    @pytest.fixture(scope="class")
    def need_three(self, packing_calls):
        calls, other_calls = packing_calls
        return ([call[1:] for call in calls if call[0] == 3],
                [pruned for need, pruned in other_calls if need == 3])

    def test_pruned_calls_have_no_two_variable_completion(self, need_three):
        calls, _ = need_three
        checked = 0
        for system, new_vars, added, banned, _, pruned in calls:
            if pruned:
                assert not completes_within(system, new_vars + added, banned, 2), (
                    f"pruned {new_vars + added} at need 3, but two variables complete it")
                checked += 1
        assert checked == 1373

    def test_kept_visited_nodes_with_two_nonsquares_have_one(self, need_three):
        calls, _ = need_three
        checked = 0
        for system, new_vars, added, banned, nonsquares, pruned in calls:
            if not (pruned or added) and nonsquares >= 2:
                assert completes_within(system, new_vars, banned, 2), (
                    f"kept {new_vars} at need 3, but no two variables complete it")
                checked += 1
        assert checked == 215

    def test_other_rules_prune_no_node_at_need_three(self, need_three):
        # A visited node reaches them only when the packing rule keeps it:
        # with two nonsquares or more it then has a completion below the
        # bound, and with one each of them bounds it by one variable.
        _, other_calls = need_three
        assert len(other_calls) == 496
        assert not any(other_calls)
