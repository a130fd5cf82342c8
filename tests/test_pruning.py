import random
from contextlib import suppress
from itertools import combinations, combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadratize.polynomials
import quadratize.pruning
import quadratize.solver
from quadratize.bruteforce import (
    box_candidates,
    brute_force_optimal,
    is_quadratization,
    quadratization_violations,
)
from quadratize.output import render_result
from quadratize.parsing import parse_system
from quadratize.polynomials import (
    divisor_count,
    divisors,
    monomial_mul,
    partners,
    unit_monomial,
    variable_monomial,
)
from quadratize.pruning import (
    C4_CAPACITY_TABLE,
    EXACT_COUNT,
    MAX_WALKED_DIVISORS,
    build_squarefree_subset,
    c4_capacity,
    lower_bound,
    prune_by_c4_bound,
    prune_by_quadratic_bound,
    quotient_multiplicities,
    smallest_k,
)
from quadratize.solver import NoQuadratizationWithinCap, benchmark_system, bnb_search
from quadratize.state import SearchState, is_product

from conftest import (
    benchmark_workloads,
    closed_systems,
    definition_factor_set,
    packing_prunes,
    rules,
    wide_box,
    without_the_count_five_step,
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
        assert not packing_prunes(state, 3)
        assert not prune_by_quadratic_bound(state, 3)
        assert not prune_by_c4_bound(state, 3)

    def test_boundary_prunes(self):
        system = parse_system("x' = x^4 + x^3")
        state = SearchState.initial(system)
        # Every rule finds k = 1 here, so any incumbent order <= 1 prunes.
        assert packing_prunes(state, 1)
        assert prune_by_quadratic_bound(state, 1)
        assert prune_by_c4_bound(state, 1)
        # No single variable quadratizes the system, and at incumbent order
        # 2 the packing rule decides exactly that; the other two rules
        # still find k = 1.
        pool = box_candidates(system, wide_box(system))
        assert not any(is_quadratization(system, (z,)) for z in pool)
        assert packing_prunes(state, 2)
        assert not prune_by_quadratic_bound(state, 2)
        assert not prune_by_c4_bound(state, 2)

    def test_empty_nonsquares(self):
        state = SearchState.initial(parse_system("x' = x^2"))
        for rule in (packing_prunes, prune_by_quadratic_bound, prune_by_c4_bound):
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
            for rule in (packing_prunes, prune_by_quadratic_bound, prune_by_c4_bound):
                fired = [n for n in range(0, 8) if rule(state, n)]
                # if it fires for N it fires for every smaller N
                assert fired == list(range(0, len(fired)))


def packing_root_bound(system):
    """The largest N at which the packing rule prunes the root."""
    root = SearchState.initial(system)
    return max(n for n in range(len(root.nonsquares) + 1) if packing_prunes(root, n))


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
            packing_prunes(state, len(added) + 4, added)
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
        assert packing_prunes(state, 6)
        assert not prune_by_quadratic_bound(state, 4)
        assert not prune_by_c4_bound(state, 4)

    def test_banned_variables_leave_the_sets(self):
        # At need 2: z = x^4 alone quadratizes x' = x^5, and no other single
        # variable does, so banning x^4 prunes the root at incumbent order
        # 2 and banning x^5 does not.
        state = SearchState.initial(parse_system("x' = x^5"))
        assert not packing_prunes(state, 2)
        assert not packing_prunes(state, 2, banned={(5,)})
        assert packing_prunes(state, 2, banned={(4,)})
        # At need 3: x*y and z^2 quadratize x' = x^2*y, y' = x*y^2,
        # z' = z^3.  z^3 needs z^2 or z^3, and neither covers x^2*y, whose
        # other partners, x^2 and x^2*y, cover no x*y^2, so banning x*y
        # prunes; so does banning z^2 and z^3, which leaves z^3 uncovered.
        state = SearchState.initial(parse_system("x' = x^2*y\ny' = x*y^2\nz' = z^3"))
        assert sorted(state.nonsquares) == [(0, 0, 3), (1, 2, 0), (2, 1, 0)]
        assert not packing_prunes(state, 3)
        assert packing_prunes(state, 3, banned={(1, 1, 0)})
        assert packing_prunes(state, 3, banned={(0, 0, 2), (0, 0, 3)})
        # At need 4, with w' = w^3 too: x^2*y and x*y^2 have the sets
        # {x*y, x^2, x^2*y} and {x*y, y^2, x*y^2}, which meet in x*y, and
        # z^3 and w^3 have {z^2, z^3} and {w^2, w^3}, so they pack 3, short
        # of 4.  Banning x*y makes all four disjoint; banning w^2 and w^3
        # empties the last set, and no completion that avoids them exists.
        state = SearchState.initial(parse_system("x' = x^2*y\ny' = x*y^2\nz' = z^3\nw' = w^3"))
        assert len(state.nonsquares) == 4
        assert not packing_prunes(state, 4)
        assert packing_prunes(state, 4, banned={(1, 1, 0, 0)})
        assert packing_prunes(state, 4, banned={(0, 0, 0, 2), (0, 0, 0, 3)})


class TestPrunedNodesAreSound:
    @pytest.mark.parametrize("rule,config,count", [
        # The packing rows keep the ids other runs of this suite know them by.
        pytest.param("packing_count", "packing", 454, id="prune_by_packing_bound-packing-454"),
        pytest.param("packing_count", "all", 454, id="prune_by_packing_bound-all-454"),
        ("prune_by_quadratic_bound", "quadratic", 2690),
        ("prune_by_c4_bound", "none", 2288),
    ])
    def test_no_smaller_completion_in_the_wide_box(self, soundness_corpus, later_corpus,
                                                   stream_tail, rule, config, count):
        # Every node a rule prunes at bound N, with the other rules off (or,
        # under "all", in the search as it runs), and the exact step at a
        # count of 5 off (without_the_count_five_step), since it leaves
        # fewer nodes to the rules: the brute-force checker
        # finds no quadratization among the supersets of its variables, drawn
        # from the wide-box candidates, with fewer than N variables.  The
        # packing rule also prunes children before they are extended, given
        # the parent and the child's additions; those count as nodes too.
        # The search does not run the paper's graph rule, so it is checked in
        # the pair-count rule's place, on the states the search hands to
        # that rule, with both rules off.
        # The search asks the packing rule for its count (packing_count),
        # which prunes when it reaches the need, and hands the count on.
        pruned = []
        rule_fn = getattr(quadratize.pruning, rule)
        slot = {"prune_by_c4_bound": "prune_by_quadratic_bound"}.get(rule, rule)

        def recording(state, bound, *args):
            result = rule_fn(state, bound, *args)
            added = args[0] if args else ()
            if (result >= bound - len(state.new_vars) - len(added) if rule == "packing_count"
                    else result):
                pruned.append((state.new_vars + added, bound))
            return result

        checked = 0
        for system in soundness_corpus + later_corpus + stream_tail:
            pruned.clear()
            with rules(config), without_the_count_five_step():
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


# x_i' = prod_{j != i} x_j^2 for i = 1..4: a dense system whose factor sets
# overlap.
PRODUCT4 = parse_system("\n".join(
    f"x{i}' = " + "*".join(f"x{j}^2" for j in range(1, 5) if j != i) for i in range(1, 5)))

# Searches of permutation-closed systems, as (index in conftest.closed_systems
# and max_order_cap or None), that visit nodes at needs 2 to 4: the root
# lower bound is below the optimum of systems 14 and 57, and below the caps
# of systems 17 and 35, which no quadratization meets; system 32 visits 11
# nodes before its first answer.
CLOSED_SEARCHES = ((14, None), (17, 7), (32, None), (35, 8), (57, None))

# Dense permutation-closed searches, in the same form, whose visited nodes
# sit mostly at needs 4 and 5: the need-4 check takes them too.
DENSE_SEARCHES = ((10, 8), (42, 8), (50, 8))


@pytest.fixture(scope="module")
def packing_calls(soundness_corpus, later_corpus, stream_tail):
    """Every call of the packing rule at need 2 or 3, as (need, system,
    new_vars, added, banned, nonsquares of the state, pruned), and (need,
    pruned) for every call of the pair-count rule and for the paper's graph
    rule, which the search does not run, on the state of each such call
    that the pair-count rule keeps, over corpus
    seeds 11 and 12 of the benchmark, cubic_cycle(4..6), the soundness
    corpus, the later corpus, the stream's tail and CLOSED_SEARCHES, run
    without the count-5 step (conftest.without_the_count_five_step), which
    would leave these rules fewer nodes; and those searches, as (system,
    max_order_cap)."""
    calls = []
    other_calls = []
    real_packing = quadratize.solver.packing_count

    def recording_packing(state, bound, added, divisor_sets, banned):
        count = real_packing(state, bound, added, divisor_sets, banned)
        need = bound - len(state.new_vars) - len(added)
        if need in (2, 3):
            calls.append((need, state.system, state.new_vars, added, frozenset(banned),
                          len(state.nonsquares), count >= need))
        return count

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
               + soundness_corpus + later_corpus + stream_tail)
    closed = closed_systems(max(i for i, _ in CLOSED_SEARCHES) + 1)
    searches = ([(system, None) for system in systems]
                + [(closed[i], cap) for i, cap in CLOSED_SEARCHES])
    with mock.patch.multiple(quadratize.solver, packing_count=recording_packing,
                             prune_by_quadratic_bound=recording_quadratic), \
            without_the_count_five_step():
        for system, cap in searches:
            with suppress(NoQuadratizationWithinCap):
                bnb_search(system, max_order_cap=cap)
    return calls, other_calls, searches


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
        calls, other_calls, _ = packing_calls
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
        assert checked == 338

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
        assert checked == 473

    def test_other_rules_prune_no_node_at_need_two(self, need_two):
        # A visited node reaches them only when the packing rule keeps it,
        # and at need 2 it then has a completion below the bound.
        _, other_calls = need_two
        assert sum(need == 2 for need, _ in other_calls) == 946
        assert not any(pruned for need, pruned in other_calls if need == 2)


def root_step_calls(count, systems):
    """(system, completes) for each call of the exact step with `count`
    that the root lower bound of one of `systems` makes, not nested in a
    step with a larger count."""
    calls = []
    under_way = []
    real_probe = quadratize.pruning.more_variables_complete

    def recording_probe(system, vars_set, introduced, groups, banned, more, divisor_sets):
        under_way.append(more)
        try:
            completes = real_probe(system, vars_set, introduced, groups, banned, more,
                                   divisor_sets)
        finally:
            under_way.pop()
        if not under_way and more == count:
            calls.append((system, completes))
        return completes

    with mock.patch.object(quadratize.pruning, "more_variables_complete", recording_probe):
        for system in systems:
            lower_bound(SearchState.initial(system), {})
    return calls


def visited_step_calls(count, searches):
    """(system, new_vars, banned, completes) for each call of the exact step
    with `count` at a visited node of `searches`, (system, max_order_cap)
    pairs.  It wraps the step quadratize.solver holds when it starts, a
    substitute one under without_the_count_five_step."""
    calls = []
    real_step = quadratize.solver.node_completes

    def recording_step(system, vars_set, introduced, left, banned, more, divisor_sets):
        completes = real_step(system, vars_set, introduced, left, banned, more, divisor_sets)
        if more == count:
            calls.append((system, introduced, frozenset(banned), completes))
        return completes

    with mock.patch.object(quadratize.solver, "node_completes", recording_step):
        for system, cap in searches:
            with suppress(NoQuadratizationWithinCap):
                bnb_search(system, max_order_cap=cap)
    return calls


def completes_within(system, new_vars, banned, more, refuted=None):
    """Whether at most `more` monomials, outside the generalized variables
    and not banned, complete new_vars to a quadratization, by brute force
    with the checker (quadratization_violations).

    A completion covers each monomial the checker reports as a product with
    one of its members as a factor, so some member divides each one: the
    members tried are the divisors of the one with the fewest divisors
    (the first in tuple order on ties); and with one member left to add,
    that member is a factor of every one.  `refuted` holds the sets of new
    variables already found to have no such completion, fresh for each
    top-level call: the sets of one call that have the same size may add
    the same number more, so a set reached by another order of additions
    is not searched again.
    """
    if refuted is None:
        refuted = set()
    key = frozenset(new_vars)
    if key in refuted:
        return False
    uncovered = sorted({m for _, m in quadratization_violations(system, new_vars)})
    if not uncovered:
        return True
    if not more:
        return False
    n = system.num_vars
    variables = {unit_monomial(n)} | {variable_monomial(n, i) for i in range(n)} | set(new_vars)
    candidates = set(divisors(min(uncovered, key=divisor_count)))
    if more == 1:
        # No reported monomial is a product over the generalized variables,
        # so the one member z left covers each as z * w, with w one of them
        # or z itself (a z that does not divide it leaves a negative
        # exponent in w).
        candidates = {z for z in candidates
                      if all((w := tuple(a - b for a, b in zip(m, z))) in variables or w == z
                             for m in uncovered)}
    if any(completes_within(system, new_vars + (z,), banned, more - 1, refuted)
           for z in sorted(candidates - variables - banned)):
        return True
    refuted.add(key)
    return False


class TestNeedThreeIsExact:
    # With two more variables allowed below the bound (need 3), the packing
    # rule decides whether at most two complete the node; checked by brute
    # force (completes_within).  Before a child is extended the rule sees
    # only the parent's nonsquares that the additions leave uncovered, so a
    # kept call is checked only at a visited node.  A node with one
    # nonsquare left is decided in both directions: the probe also walks
    # that nonsquare's factor pairs for two new factors.

    @pytest.fixture(scope="class")
    def need_three(self, packing_calls):
        calls, other_calls, searches = packing_calls
        return ([call[1:] for call in calls if call[0] == 3],
                [pruned for need, pruned in other_calls if need == 3], searches)

    def test_pruned_calls_have_no_two_variable_completion(self, need_three):
        calls, *_ = need_three
        checked = 0
        for system, new_vars, added, banned, _, pruned in calls:
            if pruned:
                assert not completes_within(system, new_vars + added, banned, 2), (
                    f"pruned {new_vars + added} at need 3, but two variables complete it")
                checked += 1
        assert checked == 202

    def test_kept_visited_nodes_with_two_nonsquares_have_one(self, need_three):
        calls, *_ = need_three
        checked = 0
        for system, new_vars, added, banned, nonsquares, pruned in calls:
            if not (pruned or added) and nonsquares >= 2:
                assert completes_within(system, new_vars, banned, 2), (
                    f"kept {new_vars} at need 3, but no two variables complete it")
                checked += 1
        assert checked == 269

    def test_lone_nonsquare_is_decided_both_ways(self, need_three):
        # With one nonsquare left, at a visited node or at a root the root
        # lower bound probes at need 3, the rule keeps the state exactly
        # when at most two variables complete it.
        calls, _, searches = need_three
        lone = [(system, new_vars, banned, pruned)
                for system, new_vars, added, banned, nonsquares, pruned in calls
                if not added and nonsquares == 1]
        for system, _ in searches:
            root = SearchState.initial(system)
            if len(root.nonsquares) == 1:
                lone.append((system, (), frozenset(), packing_prunes(root, 3)))
        for system, new_vars, banned, pruned in lone:
            assert pruned != completes_within(system, new_vars, banned, 2), (
                f"{'pruned' if pruned else 'kept'} {new_vars} at need 3 with one nonsquare")
        assert (len(lone), sum(pruned for *_, pruned in lone)) == (307, 20)

    def test_other_rules_prune_no_node_at_need_three(self, need_three):
        # A visited node reaches them only when the packing rule keeps it,
        # and at need 3 it then has a completion below the bound.
        _, other_calls, _ = need_three
        assert len(other_calls) == 602
        assert not any(other_calls)


class TestNeedFourIsExact:
    # With three more variables allowed below the bound (need 4), the search
    # asks the need-4 step (node_completes, which hands the node's partner
    # groups to more_variables_complete) about a visited node that greedy
    # packing and the pair-count rule keep, and the root lower bound asks
    # more_variables_complete about a root the packing rule prunes at need
    # 3; checked by brute force (completes_within).  A
    # child at need 4 before extension goes through greedy packing alone.

    @pytest.fixture(scope="class")
    def need_four(self, packing_calls):
        """Over the searches of packing_calls and DENSE_SEARCHES: every call
        of the need-4 step, as (where, system, new_vars, banned, completes)
        with where "search" or "root"; for every call of the packing rule
        on a child at need 4 before extension, (nonsquares the additions
        leave, whether it packed, whether it probed); and (monomial,
        partner set handed on, partners recomputed) for every group of the
        need-3, need-4 and need-5 probes, the root's need-5 step included,
        over the searches of packing_calls.  The searches run without the
        count-5 step, as in packing_calls."""
        _, _, searches = packing_calls
        calls, children, inside, groups_seen = [], [], [], []
        under_way = []  # the counts of the probes under way, outermost first
        recount = [True]  # whether partner sets are recounted
        where = ["search"]
        real_probe = quadratize.pruning.more_variables_complete
        real_need_three = quadratize.pruning.two_variables_complete
        real_packs = quadratize.pruning.packs
        real_rule = quadratize.solver.packing_count
        real_floor = quadratize.solver.lower_bound

        def recording_need_three(system, vars_set, introduced, groups, banned):
            if recount:
                groups_seen.extend((m, group, partners(m, vars_set, introduced, banned))
                                   for group, m in groups)
            return real_need_three(system, vars_set, introduced, groups, banned)

        def recording_probe(system, vars_set, introduced, groups, banned, more, divisor_sets):
            if recount:
                groups_seen.extend((m, group, partners(m, vars_set, introduced, banned))
                                   for group, m in groups)
            if inside:
                inside[-1].add("probe")
            under_way.append(more)
            try:
                completes = real_probe(system, vars_set, introduced, groups, banned, more,
                                       divisor_sets)
            finally:
                under_way.pop()
            if not under_way and more == 3:
                calls.append((where[0], system, introduced, frozenset(banned), completes))
            return completes

        def recording_floor(root, divisor_sets):
            where[0] = "root"
            try:
                return real_floor(root, divisor_sets)
            finally:
                where[0] = "search"

        def recording_packs(sets, need):
            if inside:
                inside[-1].add("packs")
            return real_packs(sets, need)

        def recording_rule(state, bound, added, divisor_sets, banned):
            inside.append(set())
            try:
                return real_rule(state, bound, added, divisor_sets, banned)
            finally:
                ran = inside.pop()
                if added and bound - len(state.new_vars) - len(added) == 4:
                    vars_set = state.vars_set.union(added)
                    left = sum(not is_product(m, vars_set, added) for m in state.nonsquares)
                    children.append((left, "packs" in ran, "probe" in ran))

        closed = closed_systems(max(i for i, _ in DENSE_SEARCHES) + 1)
        dense = [(closed[i], cap) for i, cap in DENSE_SEARCHES]
        with mock.patch.multiple(quadratize.solver, packing_count=recording_rule,
                                 lower_bound=recording_floor), \
                mock.patch.multiple(quadratize.pruning, packs=recording_packs,
                                    more_variables_complete=recording_probe,
                                    two_variables_complete=recording_need_three), \
                without_the_count_five_step():
            for system, cap in searches:
                with suppress(NoQuadratizationWithinCap):
                    bnb_search(system, max_order_cap=cap)
            # Recounting the partner sets of the dense searches too would
            # double the time of this fixture.
            recount.clear()
            for system, cap in dense:
                with suppress(NoQuadratizationWithinCap):
                    bnb_search(system, max_order_cap=cap)
        return calls, children, groups_seen

    def test_refuted_nodes_have_no_three_variable_completion(self, need_four):
        calls, *_ = need_four
        checked = {"search": 0, "root": 0}
        for where, system, new_vars, banned, completes in calls:
            if not completes:
                assert not completes_within(system, new_vars, banned, 3), (
                    f"refuted {new_vars} at need 4, but three variables complete it")
                checked[where] += 1
        assert checked == {"search": 195, "root": 145}

    def test_kept_nodes_have_one(self, need_four):
        # Every node the step is asked about is a visited node or a root.
        calls, *_ = need_four
        checked = {"search": 0, "root": 0}
        for where, system, new_vars, banned, completes in calls:
            if completes:
                assert completes_within(system, new_vars, banned, 3), (
                    f"kept {new_vars} at need 4, but no three variables complete it")
                checked[where] += 1
        assert checked == {"search": 156, "root": 148}

    def test_children_before_extension_are_only_packed(self, need_four):
        # Greedy packing runs when four or more nonsquares are left, since
        # k packed sets never exceed their number; the probe never runs.
        _, children, _ = need_four
        assert not any(probed for _, _, probed in children)
        assert all(packed == (left >= 4) for left, packed, _ in children)
        assert (len(children), sum(packed for _, packed, _ in children)) == (400, 179)

    @pytest.mark.parametrize("text,optimum,case", [
        # x^2*y^2 has the fewest partners of the two nonsquares, and no
        # partner of it is in a completion of three: only its two new
        # factors x^2 and y^2 cover it there, with u*v*w for u*v*w*t.
        ("x' = y^2\ny' = x^2\nz' = x^2*y^2\nt' = u*v*w*t\nu' = u\nv' = v\nw' = w", 3, "B"),
        # With t^3 and w^3 in its place, greedy packing counts three sets,
        # and the need-4 step proves four.
        ("x' = y^2\ny' = x^2\nz' = x^2*y^2\nt' = t^3\nw' = w^3", 4, None),
    ])
    def test_the_root_lower_bound_is_the_optimum(self, text, optimum, case):
        system = parse_system(text)
        root = SearchState.initial(system)
        assert completes_within(system, (), frozenset(), optimum)
        assert not completes_within(system, (), frozenset(), optimum - 1)
        assert lower_bound(root, {}) == bnb_search(system)[0].order == optimum
        m1 = (2, 2) + (0,) * (system.num_vars - 2)
        assert m1 in root.nonsquares
        if case == "B":
            # So case A, over the partners of m1, finds no completion.
            assert not any(completes_within(system, (z,), frozenset(), 2)
                           for z in partners(m1, root.vars_set, (), ()))
        else:
            with mock.patch.object(quadratize.pruning, "more_variables_complete",
                                   lambda *args: True):
                assert lower_bound(root, {}) == optimum - 1

    def test_partner_sets_handed_on_are_recounts(self, need_four):
        # A probe hands the next one the partner sets it holds, updated for
        # its first new variable z (case A), or for p and then q (case B of
        # the need-5 step), in place of new ones: each equals partners(m)
        # over the state with them.  The need-3 rule, the need-4 and need-5
        # steps at a node and the root ladder build their own, checked here
        # as well.
        *_, groups_seen = need_four
        for m, handed, recomputed in groups_seen:
            assert handed == recomputed, m
        assert len(groups_seen) == 45277


class TestNeedFiveAtTheRoot:
    # A root that the need-4 step refutes goes on to the need-5 step: the
    # root lower bound asks more_variables_complete whether at most four
    # more variables complete it, and takes 5 when not.  Checked by brute
    # force (completes_within) on every root of corpus seeds 11 and 12 and
    # of the soundness corpus whose ladder reaches that step.

    @pytest.fixture(scope="class")
    def need_five(self, soundness_corpus):
        """(system, completes) for each call of the need-5 step."""
        return root_step_calls(4, [parse_system(instance.text) for seed in (11, 12)
                                   for instance in benchmark_workloads().corpus(seed)]
                               + soundness_corpus)

    def test_refuted_roots_have_no_four_variable_completion(self, need_five):
        refuted = [system for system, completes in need_five if not completes]
        for system in refuted:
            assert not completes_within(system, (), frozenset(), 4), system
        assert len(refuted) == 36

    def test_kept_roots_have_one(self, need_five):
        kept = [system for system, completes in need_five if completes]
        for system in kept:
            assert completes_within(system, (), frozenset(), 4), system
        assert len(kept) == 52

    def test_two_new_factors_of_the_first_nonsquare_complete(self):
        # x^2*y^2 has the fewest partners of the three nonsquares, and no
        # partner of it is in a completion of four: only its two new factors
        # x^2 and y^2 cover it there, with u*v*w for u*v*w*t and e*f*g for
        # e*f*g*r.  So case B of the need-5 step keeps the root at 4.
        system = parse_system("x' = y^2\ny' = x^2\nz' = x^2*y^2\nt' = u*v*w*t\nu' = u\nv' = v\n"
                              "w' = w\nr' = e*f*g*r\ne' = e\nf' = f\ng' = g")
        root = SearchState.initial(system)
        assert completes_within(system, (), frozenset(), 4)
        assert not completes_within(system, (), frozenset(), 3)
        assert lower_bound(root, {}) == bnb_search(system)[0].order == 4
        m1 = (2, 2) + (0,) * (system.num_vars - 2)
        assert m1 in root.nonsquares
        assert not any(completes_within(system, (z,), frozenset(), 3)
                       for z in partners(m1, root.vars_set, (), ()))

    def test_it_lifts_product4_and_permutation_closed_roots(self, monkeypatch):
        # x_i' = prod_{j != i} x_j^2 for i = 1..4 (product4), and 37 of the
        # 60 permutation-closed roots that random.Random(14) draws, go from
        # 4 to 5 with the ladder stopped at this step (the need-6 step goes
        # on, TestNeedSixAtTheRoot); without the step the ladder stops at
        # the need-4 step.
        monkeypatch.setattr(quadratize.pruning, "EXACT_COUNT", 4)
        roots = [SearchState.initial(system) for system in [PRODUCT4] + closed_systems(60)]
        bounds = [lower_bound(root, {}) for root in roots]
        real_probe = quadratize.pruning.more_variables_complete
        monkeypatch.setattr(quadratize.pruning, "more_variables_complete",
                            lambda *args: args[5] == 4 or real_probe(*args))
        without = [lower_bound(root, {}) for root in roots]
        assert (without[0], bounds[0]) == (4, 5)
        lifted = [(old, new) for old, new in zip(without[1:], bounds[1:]) if old != new]
        assert lifted == [(4, 5)] * 37

    def test_a_huge_power_builds_no_divisor_set(self):
        # x^1000000 has a million divisors.  The need-5 step proves 5, the
        # optimum, before any greedy packing count would list them.
        system = parse_system("x' = x^1000000\ny' = y^3\nz' = z^3\nw' = w^3\nu' = u^3")
        divisor_sets = {}
        assert lower_bound(SearchState.initial(system), divisor_sets) == 5
        assert (1000000, 0, 0, 0, 0) not in divisor_sets


class TestNeedFiveAtVisitedNodes:
    # With four more variables allowed below the bound (need 5), the search
    # asks the need-5 step (node_completes with a count of 4) about a
    # visited node that greedy packing and the pair-count rule keep, and
    # counts a node it refutes as pruned by the packing rule; checked by
    # brute force (completes_within) over corpus seed 11 of the benchmark,
    # cubic_cycle(6), cubic_bicycle(6) and the permutation-closed searches
    # of packing_calls and DENSE_SEARCHES but systems 10 and 42 capped at 8:
    # on their refuted nodes the check takes about 4 and 35 s.  The
    # searches run without the count-5 step, which would refute most of
    # these nodes first (conftest.without_the_count_five_step).

    @pytest.fixture(scope="class")
    def need_five(self):
        """(system, new_vars, banned, completes) for each call of the
        need-5 step at a visited node."""
        closed = closed_systems(max(i for i, _ in CLOSED_SEARCHES + DENSE_SEARCHES) + 1)
        searches = ([(parse_system(instance.text), None)
                     for instance in benchmark_workloads().corpus(11)]
                    + [(benchmark_system(family, 6), None)
                       for family in ("cubic_cycle", "cubic_bicycle")]
                    + [(closed[i], cap) for i, cap in CLOSED_SEARCHES + DENSE_SEARCHES
                       if i not in (10, 42)])
        with without_the_count_five_step():
            return visited_step_calls(4, searches)

    def test_refuted_nodes_have_no_four_variable_completion(self, need_five):
        refuted = [call for call in need_five if not call[-1]]
        for system, new_vars, banned, _ in refuted:
            assert not completes_within(system, new_vars, banned, 4), (
                f"refuted {new_vars} at need 5, but four variables complete it")
        assert len(refuted) == 192

    def test_kept_nodes_have_one(self, need_five):
        kept = [call for call in need_five if call[-1]]
        for system, new_vars, banned, _ in kept:
            assert completes_within(system, new_vars, banned, 4), (
                f"kept {new_vars} at need 5, but no four variables complete it")
        assert len(kept) == 24

    @pytest.mark.parametrize("cubes", [3, 4, 5])
    def test_a_huge_power_gets_no_factor_set(self, cubes, monkeypatch):
        # x^100000 has 100,001 divisors.  The probe's packing takes its
        # monomials fewest divisors first and tests the last set it needs
        # by divisibility, so the largest set is never built; nor does any
        # other rule of the search build it.  Every factor set is taken
        # from a divisor set (divisor_set).
        system = parse_system("x' = x^100000\n" + "\n".join(
            f"{v}' = {v}^3" for v in "yzwuv"[:cubes]))
        real_divisor_set = quadratize.pruning.divisor_set
        built = set()

        def recording(m, divisor_sets):
            built.add(m)
            return real_divisor_set(m, divisor_sets)

        monkeypatch.setattr(quadratize.pruning, "divisor_set", recording)
        result, stats = bnb_search(system)
        assert (result.order, stats.nodes_visited) == (cubes + 1, cubes + 3)
        assert built
        assert (100000,) + (0,) * cubes not in built


class TestNeedSixAtTheRoot:
    # A root that the need-5 step refutes goes on to the need-6 step: the
    # root lower bound asks more_variables_complete whether at most five
    # more variables complete it, and takes 6 when not.  Checked by brute
    # force (completes_within) on every root of corpus seeds 11 and 12 and
    # of the soundness corpus whose ladder reaches that step.

    @pytest.fixture(scope="class")
    def need_six(self, soundness_corpus):
        """(system, completes) for each call of the need-6 step."""
        return root_step_calls(EXACT_COUNT, [parse_system(instance.text) for seed in (11, 12)
                                             for instance in benchmark_workloads().corpus(seed)]
                               + soundness_corpus)

    def test_refuted_roots_have_no_five_variable_completion(self, need_six):
        refuted = [system for system, completes in need_six if not completes]
        for system in refuted:
            assert not completes_within(system, (), frozenset(), 5), system
        assert len(refuted) == 13

    def test_kept_roots_have_one(self, need_six):
        kept = [system for system, completes in need_six if completes]
        for system in kept:
            assert completes_within(system, (), frozenset(), 5), system
        assert len(kept) == 23

    def test_two_new_factors_of_the_first_nonsquare_complete(self):
        # As in TestNeedFiveAtTheRoot, with a third block: x^2*y^2 has the
        # fewest partners of the four nonsquares, and no partner of it is in
        # a completion of five, so case B of the need-6 step, x^2 and y^2,
        # keeps the root at 5.
        system = parse_system("x' = y^2\ny' = x^2\nz' = x^2*y^2\nt' = u*v*w*t\nu' = u\nv' = v\n"
                              "w' = w\nr' = e*f*g*r\ne' = e\nf' = f\ng' = g\ns' = a*b*c*s\n"
                              "a' = a\nb' = b\nc' = c")
        root = SearchState.initial(system)
        assert completes_within(system, (), frozenset(), 5)
        assert not completes_within(system, (), frozenset(), 4)
        assert lower_bound(root, {}) == bnb_search(system)[0].order == 5
        m1 = (2, 2) + (0,) * (system.num_vars - 2)
        assert m1 in root.nonsquares
        assert not any(completes_within(system, (z,), frozenset(), 4)
                       for z in partners(m1, root.vars_set, (), ()))

    def test_it_lifts_product4_and_permutation_closed_roots(self, monkeypatch):
        # product4, and 37 of the 39 permutation-closed roots that
        # random.Random(14) draws with bound 5 before this step, go from 5
        # to 6; without the step the ladder stops at the need-5 step.
        roots = [SearchState.initial(system) for system in [PRODUCT4] + closed_systems(60)]
        bounds = [lower_bound(root, {}) for root in roots]
        monkeypatch.setattr(quadratize.pruning, "EXACT_COUNT", EXACT_COUNT - 1)
        without = [lower_bound(root, {}) for root in roots]
        assert (without[0], bounds[0]) == (5, 6)
        assert sum(old == 5 for old in without[1:]) == 39
        lifted = [(old, new) for old, new in zip(without[1:], bounds[1:]) if old != new]
        assert lifted == [(5, 6)] * 37

    def test_a_huge_power_builds_no_divisor_set(self):
        # x^100000 has 100,001 divisors.  The need-6 step proves 6, the
        # optimum, before any greedy packing count would list them.
        system = parse_system("x' = x^100000\n" + "\n".join(f"{v}' = {v}^3" for v in "yzwuv"))
        divisor_sets = {}
        assert lower_bound(SearchState.initial(system), divisor_sets) == 6
        assert (100000, 0, 0, 0, 0, 0) not in divisor_sets

    def test_a_first_monomial_past_the_walk_cap_keeps_the_root(self):
        # On x' = y^200, y' = x^200 the need-6 step meets nested states
        # whose first monomial m1 has more than MAX_WALKED_DIVISORS
        # divisors, where case B would walk half of them.  The probe answers
        # that such a state may complete, so the root keeps the 5 of the
        # need-5 step.
        system = parse_system("x' = y^200\ny' = x^200")
        firsts = []
        real_ranked = quadratize.pruning.ranked

        def recording_ranked(groups):
            ranked = real_ranked(groups)
            if ranked:
                firsts.append(divisor_count(ranked[0][1]))
            return ranked

        with mock.patch.object(quadratize.pruning, "ranked", recording_ranked):
            assert lower_bound(SearchState.initial(system), {}) == 5
        assert max(firsts) > MAX_WALKED_DIVISORS


class TestNeedSixAtVisitedNodes:
    # With five more variables allowed below the bound (need 6), the search
    # asks the need-6 step (node_completes with a count of 5) about a
    # visited node that greedy packing and the pair-count rule keep, where
    # packing found at least TOP_STEP_PACKED disjoint sets or fewer
    # nonsquares are left than 6, and counts a node it refutes as pruned
    # by the packing rule; checked by brute force (completes_within) over
    # corpus seed 11 of the benchmark and cubic_cycle and cubic_bicycle of
    # sizes 4 to 6.

    @pytest.fixture(scope="class")
    def need_six(self):
        """(system, new_vars, banned, completes) for each call of the
        need-6 step at a visited node."""
        return visited_step_calls(EXACT_COUNT, [
            (parse_system(instance.text), None) for instance in benchmark_workloads().corpus(11)]
            + [(benchmark_system(family, n), None) for family in ("cubic_cycle", "cubic_bicycle")
               for n in (4, 5, 6)])

    def test_refuted_nodes_have_no_five_variable_completion(self, need_six):
        refuted = [call for call in need_six if not call[-1]]
        for system, new_vars, banned, _ in refuted:
            assert not completes_within(system, new_vars, banned, 5), (
                f"refuted {new_vars} at need 6, but five variables complete it")
        assert len(refuted) == 45

    def test_kept_nodes_have_one(self, need_six):
        kept = [call for call in need_six if call[-1]]
        for system, new_vars, banned, _ in kept:
            assert completes_within(system, new_vars, banned, 5), (
                f"kept {new_vars} at need 6, but no five variables complete it")
        assert len(kept) == 12

    def test_the_gate_open_keeps_the_answers_with_no_more_nodes(self, monkeypatch):
        # With the gate open (TOP_STEP_PACKED 0) the need-6 step runs at
        # every visited node that reaches it, and a step refutes only nodes
        # with no completion below the bound: the answers are the same, and
        # no search visits more nodes.  The gate skips steps on the dense
        # capped search of permutation-closed system 55.
        closed = closed_systems(56)
        searches = ([(parse_system(instance.text), None)
                     for instance in benchmark_workloads().corpus(11)]
                    + [(benchmark_system(family, n), None)
                       for family in ("cubic_cycle", "cubic_bicycle") for n in (4, 5, 6)]
                    + [(closed[55], 8)])
        real_step = quadratize.solver.node_completes
        steps = []

        def counting_step(*args):
            steps[-1] += args[5] == EXACT_COUNT
            return real_step(*args)

        def solve(system, cap):
            """The answer, the nodes visited and the need-6 steps taken."""
            steps.append(0)
            try:
                result, stats = bnb_search(system, max_order_cap=cap)
            except NoQuadratizationWithinCap as err:
                return err.lower_bound, None, steps[-1]
            document = render_result(result.document._replace(stats=None), "structured")
            return document, stats.nodes_visited, steps[-1]

        monkeypatch.setattr(quadratize.solver, "node_completes", counting_step)
        gated = [solve(system, cap) for system, cap in searches]
        monkeypatch.setattr(quadratize.solver, "TOP_STEP_PACKED", 0)
        opened = [solve(system, cap) for system, cap in searches]
        assert [answer for answer, *_ in opened] == [answer for answer, *_ in gated]
        assert all(nodes <= gated_nodes for (_, nodes, _), (_, gated_nodes, _)
                   in zip(opened[:-1], gated[:-1]))
        assert (sum(nodes for _, nodes, _ in opened[:-1]),
                sum(nodes for _, nodes, _ in gated[:-1])) == (914, 922)
        assert (opened[-1][2], gated[-1][2]) == (30, 1)


def two_variable_completions(system):
    """Every set of one or two monomials that completes the root to a
    quadratization, by brute force over the divisors of the monomials the
    checker reports (quadratization_violations)."""
    n = system.num_vars
    variables = {unit_monomial(n)} | {variable_monomial(n, i) for i in range(n)}
    found = set()
    first = sorted({m for _, m in quadratization_violations(system, ())})[0]
    for z in set(divisors(first)) - variables:
        rest = sorted({m for _, m in quadratization_violations(system, (z,))})
        if not rest:
            found.add(frozenset((z,)))
            continue
        for z2 in set(divisors(rest[0])) - variables - {z}:
            if is_quadratization(system, (z, z2)):
                found.add(frozenset((z, z2)))
    return found


class TestLoneRootNonsquare:
    # Roots with one nonsquare m that no single variable completes.  Two
    # variables complete one through a partner of m (case A of
    # two_variables_complete) or as the two new factors of m (case B), and
    # the root lower bound takes need 3 from the probe, so it is the
    # brute-force optimum on each of these roots.

    @pytest.mark.parametrize("text,optimum,case", [
        # m = x*y^2 = x * y^2: y^2 needs x^2 for its derivative 2*x^2*y.
        ("x' = x*y^2\ny' = x^2", 2, "A"),
        # m = x^2*y^2 = x^2 * y^2, and neither factor is a partner of m.
        ("x' = y^2\ny' = x^2\nz' = x^2*y^2", 2, "B"),
        # m = x^3: no two variables complete it.
        ("x' = y^2\ny' = x^3", 3, None),
    ])
    def test_the_root_lower_bound_is_the_optimum(self, text, optimum, case):
        system = parse_system(text)
        root = SearchState.initial(system)
        (m,) = root.nonsquares
        assert brute_force_optimal(system, wide_box(system))[0] == optimum
        assert lower_bound(root, {}) == optimum
        completions = two_variable_completions(system)
        assert bool(completions) == (case is not None)
        assert all(len(c) == 2 for c in completions)
        of_two_factors = {c for c in completions if monomial_mul(*c) == m}
        assert of_two_factors == (completions if case == "B" else set())
        # With the walk over m's factor pairs taken out, only case A is
        # left: it still completes the case-A root, and the case-B root
        # then seems to need three.
        with mock.patch.object(quadratize.polynomials, "divisors", lambda m: iter(())):
            assert lower_bound(root, {}) == optimum + (case == "B")

    def test_each_lone_call_walks_the_divisors_once(self):
        # A lone nonsquare with 2,896 divisors, refuted before a child is
        # extended: each call lists D(m) at most once, from the start, and
        # stops past the middle, where m / p falls below p.
        system = parse_system("x' = x^720*y^3\ny' = x^5")
        real_probe = quadratize.pruning.two_variables_complete
        real_divisors = quadratize.polynomials.divisors
        calls = []  # (left, whether it completes, [[m, divisors listed]])
        active = []  # the walks of the call under way, if any

        def counting_divisors(m):
            walk = [m, 0]
            if active:
                active[-1].append(walk)
            for d in real_divisors(m):
                walk[1] += 1
                yield d

        def recording_probe(system, vars_set, introduced, groups, banned):
            walks = []
            active.append(walks)
            try:
                completes = real_probe(system, vars_set, introduced, groups, banned)
            finally:
                active.pop()
            calls.append((tuple(m for _, m in groups), completes, walks))
            return completes

        with mock.patch.object(quadratize.polynomials, "divisors", counting_divisors), \
                mock.patch.object(quadratize.pruning, "two_variables_complete", recording_probe):
            result, stats = bnb_search(system)
        assert (result.order, stats.nodes_visited) == (4, 5)
        lone = [call for call in calls if len(call[0]) == 1]
        assert sorted(divisor_count(m) for (m,), completes, _ in lone if not completes) == [2896]
        assert [divisor_count(walked) for (m,), _, walks in lone for walked, _ in walks] == [2896]
        for (m,), _, walks in lone:
            assert len(walks) <= 1
            for walked, count in walks:
                assert walked == m
                assert count <= divisor_count(m) // 2 + 1
