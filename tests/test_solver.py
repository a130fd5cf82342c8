import gc
import hashlib
import random
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import suppress
from itertools import chain, combinations, combinations_with_replacement, permutations, product

import pytest

import quadratize.polynomials
import quadratize.solver
from quadratize.bruteforce import (
    box_candidates,
    brute_force_optimal,
    document_violations,
    is_quadratization,
    quadratization_violations,
)
from quadratize.output import render_result
from quadratize.parsing import ParseError, parse_system
from quadratize.polynomials import (
    MAX_EXPONENT,
    ODESystem,
    divides,
    divisor_count,
    divisors,
    grlex_key,
    lie_derivative_support,
    monomial_mul,
    monomial_quotient,
    partners,
    unit_monomial,
    variable_monomial,
)
from quadratize.pruning import (
    EXACT_COUNT,
    lower_bound,
    node_completes,
    prune_by_c4_bound,
    prune_by_packing_bound,
    prune_by_quadratic_bound,
    quadratic_bound,
)
from quadratize.solver import (
    NoQuadratizationWithinCap,
    SearchStats,
    automorphisms,
    benchmark_system,
    bnb_search,
    initial_incumbent,
    laurent_quadratize,
    orbit_key,
    per_variable_degrees,
)
from quadratize.state import SearchState

from conftest import (
    RULE_CONFIGS,
    allen_cahn_text,
    benchmark_workloads,
    closed_systems,
    definition_nonsquares,
    degree_box_incumbent,
    follow_incumbent,
    permutation_closed_system,
    permuted_monomial,
    rules,
    wide_box,
    without_the_count_five_step,
)


def solve_with(system, config):
    with rules(config):
        return bnb_search(system)


def identity_group(system):
    """The identity alone: a stand-in for automorphisms."""
    return (tuple(range(system.num_vars)),)


def frame_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def degree_box_order(system):
    """prod(D_i + 1) - 1 - #{i : D_i >= 1}: the box less 1 and the variables."""
    degrees = per_variable_degrees(system)
    return divisor_count(degrees) - 1 - sum(1 for d in degrees if d >= 1)


def descent_incumbent(system):
    """initial_incumbent without its swap step: at a floor of the box's
    order, which bounds the greedy order, it has no gap to close."""
    return initial_incumbent(system, degree_box_order(system))


class TestInitialIncumbent:
    @pytest.fixture
    def systems(self, worked_systems, soundness_corpus):
        return (list(worked_systems.values()) + soundness_corpus
                + [benchmark_system(family, n) for family in ("cubic_cycle", "cubic_bicycle")
                   for n in (3, 4, 5)]
                + [benchmark_system("rf"), parse_system(allen_cahn_text(6)),
                   parse_system("x' = 2*x\ny' = 0"), parse_system("x' = x^3 + x^100")])

    def test_incumbents_quadratize(self, systems):
        for system in systems:
            vars_, order = initial_incumbent(system)
            assert is_quadratization(system, vars_)
            assert order == len(vars_) <= degree_box_order(system)
            assert list(vars_) == sorted(set(vars_), key=grlex_key)
            # At a floor of the box's order no swap runs: the descent's own
            # set stays in the box, though a swap may leave it.
            box = per_variable_degrees(system)
            assert all(divides(z, box) for z in descent_incumbent(system)[0])

    def test_irredundant(self, systems):
        # Neither the reverse delete nor the swap step leaves a variable that
        # the others can do without.
        for system in systems:
            vars_, _ = initial_incumbent(system)
            for i in range(len(vars_)):
                assert not is_quadratization(system, vars_[:i] + vars_[i + 1:]), (vars_, i)

    @pytest.mark.parametrize("name,n", [*(("cubic_cycle", n) for n in (5, 6, 7)),
                                        *(("cubic_bicycle", n) for n in (5, 6, 7, 8))])
    def test_optimal_on_the_cubic_families(self, name, n):
        system = benchmark_system(name, n)
        assert initial_incumbent(system)[1] == 2 * n == bnb_search(system)[0].order

    def test_the_swap_reaches_rf_optimum_outside_its_box(self):
        # rf's optimum of 3 holds y^2, outside its box (3, 1, 1).  The
        # descent never leaves the box, where the least order is 4; the swap
        # step trades two of its variables for y^2.
        system = benchmark_system("rf")
        optimum = ((0, 2, 0), (1, 1, 0), (2, 0, 0))
        assert bnb_search(system)[0].new_vars == optimum
        vars_, order = descent_incumbent(system)
        assert (order, vars_) == brute_force_optimal(system, (3, 1, 1))
        assert order == 4
        assert initial_incumbent(system) == (optimum, 3)
        assert not divides((0, 2, 0), per_variable_degrees(system))

    def test_optimal_on_the_allen_cahn_chain(self):
        # Its box holds 4^10 monomials; the greedy quadratization is x_i^2.
        system = parse_system(allen_cahn_text(10))
        vars_, order = initial_incumbent(system)
        assert order == 10
        assert set(vars_) == {tuple(2 * (j == i) for j in range(10)) for i in range(10)}

    def test_linear_system_has_empty_incumbent(self):
        assert initial_incumbent(parse_system("x' = 2*x")) == ((), 0)

    def test_scalar_power(self):
        system = parse_system("x' = x^5")
        assert initial_incumbent(system) == (((4,),), 1)

    def test_reverse_delete_matches_a_full_rebuild(self, soundness_corpus, monkeypatch):
        # The descent's last extension is its quadratization.  Dropping each
        # variable in turn, last added first, when the root extended by the
        # rest quadratizes gives the same set: each variable is in it
        # exactly when its decision kept it, so every decision agrees.
        last = []
        original_extended = SearchState.extended

        def recording_extended(state, monomials):
            child = original_extended(state, monomials)
            last[:] = [child]
            return child

        monkeypatch.setattr(SearchState, "extended", recording_extended)
        dropped = 0
        for system in soundness_corpus:
            root = SearchState.initial(system)
            last[:] = [root]
            vars_, _ = descent_incumbent(system)
            kept = list(last[0].new_vars)
            for z in reversed(last[0].new_vars):
                rest = [v for v in kept if v != z]
                if original_extended(root, rest).is_quadratization:
                    kept = rest
                    dropped += 1
            assert tuple(sorted(kept, key=grlex_key)) == vars_
        assert dropped > 0

    def test_the_fast_pair_scan_misses_no_swap(self, soundness_corpus, worked_systems):
        # Checked by counting from the definition: no pair {a, b} of the
        # incumbent can go with no replacement or for one variable z other
        # than a and b.  Such a z covers each nonsquare of the rest, so it is
        # a partner of the first one.  (A z that is a or b leaves the other
        # alone out, which irredundancy rules out.)  The swap lowers the
        # descent's order on 27 of the systems.
        systems = (soundness_corpus + list(worked_systems.values())
                   + [benchmark_system(family, n) for family in ("cubic_cycle", "cubic_bicycle")
                      for n in range(3, 7)]
                   + [benchmark_system("rf")] + closed_systems(60))
        swapped = 0
        for system in systems:
            vars_, order = initial_incumbent(system)
            assert is_quadratization(system, vars_)
            for i in range(order):
                assert not is_quadratization(system, vars_[:i] + vars_[i + 1:]), (vars_, i)
            n = system.num_vars
            gen = [unit_monomial(n)] + [variable_monomial(n, i) for i in range(n)] + list(vars_)
            # How many unordered pairs of generalized variables multiply to
            # each monomial, and how many of their derivatives hold it (1 has
            # none).  The rest of a pair {a, b} loses the pairs with a or b
            # and the derivatives of a and b.
            products = Counter(monomial_mul(u, v) for u, v in combinations_with_replacement(gen, 2))
            derived = Counter(chain.from_iterable(lie_derivative_support(v, system)
                                                  for v in gen[1:]))
            with_ = {a: Counter(monomial_mul(a, u) for u in gen) for a in vars_}
            for a, b in combinations(vars_, 2):
                rest = [z for z in vars_ if z not in (a, b)]
                rest_vars = set(gen) - {a, b}
                lost = with_[a] + with_[b]
                lost[monomial_mul(a, b)] -= 1
                lost_derived = Counter(chain(lie_derivative_support(a, system),
                                             lie_derivative_support(b, system)))
                # Every monomial of a derivative is a product over the
                # incumbent, so a nonsquare of the rest is one whose every
                # factor pair holds a or b.
                nonsquares = [m for m in lost
                              if products[m] == lost[m] and derived[m] > lost_derived[m]]
                assert nonsquares, (vars_, a, b)
                first = min(nonsquares, key=grlex_key)
                for z in partners(first, rest_vars, rest, {a, b}):
                    # Some monomial is covered neither by the rest nor by z.
                    assert any(products[m] == lost[m]
                               and (w := monomial_quotient(m, z)) not in rest_vars and w != z
                               for m in chain(nonsquares, lie_derivative_support(z, system))), (
                        vars_, a, b, z)
            descent = descent_incumbent(system)[1]
            assert order <= descent
            swapped += order < descent
        assert (len(systems), swapped) == (173, 27)

    def test_a_swap_for_a_degree_two_variable(self):
        # On permutation-closed system 17 a swap's replacement has degree 2,
        # the least the pair scan's degree pre-filter lets through: a filter
        # that passed over such pairs too would stop at order 31.
        system = closed_systems(18)[17]
        assert lower_bound(SearchState.initial(system), {}) == 6
        assert descent_incumbent(system)[1] == 35
        assert initial_incumbent(system, 6)[1] == initial_incumbent(system)[1] == 28

    def test_closed_form_order_counts_the_box(self, systems):
        # The closed form that bounds the greedy order above counts the
        # materialized box that the tests below substitute for it.
        for system in systems:
            assert degree_box_order(system) == degree_box_incumbent(system)[1]

    def test_counterexample_box_cardinality(self):
        system = parse_system("x1' = x2^4\nx2' = x1^2")
        vars_, order = degree_box_incumbent(system)
        assert per_variable_degrees(system) == (2, 4)
        assert order == 3 * 5 - 3 == degree_box_order(system)
        assert is_quadratization(system, vars_)


class TestSearch:
    def test_scalar_power(self):
        result, stats = bnb_search(parse_system("x' = x^5"))
        assert result.order == 1
        assert result.new_vars == ((4,),)
        assert result.optimal
        assert stats.optimal_order == 1
        assert stats.nodes_visited >= stats.incumbent_updates

    def test_counterexample(self):
        result, _ = bnb_search(parse_system("x1' = x2^4\nx2' = x1^2"))
        assert result.order == 3
        assert set(result.new_vars) == {(1, 2), (0, 3), (3, 0)}

    def test_rabinovich_fabrikant(self, worked_systems):
        result, _ = bnb_search(worked_systems["rabinovich_fabrikant"])
        assert result.order == 3
        assert set(result.new_vars) == {(2, 0, 0), (1, 1, 0), (0, 2, 0)}

    def test_two_term_scalar_pinned_witness(self):
        # both {x^2, x^3} and {x^3, x^4} are optimal; the deterministic
        # traversal settles on {x^2, x^3}
        result, _ = bnb_search(parse_system("x' = x^4 + x^3"))
        assert result.order == 2
        assert result.new_vars == ((2,), (3,))

    def test_already_quadratic(self):
        result, stats = bnb_search(parse_system("x' = x^2 + x"))
        assert result.order == 0
        assert result.new_vars == ()
        assert stats.nodes_visited == 1

    def test_zero_system(self):
        result, _ = bnb_search(parse_system("x' = 0"))
        assert result.order == 0

    def test_orders_agree_across_configs(self, worked_systems):
        for system in worked_systems.values():
            orders = {solve_with(system, config)[0].order for config in RULE_CONFIGS}
            assert len(orders) == 1

    def test_pruning_reduces_nodes(self):
        system = benchmark_system("cubic_cycle", 4)
        nodes = {config: solve_with(system, config)[1].nodes_visited
                 for config in RULE_CONFIGS}
        for config in ("packing", "quadratic"):
            assert nodes["none"] >= nodes[config] >= nodes["all"]
        assert nodes["none"] > nodes["all"]

    def test_results_are_valid(self, worked_systems):
        for system in worked_systems.values():
            result, _ = bnb_search(system)
            assert quadratization_violations(system, result.new_vars) == []
            assert document_violations(system, result.document) == []

    def test_new_vars_are_in_the_order_of_the_names(self, worked_systems, random_corpus):
        # new_vars[i] is the variable the document names z(i+1), so new_vars
        # is in graded-lex order, not the order of the path that found it.
        result, _ = bnb_search(worked_systems["rabinovich_fabrikant"])
        assert result.new_vars == ((0, 2, 0), (1, 1, 0), (2, 0, 0))
        assert [name for name, _, _ in result.document.new_variables] == ["z1", "z2", "z3"]
        for system in list(worked_systems.values()) + random_corpus:
            result, _ = bnb_search(system)
            assert result.new_vars == tuple(z for _, z, _ in result.document.new_variables)
            assert list(result.new_vars) == sorted(result.new_vars, key=grlex_key)

    def test_every_soundness_system_matches_the_oracle(self, soundness_corpus):
        # The oracle is exhaustive within a box, and the search may use a
        # variable outside the wide box: system 59's optimum of 3 holds
        # x2^5, and within the wide box the least order there is 4.  So
        # the box also holds the search's variables.
        system = soundness_corpus[59]
        assert bnb_search(system)[0].order == 3
        assert brute_force_optimal(system, wide_box(system))[0] == 4
        for system in soundness_corpus:
            result, _ = bnb_search(system)
            box = tuple(map(max, zip(wide_box(system), *result.new_vars)))
            assert brute_force_optimal(system, box)[0] == result.order

    def test_deterministic(self, worked_systems):
        for system in worked_systems.values():
            r1, s1 = bnb_search(system)
            r2, s2 = bnb_search(system)
            assert r1.new_vars == r2.new_vars
            assert s1 == s2
            assert (render_result(r1.document, "structured")
                    == render_result(r2.document, "structured"))

    def test_twelve_variable_allen_cahn_chain(self):
        # The box holds 4^12 monomials; the search starts from the greedy
        # incumbent and never builds it.
        system = parse_system(allen_cahn_text(12))
        result, stats = bnb_search(system)
        assert result.order == stats.optimal_order == 12
        assert result.optimal
        assert document_violations(system, result.document) == []


class TestMaxOrderCap:
    def test_cap_below_optimum_raises(self):
        system = parse_system("x' = x^5")
        with pytest.raises(NoQuadratizationWithinCap) as err:
            bnb_search(system, max_order_cap=0)
        assert err.value.lower_bound == 1
        assert str(err.value) == ("no monomial quadratization with at most 0 new variables; "
                                  "every one has at least 1")

    def test_lower_bound_takes_the_root_lower_bound(self):
        # The six cubes of cubic_cycle(6) have disjoint factor sets, so the
        # root lower bound is 6, above the cap + 1.
        with pytest.raises(NoQuadratizationWithinCap) as err:
            bnb_search(benchmark_system("cubic_cycle", 6), max_order_cap=3)
        assert err.value.lower_bound == 6
        assert str(err.value) == ("no monomial quadratization with at most 3 new variables; "
                                  "every one has at least 6")

    def test_no_answer_without_a_cap_names_the_broken_invariant(self, monkeypatch):
        # Without a cap the greedy order is within the bound, so a search that
        # finds nothing has an unsound rule, here one that prunes every node.
        monkeypatch.setattr(quadratize.solver, "packing_count",
                            lambda state, bound, *args: bound)
        with pytest.raises(RuntimeError, match="order 1: a pruning rule is unsound"):
            bnb_search(parse_system("x' = x^5"))

    def test_cap_below_optimum_does_not_build_the_box(self):
        # The cap, below the greedy order, is the search's first bound, and
        # nothing of the 4^10 box is built.
        start = time.perf_counter()
        with pytest.raises(NoQuadratizationWithinCap):
            bnb_search(parse_system(allen_cahn_text(10)), max_order_cap=5)
        assert time.perf_counter() - start < 1.0

    def test_cap_below_the_root_lower_bound_raises_before_the_descent(self):
        # The greedy descent here extends some 260,000 children, but the
        # root lower bound, 5, is taken first and is above the cap.
        system = parse_system("x' = y^200\ny' = x^200")
        start = time.perf_counter()
        with pytest.raises(NoQuadratizationWithinCap) as err:
            bnb_search(system, max_order_cap=2)
        assert err.value.lower_bound == 5
        assert time.perf_counter() - start < 1.0

    def test_cap_at_optimum_is_still_optimal(self):
        system = parse_system("x' = x^5")
        result, _ = bnb_search(system, max_order_cap=1)
        assert result.order == 1
        assert result.optimal

    def test_cap_around_optimum_on_corpus(self, random_corpus):
        for system in random_corpus:
            result, _ = bnb_search(system)
            if result.order:
                with pytest.raises(NoQuadratizationWithinCap):
                    bnb_search(system, max_order_cap=result.order - 1)
            capped, _ = bnb_search(system, max_order_cap=result.order)
            assert capped.new_vars == result.new_vars

    def test_cap_at_box_order_returns_box(self):
        # Here the greedy incumbent, like the box, is empty and optimal: a
        # cap of 0 is met, not a failure.
        result, _ = bnb_search(parse_system("x' = 2*x"), max_order_cap=0)
        assert result.new_vars == ()

    @pytest.mark.parametrize("cap", [-1, 2.5, 1.0, True, False, "1"])
    def test_rejects_caps_that_are_not_non_negative_ints(self, cap):
        with pytest.raises(ValueError, match="max_order_cap must be None") as err:
            bnb_search(parse_system("x' = x^5"), max_order_cap=cap)
        assert type(err.value) is ValueError

    def test_cap_is_keyword_only(self):
        with pytest.raises(TypeError):
            bnb_search(parse_system("x' = x^5"), 1)


class TestLieMemo:
    # The memo of derivative supports on a system lives for one search, so a
    # caller that keeps its systems keeps no search's derivatives.

    def test_empty_after_a_search(self):
        system = benchmark_system("rf")
        bnb_search(system)
        assert system._lie_cache == {}

    def test_empty_after_no_quadratization_within_the_cap(self):
        system = benchmark_system("rf")
        with pytest.raises(NoQuadratizationWithinCap):
            bnb_search(system, max_order_cap=2)
        assert system._lie_cache == {}

    def test_empty_after_a_laurent_lifting(self):
        # The lifting derives the supports of its ratios through the same
        # state, and so fills the memo as a search does.
        system = parse_system("x' = y^3 + x*y\ny' = x^4")
        laurent_quadratize(system)
        assert system._lie_cache == {}

    def test_solved_systems_keep_little(self):
        # Held as a batch caller holds them: the 200 systems of the
        # benchmark's corpus at seed 11 kept about 2.2 MB of derivatives
        # after they were solved while the memo lived as long as a system.
        systems = [parse_system(instance.text) for instance in benchmark_workloads().corpus(11)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for system in systems:
                bnb_search(system)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 512 * 1024


class TestExponentBound:
    # A term above the bound never reaches the search: the parser and
    # ODESystem reject it, so bnb_search holds no check of its own.
    def test_exponent_above_the_bound_raises_before_the_search(self):
        for exponent in (MAX_EXPONENT + 1, 10 ** 200 - 1):
            with pytest.raises(ParseError, match=f"more than {MAX_EXPONENT + 1} divisors"):
                parse_system(f"x' = x + y^2\ny' = y^{exponent}")
            with pytest.raises(ValueError, match=f"more than {MAX_EXPONENT + 1} divisors"):
                ODESystem(("x", "y"), (), ({((1, 0), ()): 1}, {((0, exponent), ()): 1}))

    def test_exponent_at_the_bound_is_searched(self, monkeypatch):
        # With the bound at 5, a term may have 6 divisors: x^5 and x*y^2 do.
        monkeypatch.setattr(quadratize.polynomials, "MAX_EXPONENT", 5)
        system = ODESystem(("x", "y"), (), ({((5, 0), ()): 1}, {((1, 2), ()): 1}))
        result, _ = bnb_search(system)
        assert is_quadratization(system, result.new_vars)
        for mono in ((6, 0), (1, 3)):
            with pytest.raises(ValueError, match="more than 6 divisors"):
                ODESystem(("x", "y"), (), ({(mono, ()): 1}, {((0, 1), ()): 1}))


class TestRuleConfigurations:
    def test_rules_are_restored_after_an_error(self):
        names = ("packing_count", "node_completes", "prune_by_quadratic_bound")
        real = [getattr(quadratize.solver, name) for name in names]
        with pytest.raises(RuntimeError):
            with rules("none"):
                for name, rule in zip(names, real):
                    assert getattr(quadratize.solver, name) is not rule
                raise RuntimeError
        assert [getattr(quadratize.solver, name) for name in names] == real

    def test_every_expanded_node_can_still_beat_the_incumbent(
            self, worked_systems, random_corpus, monkeypatch):
        # A node that is not a quadratization has a nonsquare, so each rule
        # bounds its completion by at least depth + 1 and prunes it when
        # that reaches the bound.  So every node the search expands is at
        # least two variables short of the incumbent, which is why the
        # search needs no depth cutoff of its own.  The root takes no rule:
        # the search starts only when the root lower bound, at least 1, is
        # below the bound.
        last = [None, None]  # the state and bound of the latest pair-count rule call
        expanded = 0
        tracked = {}
        follow_incumbent(monkeypatch, tracked)
        real_quadratic = quadratize.solver.prune_by_quadratic_bound
        real_children = quadratize.solver.generate_children

        def recording_quadratic(state, bound):
            last[:] = state, bound
            return real_quadratic(state, bound)

        def checking_children(state):
            nonlocal expanded
            if tracked["descent"]:
                return real_children(state)
            if state.new_vars:
                assert state is last[0]
                assert len(state.new_vars) + 1 < last[1]
            else:
                assert 1 < tracked["bound"]
            expanded += 1
            return real_children(state)

        monkeypatch.setattr(quadratize.solver, "prune_by_quadratic_bound", recording_quadratic)
        monkeypatch.setattr(quadratize.solver, "generate_children", checking_children)
        systems = (list(worked_systems.values()) + random_corpus
                   + [benchmark_system("cubic_cycle", 4)])
        for system in systems:
            bnb_search(system)
        assert expanded > 100


class TestSearchDepth:
    def test_depth_is_not_bound_by_the_recursion_limit(self):
        # The search goes 52 levels deep on this system; bnb_search
        # is a loop, so its stack does not grow with the search depth.
        system = parse_system("x' = x^3 + x^100")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frame_depth() + 45)
        try:
            result, _ = bnb_search(system)
        finally:
            sys.setrecursionlimit(limit)
        assert result.order == 2


class TestLaurent:
    def test_scalar_power(self):
        lifting = laurent_quadratize(parse_system("x' = x^5"))
        assert lifting.new_vars == ((4,),)
        doc = lifting.document
        assert [(t.coeff, t.factor1, t.factor2) for t in doc.quadratic_rhs["x"]] == [
            (1, "x", "z1")
        ]
        assert [(t.coeff, t.factor1, t.factor2) for t in doc.quadratic_rhs["z1"]] == [
            (4, "z1", "z1")
        ]

    def test_counterexample(self):
        system = parse_system("x1' = x2^4\nx2' = x1^2")
        lifting = laurent_quadratize(system)
        # Named in graded-lex order; each term uses the least factor pair.
        assert lifting.new_vars == ((2, -1), (-1, 4))
        assert render_result(lifting.document) == (
            "New variables (order 2):\n"
            "  z1 = x1^2*x2^-1\n"
            "  z2 = x1^-1*x2^4\n"
            "Note: result is not certified optimal\n"
            "Quadratic system:\n"
            "  x1' = x1*z2\n"
            "  x2' = x2*z1\n"
            "  z1' = -z1^2 + 2*z1*z2\n"
            "  z2' = 4*z1*z2 - z2^2\n")
        assert document_violations(system, lifting.document) == []

    def test_drops_unit_ratio(self):
        system = parse_system("x' = 2*x")
        lifting = laurent_quadratize(system)
        assert lifting.new_vars == ()
        assert [(t.coeff, t.factor1, t.factor2)
                for t in lifting.document.quadratic_rhs["x"]] == [(2, "1", "x")]

    def test_drops_original_variable_ratio(self):
        system = parse_system("x' = x*y\ny' = x")
        lifting = laurent_quadratize(system)
        # x*y/x = y is already a variable; x/y stays
        assert lifting.new_vars == ((1, -1),)
        assert document_violations(system, lifting.document) == []

    def test_variable_count_bound(self, random_corpus):
        for system in random_corpus[:20]:
            lifting = laurent_quadratize(system)
            total_monomials = sum(len(p) for p in system.rhs)
            assert len(lifting.new_vars) <= total_monomials
            assert document_violations(system, lifting.document) == []

    def test_not_marked_optimal(self):
        lifting = laurent_quadratize(parse_system("x' = x^5"))
        assert lifting.optimal is False
        assert lifting.document.optimal is False
        assert lifting.order == 1

    def test_lifted_state_has_no_nonsquares(self, random_corpus, worked_systems):
        for system in random_corpus + list(worked_systems.values()):
            lifting = laurent_quadratize(system)
            state = SearchState.initial(system).extended(lifting.new_vars)
            assert state.nonsquares == definition_nonsquares(state) == frozenset()


class TestBenchmarks:
    def test_cubic_cycle(self):
        system = benchmark_system("cubic_cycle", 3)
        assert system.variables == ("x1", "x2", "x3")
        assert system.rhs[0] == {((0, 3, 0), ()): 1}
        assert system.rhs[1] == {((0, 0, 3), ()): 1}
        assert system.rhs[2] == {((3, 0, 0), ()): 1}

    def test_cubic_bicycle_wraps(self):
        system = benchmark_system("cubic_bicycle", 4)
        assert system.rhs[0] == {((0, 0, 0, 3), ()): 1, ((0, 3, 0, 0), ()): 1}
        assert system.rhs[3] == {((0, 0, 3, 0), ()): 1, ((3, 0, 0, 0), ()): 1}

    def test_cubic_bicycle_two_merges_coefficients(self):
        system = benchmark_system("cubic_bicycle", 2)
        assert system.rhs[0] == {((0, 3), ()): 2}
        assert system.rhs[1] == {((3, 0), ()): 2}

    def test_rf(self):
        system = benchmark_system("rf")
        assert system.variables == ("x", "y", "z")
        assert system.parameters == ("a", "b")

    def test_scalar_power(self):
        assert benchmark_system("scalar_power", 5).rhs[0] == {((5,), ()): 1}
        assert benchmark_system("scalar_power", 1).rhs[0] == {((1,), ()): 1}

    @pytest.mark.parametrize("name,n", [
        ("unknown", 3),
        ("cubic_cycle", 1),
        ("cubic_cycle", None),
        ("cubic_bicycle", 0),
        ("scalar_power", 0),
        ("rf", 3),
    ])
    def test_invalid_arguments(self, name, n):
        with pytest.raises(ValueError):
            benchmark_system(name, n)


def permuted_system(system, sigma):
    """The system with each variable j renamed to sigma[j]."""
    rhs = [None] * system.num_vars
    for i, poly in enumerate(system.rhs):
        rhs[sigma[i]] = {(permuted_monomial(m, sigma), p): c for (m, p), c in poly.items()}
    return ODESystem(system.variables, system.parameters, tuple(rhs))


def orbit(monomials, group):
    return {frozenset(permuted_monomial(m, sigma) for m in monomials) for sigma in group}


class TestAutomorphisms:
    @pytest.mark.parametrize("n", [*range(2, 9), 21])
    def test_cubic_cycle_is_cyclic(self, n):
        assert len(automorphisms(benchmark_system("cubic_cycle", n))) == n

    @pytest.mark.parametrize("n", [*range(3, 9), 15])
    def test_cubic_bicycle_is_dihedral(self, n):
        assert len(automorphisms(benchmark_system("cubic_bicycle", n))) == 2 * n

    def test_allen_cahn_chain_reverses(self):
        group = automorphisms(parse_system(allen_cahn_text(10)))
        assert group == (tuple(range(10)), tuple(range(9, -1, -1)))

    def test_rf_has_only_the_identity(self):
        assert automorphisms(benchmark_system("rf")) == ((0, 1, 2),)

    def test_every_element_maps_the_system_onto_itself(self, random_corpus):
        systems = [benchmark_system("cubic_cycle", 6), benchmark_system("cubic_bicycle", 6),
                   benchmark_system("rf"), parse_system(allen_cahn_text(7)),
                   parse_system("x' = a*y + x^2\ny' = a*x + y^2\nz' = x*y")]
        for system in systems + random_corpus:
            group = automorphisms(system)
            assert group[0] == tuple(range(system.num_vars))
            assert len(set(group)) == len(group)
            for sigma in group:
                assert permuted_system(system, sigma) == system

    def test_finds_every_symmetry_of_small_systems(self, random_corpus):
        for system in random_corpus:
            n = system.num_vars
            every = [sigma for sigma in product(range(n), repeat=n)
                     if len(set(sigma)) == n and permuted_system(system, sigma) == system]
            assert list(automorphisms(system)) == every

    def test_finds_every_symmetry_of_permutation_closed_systems(self):
        rng = random.Random(14)
        for _ in range(60):
            system, sigma = permutation_closed_system(rng)
            n = system.num_vars
            every = [p for p in permutations(range(n)) if permuted_system(system, p) == system]
            assert sigma in every
            assert list(automorphisms(system)) == every

    def test_long_allen_cahn_chain_reverses(self):
        group = automorphisms(parse_system(allen_cahn_text(46)))
        assert group == (tuple(range(46)), tuple(range(45, -1, -1)))

    @pytest.mark.parametrize("text", [
        # a coefficient breaks the cycle
        "x1' = 2*x2^3\nx2' = x3^3\nx3' = x4^3\nx4' = x1^3",
        # a parameter breaks it
        "x1' = a*x2^3\nx2' = x3^3\nx3' = x4^3\nx4' = x1^3",
        # swapping x and y would need a and b swapped, and parameters stay fixed
        "x' = a*y^3\ny' = b*x^3",
    ])
    def test_broken_symmetry_leaves_the_identity(self, text):
        system = parse_system(text)
        assert automorphisms(system) == (tuple(range(system.num_vars)),)

    def test_shared_parameter_keeps_the_swap(self):
        assert len(automorphisms(parse_system("x' = a*y^3\ny' = a*x^3"))) == 2

    def test_group_above_the_order_bound_falls_back_to_the_identity(self, monkeypatch):
        def diagonal(n):
            return parse_system("\n".join(f"x{i}' = x{i}^2" for i in range(n)))

        assert sorted(automorphisms(diagonal(4))) == sorted(permutations(range(4)))
        # The symmetric group on 5 variables has 120 elements, more than
        # MAX_GROUP_ORDER, and is found within the step budget.
        assert automorphisms(diagonal(5)) == (tuple(range(5)),)
        monkeypatch.setattr(quadratize.solver, "MAX_GROUP_ORDER", 120)
        assert len(automorphisms(diagonal(5))) == 120

    def test_large_group_falls_back_to_the_identity(self):
        # The symmetric group on 10 variables has 3,628,800 elements; the
        # search passes MAX_AUTOMORPHISM_STEPS before it finds them.
        system = parse_system("\n".join(f"x{i}' = x{i}^3" for i in range(10)))
        start = time.perf_counter()
        group = automorphisms(system)
        assert time.perf_counter() - start < 0.2
        assert group == (tuple(range(10)),)

    def test_long_cycles_and_bicycles_are_found_whole(self):
        # Each level after the first takes its candidates from a term whose
        # other variables are assigned: one on a cycle, two on a bicycle.
        for n in range(22, 31):
            rotations = [tuple((i + k) % n for i in range(n)) for k in range(n)]
            assert automorphisms(benchmark_system("cubic_cycle", n)) == tuple(rotations)
        for n in range(16, 21):
            rotations = [tuple((i + k) % n for i in range(n)) for k in range(n)]
            reflections = [tuple((k - i) % n for i in range(n)) for k in range(n)]
            assert (automorphisms(benchmark_system("cubic_bicycle", n))
                    == tuple(sorted(rotations + reflections)))

    def test_step_budget_falls_back_to_the_identity(self, monkeypatch):
        system = benchmark_system("cubic_cycle", 60)
        start = time.perf_counter()
        assert len(automorphisms(system)) == 60
        assert time.perf_counter() - start < 0.5
        # Its search takes 7,200 steps.
        monkeypatch.setattr(quadratize.solver, "MAX_AUTOMORPHISM_STEPS", 1_000)
        start = time.perf_counter()
        group = automorphisms(system)
        assert time.perf_counter() - start < 0.5
        assert group == (tuple(range(60)),)


class TestOrbitKey:
    @pytest.mark.parametrize("name,n", [("cubic_cycle", 3), ("cubic_bicycle", 3),
                                        ("cubic_bicycle", 4)])
    def test_equal_exactly_on_orbits(self, name, n):
        group = automorphisms(benchmark_system(name, n))
        pool = [m for m in product(range(3), repeat=n) if sum(m) > 1]
        sets = [s for size in range(3) for s in combinations(pool, size)]
        orbit_of_key = {}
        for s in sets:
            orbit_of_key.setdefault(orbit_key(s, group), set()).add(frozenset(s))
        # One key per orbit, and each key's sets make up its whole orbit.
        orbits = {frozenset(orbit(s, group)) for s in sets}
        assert len(orbit_of_key) == len(orbits)
        for members in orbit_of_key.values():
            assert frozenset(orbit(next(iter(members)), group)) == members

    def test_injective_with_large_exponents(self):
        values = (0, 1, 2, 255, 256, 257, 65535, 65536, 2 ** 100)
        pool = list(product(values, repeat=2))
        sets = [s for size in range(3) for s in combinations(pool, size)]
        identity = ((0, 1),)
        keys = {orbit_key(s, identity) for s in sets}
        assert len(keys) == len(sets)
        assert all(isinstance(key, int) for key in keys)
        swap = ((0, 1), (1, 0))
        keys = {orbit_key(s, swap) for s in sets}
        assert len(keys) == len({frozenset(orbit(s, swap)) for s in sets})

    def test_does_not_depend_on_the_order_of_the_set(self):
        group = automorphisms(benchmark_system("cubic_cycle", 4))
        monomials = ((2, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 3))
        assert orbit_key(monomials, group) == orbit_key(monomials[::-1], group)


def completion_below(system, new_vars, bound, pool, refuted=None):
    """A quadratization inside new_vars + pool with fewer than `bound`
    variables that contains new_vars, or None.

    Definitional: it branches over the factor pairs of the first monomial the
    brute-force checker reports, so it shares nothing with the search.
    `refuted` holds the sets of new variables already found to have no such
    completion, fresh for each top-level call: whether one exists depends on
    the set alone, so a set reached by another order of additions is not
    searched again.
    """
    if refuted is None:
        refuted = set()
    key = frozenset(new_vars)
    if key in refuted:
        return None
    violations = quadratization_violations(system, new_vars)
    if not violations:
        return new_vars if len(new_vars) < bound else None
    _, m = violations[0]
    allowed = set(pool) | set(new_vars)
    for d in divisors(m):
        rest = tuple(a - b for a, b in zip(m, d))
        added = {f for f in (d, rest) if sum(f) > 1 and f not in new_vars}
        if not added or not added <= allowed or len(new_vars) + len(added) >= bound:
            continue
        found = completion_below(system, new_vars + tuple(sorted(added)), bound, pool, refuted)
        if found is not None:
            return found
    refuted.add(key)
    return None


# Systems that the 3-cycle x1 -> x2 -> x3 -> x1 maps onto itself, small
# enough for completion_below.
THREE_CYCLE_TEXTS = (
    "x1' = x2^2*x3\nx2' = x3^2*x1\nx3' = x1^2*x2",
    "x1' = x2^2*x3^2\nx2' = x1^2*x3^2\nx3' = x1^2*x2^2",
    "x1' = 3*x3^2 + 3*x1^2*x2^2\nx2' = 3*x1^2 + 3*x2^2*x3^2\nx3' = 3*x2^2 + 3*x1^2*x3^2",
    "x1' = x2*x3^2 - 3*x1\nx2' = x1^2*x3 - 3*x2\nx3' = x1*x2^2 - 3*x3",
)

# Two more such systems, on whose searches the orbit table skips sets.
THREE_CYCLE_SKIP_TEXTS = (
    "x1' = x2*x3 + x1^2*x2^2*x3^2\nx2' = x1*x3 + x1^2*x2^2*x3^2\nx3' = x1*x2 + x1^2*x2^2*x3^2",
    "x1' = x2*x3^2 + x1^2*x2*x3\nx2' = x1^2*x3 + x1*x2^2*x3\nx3' = x1*x2^2 + x1*x2*x3^2",
)

# Systems that swapping two variables maps onto themselves, on whose searches
# the banned variables prune many nodes.
SWAP_TEXTS = (
    "x1' = 3*x1*x2^2\nx2' = 3*x1^2*x2\n"
    "x3' = 2*a*x1^2*x2*x3^2 + 2*a*x1*x2^2*x3^2 + 2*a*x2*x3 + 2*a*x1*x3 - x1*x3^2 - x2*x3^2",
    "x1' = x1*x2 + 3*x1^2*x3^2 - a*x1*x3^2\nx2' = -x1^2*x2^2*x3 - x1*x2^2*x3^2\n"
    "x3' = x2*x3 + 3*x1^2*x3^2 - a*x1^2*x3",
    "x1' = x2^2*x3^3 + x1*x2^3\nx2' = x1^2*x3^3 + x1^3*x2\nx3' = x1*x2^2*x3^2 + x1^2*x2*x3^2",
    "x1' = x2^2 + x1^3*x3^2\nx2' = x1^2 + x2^3*x3^2\nx3' = x1^2*x2 + x1*x2^2",
    "x1' = x3^3 + x2^3*x3^2\nx2' = x3^3 + x1^3*x3^2\nx3' = x1*x2*x3",
    "x1' = x1^2*x2^3*x3^2 + x1^2*x3^3\nx2' = x1^3*x2^2*x3^2 + x2^2*x3^3\n"
    "x3' = x1^2*x3 + x2^2*x3",
)


# Permutation-closed systems, by index in conftest.closed_systems, whose
# searches take a fraction of a second and skip children that the
# brute-force checker affords: since the need-5 step at visited nodes, the
# searches of the other systems of these tests skip far fewer.  Systems 35,
# 47 and 52 skip images of visited sets; the exclusion test leaves out 47,
# whose checks take about 2 s.
CLOSED_SKIP_SYSTEMS = (35, 47, 52)
CLOSED_EXCLUSION_SYSTEMS = (14, 35, 52)


class TestSkippedChildrenAreSound:
    def test_no_smaller_completion_in_the_wide_box(self, soundness_corpus, monkeypatch):
        # Every child skipped at bound N: no superset of its variables, drawn
        # from the wide-box candidates, quadratizes with fewer than N
        # variables.  The bound is followed from outside: it starts where
        # the search starts it, after its first incumbent, and falls to the
        # size of each visited quadratization smaller than it.  Exclusion
        # forbids most images of a settled child before the table sees them,
        # so six systems with a 3-cycle symmetry and CLOSED_SKIP_SYSTEMS join
        # the cubic families, whose tables skip little.
        tracked = {}
        skipped = []
        original_key = quadratize.solver.orbit_key
        original_extended = SearchState.extended

        def recording_key(monomials, group):
            key = original_key(monomials, group)
            if key in tracked["seen"]:
                skipped.append((monomials, tracked["bound"]))
            tracked["seen"].add(key)
            return key

        def bounding_extended(state, monomials):
            child = original_extended(state, monomials)
            if child.is_quadratization and not tracked["descent"]:
                tracked["bound"] = min(tracked["bound"], len(child.new_vars))
            return child

        monkeypatch.setattr(quadratize.solver, "orbit_key", recording_key)
        monkeypatch.setattr(SearchState, "extended", bounding_extended)
        follow_incumbent(monkeypatch, tracked)
        systems = soundness_corpus + [benchmark_system(family, n) for n in (3, 4)
                                      for family in ("cubic_cycle", "cubic_bicycle")] + [
            parse_system(text) for text in THREE_CYCLE_TEXTS + THREE_CYCLE_SKIP_TEXTS]
        closed = closed_systems(max(CLOSED_SKIP_SYSTEMS) + 1)
        systems += [closed[i] for i in CLOSED_SKIP_SYSTEMS]
        checked = 0
        for system in systems:
            skipped.clear()
            tracked.update(seen=set())
            with without_the_count_five_step():
                _, stats = bnb_search(system)
            assert len(skipped) == stats.pruned_by_symmetry
            pool = box_candidates(system, wide_box(system))
            for new_vars, bound in skipped:
                found = completion_below(system, new_vars, bound, pool)
                assert found is None, (
                    f"skipped {new_vars} at bound {bound}, but {found} quadratizes")
                checked += 1
        assert checked == 16

    def test_completion_below_finds_known_optima(self, worked_systems):
        # The checker above is only as good as this search.
        for system in worked_systems.values():
            result, _ = bnb_search(system)
            pool = box_candidates(system, wide_box(system))
            assert completion_below(system, (), result.order, pool) is None
            assert completion_below(system, (), result.order + 1, pool) is not None


class TestChildrenSkippedBeforeExtensionAreSound:
    def test_no_extension_at_the_bound_and_no_smaller_completion(
            self, soundness_corpus, later_corpus, stream_tail, monkeypatch):
        # The bound is followed from outside, as above.  No child is
        # extended once it is as large as the bound.  A child taken from
        # generate_children that is neither extended nor skipped as an
        # image of a visited set was skipped before either: unless it is as
        # large as the bound, no quadratization drawn from the wide-box
        # candidates that contains it has fewer variables than the bound.
        # Every child that passes the packing skip is one of the two,
        # whatever the group.
        tracked = {}
        pulled = []  # [parent, added, bound when the search took it, passed]
        extensions = []  # (size, bound) of every extended call
        original_children = quadratize.solver.generate_children
        original_key = quadratize.solver.orbit_key
        original_extended = SearchState.extended

        def recording_children(state):
            if tracked["descent"]:
                yield from original_children(state)
                return
            for added in original_children(state):
                pulled.append([state, added, tracked["bound"], False])
                yield added

        def recording_key(monomials, group):
            key = original_key(monomials, group)
            if key in tracked["seen"]:
                pulled[-1][3] = True
            tracked["seen"].add(key)
            return key

        def bounding_extended(state, monomials):
            if tracked["descent"]:
                return original_extended(state, monomials)
            parent, added = pulled[-1][:2]
            if state.new_vars == parent.new_vars and monomials == added:
                pulled[-1][3] = True
            child = original_extended(state, monomials)
            extensions.append((len(child.new_vars), tracked["bound"]))
            if child.is_quadratization:
                tracked["bound"] = min(tracked["bound"], len(child.new_vars))
            return child

        monkeypatch.setattr(quadratize.solver, "generate_children", recording_children)
        monkeypatch.setattr(quadratize.solver, "orbit_key", recording_key)
        monkeypatch.setattr(SearchState, "extended", bounding_extended)
        follow_incumbent(monkeypatch, tracked)
        systems = (soundness_corpus + [benchmark_system("cubic_cycle", 4)] + later_corpus
                   + stream_tail)
        checked = 0
        for system in systems:
            extensions.clear()
            tracked.update(seen=set())
            # The root's child is not pulled from generate_children, and it
            # is always extended, so its bound is never read.
            pulled[:] = [[SearchState.initial(system), (), None, False]]
            with without_the_count_five_step():
                _, stats = bnb_search(system)
            # The last call extends the root by the answer, for the document.
            search_extensions = extensions[:-1]
            assert len(search_extensions) == stats.nodes_visited
            assert all(size < bound for size, bound in search_extensions)
            pool = box_candidates(system, wide_box(system))
            for parent, added, bound, passed in pulled:
                if passed or len(parent.new_vars) + len(added) >= bound:
                    continue
                found = completion_below(system, parent.new_vars + added, bound, pool)
                assert found is None, (
                    f"skipped {parent.new_vars + added} at bound {bound}, "
                    f"but {found} quadratizes")
                checked += 1
        assert checked == 317


class TestExcludedChildrenAreSound:
    # Once a child P + A of a node P has been handled, no quadratization
    # that contains P + A beats the bound, so the later subtrees of P skip
    # every set that contains A, and a banned variable (an A of one member)
    # is left out of their packing sets.  The bound is followed from
    # outside, as above.

    def test_excluded_children_have_no_smaller_completion(
            self, soundness_corpus, later_corpus, stream_tail, monkeypatch):
        # A child below the bound that never reaches the packing skip, which
        # runs right after exclusion, was excluded: no quadratization drawn
        # from the wide-box candidates that contains it has fewer variables
        # than the bound.  On symmetric systems some are excluded only by an
        # image of a settled child: they contain no forbidden addition of
        # an earlier sibling of theirs or of an ancestor.
        tracked = {}
        pulled = []  # [parent, added, bound when the search took it, packed]
        # The id of a visited state, to the index of its pulled entry; every
        # parent stays alive in `pulled`, so its id is never reused.
        entry_of = {}
        original_children = quadratize.solver.generate_children
        original_rule = quadratize.solver.packing_count
        original_extended = SearchState.extended

        def recording_children(state):
            if tracked["descent"]:
                yield from original_children(state)
                return
            for added in original_children(state):
                pulled.append([state, added, tracked["bound"], False])
                yield added

        def recording_rule(state, bound, *args):
            if pulled and state is pulled[-1][0]:
                pulled[-1][3] = True
            return original_rule(state, bound, *args)

        def bounding_extended(state, monomials):
            child = original_extended(state, monomials)
            if not tracked["descent"]:
                if pulled and state is pulled[-1][0] and monomials == pulled[-1][1]:
                    entry_of[id(child)] = len(pulled) - 1
                if child.is_quadratization:
                    tracked["bound"] = min(tracked["bound"], len(child.new_vars))
            return child

        def path(state):
            """The indices of the pulled entries from the root to state."""
            indices = []
            while id(state) in entry_of:
                indices.append(entry_of[id(state)])
                state = pulled[indices[-1]][0]
            return indices

        monkeypatch.setattr(quadratize.solver, "generate_children", recording_children)
        monkeypatch.setattr(quadratize.solver, "packing_count", recording_rule)
        monkeypatch.setattr(SearchState, "extended", bounding_extended)
        follow_incumbent(monkeypatch, tracked)
        checked = by_image = 0
        systems = soundness_corpus + [
            benchmark_system("cubic_cycle", 4), benchmark_system("cubic_bicycle", 3),
            parse_system("x1' = x1^3\nx2' = x2^3\nx3' = x3^3")] + [
            parse_system(text) for text in THREE_CYCLE_TEXTS + THREE_CYCLE_SKIP_TEXTS
        ] + later_corpus + stream_tail
        closed = closed_systems(max(CLOSED_EXCLUSION_SYSTEMS) + 1)
        systems += [closed[i] for i in CLOSED_EXCLUSION_SYSTEMS]
        for system in systems:
            pulled.clear()
            entry_of.clear()
            with without_the_count_five_step():
                bnb_search(system)
            pool = box_candidates(system, wide_box(system))
            for i, (parent, added, bound, packed) in enumerate(pulled):
                if packed or len(parent.new_vars) + len(added) >= bound:
                    continue
                found = completion_below(system, parent.new_vars + added, bound, pool)
                assert found is None, (
                    f"excluded {parent.new_vars + added} at bound {bound}, "
                    f"but {found} quadratizes")
                checked += 1
                # The forbidden additions: the children that reached the
                # packing skip before this one, of its parent or of an
                # ancestor, other than the nodes on its path.
                on_path = path(parent)
                ancestors = {id(parent)} | {id(pulled[j][0]) for j in on_path}
                members = set(parent.new_vars + added)
                by_image += not any(
                    earlier[3] and id(earlier[0]) in ancestors and j not in on_path
                    and members.issuperset(earlier[1])
                    for j, earlier in enumerate(pulled[:i]))
        assert (checked, by_image) == (251, 120)

    def test_nodes_only_the_banned_variables_prune_have_no_smaller_completion(
            self, soundness_corpus, monkeypatch):
        # Every call of the packing rule that prunes with the banned
        # variables but would keep the node without them, whether for a
        # visited node or for a child before it is extended.
        pruned = []  # (new variables, bound, visited)
        original_rule = quadratize.solver.packing_count

        def recording_rule(state, bound, added, divisor_sets, banned):
            need = bound - len(state.new_vars) - len(added)
            count = original_rule(state, bound, added, divisor_sets, banned)
            if count >= need and original_rule(state, bound, added, divisor_sets) < need:
                pruned.append((state.new_vars + added, bound, not added))
            return count

        monkeypatch.setattr(quadratize.solver, "packing_count", recording_rule)
        visited = skipped = 0
        systems = soundness_corpus + [
            benchmark_system("cubic_cycle", 4), benchmark_system("cubic_bicycle", 3),
            parse_system("x1' = x1^3\nx2' = x2^3\nx3' = x3^3")] + [
            parse_system(text) for text in THREE_CYCLE_TEXTS + THREE_CYCLE_SKIP_TEXTS + SWAP_TEXTS]
        # Permutation-closed systems whose searches visit nodes at need 2
        # (test_pruning.CLOSED_SEARCHES).  Since the need-5 step, the
        # banned variables prune visited nodes only in larger searches:
        # the cubic families at 5, and system 41 capped at 8.
        closed = closed_systems(58)
        searches = [(system, None) for system in systems + [closed[i] for i in (14, 32, 57)]
                    + [benchmark_system(family, 5) for family in ("cubic_cycle", "cubic_bicycle")]]
        searches.append((closed[41], 8))
        for system, cap in searches:
            pruned.clear()
            with suppress(NoQuadratizationWithinCap), without_the_count_five_step():
                bnb_search(system, max_order_cap=cap)
            pool = box_candidates(system, wide_box(system))
            for new_vars, bound, is_visited in pruned:
                found = completion_below(system, new_vars, bound, pool)
                assert found is None, (
                    f"banned variables pruned {new_vars} at bound {bound}, "
                    f"but {found} quadratizes")
                visited += is_visited
                skipped += not is_visited
        assert (visited, skipped) == (3, 7)

    def test_many_siblings_cost_no_more_each(self, monkeypatch):
        # The root of x^200000 has 100,001 children, one variable each
        # first: x^100000, pruned at need 1, and x^199999, the answer.  Its
        # order, 1, meets the root lower bound, so the search ends there,
        # and the later siblings are never drawn.
        tracked = {}
        drawn = []
        original_children = quadratize.solver.generate_children

        def recording_children(state):
            if tracked["descent"]:
                yield from original_children(state)
                return
            for added in original_children(state):
                drawn.append((state.new_vars, added))
                yield added

        monkeypatch.setattr(quadratize.solver, "generate_children", recording_children)
        follow_incumbent(monkeypatch, tracked)
        start = time.perf_counter()
        result, stats = bnb_search(benchmark_system("scalar_power", 200_000))
        assert time.perf_counter() - start < 10
        assert result.new_vars == ((199_999,),)
        assert stats.optimal_order == 1
        assert drawn == [((), ((100_000,),)), ((), ((199_999,),))]
        assert (stats.nodes_visited, stats.pruned_by_packing) == (3, 1)


class TestFrameEnds:
    def test_no_child_after_one_at_the_bound_and_one_packing_call_per_node(
            self, soundness_corpus, later_corpus, stream_tail, worked_systems, monkeypatch):
        # Children come fewest additions first and the bound only falls, so
        # a frame ends at its first child as large as the bound: no later
        # sibling is drawn.  The bound is followed from outside, as above.
        # Every visited node but the root reaches the packing rule with no
        # additions once; the root reaches it never, since the root lower
        # bound stands for the rules there.
        tracked = {}
        late = []  # (parent's new variables, child) drawn after a sibling at the bound
        ends = 0  # children drawn at the bound, each ending its frame
        unextended = {}  # id of a state the rule saw with no additions, to it
        twice = []  # the new variables of each state the rule saw so twice
        original_children = quadratize.solver.generate_children
        original_rule = quadratize.solver.packing_count
        original_extended = SearchState.extended

        def recording_children(state):
            nonlocal ends
            if tracked["descent"]:
                yield from original_children(state)
                return
            at_bound = False
            for added in original_children(state):
                if at_bound:
                    late.append((state.new_vars, added))
                at_bound = len(state.new_vars) + len(added) >= tracked["bound"]
                ends += at_bound
                yield added

        def recording_rule(state, bound, added, divisor_sets, banned):
            if not added:
                assert state.new_vars, "the root reached the packing rule"
                if id(state) in unextended:
                    twice.append(state.new_vars)
                unextended[id(state)] = state  # kept alive, so its id is not reused
            return original_rule(state, bound, added, divisor_sets, banned)

        def bounding_extended(state, monomials):
            child = original_extended(state, monomials)
            if child.is_quadratization and not tracked["descent"]:
                tracked["bound"] = min(tracked["bound"], len(child.new_vars))
            return child

        monkeypatch.setattr(quadratize.solver, "generate_children", recording_children)
        monkeypatch.setattr(quadratize.solver, "packing_count", recording_rule)
        monkeypatch.setattr(SearchState, "extended", bounding_extended)
        follow_incumbent(monkeypatch, tracked)
        systems = soundness_corpus + list(worked_systems.values()) + [
            benchmark_system("cubic_cycle", 4), benchmark_system("cubic_bicycle", 3),
            benchmark_system("scalar_power", 64)] + later_corpus + stream_tail + [
            parse_system(text)
            for text in THREE_CYCLE_TEXTS + THREE_CYCLE_SKIP_TEXTS + SWAP_TEXTS]
        # Permutation-closed systems whose searches visit nodes at need 2
        # (test_pruning.CLOSED_SEARCHES).
        closed = closed_systems(58)
        systems += [closed[i] for i in (14, 32, 57)]
        calls = kept = 0
        for system in systems:
            unextended.clear()
            with without_the_count_five_step():
                _, stats = bnb_search(system)
            calls += len(unextended)
            kept += stats.nodes_visited - stats.incumbent_updates
            kept -= bool(SearchState.initial(system).nonsquares)  # the root
        assert late == []
        assert twice == []
        assert calls == kept
        assert (ends, calls) == (67, 1488)


class TestNoSetVisitedTwice:
    # Exclusion alone keeps the search from reaching a visited set again,
    # so under the identity alone an orbit table would skip nothing, and
    # the search keeps none.

    @pytest.fixture
    def systems(self, soundness_corpus, worked_systems):
        return (soundness_corpus + list(worked_systems.values()) + [benchmark_system("rf")]
                + [benchmark_system(family, n) for family in ("cubic_cycle", "cubic_bicycle")
                   for n in (4, 5, 6)])

    def test_under_the_identity_no_set_is_extended_twice(self, systems, monkeypatch):
        extended = []
        tracked = {}
        original_extended = SearchState.extended

        def recording_extended(state, monomials):
            child = original_extended(state, monomials)
            if not tracked["descent"]:
                extended.append(frozenset(child.new_vars))
            return child

        monkeypatch.setattr(SearchState, "extended", recording_extended)
        follow_incumbent(monkeypatch, tracked)
        monkeypatch.setattr(quadratize.solver, "automorphisms", identity_group)
        for system in systems:
            extended.clear()
            _, stats = bnb_search(system)
            # The last call extends the root by the answer, for the document.
            visited = extended[:-1]
            assert len(visited) == stats.nodes_visited
            assert len(set(visited)) == len(visited)

    def test_no_orbit_key_under_a_trivial_group(self, systems, monkeypatch):
        keyed = []
        original_key = quadratize.solver.orbit_key

        def recording_key(monomials, group):
            keyed.append(monomials)
            return original_key(monomials, group)

        monkeypatch.setattr(quadratize.solver, "orbit_key", recording_key)
        trivial = [system for system in systems if len(automorphisms(system)) == 1]
        assert len(trivial) > 100
        for system in trivial:
            bnb_search(system)
        assert keyed == []
        monkeypatch.setattr(quadratize.solver, "automorphisms", identity_group)
        bnb_search(benchmark_system("cubic_cycle", 4))
        assert keyed == []


class TestSkippingKeepsTheAnswer:
    @pytest.mark.parametrize("name,n,stats", [
        ("cubic_cycle", 5, SearchStats(40, 18, 0, 0, 1, 10)),
        ("cubic_bicycle", 5, SearchStats(39, 17, 0, 0, 1, 10)),
    ])
    def test_without_matches_the_stats_are_those_of_the_plain_search(
            self, monkeypatch, name, n, stats):
        # Under the identity alone there is neither an orbit table nor a
        # stabilizer to forbid images with.
        system = benchmark_system(name, n)
        skipping, _ = bnb_search(system)
        monkeypatch.setattr(quadratize.solver, "automorphisms", identity_group)
        plain, plain_stats = bnb_search(system)
        assert plain_stats == stats
        assert plain.new_vars == skipping.new_vars
        assert (render_result(plain.document, "structured").split('"stats"')[0]
                == render_result(skipping.document, "structured").split('"stats"')[0])

    def test_the_group_keeps_the_answer(self, monkeypatch):
        # The images of a settled child are forbidden only once its subtree
        # is done: that subtree may hold them, and the answer with them.
        systems = ([benchmark_system(family, n) for family in ("cubic_cycle", "cubic_bicycle")
                    for n in range(2, 7)]
                   + [parse_system(allen_cahn_text(10))]
                   + [parse_system("\n".join(f"x{i}' = x{i}^3" for i in range(1, n + 1)))
                      for n in (3, 4)])
        assert all(len(automorphisms(system)) > 1 for system in systems)
        symmetric = [bnb_search(system)[0] for system in systems]
        monkeypatch.setattr(quadratize.solver, "automorphisms", identity_group)
        for system, result in zip(systems, symmetric):
            plain, _ = bnb_search(system)
            assert plain.new_vars == result.new_vars
            assert (render_result(plain.document, "structured").split('"stats"')[0]
                    == render_result(result.document, "structured").split('"stats"')[0])

    @pytest.mark.parametrize("name,n", [("cubic_cycle", 5), ("cubic_bicycle", 5)])
    def test_caps_around_the_optimum(self, name, n):
        system = benchmark_system(name, n)
        result, _ = bnb_search(system)
        with pytest.raises(NoQuadratizationWithinCap):
            bnb_search(system, max_order_cap=result.order - 1)
        capped, _ = bnb_search(system, max_order_cap=result.order)
        assert capped.new_vars == result.new_vars

    @pytest.mark.parametrize("name,n,stats", [
        ("cubic_cycle", 6, SearchStats(58, 14, 0, 19, 1, 12)),
        ("cubic_bicycle", 6, SearchStats(52, 12, 0, 4, 1, 12)),
    ])
    def test_pinned_node_counts(self, name, n, stats):
        assert bnb_search(benchmark_system(name, n))[1] == stats

    def test_wide_chain_skips_nothing(self):
        _, stats = bnb_search(parse_system(allen_cahn_text(10)))
        assert (stats.nodes_visited, stats.pruned_by_symmetry) == (11, 0)


class TestStartingBound:
    def test_answers_do_not_depend_on_the_first_incumbent(
            self, worked_systems, random_corpus, monkeypatch):
        # The search starts one above the greedy order, so it still finds
        # its own first optimum in depth-first order: from the degree box,
        # a looser start, it returns the same variables and documents.
        systems = ([benchmark_system("cubic_cycle", 5), benchmark_system("cubic_bicycle", 5),
                    benchmark_system("rf")] + list(worked_systems.values()) + random_corpus)
        greedy = [bnb_search(system)[0] for system in systems]
        monkeypatch.setattr(quadratize.solver, "initial_incumbent", degree_box_incumbent)
        for system, result in zip(systems, greedy):
            boxed, _ = bnb_search(system)
            assert boxed.new_vars == result.new_vars
            assert (render_result(boxed.document._replace(stats=None), "structured")
                    == render_result(result.document._replace(stats=None), "structured"))


def no_root_lower_bound(root, divisor_sets):
    """A stand-in for pruning.lower_bound that proves nothing."""
    return 0


class TestRootLowerBound:
    # The search ends at the first quadratization whose order meets the root
    # lower bound (pruning.lower_bound): no quadratization is smaller.

    def test_no_smaller_quadratization_in_the_wide_box(self, soundness_corpus, worked_systems):
        # Checked with the definitional completion_below; the bound is also
        # at most the search's answer, and equal to it on most systems.
        systems = (soundness_corpus + list(worked_systems.values())
                   + [benchmark_system("cubic_cycle", n) for n in range(2, 6)]
                   + [benchmark_system("rf")])
        proven = 0
        for system in systems:
            floor = lower_bound(SearchState.initial(system), {})
            pool = box_candidates(system, wide_box(system))
            found = completion_below(system, (), floor, pool)
            assert found is None, f"the root lower bound is {floor}, but {found} quadratizes"
            order = bnb_search(system)[0].order
            assert floor <= order
            proven += floor == order
        assert (len(systems), proven) == (109, 107)

    @pytest.fixture(scope="class")
    def systems(self, soundness_corpus):
        return (soundness_corpus + [benchmark_system("rf"), parse_system(allen_cahn_text(10))]
                + [benchmark_system(family, n) for family in ("cubic_cycle", "cubic_bicycle")
                   for n in range(2, 7)])

    def test_the_rules_prune_the_root_exactly_up_to_it(self, systems):
        # So the search checks the root against it in place of the two rules
        # and the steps at needs 4 to 6, the need-6 step taken whatever
        # packing finds.  The paper's graph rule, which the search does not
        # run, lifts none of these roots: it prunes none above the bound
        # either.  Of the 60 permutation-closed roots that random.Random(14)
        # draws, neither counting term tops the exact steps (the pair-count
        # rule topped them on 1 before the count-5 step), nor on any of the
        # other systems.  They are not in `systems`: many of their searches
        # are slow.
        for system in systems + closed_systems(60):
            root = SearchState.initial(system)
            floor = lower_bound(root, {})
            for bound in range(floor + 3):
                pruned = (prune_by_packing_bound(root, bound)
                          or prune_by_quadratic_bound(root, bound)
                          or prune_by_c4_bound(root, bound)
                          or 4 <= bound <= EXACT_COUNT + 1 and not node_completes(
                              system, root.vars_set, (), root.nonsquares, (), bound - 1, {}))
                assert pruned == (bound <= floor), (system, bound, floor)

    def test_the_need_four_step_matches_the_graph_bound(self):
        # Permutation-closed systems 7 and 27, counted from 0 in the order
        # random.Random(14) draws them, are the last roots the paper's graph
        # rule lifted: it proves 4, above the pair-count rule's 3.  The
        # need-4 step proves 4 by itself, the need-5 step then 5 and the
        # need-6 step 6, so the root lower bound needs no graph term.
        drawn = closed_systems(28)
        roots = [SearchState.initial(drawn[i]) for i in (7, 27)]
        assert [(lower_bound(root, {}), quadratic_bound(root),
                 prune_by_c4_bound(root, 4), prune_by_c4_bound(root, 5))
                for root in roots] == [(6, 3, True, False)] * 2

    def test_the_stop_changes_no_answer(self, systems, monkeypatch):
        # Only the nodes after the answer go: a later incumbent would have
        # to be smaller than the root lower bound.
        stopped = [bnb_search(system) for system in systems]
        monkeypatch.setattr(quadratize.solver, "lower_bound", no_root_lower_bound)
        fewer = 0
        for system, (result, stats) in zip(systems, stopped):
            plain, plain_stats = bnb_search(system)
            assert (result.new_vars, result.order) == (plain.new_vars, plain.order)
            assert stats.incumbent_updates == plain_stats.incumbent_updates
            assert stats.optimal_order == plain_stats.optimal_order
            assert (render_result(result.document._replace(stats=None), "structured")
                    == render_result(plain.document._replace(stats=None), "structured"))
            assert stats.nodes_visited <= plain_stats.nodes_visited
            fewer += stats.nodes_visited < plain_stats.nodes_visited
        assert fewer == 49

    def test_benchmark_corpus_node_count(self, monkeypatch):
        # The benchmark's corpus at seed 11: the root lower bound proves 198
        # of the 200 optima, and the search visits 157 fewer nodes.  The
        # swap step, which runs while the greedy order is above that bound
        # (above 0 without it), starts 11 searches one lower than the descent.
        systems = [parse_system(instance.text) for instance in benchmark_workloads().corpus(11)]
        nodes = proven = 0
        for system in systems:
            result, stats = bnb_search(system)
            nodes += stats.nodes_visited
            proven += lower_bound(SearchState.initial(system), {}) == result.order
        assert (nodes, proven) == (727, 198)
        monkeypatch.setattr(quadratize.solver, "lower_bound", no_root_lower_bound)
        assert sum(bnb_search(system)[1].nodes_visited for system in systems) == 884


# SHA-256 over the answers for the systems of test_documents_hash_to_the_pin:
# for each system in turn, its structured document without the stats, then
# its Laurent document.  A change that keeps every answer keeps the pin.
ANSWERS_SHA256 = "4de02e24e67907e11309a7bb07f1d07c34f8ad85574867dc6c86633d74a496d5"

# SHA-256 over the structured documents, without the stats, of the
# benchmark's corpus workload at seed 11 (perfbench/workloads.py), in its
# order.
CORPUS_SHA256 = "0907909a1f053f8abc17e21810b69a64540de6b64a6e887d31bd12cd4952fddf"

# SHA-256 over the search statistics: tuple(SearchStats) for each system of
# test_documents_hash_to_the_pin in turn, then the root lower bound of each
# of the 60 permutation-closed systems and of the benchmark's corpus at seed
# 11.  A refactor that keeps every node count and root bound keeps the pin.
STATS_SHA256 = "ea9c20b2bbe863cc46cd9ba4c62f9b7261a3398bbb3d07f06e458fa4f8db4df6"


class TestAnswersUnchanged:
    def test_documents_hash_to_the_pin(self, worked_systems, soundness_corpus):
        systems = ([benchmark_system(family, n) for family in ("cubic_cycle", "cubic_bicycle")
                    for n in (5, 6)]
                   + [benchmark_system("rf"), parse_system(allen_cahn_text(10))]
                   + list(worked_systems.values()) + soundness_corpus)
        digest = hashlib.sha256()
        for system in systems:
            document = bnb_search(system)[0].document._replace(stats=None)
            digest.update(render_result(document, "structured").encode())
            digest.update(render_result(laurent_quadratize(system).document, "structured").encode())
        assert digest.hexdigest() == ANSWERS_SHA256

    def test_benchmark_corpus_hashes_to_the_pin(self):
        digest = hashlib.sha256()
        for instance in benchmark_workloads().corpus(11):
            document = bnb_search(parse_system(instance.text))[0].document._replace(stats=None)
            digest.update(render_result(document, "structured").encode())
        assert digest.hexdigest() == CORPUS_SHA256

    def test_stats_hash_to_the_pin(self, worked_systems, soundness_corpus):
        systems = ([benchmark_system(family, n) for family in ("cubic_cycle", "cubic_bicycle")
                    for n in (5, 6)]
                   + [benchmark_system("rf"), parse_system(allen_cahn_text(10))]
                   + list(worked_systems.values()) + soundness_corpus)
        digest = hashlib.sha256()
        for system in systems:
            digest.update(repr(tuple(bnb_search(system)[1])).encode())
        roots = closed_systems(60) + [parse_system(instance.text)
                                      for instance in benchmark_workloads().corpus(11)]
        for system in roots:
            digest.update(repr(lower_bound(SearchState.initial(system), {})).encode())
        assert digest.hexdigest() == STATS_SHA256
