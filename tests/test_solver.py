import sys
import time

import pytest

from quadratize.bruteforce import (
    document_violations,
    is_quadratization,
    quadratization_violations,
)
from quadratize.output import render_result
from quadratize.parsing import parse_system
from quadratize.solver import (
    NoQuadratizationWithinCap,
    SolveOptions,
    benchmark_system,
    bnb_search,
    degree_box_order,
    initial_incumbent,
    laurent_quadratize,
    per_variable_degrees,
)
from quadratize.state import SearchState

from conftest import allen_cahn_text

ALL_CONFIGS = {
    "none": SolveOptions(enable_rule_quadratic=False, enable_rule_c4=False),
    "quadratic": SolveOptions(enable_rule_c4=False),
    "c4": SolveOptions(enable_rule_quadratic=False),
    "both": SolveOptions(),
}


def frame_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestInitialIncumbent:
    def test_scalar_power(self):
        system = parse_system("x' = x^5")
        vars_, order = initial_incumbent(system)
        assert vars_ == ((2,), (3,), (4,), (5,))
        assert order == 4
        assert is_quadratization(system, vars_)

    def test_counterexample_box_cardinality(self):
        system = parse_system("x1' = x2^4\nx2' = x1^2")
        vars_, order = initial_incumbent(system)
        assert per_variable_degrees(system) == (2, 4)
        assert order == 3 * 5 - 3  # box minus 1 and the two variables
        assert is_quadratization(system, vars_)

    def test_incumbents_quadratize(self, worked_systems):
        for system in worked_systems.values():
            vars_, _ = initial_incumbent(system)
            assert is_quadratization(system, vars_)

    def test_linear_system_has_empty_incumbent(self):
        vars_, order = initial_incumbent(parse_system("x' = 2*x"))
        assert vars_ == () and order == 0

    def test_closed_form_order_counts_the_box(self, worked_systems, random_corpus):
        systems = list(worked_systems.values()) + random_corpus
        systems.append(parse_system("x' = 2*x\ny' = 0"))
        for system in systems:
            assert degree_box_order(system) == len(initial_incumbent(system)[0])


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
            orders = {bnb_search(system, opts)[0].order
                      for opts in ALL_CONFIGS.values()}
            assert len(orders) == 1

    def test_pruning_reduces_nodes(self):
        system = benchmark_system("cubic_cycle", 4)
        nodes = {name: bnb_search(system, opts)[1].nodes_visited
                 for name, opts in ALL_CONFIGS.items()}
        assert nodes["none"] >= nodes["quadratic"] >= nodes["both"]
        assert nodes["none"] >= nodes["c4"] >= nodes["both"]
        assert nodes["none"] > nodes["both"]

    def test_results_are_valid(self, worked_systems):
        for system in worked_systems.values():
            result, _ = bnb_search(system)
            assert quadratization_violations(system, result.new_vars) == []
            assert document_violations(system, result.document) == []

    def test_deterministic(self, worked_systems):
        for system in worked_systems.values():
            r1, s1 = bnb_search(system)
            r2, s2 = bnb_search(system)
            assert r1.new_vars == r2.new_vars
            assert s1 == s2
            assert (render_result(r1.document, "structured")
                    == render_result(r2.document, "structured"))

    def test_twelve_variable_allen_cahn_chain(self):
        # Only the order of the degree box may be computed for the search
        # to start.
        system = parse_system(allen_cahn_text(12))
        result, stats = bnb_search(system)
        assert result.order == stats.optimal_order == 12
        assert result.optimal
        assert document_violations(system, result.document) == []


class TestMaxOrderCap:
    def test_cap_below_optimum_raises(self):
        system = parse_system("x' = x^5")
        with pytest.raises(NoQuadratizationWithinCap) as err:
            bnb_search(system, SolveOptions(max_order_cap=0))
        assert err.value.lower_bound == 1
        assert str(err.value) == "no monomial quadratization with at most 0 new variables"

    def test_cap_below_optimum_does_not_build_the_box(self):
        # The cap is the search's first bound, so nothing of the 4^10 box
        # is built when the cap is too small.
        start = time.perf_counter()
        with pytest.raises(NoQuadratizationWithinCap):
            bnb_search(parse_system(allen_cahn_text(10)), SolveOptions(max_order_cap=5))
        assert time.perf_counter() - start < 1.0

    def test_cap_at_optimum_is_still_optimal(self):
        system = parse_system("x' = x^5")
        result, _ = bnb_search(system, SolveOptions(max_order_cap=1))
        assert result.order == 1
        assert result.optimal

    def test_cap_around_optimum_on_corpus(self, random_corpus):
        for system in random_corpus:
            result, _ = bnb_search(system)
            if result.order:
                with pytest.raises(NoQuadratizationWithinCap):
                    bnb_search(system, SolveOptions(max_order_cap=result.order - 1))
            capped, _ = bnb_search(system, SolveOptions(max_order_cap=result.order))
            assert capped.new_vars == result.new_vars

    def test_cap_at_box_order_returns_box(self):
        # Here the box is empty and optimal: the search finds nothing below
        # it, which is not a failure of the cap.
        result, _ = bnb_search(parse_system("x' = 2*x"), SolveOptions(max_order_cap=0))
        assert result.new_vars == ()


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
            total_monomials = sum(len(p.terms) for p in system.rhs)
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
            assert state.nonsquares == state.recomputed_nonsquares() == frozenset()


class TestBenchmarks:
    def test_cubic_cycle(self):
        system = benchmark_system("cubic_cycle", 3)
        assert system.variables == ("x1", "x2", "x3")
        assert system.rhs[0].support() == {(0, 3, 0)}
        assert system.rhs[1].support() == {(0, 0, 3)}
        assert system.rhs[2].support() == {(3, 0, 0)}

    def test_cubic_bicycle_wraps(self):
        system = benchmark_system("cubic_bicycle", 4)
        assert system.rhs[0].support() == {(0, 0, 0, 3), (0, 3, 0, 0)}
        assert system.rhs[3].support() == {(0, 0, 3, 0), (3, 0, 0, 0)}

    def test_cubic_bicycle_two_merges_coefficients(self):
        system = benchmark_system("cubic_bicycle", 2)
        assert system.rhs[0].terms == {((0, 3), ()): 2}
        assert system.rhs[1].terms == {((3, 0), ()): 2}

    def test_rf(self):
        system = benchmark_system("rf")
        assert system.variables == ("x", "y", "z")
        assert system.parameters == ("a", "b")

    def test_scalar_power(self):
        assert benchmark_system("scalar_power", 5).rhs[0].support() == {(5,)}
        assert benchmark_system("scalar_power", 1).rhs[0].support() == {(1,)}

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
