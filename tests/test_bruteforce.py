import pytest

from quadratize.bruteforce import (
    box_candidates,
    brute_force_optimal,
    document_violations,
    exhaustive_c4_capacity,
    is_c4star_free,
    quadratization_violations,
)
from quadratize.parsing import parse_system
from quadratize.pruning import C4_CAPACITY_TABLE


class TestBruteForceOptimal:
    def test_scalar_power(self):
        system = parse_system("x' = x^5")
        assert brute_force_optimal(system, (5,)) == (1, ((4,),))

    def test_two_term_scalar(self):
        system = parse_system("x' = x^4 + x^3")
        order, witness = brute_force_optimal(system, (4,))
        assert order == 2
        assert not quadratization_violations(system, witness)

    def test_counterexample_needs_wide_box(self):
        system = parse_system("x1' = x2^4\nx2' = x1^2")
        order, witness = brute_force_optimal(system, (4, 4))
        assert order == 3
        assert set(witness) == {(1, 2), (0, 3), (3, 0)}

    def test_order_non_increasing_with_box(self):
        system = parse_system("x' = x^4 + x^3")
        narrow, _ = brute_force_optimal(system, (3,))
        wide, _ = brute_force_optimal(system, (4,))
        assert wide <= narrow

    def test_pool_guard(self):
        # the (8, 8) box holds 81 - 3 = 78 candidates, more than MAX_POOL
        system = parse_system("x1' = x2^4\nx2' = x1^2")
        with pytest.raises(ValueError, match="exceeds limit"):
            brute_force_optimal(system, (8, 8))

    def test_box_candidates_excludes_unit_and_variables(self):
        system = parse_system("x1' = x2^4\nx2' = x1^2")
        pool = box_candidates(system, (2, 2))
        assert (0, 0) not in pool
        assert (1, 0) not in pool and (0, 1) not in pool
        assert len(pool) == 9 - 3


class TestWalkChecker:
    def test_rejects_double_loop(self):
        assert not is_c4star_free(1, [(0, 0), (0, 0)])

    def test_rejects_multi_edge(self):
        assert not is_c4star_free(2, [(0, 1), (0, 1)])

    def test_rejects_connected_loops(self):
        assert not is_c4star_free(2, [(0, 0), (1, 1), (0, 1)])

    def test_rejects_four_cycle(self):
        assert not is_c4star_free(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

    def test_rejects_loop_on_triangle(self):
        assert not is_c4star_free(3, [(0, 0), (0, 1), (1, 2), (0, 2)])

    @pytest.mark.parametrize("n,edges", [
        (3, [(0, 1), (1, 2), (0, 2)]),                  # triangle
        (4, [(0, 1), (0, 2), (0, 3)]),                  # star
        (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),          # path
        (1, [(0, 0)]),                                  # single loop
        (3, [(0, 0), (1, 2)]),                          # loop + disjoint edge
        (2, [(0, 0), (0, 1)]),                          # loop + incident edge
    ])
    def test_accepts_simple_c4_free_and_loop_cases(self, n, edges):
        assert is_c4star_free(n, edges)


class TestExhaustiveCapacity:
    def test_spot_values(self):
        assert exhaustive_c4_capacity(1, 1) == 1
        assert exhaustive_c4_capacity(4, 3) == 6
        assert exhaustive_c4_capacity(2, 2) == 2

    def test_matches_pinned_table_small(self):
        for n in range(1, 5):
            for m in range(n + 1):
                assert exhaustive_c4_capacity(n, m) == C4_CAPACITY_TABLE[n][m]

    def test_extra_loop_budget_is_moot(self):
        for n in range(1, 5):
            assert exhaustive_c4_capacity(n, n + 2) == exhaustive_c4_capacity(n, n)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            exhaustive_c4_capacity(7, 0)
        with pytest.raises(ValueError):
            exhaustive_c4_capacity(3, -1)

    def test_zero_vertices(self):
        assert exhaustive_c4_capacity(0, 0) == 0


class TestValidityCheckers:
    def test_accepts_valid_quadratization(self):
        system = parse_system("x' = x^5")
        assert quadratization_violations(system, [(4,)]) == []

    def test_flags_missing_coverage(self):
        system = parse_system("x' = x^5")
        violations = quadratization_violations(system, [(5,)])
        assert ((5,), (9,)) in violations  # derivative of x^5 is 5*x^9

    def test_document_checker_flags_tampering(self):
        from quadratize.solver import bnb_search

        system = parse_system("x' = x^5")
        result, _ = bnb_search(system)
        assert document_violations(system, result.document) == []
        doc = result.document
        doc = doc._replace(quadratic_rhs={**doc.quadratic_rhs, "x": ()})
        assert document_violations(system, doc) != []

    def test_document_checker_flags_missing_equation(self):
        from quadratize.solver import bnb_search

        system = parse_system("x' = x^5\ny' = x")
        doc = bnb_search(system)[0].document
        doc = doc._replace(quadratic_rhs={k: v for k, v in doc.quadratic_rhs.items()
                                          if k != "y"})
        assert document_violations(system, doc) == ["y: no equation"]

    def test_document_checker_flags_reused_input_name(self, monkeypatch):
        from quadratize.solver import bnb_search

        # Name the new variable after an input variable, as a naming bug would.
        monkeypatch.setattr("quadratize.state.choose_new_variable_names",
                            lambda taken, count: ["y"] * count)
        system = parse_system("x' = x^5\ny' = 0")
        doc = bnb_search(system)[0].document
        assert "new variable y reuses an input name" in document_violations(system, doc)

    def test_document_checker_flags_equation_of_unknown_variable(self):
        from quadratize.solver import bnb_search

        system = parse_system("x' = x^3")
        doc = bnb_search(system)[0].document
        doc = doc._replace(quadratic_rhs={**doc.quadratic_rhs, "bogus": ()})
        assert document_violations(system, doc) == ["bogus: equation for an unknown variable"]

    def test_document_checker_flags_new_variable_without_equation(self):
        from quadratize.solver import bnb_search

        system = parse_system("x' = x^3")
        doc = bnb_search(system)[0].document
        doc = doc._replace(quadratic_rhs={k: v for k, v in doc.quadratic_rhs.items()
                                          if k != "z1"})
        assert document_violations(system, doc) == ["z1: no equation"]

    def test_document_checker_flags_shared_new_name(self):
        from quadratize.solver import bnb_search

        system = parse_system("x' = x^5")
        doc = bnb_search(system)[0].document
        doc = doc._replace(new_variables=doc.new_variables * 2)
        assert document_violations(system, doc) == ["new variable name z1 is used twice"]
