import random
from itertools import combinations_with_replacement

import pytest

from quadratize.parsing import parse_system
from quadratize.polynomials import (
    lie_derivative,
    lie_derivative_support,
    monomial_mul,
    unit_monomial,
    variable_monomial,
)
from quadratize.solver import benchmark_system, bnb_search
from quadratize.state import SearchState

from conftest import random_polynomial_system


def explicit_product_set(state):
    """All pairwise products of the generalized variables, materialized."""
    gen = state.vars_sorted
    return {monomial_mul(a, b) for a, b in combinations_with_replacement(gen, 2)}


def definition_nonsquares(state):
    """Nonsquares straight from the definition, via the materialized products."""
    n = state.system.num_vars
    derived = set()
    for i in range(n):
        derived |= lie_derivative_support(variable_monomial(n, i), state.system)
    for z in state.new_vars:
        derived |= lie_derivative_support(z, state.system)
    return derived - explicit_product_set(state)


class TestInitialState:
    def test_scalar_power(self):
        state = SearchState.initial(parse_system("x' = x^5"))
        assert state.nonsquares == {(5,)}
        assert definition_nonsquares(state) == {(5,)}

    def test_already_quadratic(self):
        state = SearchState.initial(parse_system("x' = x^2"))
        assert state.nonsquares == frozenset()
        assert state.is_quadratization

    def test_two_term_scalar(self):
        state = SearchState.initial(parse_system("x' = x^4 + x^3"))
        assert state.nonsquares == {(3,), (4,)}
        assert definition_nonsquares(state) == {(3,), (4,)}

    def test_base_variables(self):
        state = SearchState.initial(parse_system("x1' = x2^4\nx2' = x1^2"))
        assert state.vars_set == {(0, 0), (1, 0), (0, 1)}
        assert state.new_vars == ()


class TestExtended:
    def test_single_variable_closes_scalar_power(self):
        state = SearchState.initial(parse_system("x' = x^5")).extended([(4,)])
        assert state.nonsquares == frozenset()
        assert state.new_vars == ((4,),)

    def test_partial_extension_shifts_nonsquare(self):
        # x^4 = x^2*x^2 and x^3 = x*x^2 become expressible, while the
        # derivative of x^2 contributes 2*x^5 + 2*x^4 and x^5 does not split
        # over {1, x, x^2}; the tree children of this state are exactly the
        # three factorizations of x^5
        state = SearchState.initial(parse_system("x' = x^4 + x^3")).extended([(2,)])
        assert state.nonsquares == {(5,)}
        assert definition_nonsquares(state) == {(5,)}

    def test_empty_extension_is_identity(self):
        state = SearchState.initial(parse_system("x' = x^5"))
        assert state.extended([]) is state

    def test_rejects_existing_variable(self):
        state = SearchState.initial(parse_system("x' = x^5"))
        with pytest.raises(ValueError):
            state.extended([(1,)])

    def test_incremental_matches_definition(self):
        rng = random.Random(2024)
        for _ in range(40):
            system = random_polynomial_system(rng)
            state = SearchState.initial(system)
            for _ in range(rng.randint(1, 3)):
                candidates = sorted(state.nonsquares)
                if not candidates:
                    break
                mono = rng.choice(candidates)
                if mono in state.vars_set:
                    break
                state = state.extended([mono])
                assert state.nonsquares == definition_nonsquares(state)
                assert state.nonsquares == state.recomputed_nonsquares()
                assert not (state.nonsquares & explicit_product_set(state))

    def test_span_only_grows(self):
        system = parse_system("x' = x^4 + x^3")
        root = SearchState.initial(system)
        child = root.extended([(2,)])
        for m in [(0,), (1,), (2,), (3,), (4,)]:
            if root.factor_pair(m) is not None:
                assert child.factor_pair(m) is not None


class TestIsQuadratization:
    def test_examples(self, worked_systems):
        scalar = SearchState.initial(worked_systems["scalar_x5"])
        assert not scalar.is_quadratization
        assert scalar.extended([(4,)]).is_quadratization

        rf = SearchState.initial(worked_systems["rabinovich_fabrikant"])
        squares = [(2, 0, 0), (1, 1, 0), (0, 2, 0)]  # x^2, x*y, y^2
        assert rf.extended(squares).is_quadratization


class TestExtraction:
    def test_scalar_power_exact_system(self):
        state = SearchState.initial(parse_system("x' = x^5")).extended([(4,)])
        doc = state.extract_quadratic_system()
        assert doc.new_variables == (("z1", (4,), "x^4"),)
        x_terms = doc.quadratic_rhs["x"]
        assert len(x_terms) == 1
        assert (x_terms[0].coeff, x_terms[0].factor1, x_terms[0].factor2) == (1, "x", "z1")
        z_terms = doc.quadratic_rhs["z1"]
        assert len(z_terms) == 1
        assert (z_terms[0].coeff, z_terms[0].factor1, z_terms[0].factor2) == (4, "z1", "z1")

    def test_counterexample_relations(self):
        system = parse_system("x1' = x2^4\nx2' = x1^2")
        state = SearchState.initial(system).extended([(1, 2), (0, 3), (3, 0)])
        doc = state.extract_quadratic_system()
        names = {mono: name for name, mono, _ in doc.new_variables}
        # derivative of x2^3 is 3*x1^2*x2^2 = 3 * x1 * (x1*x2^2)
        cube_terms = doc.quadratic_rhs[names[(0, 3)]]
        assert [(t.coeff, t.factor1, t.factor2) for t in cube_terms] == [
            (3, "x1", names[(1, 2)])
        ]
        # derivative of x1^3 is 3*x1^2*x2^4 = 3 * (x1*x2^2)^2
        top_terms = doc.quadratic_rhs[names[(3, 0)]]
        assert [(t.coeff, t.factor1, t.factor2) for t in top_terms] == [
            (3, names[(1, 2)], names[(1, 2)])
        ]

    def test_already_quadratic_echoes(self):
        state = SearchState.initial(parse_system("x' = x^2 + x"))
        doc = state.extract_quadratic_system()
        assert doc.new_variables == ()
        assert [(t.coeff, t.factor1, t.factor2) for t in doc.quadratic_rhs["x"]] == [
            (1, "1", "x"),
            (1, "x", "x"),
        ]

    def test_requires_quadratization(self):
        state = SearchState.initial(parse_system("x' = x^5"))
        with pytest.raises(ValueError):
            state.extract_quadratic_system()

    def test_substituting_back_reproduces_derivatives(self):
        system = parse_system("x1' = x2^4\nx2' = x1^2")
        state = SearchState.initial(system).extended([(1, 2), (0, 3), (3, 0)])
        doc = state.extract_quadratic_system()
        n = system.num_vars
        mono_of = {"1": unit_monomial(n)}
        for i, name in enumerate(system.variables):
            mono_of[name] = variable_monomial(n, i)
        for name, mono, _ in doc.new_variables:
            mono_of[name] = mono
        for var, terms in doc.quadratic_rhs.items():
            expected = lie_derivative(mono_of[var], system)
            actual = {}
            for t in terms:
                key = (monomial_mul(mono_of[t.factor1], mono_of[t.factor2]), t.params)
                actual[key] = actual.get(key, 0) + t.coeff
            assert {k: c for k, c in actual.items() if c} == expected


class TestEveryVisitedNode:
    def test_incremental_nonsquares_match_a_recount(self, random_corpus, monkeypatch):
        # Every state the search builds, so every node it visits: the
        # nonsquares that extended carries over and updates equal the ones
        # recounted from all the state's derivatives.
        original = SearchState.extended
        checked = []

        def checking(state, monomials):
            child = original(state, monomials)
            assert child.nonsquares == child.recomputed_nonsquares(), child.new_vars
            checked.append(child)
            return child

        monkeypatch.setattr(SearchState, "extended", checking)
        for system in random_corpus + [benchmark_system("cubic_cycle", 4)]:
            checked.clear()
            _, stats = bnb_search(system)
            # Every visited node, the root included, plus the extraction.
            assert len(checked) == stats.nodes_visited + 1
