import random
from collections import Counter

import pytest

import quadratize.polynomials
import quadratize.pruning
import quadratize.solver
import quadratize.state
from quadratize.parsing import parse_system
from quadratize.polynomials import (
    grlex_key,
    lie_derivative,
    lie_derivative_support,
    monomial_mul,
    monomial_quotient,
    unit_monomial,
    variable_monomial,
)
from quadratize.solver import benchmark_system, bnb_search, laurent_quadratize
from quadratize.state import SearchState, is_product

from conftest import (
    allen_cahn_text,
    definition_factor_set,
    definition_nonsquares,
    explicit_product_set,
    factor_pairs,
    follow_incumbent,
    packing_prunes,
    random_polynomial_system,
    without_the_count_five_step,
)


def assert_product_test_matches(state):
    """is_product against the materialized products, on every product, every
    derivative monomial and each quotient of one by a generalized variable,
    Laurent ones included."""
    products = explicit_product_set(state)
    derived = set().union(*(lie_derivative_support(z, state.system) for z in state.vars_set))
    candidates = products | derived | {monomial_quotient(m, v)
                                       for m in derived for v in state.vars_set}
    for m in candidates:
        assert is_product(m, state.vars_set, state.new_vars) == (m in products), m


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

    # A malformed monomial would otherwise pass the product test: () has no
    # exponent to be negative, and (2.0,) is not a key the system knows.
    @pytest.mark.parametrize("monomial", [(), (1, 2), (2.0,)], ids=["empty", "long", "float"])
    def test_rejects_malformed_monomial(self, monomial):
        state = SearchState.initial(parse_system("x' = x^5"))
        with pytest.raises(ValueError, match="tuple of 1 ints"):
            state.extended([monomial])

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
                assert not (state.nonsquares & explicit_product_set(state))

    def test_span_only_grows(self):
        system = parse_system("x' = x^4 + x^3")
        root = SearchState.initial(system)
        child = root.extended([(2,)])
        for m in [(0,), (1,), (2,), (3,), (4,)]:
            if is_product(m, root.vars_set, root.new_vars):
                assert is_product(m, child.vars_set, child.new_vars)


class TestProductTest:
    def test_random_extensions(self):
        # Each step adds the factors of a random factorization of a random
        # nonsquare, as a search child does, so old variables cover some of
        # the new derivatives.
        rng = random.Random(7)
        for _ in range(60):
            state = SearchState.initial(random_polynomial_system(rng))
            assert_product_test_matches(state)
            for _ in range(rng.randint(1, 4)):
                if not state.nonsquares:
                    break
                pair = rng.choice(factor_pairs(rng.choice(sorted(state.nonsquares))))
                state = state.extended(f for f in pair if f not in state.vars_set)
                assert_product_test_matches(state)
                assert state.nonsquares == definition_nonsquares(state)

    def test_laurent_liftings(self, random_corpus, worked_systems):
        for system in random_corpus + list(worked_systems.values()):
            lifting = laurent_quadratize(system)
            assert_product_test_matches(SearchState.initial(system).extended(lifting.new_vars))

    def test_base_pair_needs_no_variable(self):
        vars_set = SearchState.initial(parse_system("x1' = x2\nx2' = x1")).vars_set
        assert (1, 1) not in vars_set
        assert is_product((1, 1), vars_set, ())
        assert is_product((0, 2), vars_set, ())
        assert not is_product((2, 1), vars_set, ())

    def test_negative_exponent_of_degree_two(self):
        root = SearchState.initial(parse_system("x1' = x2\nx2' = x1"))
        assert not is_product((3, -1), root.vars_set, ())
        state = root.extended([(2, -1)])
        assert is_product((3, -1), state.vars_set, state.new_vars)
        assert_product_test_matches(state)

    def test_old_variable_times_base_variable(self):
        # z = x2^2 first, then a = x1^2: a' = 2*x1*x2^2 = 2 * z * x1, covered
        # by the old z and by no pair with a.
        state = SearchState.initial(parse_system("x1' = x2^2\nx2' = x1^3")).extended([(0, 2)])
        assert state.nonsquares == {(3, 0), (3, 1)}
        state = state.extended([(2, 0)])
        assert is_product((1, 2), state.vars_set, state.new_vars)
        assert state.nonsquares == definition_nonsquares(state) == {(3, 1)}


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

    def test_each_term_uses_its_least_factor_pair(self, random_corpus, worked_systems):
        # The least pair from the materialized products: its first factor is
        # the graded-lex least of all first factors of a pair.
        for system in random_corpus[:20] + list(worked_systems.values()):
            for new_vars in (bnb_search(system)[0].new_vars,
                             laurent_quadratize(system).new_vars):
                state = SearchState.initial(system).extended(new_vars)
                doc = state.extract_quadratic_system()
                mono_of = {name: mono for name, mono, _ in doc.new_variables}
                mono_of["1"] = unit_monomial(system.num_vars)
                for i, name in enumerate(system.variables):
                    mono_of[name] = variable_monomial(system.num_vars, i)
                pairs = [(a, b) for a in state.vars_set for b in state.vars_set]
                for terms in doc.quadratic_rhs.values():
                    for t in terms:
                        f1, f2 = mono_of[t.factor1], mono_of[t.factor2]
                        m = monomial_mul(f1, f2)
                        assert f1 == min((a for a, b in pairs if monomial_mul(a, b) == m),
                                         key=grlex_key)


    def test_walking_the_divisors_gives_the_pair_of_the_scan(self, random_corpus, monkeypatch):
        # A term with fewer divisors than there are variables walks its
        # divisors in graded-lex order instead of scanning the variables.
        # With the scan forced, every document is the same.  In the
        # five-variable system, x*y^2 has the pairs x * y^2 and y^2 * x, and
        # its divisors in tuple order reach y^2 before x.
        systems = random_corpus[:20] + [
            parse_system("x' = x*y^2\ny' = y\nu' = u\nv' = v\nw' = w"),
            parse_system(allen_cahn_text(12)),
        ]
        states = [SearchState.initial(system).extended(bnb_search(system)[0].new_vars)
                  for system in systems]
        walked = [state.extract_quadratic_system() for state in states]
        monkeypatch.setattr(quadratize.state, "divisor_count", lambda m: float("inf"))
        assert [state.extract_quadratic_system() for state in states] == walked
        assert walked[-2].quadratic_rhs["x"][0].factor1 == "x"


class TestEveryVisitedNode:
    def test_incremental_nonsquares_match_a_recount(self, random_corpus, monkeypatch):
        # Every state the search builds, its first incumbent's descent
        # included, so every node it visits: the nonsquares that extended
        # carries over and updates equal the ones from the definition: all
        # the state's derivative monomials less the materialized products.
        original = SearchState.extended
        checked = []
        tracked = {}

        def checking(state, monomials):
            child = original(state, monomials)
            assert child.nonsquares == definition_nonsquares(child), child.new_vars
            if not tracked["descent"]:
                checked.append(child)
            return child

        monkeypatch.setattr(SearchState, "extended", checking)
        follow_incumbent(monkeypatch, tracked)
        for system in random_corpus + [benchmark_system("cubic_cycle", 4)]:
            checked.clear()
            _, stats = bnb_search(system)
            # Every visited node, the root included, plus the extraction.
            assert len(checked) == stats.nodes_visited + 1

    def test_factor_sets_are_recounts_built_once(self, random_corpus, stream_tail, monkeypatch):
        # The packing rule's sets, for a node or for a child before it is
        # extended: every set packed is C(m) over the child's variables, as
        # the definition gives it, less the banned variables, for a
        # nonsquare m of the child; and so is every set the root lower
        # bound packs, for a nonsquare of the root.  The rule
        # keeps the divisors of each m in one memo per search, which the
        # root lower bound shares, so no monomial's divisor set is built
        # twice in a search.  It packs only at need 4 or more, which the
        # corpus rarely reaches, so two cubic systems join it.  The need-3
        # probe walks the divisors of a lone nonsquare for its factor pairs
        # too, and the need-4 and need-5 probes those of one of their
        # nonsquares; the need-3 probe builds no set, and the need-4 and
        # need-5 probes build sets only for monomials of their groups, in
        # the search's memo, to pack them (packs_past).  The probes walk
        # with polynomials.new_factor_pairs, which is lazy, so a walk is
        # counted when it first asks for the divisors; branching walks the
        # monomial it branches on with it too, which is not counted.
        real_rule = quadratize.solver.packing_count
        real_floor = quadratize.solver.lower_bound
        real_packs = quadratize.pruning.packs
        real_divisors = quadratize.pruning.divisors
        real_walk = quadratize.polynomials.divisors
        real_children = quadratize.solver.generate_children
        real_divisor_set = quadratize.pruning.divisor_set
        real_probe = quadratize.pruning.two_variables_complete
        real_more = quadratize.pruning.more_variables_complete
        context = []
        builds = Counter()
        probing = []
        building = []
        branching = []
        checked = walks = probe_builds = 0

        def tracking_rule(state, bound, added, divisor_sets, banned):
            context[:] = state, added, banned
            memo = dict(divisor_sets)
            count = real_rule(state, bound, added, divisor_sets, banned)
            if bound - len(state.new_vars) - len(added) <= 3:
                assert divisor_sets == memo, (state.new_vars, added, bound)
            return count

        def tracking_floor(root, divisor_sets):
            context[:] = root, (), frozenset()
            return real_floor(root, divisor_sets)

        def checking_packs(sets, need):
            nonlocal checked
            state, added, banned = context
            child = state.extended(added)
            for cover, m in sets:
                assert m in child.nonsquares, (child.new_vars, m)
                assert cover == definition_factor_set(m, child.vars_set) - banned, (
                    child.new_vars, m)
                checked += 1
            return real_packs(sets, need)

        def tracking_divisor_set(m, divisor_sets):
            nonlocal probe_builds
            if probing and m not in divisor_sets:
                assert m in probing[-1], (probing[-1], m)
                probe_builds += 1
            building.append(m)
            try:
                return real_divisor_set(m, divisor_sets)
            finally:
                building.pop()

        def counting_divisors(m):
            assert building, m
            builds[m] += 1
            return real_divisors(m)

        def counting_walks(m):
            nonlocal walks
            if not branching:
                assert probing and m in probing[-1], (probing[-1] if probing else None, m)
                walks += 1
            return real_walk(m)

        def tracking_children(state):
            branching.append(state)
            try:
                return real_children(state)
            finally:
                branching.pop()

        def tracking_probe(system, vars_set, introduced, groups, banned):
            # The need-3 probe walks the divisors of a lone nonsquare only,
            # and builds no set.
            probing.append([m for _, m in groups] if len(groups) == 1 else [])
            try:
                return real_probe(system, vars_set, introduced, groups, banned)
            finally:
                probing.pop()

        def tracking_more(system, vars_set, introduced, groups, banned, more, divisor_sets):
            probing.append([m for _, m in groups])
            try:
                return real_more(system, vars_set, introduced, groups, banned, more, divisor_sets)
            finally:
                probing.pop()

        monkeypatch.setattr(quadratize.solver, "packing_count", tracking_rule)
        monkeypatch.setattr(quadratize.solver, "lower_bound", tracking_floor)
        monkeypatch.setattr(quadratize.pruning, "packs", checking_packs)
        monkeypatch.setattr(quadratize.pruning, "divisors", counting_divisors)
        monkeypatch.setattr(quadratize.polynomials, "divisors", counting_walks)
        monkeypatch.setattr(quadratize.solver, "generate_children", tracking_children)
        monkeypatch.setattr(quadratize.pruning, "divisor_set", tracking_divisor_set)
        monkeypatch.setattr(quadratize.pruning, "two_variables_complete", tracking_probe)
        monkeypatch.setattr(quadratize.pruning, "more_variables_complete", tracking_more)
        for system in random_corpus + [benchmark_system("cubic_cycle", n) for n in (4, 5)] + [
                benchmark_system("cubic_bicycle", 4)] + stream_tail:
            builds.clear()
            with without_the_count_five_step():
                bnb_search(system)
            assert set(builds.values()) <= {1}
        assert (checked, walks, probe_builds) == (253, 197, 93)

    def test_too_few_nonsquares_build_no_set(self, random_corpus, later_corpus, stream_tail,
                                             monkeypatch):
        # k packed sets need k more variables, and k never exceeds the
        # number of sets, so the packing rule builds no divisor set when
        # fewer nonsquares are left than it needs, nor when it needs one
        # variable (every C(m) holds m itself), nor at need 2 or 3, where it
        # looks for the one or two more variables among the quotients by the
        # variables and, for a lone nonsquare, among its factor pairs.
        real_rule = quadratize.solver.packing_count
        lazy_calls = 0

        def checking_rule(state, bound, added, divisor_sets, banned):
            nonlocal lazy_calls
            need = bound - len(state.new_vars) - len(added)
            vars_set = state.vars_set.union(added)
            left = [m for m in state.nonsquares if not is_product(m, vars_set, added)]
            before = dict(divisor_sets)
            count = real_rule(state, bound, added, divisor_sets, banned)
            if need <= 3 or len(left) < need:
                assert divisor_sets == before, (state.new_vars, added, bound)
                lazy_calls += 1
            return count

        monkeypatch.setattr(quadratize.solver, "packing_count", checking_rule)
        for system in (random_corpus + [benchmark_system("cubic_cycle", 4)] + later_corpus
                       + stream_tail):
            with without_the_count_five_step():
                bnb_search(system)
        assert lazy_calls == 1728

        real_divisors = quadratize.pruning.divisors
        builds = 0

        def counting_divisors(m):
            nonlocal builds
            builds += 1
            return real_divisors(m)

        monkeypatch.setattr(quadratize.pruning, "divisors", counting_divisors)
        # The set of x^100000 would hold 10^5 divisors.
        state = SearchState.initial(parse_system("x' = x^100000"))
        assert len(state.nonsquares) == 1
        rule = packing_prunes
        assert not rule(state, 2)
        assert rule(state, 0)
        assert rule(state, 1)
        assert builds == 0
        state = SearchState.initial(parse_system("x' = x^100000 + x^5 + x^4 + x^3"))
        assert len(state.nonsquares) == 4
        rule(state, 2)
        rule(state, 3)
        assert builds == 0
        rule(state, 4)
        assert builds == 4
