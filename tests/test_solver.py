import sys
import time
from itertools import combinations, product

import pytest

import quadratize.solver
from quadratize.bruteforce import (
    box_candidates,
    document_violations,
    is_quadratization,
    quadratization_violations,
)
from quadratize.output import render_result
from quadratize.parsing import parse_system
from quadratize.polynomials import ODESystem, divisors
from quadratize.solver import (
    NoQuadratizationWithinCap,
    SearchStats,
    automorphisms,
    benchmark_system,
    bnb_search,
    degree_box_order,
    initial_incumbent,
    laurent_quadratize,
    orbit_key,
    per_variable_degrees,
)
from quadratize.state import SearchState

from conftest import RULE_CONFIGS, allen_cahn_text, definition_nonsquares, rules, wide_box


def solve_with(system, config):
    with rules(config):
        return bnb_search(system)


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
            orders = {solve_with(system, config)[0].order for config in RULE_CONFIGS}
            assert len(orders) == 1

    def test_pruning_reduces_nodes(self):
        system = benchmark_system("cubic_cycle", 4)
        nodes = {config: solve_with(system, config)[1].nodes_visited
                 for config in RULE_CONFIGS}
        for config in ("packing", "quadratic", "c4"):
            assert nodes["none"] >= nodes[config] >= nodes["all"]
        assert nodes["none"] > nodes["all"]

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
            bnb_search(system, max_order_cap=0)
        assert err.value.lower_bound == 1
        assert str(err.value) == "no monomial quadratization with at most 0 new variables"

    def test_cap_below_optimum_does_not_build_the_box(self):
        # The cap is the search's first bound, so nothing of the 4^10 box
        # is built when the cap is too small.
        start = time.perf_counter()
        with pytest.raises(NoQuadratizationWithinCap):
            bnb_search(parse_system(allen_cahn_text(10)), max_order_cap=5)
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
        # Here the box is empty and optimal: the search finds nothing below
        # it, which is not a failure of the cap.
        result, _ = bnb_search(parse_system("x' = 2*x"), max_order_cap=0)
        assert result.new_vars == ()

    def test_cap_is_keyword_only(self):
        with pytest.raises(TypeError):
            bnb_search(parse_system("x' = x^5"), 1)


class TestRuleConfigurations:
    def test_rules_are_restored_after_an_error(self):
        names = ("prune_by_packing_bound", "prune_by_quadratic_bound", "prune_by_c4_bound")
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
        # search needs no depth cutoff of its own.
        last = [None, None]  # the state and bound of the latest c4 rule call
        expanded = 0
        real_c4 = quadratize.solver.prune_by_c4_bound
        real_children = quadratize.solver.generate_children

        def recording_c4(state, bound):
            last[:] = state, bound
            return real_c4(state, bound)

        def checking_children(state):
            nonlocal expanded
            assert state is last[0]
            assert len(state.new_vars) + 1 < last[1]
            expanded += 1
            return real_children(state)

        monkeypatch.setattr(quadratize.solver, "prune_by_c4_bound", recording_c4)
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


def permuted_monomial(mono, sigma):
    """The monomial with the exponent of variable j moved to variable sigma[j]."""
    out = [0] * len(mono)
    for j, e in enumerate(mono):
        out[sigma[j]] = e
    return tuple(out)


def permuted_system(system, sigma):
    """The system with each variable j renamed to sigma[j]."""
    rhs = [None] * system.num_vars
    for i, poly in enumerate(system.rhs):
        rhs[sigma[i]] = {(permuted_monomial(m, sigma), p): c for (m, p), c in poly.items()}
    return ODESystem(system.variables, system.parameters, tuple(rhs))


def orbit(monomials, group):
    return {frozenset(permuted_monomial(m, sigma) for m in monomials) for sigma in group}


class TestAutomorphisms:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_cubic_cycle_is_cyclic(self, n):
        assert len(automorphisms(benchmark_system("cubic_cycle", n))) == n

    @pytest.mark.parametrize("n", range(3, 9))
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

    def test_large_group_falls_back_to_the_identity(self):
        # The symmetric group on 10 variables has 3,628,800 elements.
        system = parse_system("\n".join(f"x{i}' = x{i}^3" for i in range(10)))
        start = time.perf_counter()
        group = automorphisms(system)
        assert time.perf_counter() - start < 0.2
        assert group == (tuple(range(10)),)

    def test_step_budget_falls_back_to_the_identity(self):
        start = time.perf_counter()
        group = automorphisms(benchmark_system("cubic_cycle", 60))
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


def completion_below(system, new_vars, bound, pool):
    """A quadratization inside new_vars + pool with fewer than `bound`
    variables that contains new_vars, or None.

    Definitional: it branches over the factor pairs of the first monomial the
    brute-force checker reports, so it shares nothing with the search.
    """
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
        found = completion_below(system, new_vars + tuple(sorted(added)), bound, pool)
        if found is not None:
            return found
    return None


class TestSkippedChildrenAreSound:
    def test_no_smaller_completion_in_the_wide_box(self, soundness_corpus, monkeypatch):
        # Every child skipped at bound N: no superset of its variables, drawn
        # from the wide-box candidates, quadratizes with fewer than N
        # variables.  The bound is followed from outside: it falls to the
        # size of each visited quadratization smaller than it.
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
            if child.is_quadratization:
                tracked["bound"] = min(tracked["bound"], len(child.new_vars))
            return child

        monkeypatch.setattr(quadratize.solver, "orbit_key", recording_key)
        monkeypatch.setattr(SearchState, "extended", bounding_extended)
        systems = soundness_corpus + [benchmark_system(family, n) for n in (3, 4)
                                      for family in ("cubic_cycle", "cubic_bicycle")]
        checked = 0
        for system in systems:
            skipped.clear()
            tracked.update(seen=set(), bound=degree_box_order(system))
            _, stats = bnb_search(system)
            assert len(skipped) == stats.pruned_by_symmetry
            pool = box_candidates(system, wide_box(system))
            for new_vars, bound in skipped:
                found = completion_below(system, new_vars, bound, pool)
                assert found is None, (
                    f"skipped {new_vars} at bound {bound}, but {found} quadratizes")
                checked += 1
        assert checked == 78

    def test_completion_below_finds_known_optima(self, worked_systems):
        # The checker above is only as good as this search.
        for system in worked_systems.values():
            result, _ = bnb_search(system)
            pool = box_candidates(system, wide_box(system))
            assert completion_below(system, (), result.order, pool) is None
            assert completion_below(system, (), result.order + 1, pool) is not None


class TestChildrenSkippedBeforeExtensionAreSound:
    def test_no_extension_at_the_bound_and_no_quadratization_one_short(
            self, soundness_corpus, monkeypatch):
        # The bound is followed from outside, as above.  No child is
        # extended once it is as large as the bound.  A child taken from
        # generate_children that never reaches orbit_key was skipped before
        # extension: unless it is as large as the bound, it is one variable
        # short of it and the brute-force checker finds it is not a
        # quadratization, so no set containing it beats the bound.
        tracked = {}
        pulled = []  # [parent, added, bound when the search took it, keyed]
        extensions = []  # (size, bound) of every extended call
        original_children = quadratize.solver.generate_children
        original_key = quadratize.solver.orbit_key
        original_extended = SearchState.extended

        def recording_children(state):
            for added in original_children(state):
                pulled.append([state, added, tracked["bound"], False])
                yield added

        def recording_key(monomials, group):
            pulled[-1][3] = True
            return original_key(monomials, group)

        def bounding_extended(state, monomials):
            child = original_extended(state, monomials)
            extensions.append((len(child.new_vars), tracked["bound"]))
            if child.is_quadratization:
                tracked["bound"] = min(tracked["bound"], len(child.new_vars))
            return child

        monkeypatch.setattr(quadratize.solver, "generate_children", recording_children)
        monkeypatch.setattr(quadratize.solver, "orbit_key", recording_key)
        monkeypatch.setattr(SearchState, "extended", bounding_extended)
        systems = soundness_corpus + [benchmark_system("cubic_cycle", 4)]
        checked = 0
        for system in systems:
            # The root's child is not pulled from generate_children.
            pulled[:] = [[None, (), None, False]]
            extensions.clear()
            tracked.update(bound=degree_box_order(system))
            _, stats = bnb_search(system)
            # The last call extends the root by the answer, for the document.
            search_extensions = extensions[:-1]
            assert len(search_extensions) == stats.nodes_visited
            assert all(size < bound for size, bound in search_extensions)
            for parent, added, bound, keyed in pulled[1:]:
                size = len(parent.new_vars) + len(added)
                if keyed or size >= bound:
                    continue
                assert size == bound - 1
                assert not is_quadratization(system, parent.new_vars + added)
                checked += 1
        assert checked == 583


class TestSkippingKeepsTheAnswer:
    @pytest.mark.parametrize("name,n,stats", [
        ("cubic_cycle", 5, SearchStats(1620, 1015, 20, 182, 0, 6, 10)),
        ("cubic_bicycle", 5, SearchStats(607, 322, 46, 74, 0, 6, 10)),
    ])
    def test_without_matches_the_stats_are_those_of_the_plain_search(
            self, monkeypatch, name, n, stats):
        system = benchmark_system(name, n)
        skipping, _ = bnb_search(system)
        monkeypatch.setattr(quadratize.solver, "orbit_key", lambda monomials, group: object())
        plain, plain_stats = bnb_search(system)
        assert plain_stats == stats
        assert plain.new_vars == skipping.new_vars
        assert (render_result(plain.document, "structured").split('"stats"')[0]
                == render_result(skipping.document, "structured").split('"stats"')[0])

    @pytest.mark.parametrize("name,n", [("cubic_cycle", 5), ("cubic_bicycle", 5)])
    def test_caps_around_the_optimum(self, name, n):
        system = benchmark_system(name, n)
        result, _ = bnb_search(system)
        with pytest.raises(NoQuadratizationWithinCap):
            bnb_search(system, max_order_cap=result.order - 1)
        capped, _ = bnb_search(system, max_order_cap=result.order)
        assert capped.new_vars == result.new_vars

    @pytest.mark.parametrize("name,n,stats", [
        ("cubic_cycle", 6, SearchStats(2287, 1570, 6, 129, 104, 10, 12)),
        ("cubic_bicycle", 6, SearchStats(592, 332, 20, 51, 51, 10, 12)),
    ])
    def test_pinned_node_counts(self, name, n, stats):
        assert bnb_search(benchmark_system(name, n))[1] == stats

    def test_wide_chain_skips_nothing(self):
        _, stats = bnb_search(parse_system(allen_cahn_text(10)))
        assert (stats.nodes_visited, stats.pruned_by_symmetry) == (19, 0)
