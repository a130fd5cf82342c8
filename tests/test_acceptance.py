"""Acceptance suite.

Each test covers one acceptance criterion, checks it at its stated tolerance,
and prints a single ``[criterion N] PASS/FAIL`` line (run with ``pytest -s``
to see the lines as they appear).
"""

import time

from quadratize.bruteforce import (
    brute_force_optimal,
    document_violations,
    exhaustive_c4_capacity,
    quadratization_violations,
)
from quadratize.output import render_result
from quadratize.parsing import parse_system
from quadratize.pruning import C4_CAPACITY_TABLE
from quadratize.solver import benchmark_system, bnb_search

from conftest import RULE_CONFIGS, rules, wide_box

_BENCH_CACHE = {}


def solve_benchmark(name, n, config="all"):
    key = (name, n, config)
    if key not in _BENCH_CACHE:
        system = benchmark_system(name, n)
        started = time.monotonic()
        with rules(config):
            result, stats = bnb_search(system)
        _BENCH_CACHE[key] = (system, result, stats, time.monotonic() - started)
    return _BENCH_CACHE[key]


def report(number, passed, detail):
    print(f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def terms_of(document, var):
    return [(t.coeff, t.factor1, t.factor2) for t in document.quadratic_rhs[var]]


def test_criterion_01_scalar_power_exact_system():
    started = time.monotonic()
    result, _ = bnb_search(parse_system("x' = x^5"))
    elapsed = time.monotonic() - started
    doc = result.document
    ok = (
        result.order == 1
        and result.new_vars == ((4,),)
        and terms_of(doc, "x") == [(1, "x", "z1")]
        and terms_of(doc, "z1") == [(4, "z1", "z1")]
        and elapsed < 0.1
    )
    report(1, ok, f"x'=x^5 -> order 1, x'=x*z, z'=4*z^2 in {elapsed * 1000:.1f} ms")


def test_criterion_02_counterexample_unique_optimum():
    started = time.monotonic()
    system = parse_system("x1' = x2^4\nx2' = x1^2")
    result, _ = bnb_search(system)
    elapsed = time.monotonic() - started
    doc = result.document
    names = {mono: name for name, mono, _ in doc.new_variables}
    expected_vars = {(1, 2), (0, 3), (3, 0)}
    relations_ok = (
        set(result.new_vars) == expected_vars
        # derivative of x1^3 equals three times the square of x1*x2^2
        and terms_of(doc, names[(3, 0)]) == [(3, names[(1, 2)], names[(1, 2)])]
        # derivative of x2^3 equals 3 * x1 * (x1*x2^2)
        and terms_of(doc, names[(0, 3)]) == [(3, "x1", names[(1, 2)])]
        and document_violations(system, doc) == []
    )
    ok = result.order == 3 and relations_ok and elapsed < 1.0
    report(2, ok, f"x1'=x2^4, x2'=x1^2 -> unique optimum of order 3 "
                  f"in {elapsed * 1000:.1f} ms")


def test_criterion_03_rabinovich_fabrikant():
    started = time.monotonic()
    system = benchmark_system("rf")
    result, _ = bnb_search(system)
    elapsed = time.monotonic() - started
    symbolic = any(
        any(e != 0 for e in t.params)
        for terms in result.document.quadratic_rhs.values()
        for t in terms
    )
    ok = (
        result.order == 3
        and set(result.new_vars) == {(2, 0, 0), (1, 1, 0), (0, 2, 0)}
        and system.parameters == ("a", "b")
        and symbolic
        and elapsed < 1.0
    )
    report(3, ok, f"Rabinovich-Fabrikant -> order 3 with x^2, x*y, y^2, "
                  f"symbolic a and b, in {elapsed * 1000:.1f} ms")


def test_criterion_04_large_benchmark_orders():
    expected = {
        ("cubic_cycle", 6): 12,
        ("cubic_cycle", 7): 14,
        ("cubic_bicycle", 7): 14,
        ("cubic_bicycle", 8): 16,
    }
    details = []
    ok = True
    for (name, n), want in expected.items():
        _, result, _, elapsed = solve_benchmark(name, n)
        ok = ok and result.order == want and elapsed < 600.0
        details.append(f"{name}({n})={result.order} [{elapsed:.1f}s]")
    report(4, ok, ", ".join(details))


def test_criterion_05_capacity_table():
    started = time.monotonic()
    ok = True
    for n in range(1, 7):
        for m in range(n + 1):
            ok = ok and exhaustive_c4_capacity(n, m) == C4_CAPACITY_TABLE[n][m]
    pinned_row_7 = (9, 10, 11, 12, 12, 12, 12, 12)
    ok = ok and C4_CAPACITY_TABLE[7] == pinned_row_7
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 120.0
    report(5, ok, f"exhaustive search reproduces all 27 table entries for n<=6 "
                  f"(row 7 pinned) in {elapsed:.1f}s")


def test_criterion_06_pruning_soundness(random_corpus, worked_systems):
    started = time.monotonic()
    systems = list(random_corpus) + list(worked_systems.values())
    checked = 0
    ok = True
    for system in systems:
        orders = set()
        for config in RULE_CONFIGS:
            with rules(config):
                orders.add(bnb_search(system)[0].order)
        oracle_order, _ = brute_force_optimal(system, wide_box(system))
        ok = ok and len(orders) == 1 and orders == {oracle_order}
        checked += 1
        if not ok:
            break
    elapsed = time.monotonic() - started
    ok = ok and checked >= 54 and elapsed < 600.0
    report(6, ok, f"{checked} systems: all four rule configurations and the "
                  f"exhaustive oracle agree on the optimum ({elapsed:.1f}s)")


def test_criterion_07_pruning_effectiveness():
    ok = True
    strictly_reduced = False
    details = []
    for name in ("cubic_cycle", "cubic_bicycle"):
        for n in (4, 5, 6):
            nodes = {}
            orders = set()
            for config in RULE_CONFIGS:
                _, result, stats, _ = solve_benchmark(name, n, config)
                nodes[config] = stats.nodes_visited
                orders.add(result.order)
            ok = ok and len(orders) == 1
            for config in ("packing", "quadratic"):
                ok = ok and nodes["none"] >= nodes[config] >= nodes["all"]
            strictly_reduced = strictly_reduced or nodes["none"] > nodes["all"]
            details.append(f"{name}({n}): " + "/".join(str(nodes[c]) for c in RULE_CONFIGS))
    ok = ok and strictly_reduced
    report(7, ok, "nodes " + "/".join(RULE_CONFIGS) + ": " + "; ".join(details))


def test_criterion_08_validity_invariant(random_corpus, worked_systems):
    violations = 0
    solved = 0
    for system in list(random_corpus) + list(worked_systems.values()):
        result, _ = bnb_search(system)
        violations += len(quadratization_violations(system, result.new_vars))
        solved += 1
    for (name, n, _config), (system, result, _, _) in list(_BENCH_CACHE.items()):
        violations += len(quadratization_violations(system, result.new_vars))
        solved += 1
    report(8, violations == 0,
           f"independent product-set checker: 0 violations across {solved} solves"
           if violations == 0 else f"{violations} violations found")


def test_criterion_09_laurent_construction(random_corpus, worked_systems):
    from quadratize.solver import laurent_quadratize

    started = time.monotonic()
    ok = True
    checked = 0
    for system in list(random_corpus) + list(worked_systems.values()):
        lifting = laurent_quadratize(system)
        total_monomials = sum(len(p) for p in system.rhs)
        ok = ok and len(lifting.new_vars) <= total_monomials
        ok = ok and document_violations(system, lifting.document) == []
        checked += 1
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    report(9, ok, f"Laurent lifting valid and within the monomial-count bound "
                  f"on {checked} systems ({elapsed:.1f}s)")


def test_criterion_10_determinism(random_corpus, worked_systems):
    systems = list(worked_systems.values()) + list(random_corpus)[:10]
    systems.append(benchmark_system("cubic_cycle", 4))
    ok = True
    for system in systems:
        first, stats1 = bnb_search(system)
        second, stats2 = bnb_search(system)
        ok = ok and stats1 == stats2
        ok = ok and (render_result(first.document, "structured")
                     == render_result(second.document, "structured"))
    report(10, ok, f"two consecutive runs byte-identical on {len(systems)} systems")
