"""Per-layer tracing, done from outside the program.

A traced pass wraps the module attributes the search resolves at call time,
records one span per call (name, instance, start, end, parent) plus counts,
keeps them in memory, and turns them into per-layer metrics at the end.
Self time is a span's duration minus the durations of its child spans.
Layers are the package's modules.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

# Per-layer metric -> the end-to-end metric it should move, on which
# workload.  Later performance changes state their expected per-layer
# movement against these names; their units are in BENCHMARK.json.  solve_s
# and the latencies are the printed solve times of an untraced run (see
# run.py).
PREDICTIONS = {
    "pruning.quadratic_calls": "solve_s on cubic, latency_p90_ms on corpus; no change on wide",
    "pruning.quadratic_s": "solve_s on cubic, latency_p90_ms on corpus; no change on wide",
    "pruning.quadratic_prune_ratio": "higher lowers nodes_visited on every workload",
    "pruning.c4_calls": "solve_s on cubic, latency_p90_ms on corpus; no change on wide",
    "pruning.c4_s": "solve_s on cubic, latency_p90_ms on corpus; no change on wide",
    "pruning.c4_prune_ratio": "higher lowers nodes_visited on every workload",
    "pruning.quotient_pairs": "the incremental-bounds item cuts it; solve_s on cubic, latency_p90_ms on corpus",
    "pruning.share": "rules dominant on cubic, smaller on corpus, small on wide",
    "state.extended_calls": "solve_s on cubic and corpus",
    "state.extended_s": "solve_s on cubic and corpus",
    "state.extended_share": "a larger share on corpus than on cubic",
    "state.nonsquares_mean": "solve_s on cubic and corpus",
    "state.initial_s": "latency_p50_ms on corpus",
    "state.extract_s": "latency_p50_ms on corpus",
    "solver.incumbent_s": "solve_s and peak_rss_mb on wide; nothing on cubic",
    "solver.incumbent_share": "dominant on wide",
    "solver.incumbent_size": "solve_s and peak_rss_mb on wide; nothing on cubic",
    "solver.driver_self_s": "solve_s on cubic",
    "solver.nodes_per_s": "solve_s on cubic (untraced passes)",
    "branching.calls": "solve_s on cubic and nodes_visited",
    "branching.s": "solve_s on cubic and nodes_visited",
    "branching.children_mean": "solve_s on cubic and nodes_visited",
    "polynomials.lie_calls": "latency_p50_ms on corpus; nothing on cubic",
    "polynomials.lie_misses": "latency_p50_ms on corpus; nothing on cubic",
    "polynomials.lie_s": "latency_p50_ms on corpus; nothing on cubic",
    "parsing.parse_s": "setup_s and latency_p50_ms on corpus",
    "output.render_s": "latency_p50_ms on corpus",
    "bruteforce.verify_s": "none: checking cost, excluded from solve_s",
    "trace.overhead_s": "none: traced minus untraced solve_s",
    "trace.overhead_frac": "none: tracing overhead over untraced solve_s",
}

# Span name of each wrapped call, by layer.
QUADRATIC = "pruning.prune_by_quadratic_bound"
C4 = "pruning.prune_by_c4_bound"
EXTENDED = "state.SearchState.extended"
INITIAL = "state.SearchState.initial"
EXTRACT = "state.SearchState.extract_quadratic_system"
INCUMBENT = "solver.initial_incumbent"
SEARCH = "solver.bnb_search"
CHILDREN = "branching.generate_children"
LIE = "polynomials.lie_derivative_support"
PARSE = "parsing.parse_system"
RENDER = "output.render_result"
VERIFY = "bruteforce.verify"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, instance, start, end, parent)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.instance = -1

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        stack = self.stack
        index = len(self.spans)
        self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[index] = (name, self.instance, start, end, parent)

    def wrap(self, name, fn, count=None):
        """fn wrapped in a span; count(args, result) records counts after each call."""
        call = self.call

        def wrapper(*args, **kwargs):
            result = call(name, fn, *args, **kwargs)
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap the attributes the search looks up at call time."""
        import quadratize.pruning as pruning
        import quadratize.solver as solver
        import quadratize.state as state
        from quadratize import SearchState

        counts = self.counts

        def count_rule(key):
            def count(args, pruned):
                counts[key + ".calls"] += 1
                counts[key + ".prunes"] += bool(pruned)
            return count

        def count_children(args, children):
            counts["branching.calls"] += 1
            counts["branching.children"] += len(children)

        def count_extended(args, new_state):
            counts["state.extended_calls"] += 1
            counts["state.nonsquares"] += len(new_state.nonsquares)

        def count_incumbent(args, result):
            counts["solver.incumbent_size"] += result[1]

        solver.prune_by_quadratic_bound = self.wrap(
            QUADRATIC, solver.prune_by_quadratic_bound, count_rule("pruning.quadratic"))
        solver.prune_by_c4_bound = self.wrap(
            C4, solver.prune_by_c4_bound, count_rule("pruning.c4"))
        solver.generate_children = self.wrap(CHILDREN, solver.generate_children, count_children)
        solver.initial_incumbent = self.wrap(INCUMBENT, solver.initial_incumbent, count_incumbent)
        SearchState.initial = staticmethod(self.wrap(INITIAL, SearchState.initial))
        SearchState.extended = self.wrap(EXTENDED, SearchState.extended, count_extended)
        SearchState.extract_quadratic_system = self.wrap(
            EXTRACT, SearchState.extract_quadratic_system)

        lie = self.wrap(LIE, state.lie_derivative_support)

        def lie_derivative_support(z, system):
            counts["polynomials.lie_calls"] += 1
            counts["polynomials.lie_misses"] += z not in system._lie_cache
            return lie(z, system)

        state.lie_derivative_support = lie_derivative_support

        # Counted, not timed: the (target, variable) pairs both rules scan,
        # i.e. the nonsquares (or their squarefree subset) times the state's
        # generalized variables.
        quotient_multiplicities = pruning.quotient_multiplicities

        def counted_quotient_multiplicities(targets, var_monomials):
            counts["pruning.quotient_pairs"] += len(targets) * len(var_monomials)
            return quotient_multiplicities(targets, var_monomials)

        pruning.quotient_multiplicities = counted_quotient_multiplicities

    def self_times(self) -> Counter:
        spans = self.spans
        children = [0.0] * len(spans)
        for name, _, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        own: Counter = Counter()
        for (name, _, start, end, _), inner in zip(spans, children):
            own[name] += end - start - inner
        return own

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        own = self.self_times()
        c = self.counts
        solved = sum(t for name, t in own.items() if name != VERIFY)
        rules = own[QUADRATIC] + own[C4]

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "pruning.quadratic_calls": c["pruning.quadratic.calls"],
            "pruning.quadratic_s": own[QUADRATIC],
            "pruning.quadratic_prune_ratio": ratio(c["pruning.quadratic.prunes"],
                                                   c["pruning.quadratic.calls"]),
            "pruning.c4_calls": c["pruning.c4.calls"],
            "pruning.c4_s": own[C4],
            "pruning.c4_prune_ratio": ratio(c["pruning.c4.prunes"], c["pruning.c4.calls"]),
            "pruning.quotient_pairs": c["pruning.quotient_pairs"],
            "pruning.share": ratio(rules, solved),
            "state.extended_calls": c["state.extended_calls"],
            "state.extended_s": own[EXTENDED],
            "state.extended_share": ratio(own[EXTENDED], solved),
            "state.nonsquares_mean": ratio(c["state.nonsquares"], c["state.extended_calls"]),
            "state.initial_s": own[INITIAL],
            "state.extract_s": own[EXTRACT],
            "solver.incumbent_s": own[INCUMBENT],
            "solver.incumbent_share": ratio(own[INCUMBENT], solved),
            "solver.incumbent_size": c["solver.incumbent_size"],
            "solver.driver_self_s": own[SEARCH],
            "branching.calls": c["branching.calls"],
            "branching.s": own[CHILDREN],
            "branching.children_mean": ratio(c["branching.children"], c["branching.calls"]),
            "polynomials.lie_calls": c["polynomials.lie_calls"],
            "polynomials.lie_misses": c["polynomials.lie_misses"],
            "polynomials.lie_s": own[LIE],
            "parsing.parse_s": own[PARSE],
            "output.render_s": own[RENDER],
            "bruteforce.verify_s": own[VERIFY],
        }
