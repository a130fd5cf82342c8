"""Measure what the two pruning rules buy on the cubic benchmark families.

Cubic Cycle(n):   x1' = x2^3, x2' = x3^3, ..., xn' = x1^3
Cubic Bicycle(n): x1' = xn^3 + x2^3, ..., xn' = x(n-1)^3 + x1^3

Both rules compute a lower bound on how many variables any completion still
needs and cut the subtree when the bound meets the incumbent.  The first uses
a counting argument (k new variables cover at most k(k+1)/2 pair products);
the second sharpens the pair-product term with the exact maximum edge count
of graphs without a closed 4-edge walk, which is much stronger in higher
dimension.  Node counts, unlike wall times, are machine independent.

bnb_search always runs both rules, since neither changes the answer.  To
measure each, this demo switches a rule off by substituting it in
quadratize.solver: the pair-count rule by one that never prunes, the graph
rule by the trivial bound, which prunes a node only once it is as deep as
the incumbent (a deeper node cannot beat it, since children only add
variables).

Both families are symmetric: rotating the variables (and, for the bicycle,
reversing them) maps the system onto itself.  The search skips a child whose
set of new variables is an image of one it has visited already, or the same
set reached by another path; each cell shows the visited nodes, then the
skipped children in brackets.

Run:  python demos/02_pruning_rules.py
"""

import quadratize.solver as solver
from quadratize import benchmark_system, bnb_search

pair_count_rule, graph_rule = solver.prune_by_quadratic_bound, solver.prune_by_c4_bound


def never(state, bound):
    return False


def trivial_bound(state, bound):
    return len(state.new_vars) >= bound


# (label, pair-count rule, graph rule); the last one restores the real rules.
CONFIGS = [
    ("no pruning", never, trivial_bound),
    ("pair-count rule", pair_count_rule, trivial_bound),
    ("graph rule", never, graph_rule),
    ("both rules", pair_count_rule, graph_rule),
]

print(f"{'system':>18} {'order':>5} | " +
      " | ".join(f"{label:>16}" for label, _, _ in CONFIGS))
print("-" * 100)
for family in ("cubic_cycle", "cubic_bicycle"):
    for n in (4, 5):
        system = benchmark_system(family, n)
        cells = []
        order = None
        for _, quadratic_rule, c4_rule in CONFIGS:
            solver.prune_by_quadratic_bound, solver.prune_by_c4_bound = quadratic_rule, c4_rule
            result, stats = bnb_search(system)
            cells.append(f"{stats.nodes_visited} [{stats.pruned_by_symmetry}]")
            order = result.order
        print(f"{family + f'({n})':>18} {order:>5} | " +
              " | ".join(f"{cell:>16}" for cell in cells))

print()
print("The optimum never changes; only the number of explored subproblems does.")
print("Skipping never changes the answer either: a skipped child's subtree holds")
print("no quadratization smaller than the bound at the time it is skipped.")
