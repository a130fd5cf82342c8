"""Measure what the three pruning rules buy on the cubic benchmark families.

Cubic Cycle(n):   x1' = x2^3, x2' = x3^3, ..., xn' = x1^3
Cubic Bicycle(n): x1' = xn^3 + x2^3, ..., xn' = x(n-1)^3 + x1^3

Each rule computes a lower bound on how many variables any completion still
needs and cuts the subtree when the bound meets the incumbent.  The packing
rule finds nonsquares whose factors outside the current variables form
pairwise disjoint sets: a completion needs a new variable in each set.  The
pair-count rule uses a counting argument (k new variables cover at most
k(k+1)/2 pair products); the graph rule sharpens the pair-product term with
the exact maximum edge count of graphs without a closed 4-edge walk, which
is much stronger in higher dimension.  Node counts, unlike wall times, are
machine independent.

bnb_search always runs all three rules, since none changes the answer.  To
measure each, this demo switches a rule off by substituting it in
quadratize.solver: the packing and pair-count rules by one that never
prunes, the graph rule by the trivial bound, which prunes a node only once
it is as deep as the incumbent (a deeper node cannot beat it, since
children only add variables).  Two checks before a child is extended are not rules and stay
on in every column, "no pruning" included: a child as large as the
incumbent is skipped, and so is one a variable short of it that leaves a
nonsquare of its parent uncovered.  Neither is counted as a visited node.

Both families are symmetric: rotating the variables (and, for the bicycle,
reversing them) maps the system onto itself.  The search skips a child whose
set of new variables is an image of one it has visited already, or the same
set reached by another path; each cell shows the visited nodes, then the
skipped children in brackets.

Run:  python demos/02_pruning_rules.py
"""

import quadratize.solver as solver
from quadratize import benchmark_system, bnb_search

packing_rule = solver.prune_by_packing_bound
pair_count_rule, graph_rule = solver.prune_by_quadratic_bound, solver.prune_by_c4_bound


def never(state, bound):
    return False


def trivial_bound(state, bound):
    return len(state.new_vars) >= bound


# (label, packing rule, pair-count rule, graph rule); the last one restores
# the real rules.
CONFIGS = [
    ("no pruning", never, never, trivial_bound),
    ("packing rule", packing_rule, never, trivial_bound),
    ("pair-count rule", never, pair_count_rule, trivial_bound),
    ("graph rule", never, never, graph_rule),
    ("all rules", packing_rule, pair_count_rule, graph_rule),
]

print(f"{'system':>18} {'order':>5} | " +
      " | ".join(f"{label:>15}" for label, *_ in CONFIGS))
print("-" * 113)
for family in ("cubic_cycle", "cubic_bicycle"):
    for n in (4, 5):
        system = benchmark_system(family, n)
        cells = []
        order = None
        for _, *rules in CONFIGS:
            (solver.prune_by_packing_bound, solver.prune_by_quadratic_bound,
             solver.prune_by_c4_bound) = rules
            result, stats = bnb_search(system)
            cells.append(f"{stats.nodes_visited} [{stats.pruned_by_symmetry}]")
            order = result.order
        print(f"{family + f'({n})':>18} {order:>5} | " +
              " | ".join(f"{cell:>15}" for cell in cells))

print()
print("The optimum never changes; only the number of explored subproblems does.")
print("Skipping never changes the answer either: a skipped child's subtree holds")
print("no quadratization smaller than the bound at the time it is skipped.")
