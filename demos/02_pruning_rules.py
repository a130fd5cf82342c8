"""Measure what the two pruning rules buy on the cubic benchmark families.

Cubic Cycle(n):   x1' = x2^3, x2' = x3^3, ..., xn' = x1^3
Cubic Bicycle(n): x1' = xn^3 + x2^3, ..., xn' = x(n-1)^3 + x1^3

Each rule computes a lower bound on how many variables any completion still
needs and cuts the subtree when the bound meets the incumbent.  The packing
rule finds nonsquares whose factors outside the current variables form
pairwise disjoint sets: a completion needs a new variable in each set.
Where the incumbent leaves room for one to five more variables, it
decides exactly whether that many finish the node; for three to five,
only at a node it visits and once the pair-count rule has kept it too,
and for five only where greedy packing came close
(src/quadratize/pruning.py's module docstring gives the argument).  The
pair-count rule uses a counting argument (k new variables cover at most
k(k+1)/2 pair products).  Node counts, unlike wall
times, are machine independent.

The paper's graph bound, which sharpens the pair-product term with the
exact maximum edge count of graphs without a closed 4-edge walk (see
demos/04_graph_capacity.py), is no part of the search, so it has no column
here: the exact tests and the pair-count rule leave it nothing to prune,
at the root or below it.

bnb_search always runs both rules, since neither changes the answer.  To
measure each, this demo switches a rule off by substituting it in
quadratize.solver by one that never prunes.  The search also calls the
packing rule on a parent and a child's additions before it extends the
child, and skips the child when the parent's nonsquares it leaves
uncovered already need enough variables to reach the incumbent's order;
switching the packing rule off switches that skip and the tests for three
to five off too.  Two checks before a child is
extended are not rules and stay on in every column, "no pruning" included:
a child as large as the incumbent ends its parent's list of children,
since the later ones are no smaller, and a child is skipped that contains
what an earlier sibling of it or of an ancestor added (sibling exclusion:
once that sibling's subtree is done, no set containing it can beat the
incumbent).  Exclusion's banned variables, single forbidden
additions, reach the packing rule only, so they count only where it is
on.  Skipped children are not counted as visited nodes.  The root lower
bound, which ends a search at an answer that meets it, stays on in every
column too; on these families it is half the optimum and ends none.

Both families are symmetric: rotating the variables (and, for the bicycle,
reversing them) maps the system onto itself.  The search skips a child whose
set of new variables is an image of one it has visited already, or the same
set reached by another path; each cell shows the visited nodes, then the
skipped children in brackets.

Run:  python demos/02_pruning_rules.py
"""

import quadratize.solver as solver
from quadratize import benchmark_system, bnb_search

packing_count = solver.packing_count
few_complete = solver.node_completes
pair_count_rule = solver.prune_by_quadratic_bound


def nothing(state, bound, *args):
    return 0


def never(state, bound, *args):
    return False


def always(*args):
    return True


# (label, packing rule's count, its tests for three to five more variables,
# pair-count rule); the last one restores the real rules.
CONFIGS = [
    ("no pruning", nothing, always, never),
    ("packing rule", packing_count, few_complete, never),
    ("pair-count rule", nothing, always, pair_count_rule),
    ("all rules", packing_count, few_complete, pair_count_rule),
]

print(f"{'system':>18} {'order':>5} | " +
      " | ".join(f"{label:>15}" for label, *_ in CONFIGS))
print("-" * 96)
for family in ("cubic_cycle", "cubic_bicycle"):
    for n in (4, 5):
        system = benchmark_system(family, n)
        cells = []
        order = None
        for _, *rules in CONFIGS:
            (solver.packing_count, solver.node_completes,
             solver.prune_by_quadratic_bound) = rules
            result, stats = bnb_search(system)
            cells.append(f"{stats.nodes_visited} [{stats.pruned_by_symmetry}]")
            order = result.order
        print(f"{family + f'({n})':>18} {order:>5} | " +
              " | ".join(f"{cell:>15}" for cell in cells))

print()
print("The optimum never changes; only the number of explored subproblems does.")
print("Skipping never changes the answer either: a skipped child's subtree holds")
print("no quadratization smaller than the bound at the time it is skipped.")
