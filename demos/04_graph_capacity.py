"""The edge-capacity table behind the paper's graph bound.

Covering leftover nonsquares by products of k new variables defines a graph
on k vertices: one edge per covered monomial, a loop when the monomial is a
perfect square.  Distinct pairwise products force that graph to contain no
closed 4-edge walk with distinct adjacent edges, so the number of coverable
monomials is capped by the maximum edge count of such graphs -- C(k, loops).

quadratize.pruning ships the exact capacities for k <= 7, as a reproduction
the search does not run (the note there gives why); everything here
recomputes the k <= 6 entries from scratch by exhaustive search and shows
the analytic bound used beyond the table.

Run:  python demos/04_graph_capacity.py
"""

from quadratize import exhaustive_c4_capacity, is_c4star_free
from quadratize.pruning import C4_CAPACITY_TABLE, c4_capacity

print("exact capacities, recomputed exhaustively (rows k, columns loop budget):")
for k in range(1, 7):
    row = [exhaustive_c4_capacity(k, m) for m in range(k + 1)]
    pinned = list(C4_CAPACITY_TABLE[k])
    marker = "ok" if row == pinned else "DISAGREES with shipped table!"
    print(f"  k={k}: {row}  {marker}")
print(f"  k=7: {list(C4_CAPACITY_TABLE[7])}  (shipped; 2^28 subsets is beyond a demo)")

print()
print("analytic fallback for k > 7 (never below the true value):")
for k in (8, 10, 16):
    print(f"  k={k}, no loops: {c4_capacity(k, 0)} edges")

print()
print("a few forbidden and allowed configurations:")
cases = [
    ("two loops on one vertex", 1, [(0, 0), (0, 0)]),
    ("doubled edge", 2, [(0, 1), (0, 1)]),
    ("edge joining two looped vertices", 2, [(0, 0), (1, 1), (0, 1)]),
    ("square (4-cycle)", 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    ("triangle with a loop on a corner", 3, [(0, 0), (0, 1), (1, 2), (0, 2)]),
    ("plain triangle", 3, [(0, 1), (1, 2), (0, 2)]),
    ("loop plus incident edge", 2, [(0, 0), (0, 1)]),
]
for label, n, edges in cases:
    verdict = "allowed" if is_c4star_free(n, edges) else "forbidden"
    print(f"  {label:<36} {verdict}")
