"""Outerplanar graphs: a linear-size reduction decides reachability.

The solver peels the graph by forced edges, cut-vertex severing,
even-chord purging and degree-two pair contractions.  NO answers come
from pair edges frozen on long induced cycles; YES answers lift the
reduced sequence back with at most one extra flip per contraction side.
"""

from matchflip import (
    Graph,
    boundary_order,
    edge_set,
    reachable,
    solve_outerplanar,
    verify_sequence,
)

c6 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
a = edge_set([(0, 1), (2, 3), (4, 5)])
b = edge_set([(1, 2), (3, 4), (5, 0)])

print("boundary of C6:", boundary_order(c6))
print("C6, its two PMs:", "YES" if solve_outerplanar(c6, a, b).yes else "NO")

# one chord makes the instance solvable
c6c = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
res = solve_outerplanar(c6c, a, b)
print("C6 + chord:", "YES" if res.yes else "NO", "with flips:")
for mv in res.sequence.moves:
    print("  flip", mv.cycle)
print("verified:", verify_sequence(c6c, a, res.sequence, b).ok)
print("oracle agrees, distance:", reachable(c6c, a, b).distance)

print("reduction trace:")
for step in res.trace.steps:
    print("  ", step)

# the solver severs a cut vertex from the blocks its matched edge avoids:
# two 4-cycles on a bridge flip independently
g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 4)])
a = edge_set([(0, 1), (2, 3), (4, 5), (6, 7)])
b = edge_set([(1, 2), (3, 0), (5, 6), (7, 4)])
res = solve_outerplanar(g, a, b)
print("two C4s on a bridge:", [mv.cycle for mv in res.sequence.moves])
print("first step:", res.trace.steps[0])
