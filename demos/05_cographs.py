"""Cographs: general matchings reconfigure with flips plus slides.

Connected cographs are complete joins; the solver inspects the smaller
join side B: if some size-k matching keeps an edge inside B, or leaves a
B-vertex free, everything of size k is connected through an anchor
matching.  Otherwise the instance projects onto side A and lifts back.
"""

import random

from matchflip import (
    FLIP_SLIDE,
    Graph,
    build_cotree,
    edge_set,
    reachable,
    solve_cograph,
    verify_sequence,
)
from matchflip.errors import NotACographError
from matchflip.generators import random_cotree_graph, random_matching_pair

c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
tree = build_cotree(c4)
print("cotree of C4:", tree.kind, "of", [sorted(side.leaves()) for side in tree.sides()])

try:
    build_cotree(Graph(4, [(0, 1), (1, 2), (2, 3)]))
except NotACographError as exc:
    print("P4 rejected with witness:", exc.witness)

# size-1 matchings of C4 move by slides through the free side
res = solve_cograph(c4, edge_set([(0, 1)]), edge_set([(2, 3)]))
print("C4 size-1:", res.sequence.moves)

# random cograph, random equal-size matchings, cross-checked
rng = random.Random(11)
g = random_cotree_graph(9, rng)
print("random cograph: n =", g.n, "m =", g.m, "max matching =", build_cotree(g).nu)
a, b = random_matching_pair(g, rng)
res = solve_cograph(g, a, b)
orc = reachable(g, a, b, FLIP_SLIDE)
print("solver:", res.yes, "oracle:", orc.reachable)
if res.yes:
    print("sequence length:", len(res.sequence),
          "verified:", verify_sequence(g, a, res.sequence, b).ok)
