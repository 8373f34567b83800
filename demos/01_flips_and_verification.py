"""Walk through the core model: graphs, matchings, moves, verification.

A flip exchanges the two matched edges of an alternating 4-cycle for the
other two; a slide moves a matched edge to an incident edge whose far end
is free.  Sequences of such moves are checked by an independent verifier.
"""

from matchflip import (
    Flip,
    Graph,
    ReconfigSequence,
    Slide,
    apply_move,
    edge_set,
    errors,
    matching_partners,
    symmetric_difference_components,
    verify_sequence,
)

# --- a 4-cycle and its two perfect matchings ---

c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
m1 = edge_set([(0, 1), (2, 3)])
m2 = edge_set([(1, 2), (3, 0)])

# the one matching checker: with perfect=True it raises NotPerfectError
# unless every vertex is matched once; without, SizeMismatchError when two
# edges share a vertex
partners = matching_partners(c4, m1, perfect=True)
print("partners of m1:", partners, "perfect: True")
try:
    matching_partners(c4, [(0, 1), (1, 2)])
except errors.SizeMismatchError as exc:
    print("edges (0, 1) and (1, 2):", exc)
print("difference m1 vs m2:", symmetric_difference_components(m1, m2))

# one flip turns m1 into m2
after = apply_move(c4, m1, Flip((0, 1, 2, 3)))
print("after flip:", sorted(after), "== m2:", after == m2)

# --- slides need a free vertex ---

p3 = Graph(3, [(0, 1), (1, 2)])
print("slide on a path:", sorted(apply_move(p3, edge_set([(0, 1)]), Slide((0, 1), (1, 2)))))

# --- the verifier replays a sequence move by move ---

seq = ReconfigSequence("flip", (Flip((0, 1, 2, 3)),))
print("verify good sequence:", verify_sequence(c4, m1, seq, m2))

bad = ReconfigSequence("flip", ())
print("verify empty sequence:", verify_sequence(c4, m1, bad, m2))

# mode discipline: a slide is rejected in flip-only mode
mixed = ReconfigSequence("flip", (Slide((0, 1), (1, 2)),))
print("slide in flip mode:", verify_sequence(c4, m1, mixed, m2))
