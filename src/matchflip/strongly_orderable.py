"""Polynomial solver for strongly orderable graphs.

A strong ordering (v_1..v_n) demands: for i < j and k < l, if v_i v_k,
v_i v_l and v_j v_k are edges then so is v_j v_l.  Under such an ordering
a canonical perfect matching can be built greedily, and every perfect
matching reaches it by at most n/2 flips, one per greedy pair.  Orderings
are caller-supplied (instance hint); recognition is out of scope, so
:func:`verify_strong_ordering` checks the hint first, in O(m log m) by
testing only the quadruples the next-one rule names.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    NoPerfectMatchingError,
    NotAPermutationError,
    OrderInvalidError,
)
from .graph import (
    Edge,
    Graph,
    MODE_FLIP,
    ReconfigSequence,
    _meet,
    _step,
    canonical_flip,
    edge_set,
    matching_partners,
)


@dataclass(frozen=True)
class OrderCheck:
    valid: bool
    # order positions (i, j, k, l) of a violating quadruple, if any
    witness: Optional[tuple[int, int, int, int]] = None


def _check_permutation(g: Graph, order) -> tuple[int, ...]:
    order = tuple(order)
    if sorted(order) != list(range(g.n)):
        raise NotAPermutationError(f"not a permutation of 0..{g.n - 1}")
    return order


def _positions(order: tuple[int, ...]) -> list[int]:
    """The position of each vertex in ``order``, a permutation."""
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    return pos


def verify_strong_ordering(g: Graph, order: Sequence[int]) -> OrderCheck:
    """Check the strong-ordering implication by the next-one rule.

    On positions, with N(i) the sorted neighbour positions of position i,
    a violation is (i, j, k, l) with i < j, k < l, j != l, ik, il and jk
    edges and jl not.  For each i and each pair k < l consecutive in N(i)
    the rule takes j, the least position of N(k) above i other than l, and
    reports (i, j, k, l) if jl is not an edge: a genuine violation, found
    in O(sum of deg log deg) in all.

    It misses none.  Take the violation least in (j - i, l - k):
    1. N(k) meets (i, j) at most in l: another i' there gives (i', j, k, l)
       or (i, i', k, l), as i'l is an edge or not, with smaller j - i.
    2. N(i) meets (k, l) at most in j: another k' there gives (i, j, k', l)
       or (i, j, k, k'), as jk' is an edge or not, with smaller l - k.
    3. j outside (k, l): k, l are consecutive in N(i); the rule picks j.
    4. k < i < j < l: i, j are consecutive in N(k); the rule picks l and
       reports (k, l, i, j).
    5. i < k < j < l: kl is no edge, else (k, j, i, l) has smaller j - i.
       j, l are consecutive in N(i), where the rule picks some j* in
       (i, k]; if j*l were an edge, j* != k and (j*, k, j, l) would have
       smaller j - i.  So the rule reports.
    """
    order = _check_permutation(g, order)
    adj = g.adj
    pos = _positions(order)
    rows = [[] for _ in order]  # rows[p]: the neighbour positions of order[p], ascending
    for i, v in enumerate(order):
        for w in adj[v]:
            rows[pos[w]].append(i)
    for i, row in enumerate(rows):
        for t in range(len(row) - 1):
            k, l = row[t], row[t + 1]
            col = rows[k]
            x = bisect_right(col, i)
            if x < len(col) and col[x] == l:
                x += 1
            if x < len(col) and order[l] not in adj[order[col[x]]]:
                return OrderCheck(False, (i, col[x], k, l))
    return OrderCheck(True)


def canonical_matching(g: Graph, order: Sequence[int]) -> frozenset[Edge]:
    """Greedy perfect matching: repeatedly match the earliest unmatched
    vertex to its earliest unmatched neighbor (positions in ``order``)."""
    return edge_set(_greedy_partners(g, _check_permutation(g, order)).items())


def _greedy_partners(g: Graph, order: tuple[int, ...]) -> dict[int, int]:
    """:func:`canonical_matching` for an order already checked, as a
    vertex -> partner map."""
    pos = _positions(order)
    partner: dict[int, int] = {}
    for v in order:
        if v in partner:
            continue
        best = None
        for w in g.adj[v]:
            if w not in partner and (best is None or pos[w] < pos[best]):
                best = w
        if best is None:
            raise NoPerfectMatchingError(
                f"greedy leaves vertex {v} unmatched; no perfect matching"
            )
        partner[v] = best
        partner[best] = v
    return partner


def _route_to_canonical(
    g: Graph,
    order: tuple[int, ...],
    cpart: dict[int, int],
    npart: dict[int, int],
) -> list:
    """Flips turning the perfect matching held as the partner map
    ``npart`` (updated in place) into the canonical one, held as the
    partner map ``cpart``, one greedy pair at a time.

    At each step the earliest live vertex v1 is matched to v_p in the
    canonical matching and to v_q in the current one.  If they differ, the
    strong ordering guarantees the 4-cycle v1, v_q, v_r, v_p (v_r the
    current partner of v_p), and flipping it aligns the pair.
    """
    moves = []
    done = [False] * g.n
    for v1 in order:
        if done[v1]:
            continue
        vp = cpart[v1]
        vq = npart[v1]
        if vp != vq:
            # canonical picks the earliest live neighbor, so pos[vp] < pos[vq]
            vr = npart[vp]
            if vr not in g.adj[vq]:
                raise OrderInvalidError(
                    f"ordering violated at vertices ({v1}, {vp}, {vq}, {vr}): "
                    f"edge ({vq}, {vr}) missing"
                )
            moves.append(canonical_flip((v1, vq, vr, vp)))
            _step(g, npart, moves[-1])
        done[v1] = done[vp] = True
    return moves


def solve_strongly_orderable(
    g: Graph,
    order: Sequence[int],
    m_ini: frozenset[Edge],
    m_tar: frozenset[Edge],
) -> ReconfigSequence:
    """Flip sequence of length <= n between two perfect matchings.

    Routes both matchings to the canonical one and glues the two halves
    (flips are involutions, so the target half is replayed in reverse);
    ``graph._meet``, the one place where moves cancel, drops each flip that
    the other half undoes past vertex-disjoint flips only.
    Expects a verified strong ordering; a violation encountered mid-run
    raises :class:`OrderInvalidError`.
    """
    order = _check_permutation(g, order)
    p_ini, p_tar = (matching_partners(g, m, perfect=True) for m in (m_ini, m_tar))
    cpart = _greedy_partners(g, order)
    fwd = _route_to_canonical(g, order, cpart, p_ini)
    bwd = _route_to_canonical(g, order, cpart, p_tar)
    return ReconfigSequence(MODE_FLIP, tuple(_meet(fwd, bwd)))
