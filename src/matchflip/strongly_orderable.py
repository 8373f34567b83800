"""Polynomial solver for strongly orderable graphs.

A strong ordering (v_1..v_n) demands: for i < j and k < l, if v_i v_k,
v_i v_l and v_j v_k are edges then so is v_j v_l.  Under such an ordering
a canonical perfect matching can be built greedily, and every perfect
matching reaches it by at most n/2 flips, one per greedy pair.  Orderings
are caller-supplied (instance hint); recognition is out of scope, so a
brute-force verifier guards correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    NoPerfectMatchingError,
    NotAPermutationError,
    NotPerfectError,
    OrderInvalidError,
)
from .graph import (
    Edge,
    Graph,
    MODE_FLIP,
    ReconfigSequence,
    _meet,
    canonical_flip,
    edge,
    matching_status,
    partner_map,
)


@dataclass(frozen=True)
class StrongOrder:
    order: tuple[int, ...]


@dataclass(frozen=True)
class OrderCheck:
    valid: bool
    # order positions (i, j, k, l) of a violating quadruple, if any
    witness: Optional[tuple[int, int, int, int]] = None


def _check_permutation(g: Graph, order) -> tuple[int, ...]:
    if isinstance(order, StrongOrder):
        order = order.order
    order = tuple(order)
    if sorted(order) != list(range(g.n)):
        raise NotAPermutationError(f"not a permutation of 0..{g.n - 1}")
    return order


def verify_strong_ordering(g: Graph, order: Sequence[int]) -> OrderCheck:
    """Exhaustive check of the strong-ordering implication.

    Adjacency rows are kept as position-indexed bitmasks, so each edge
    (i, k) is checked against all j > i adjacent to k in one mask pass.
    """
    order = _check_permutation(g, order)
    n = g.n
    pos = {v: i for i, v in enumerate(order)}
    rows = [0] * n
    for i, v in enumerate(order):
        r = 0
        for w in g.adj[v]:
            r |= 1 << pos[w]
        rows[i] = r
    for i in range(n):
        row_i = rows[i]
        r = row_i
        while r:
            kbit = r & -r
            r ^= kbit
            k = kbit.bit_length() - 1
            # candidates l > k adjacent to i, and j > i adjacent to k
            lmask = row_i >> (k + 1) << (k + 1)
            if not lmask:
                continue
            jmask = rows[k] >> (i + 1) << (i + 1)
            while jmask:
                jbit = jmask & -jmask
                jmask ^= jbit
                j = jbit.bit_length() - 1
                bad = lmask & ~rows[j] & ~jbit
                if bad:
                    l = (bad & -bad).bit_length() - 1
                    return OrderCheck(False, (i, j, k, l))
    return OrderCheck(True)


def canonical_matching(g: Graph, order: Sequence[int]) -> frozenset[Edge]:
    """Greedy perfect matching: repeatedly match the earliest unmatched
    vertex to its earliest unmatched neighbor (positions in ``order``)."""
    order = _check_permutation(g, order)
    pos = {v: i for i, v in enumerate(order)}
    matched = [False] * g.n
    out: set[Edge] = set()
    for i, v in enumerate(order):
        if matched[v]:
            continue
        best = None
        for w in g.adj[v]:
            if not matched[w] and (best is None or pos[w] < pos[best]):
                best = w
        if best is None:
            raise NoPerfectMatchingError(
                f"greedy leaves vertex {v} unmatched; no perfect matching"
            )
        matched[v] = matched[best] = True
        out.add(edge(v, best))
    return frozenset(out)


def _route_to_canonical(
    g: Graph,
    order: tuple[int, ...],
    canonical: frozenset[Edge],
    start: frozenset[Edge],
) -> list:
    """Flips turning ``start`` into ``canonical``, one greedy pair at a time.

    At each step the earliest live vertex v1 is matched to v_p in the
    canonical matching and to v_q in the current one.  If they differ, the
    strong ordering guarantees the 4-cycle v1, v_q, v_r, v_p (v_r the
    current partner of v_p), and flipping it aligns the pair.
    """
    pos = {v: i for i, v in enumerate(order)}
    cpart = partner_map(canonical)
    npart = partner_map(start)
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
            npart[v1], npart[vp] = vp, v1
            npart[vq], npart[vr] = vr, vq
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
    (flips are involutions, so the target half is replayed in reverse).
    Expects a verified strong ordering; a violation encountered mid-run
    raises :class:`OrderInvalidError`.
    """
    order = _check_permutation(g, order)
    for m in (m_ini, m_tar):
        if matching_status(g, m).kind != "perfect":
            raise NotPerfectError("both input matchings must be perfect")
    canon = canonical_matching(g, order)
    fwd = _route_to_canonical(g, order, canon, frozenset(m_ini))
    bwd = _route_to_canonical(g, order, canon, frozenset(m_tar))
    return ReconfigSequence(MODE_FLIP, tuple(_meet(fwd, bwd)))
