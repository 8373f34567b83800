"""Brute-force ground truth: matching enumeration, reachability BFS, stats.

One depth-first search, :func:`_factors`, lists the edge sets of given
degrees in lexicographic order: perfect matchings, matchings of one size
(the other vertices bare), and the hardness module's k-factors and gadget
tables.  Matchings are encoded as bitmasks over a global edge index so
BFS states hash in O(1); a mask is read back one set bit at a time.  Flips
come from a bit-sliced table of the C 4-cycles, built once per graph on
first use: 16 big-int operations on a matching's aggregate (the XOR of its
edges' lanes) give all its flips, and the search keeps each frontier
matching's aggregate, one XOR from its neighbour's, so an expansion costs a
few 4C-bit operations plus its own moves, not a step per 4-cycle.  k-flip
neighbors are found by DFS over alternating cycles.  The moves of a path
are rebuilt from the difference of consecutive masks.  Reachability is a
two-ended BFS, one search from each matching meeting in the middle, and
its budget counts what both hold.
The stats diameter is one BFS from B sources at once, bit-parallel: for V
matchings, E adjacencies and diameter D, ⌈V/B⌉·D·E big-int ORs, O(V·B) bits.
Everything here is desk-scale by design and guarded by an explicit budget.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal, Optional, Union

from .errors import BudgetExceededError, EdgeNotInGraphError, SizeMismatchError
from .graph import (
    Edge,
    Graph,
    MODE_FLIP,
    MODE_FLIP_SLIDE,
    MODE_KFLIP,
    Move,
    ReconfigSequence,
    Slide,
    canonical_flip,
    check_mode,
    edge,
    four_cycles,
    matching_partners,
    symmetric_difference_components,
)

DEFAULT_BUDGET = 2_000_000
KFLIP_MAX = 12
_BLOCK = 2048  # sources per bit-parallel BFS pass in :func:`_diameter`


@dataclass(frozen=True)
class Mode:
    """Adjacency relation for the reconfiguration graph."""

    kind: Literal["flip", "flip_slide", "kflip"]
    k: Optional[int] = None

    def __post_init__(self):
        check_mode(self.kind, self.k)
        if self.k is not None and self.k > KFLIP_MAX:
            raise ValueError(f"k capped at {KFLIP_MAX} for the oracle")


FLIP_ONLY = Mode(MODE_FLIP)
FLIP_SLIDE = Mode(MODE_FLIP_SLIDE)


def kflip(k: int) -> Mode:
    return Mode(MODE_KFLIP, k)


@dataclass(frozen=True)
class ReconfigGraphStats:
    nodes: int
    components: int
    component_sizes: tuple[int, ...]  # descending
    diameter: Optional[int]


@dataclass(frozen=True)
class ReachResult:
    reachable: bool
    distance: Optional[int] = None
    sequence: Optional[ReconfigSequence] = None


# ---------------------------------------------------------------------------
# enumeration


def enumerate_matchings(
    g: Graph,
    target: Union[int, Literal["perfect"]],
    budget: int = DEFAULT_BUDGET,
) -> list[frozenset[Edge]]:
    """Exhaustively list matchings, in lexicographic sorted-edge order.

    ``target`` is ``"perfect"`` or an exact size.  Raises
    :class:`BudgetExceededError` when more than ``budget`` matchings of
    that size exist.
    """
    spare = 0 if target == "perfect" else g.n - 2 * int(target)
    return [frozenset(m) for m in _factors(g, 1, spare, budget)]


def _factors(g: Graph, k: int, spare: int, budget: int) -> Iterable[tuple[Edge, ...]]:
    """The edge sets in which exactly ``spare`` vertices have no edge and
    every other has exactly ``k``, as sorted edge tuples in lexicographic
    order; raises :class:`BudgetExceededError` past ``budget`` of them.

    Depth first: the least vertex still short of edges takes each short
    neighbour after its last partner in increasing order, then, with no
    edge yet and ``spare`` left, stays bare.  No more than the
    ``k * (n - spare) / 2`` edges of a set are taken, so exactly ``spare``
    end bare.  One explicit stack frame per decision: a vertex and the
    index of the option it holds, bare being the last."""
    n = g.n
    if k < 0 or not 0 <= spare <= n or k * (n - spare) % 2:
        return
    most = k * (n - spare) // 2
    # each list ends in n, the option to stay bare; need[n] stops every scan
    nbrs = [sorted(a) + [n] for a in g.adj]
    need = [k] * n + [1]  # edges each vertex still lacks; 0 when full or bare
    found = 0
    cur: list[Edge] = []
    stack: list[list[int]] = []
    v = 0
    while True:
        while v < n and not need[v]:
            v += 1
        if v == n:
            found += 1
            if found > budget:
                raise BudgetExceededError("too many edge sets of the requested degrees")
            yield tuple(cur)
        elif len(cur) == most:  # a new frame at v that may only stay bare
            stack.append([v, ~(len(nbrs[v]) - 1)])
        elif k > 1 and stack and stack[-1][0] == v:  # v again: options follow its last partner
            stack.append([v, ~(stack[-1][1] + 1)])
        else:
            stack.append([v, -1])
        while stack:
            top = stack[-1]
            v, j = top
            ws = nbrs[v]
            if j < 0:  # a new frame holds no option yet; ~j is its first
                j = ~j
            elif ws[j] < n:
                need[v] += 1
                need[ws[j]] += 1
                cur.pop()
                j += 1
            else:  # bare was its last option
                need[v] = k
                spare += 1
                stack.pop()
                continue
            while not need[ws[j]]:
                j += 1
            w = ws[j]
            if w < n:
                need[v] -= 1
                need[w] -= 1
                cur.append((v, w))
                top[1] = j
                break
            if spare and need[v] == k:
                need[v] = 0
                spare -= 1
                top[1] = j
                break
            stack.pop()
        else:
            return


# ---------------------------------------------------------------------------
# mask-level machinery (shared with the hardness module's gadget self-test)


class MaskSpace:
    """Bitmask encoding of edge subsets of a fixed graph."""

    def __init__(self, g: Graph):
        self.g = g
        self.edges = g.sorted_edges()
        self.index = {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def cycle_table(self) -> tuple[list[int], list[tuple[int, int]], int]:
        """The bit-sliced 4-cycle table, built on first use (k-flips never
        read it): per edge bit its lane, whose bit ``4c + r`` is set when the
        edge has role r in 4-cycle c (0, 1: the even pair ab, cd; 2, 3: the
        odd pair bc, da); per cycle its edge mask and the XOR of its edges'
        lanes, which its flip adds to an aggregate; and ``one``, bit 0 of
        every nibble.  Edge bits come from per-vertex neighbour maps."""
        at: list[dict[int, int]] = [{} for _ in range(self.g.n)]
        for i, (u, v) in enumerate(self.edges):
            at[u][v] = at[v][u] = i
        lanes = [0] * len(self.edges)
        quads = []
        lane = 1
        for a, b, c, d in four_cycles(self.g):
            ab, cd, bc, da = quad = at[a][b], at[c][d], at[b][c], at[d][a]
            lanes[ab] |= lane
            lanes[cd] |= lane << 1
            lanes[bc] |= lane << 2
            lanes[da] |= lane << 3
            lane <<= 4
            quads.append(quad)
        cycles = [(1 << i | 1 << j | 1 << k | 1 << l, lanes[i] ^ lanes[j] ^ lanes[k] ^ lanes[l])
                  for i, j, k, l in quads]
        return lanes, cycles, (lane - 1) // 15

    def to_mask(self, edges: Iterable[Edge]) -> int:
        m = 0
        for e in edges:
            try:
                m |= 1 << self.index[edge(*e)]
            except KeyError:
                raise EdgeNotInGraphError(f"edge {edge(*e)} not in graph") from None
        return m

    def edge_list(self, mask: int) -> list[Edge]:
        """The edges of ``mask`` in index order, one step per set bit."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.edges[low.bit_length() - 1])
            mask ^= low
        return out

    def to_edges(self, mask: int) -> frozenset[Edge]:
        return frozenset(self.edge_list(mask))


def _aggregate(space: MaskSpace, mask: int, mode: Mode) -> int:
    """The XOR of the lanes of the edges of ``mask``; 0 under k-flips,
    which never build the cycle table."""
    if mode.kind == MODE_KFLIP:
        return 0
    lanes = space.cycle_table[0]
    agg = 0
    while mask:
        low = mask & -mask
        agg ^= lanes[low.bit_length() - 1]
        mask ^= low
    return agg


def _flip_steps(space: MaskSpace, mask: int, agg: int) -> list[tuple[int, int]]:
    """The alternating-4-cycle exchanges of ``mask``, whose aggregate is
    ``agg``, in cycle order (valid for any edge subset whose degrees the
    exchange should preserve).  In the nibble of cycle c, p q r s read
    whether its edges of roles 0..3 are in ``mask``: it flips when it holds
    exactly the even pair or exactly the odd pair."""
    _, cycles, one = space.cycle_table
    p, q, r, s = agg & one, agg >> 1 & one, agg >> 2 & one, agg >> 3 & one
    flips = p & q & ~(r | s) | r & s & ~(p | q)
    out = []
    while flips:
        low = flips & -flips
        both, delta = cycles[low.bit_length() >> 2]
        out.append((mask ^ both, delta))
        flips ^= low
    return out


def _slide_steps(space: MaskSpace, mask: int) -> list[tuple[int, int]]:
    adj, lanes = space.g.adj, space.cycle_table[0]
    matched = space.edge_list(mask)
    covered = {x for e in matched for x in e}
    out = []
    for u, v in matched:
        i = space.index[(u, v)]
        for pivot, other in ((u, v), (v, u)):
            for w in adj[pivot]:
                if w not in covered and w != other:
                    j = space.index[edge(pivot, w)]
                    out.append((mask ^ 1 << i | 1 << j, lanes[i] ^ lanes[j]))
    return out


def _kflip_steps(space: MaskSpace, mask: int, k: int) -> list[tuple[int, int]]:
    """Alternating cycles of length exactly k, each found once by starting
    at its minimum vertex along that vertex's matched edge (the cycle's
    direction is then fixed, so no cycle is entered twice).

    One depth-first search per start, on an explicit stack of neighbour
    iterators: each step takes an unmatched edge to a matched vertex and
    then that vertex's matched edge, so ``path`` grows two vertices at a
    time and holds the partner of each vertex on it: a ``w`` off the path
    has its partner off the path too.  Each step's XOR is 0 (no aggregate)."""
    adj = space.g.adj
    index = space.index
    partner: dict[int, int] = {}
    for u, v in space.edge_list(mask):
        partner[u] = v
        partner[v] = u
    out = []
    for u0 in sorted(partner):
        v1 = partner[u0]
        if v1 < u0:
            continue
        path = [u0, v1]
        stack = [iter(adj[v1])]
        while stack:
            for w in stack[-1]:
                x = partner.get(w)
                if x is not None and w > u0 and x > u0 and w not in path:
                    break
            else:
                stack.pop()
                del path[-2:]
                continue
            path += (w, x)
            if len(path) < k:
                stack.append(iter(adj[x]))
                continue
            if u0 in adj[x]:
                cmask = 0
                for i in range(k):
                    cmask |= 1 << index[edge(path[i], path[i - 1])]
                out.append((mask ^ cmask, 0))
            del path[-2:]
    return out


def _steps(space: MaskSpace, mask: int, agg: int, mode: Mode) -> list[tuple[int, int]]:
    """Each mask one move of ``mode`` away from ``mask`` (flips, then
    slides) with the XOR from ``agg``, the aggregate of ``mask``, to its own
    aggregate; k-flips keep none (0 for both)."""
    if mode.kind == MODE_KFLIP:
        return _kflip_steps(space, mask, mode.k)
    out = _flip_steps(space, mask, agg)
    if mode.kind == MODE_FLIP_SLIDE:
        out += _slide_steps(space, mask)
    return out


def _neighbors(space: MaskSpace, mask: int, mode: Mode) -> list[int]:
    """Masks one move of ``mode`` away from ``mask``."""
    return [nb for nb, _ in _steps(space, mask, _aggregate(space, mask, mode), mode)]


def _move(space: MaskSpace, a: int, b: int) -> Move:
    """The move between neighbouring matchings ``a`` and ``b``: what they
    differ in is the flipped cycle, or the two edges of a slide."""
    gone, new = space.to_edges(a & ~b), space.to_edges(b & ~a)
    (comp,) = symmetric_difference_components(gone, new)
    if comp.kind == "even_cycle":
        return canonical_flip(comp.vertices)
    (removed,), (added,) = gone, new
    return Slide(removed, added)


def _adjacency(space: MaskSpace, masks: list[int], mode: Mode, budget: int) -> list[list[int]]:
    """Each mask's neighbours under ``mode`` as indices into ``masks``;
    neighbours outside the list are left out."""
    ids = {m: i for i, m in enumerate(masks)}
    adj: list[list[int]] = []
    work = 0
    for m in masks:
        adj.append([j for j in map(ids.get, _neighbors(space, m, mode)) if j is not None])
        work += 1 + len(adj[-1])
        if work > budget:
            raise BudgetExceededError("stats adjacency exceeds budget")
    return adj


def _components(adj: list[list[int]]) -> list[int]:
    """Component label of each node, numbered in order of first node."""
    comp = [-1] * len(adj)
    cid = 0
    for i in range(len(adj)):
        if comp[i] >= 0:
            continue
        comp[i] = cid
        stack = [i]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if comp[w] < 0:
                    comp[w] = cid
                    stack.append(w)
        cid += 1
    return comp


# ---------------------------------------------------------------------------
# reachability and statistics


def reachable(
    g: Graph,
    m1: frozenset[Edge],
    m2: frozenset[Edge],
    mode: Mode = FLIP_ONLY,
    want_path: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> ReachResult:
    """Two-ended BFS over the mode-induced adjacency between matchings.

    One parent map grows from ``m1`` and one from ``m2``, a whole layer at
    a time, always on the side whose frontier is smaller, and the search
    stops at the first neighbour already in the other map.  That meeting
    closes a shortest path: when the maps hold every matching within
    ``a`` of ``m1`` and within ``b`` of ``m2`` and are still disjoint, the
    distance exceeds ``a + b``; a neighbour of layer ``a`` that lies in the
    other map is ``a + 1`` from ``m1`` (it is not within ``a``) and at most
    ``b`` from ``m2``, so the path through it has length ``a + 1 + b`` at
    most and hence exactly (likewise when the ``m2`` side grows).  Flips,
    slides and k-flips are all undone by the reverse move, so the goal
    half of the path, read backwards, is a path too.

    Every move keeps a matching's size, so matchings of two sizes are
    unreachable.  Returns a shortest sequence when ``want_path``; raises
    :class:`SizeMismatchError` on a non-matching and
    :class:`BudgetExceededError` when the two maps would hold more than
    ``budget`` matchings together, the start and the goal included.
    """
    p1, p2 = (matching_partners(g, m) for m in (m1, m2))
    if len(p1) != len(p2):
        if budget < 2:  # the start and the goal, as the search counts them
            raise BudgetExceededError("reachability state space exceeds budget")
        return ReachResult(False)
    space = MaskSpace(g)
    path = _shortest_path(space, space.to_mask(m1), space.to_mask(m2), mode, budget)
    if path is None:
        return ReachResult(False)
    seq = None
    if want_path:
        moves = tuple(_move(space, a, b) for a, b in zip(path, path[1:]))
        seq = ReconfigSequence(mode.kind, moves, mode.k)
    return ReachResult(True, len(path) - 1, seq)


def _shortest_path(space: MaskSpace, start: int, goal: int, mode: Mode,
                   budget: int) -> Optional[list[int]]:
    """The masks of a shortest path from ``start`` to ``goal``, or None;
    the two-ended search of :func:`reachable`."""
    held = 1 if start == goal else 2
    if held > budget:
        raise BudgetExceededError("reachability state space exceeds budget")
    if start == goal:
        return [start]
    maps = ({start: start}, {goal: goal})
    fronts = [[(m, _aggregate(space, m, mode))] for m in (start, goal)]
    while fronts[0] and fronts[1]:
        grow = int(len(fronts[0]) > len(fronts[1]))
        this, other = maps[grow], maps[1 - grow]
        nxt = []
        for cur, agg in fronts[grow]:
            for nb, delta in _steps(space, cur, agg, mode):
                if nb in this:
                    continue
                if nb in other:
                    a, b = (nb, cur) if grow else (cur, nb)
                    return _chain(maps[0], a)[::-1] + _chain(maps[1], b)
                this[nb] = cur
                held += 1
                if held > budget:
                    raise BudgetExceededError("reachability state space exceeds budget")
                nxt.append((nb, agg ^ delta))
        fronts[grow] = nxt
    return None


def _chain(parent: dict[int, int], mask: int) -> list[int]:
    """``mask`` and its parents up to the root of ``parent``."""
    out = [mask]
    while parent[out[-1]] != out[-1]:
        out.append(parent[out[-1]])
    return out


def reconfiguration_components(
    g: Graph,
    subsets: list[frozenset[Edge]],
    mode: Mode = FLIP_ONLY,
) -> list[int]:
    """Component label of each edge subset in the reconfiguration graph
    on ``subsets`` alone, numbered in order of first subset.  Subsets are
    matchings under ``mode``, or any spanning subgraphs (k-factors) under
    flips, i.e. alternating-4-cycle exchanges."""
    space = MaskSpace(g)
    return _components(_adjacency(space, [space.to_mask(s) for s in subsets], mode, DEFAULT_BUDGET))


def reconfiguration_stats(
    g: Graph,
    target: Union[int, Literal["perfect"]],
    mode: Mode = FLIP_ONLY,
    source: Optional[frozenset[Edge]] = None,
    budget: int = DEFAULT_BUDGET,
) -> ReconfigGraphStats:
    """Exact statistics of the reconfiguration graph over all matchings of
    the target class.  Diameter is taken over the component containing
    ``source`` when given, otherwise the maximum over all components;
    a ``source`` that is no matching of ``g`` is refused as
    :func:`matching_partners` refuses it.  :func:`_diameter` finds the
    diameter in ⌈V/B⌉·D·E big-int ORs and O(V·B) bits (see there)."""
    if source is not None:
        matching_partners(g, source)
    space = MaskSpace(g)
    spare = 0 if target == "perfect" else g.n - 2 * int(target)
    masks = [sum(1 << space.index[e] for e in m) for m in _factors(g, 1, spare, budget)]
    adj = _adjacency(space, masks, mode, budget)
    comp = _components(adj)
    sizes = tuple(sorted(Counter(comp).values(), reverse=True))
    nodes = list(range(len(masks)))
    if source is not None:
        i = {m: k for k, m in enumerate(masks)}.get(space.to_mask(source))
        if i is None:
            raise SizeMismatchError("source matching not in the target class")
        nodes = [j for j in nodes if comp[j] == comp[i]]
    diameter = _diameter(adj, nodes) if nodes else None
    return ReconfigGraphStats(len(masks), len(sizes), sizes, diameter)


def _diameter(adj: list[list[int]], nodes: list[int]) -> int:
    """The largest eccentricity among ``nodes``, a union of components of
    ``adj``, by BFS from ``_BLOCK`` sources at once (Akiba, Iwata and
    Yoshida, SIGMOD 2013).  After round t, bit b of ``reach[v]`` is set when
    source b is within t steps of v; a round ORs each node's neighbours into
    a new map (in place, a bit could move more than one hop), and the last
    round that grew any ``reach`` is the block's largest eccentricity.  Bits
    never cross components.  For V nodes, E adjacencies, diameter D and
    B = ``_BLOCK``: ⌈V/B⌉·D·E big-int ORs and O(V·B) bits."""
    best = 0
    for lo in range(0, len(nodes), _BLOCK):
        reach = dict.fromkeys(nodes, 0)
        for b, s in enumerate(nodes[lo:lo + _BLOCK]):
            reach[s] = 1 << b
        ecc, grew = -1, True  # ecc counts the rounds that grew
        while grew:
            nxt = {}
            for v, r in reach.items():
                for w in adj[v]:
                    r |= reach[w]
                nxt[v] = r
            ecc, grew, reach = ecc + 1, nxt != reach, nxt
        best = max(best, ecc)
    return best
