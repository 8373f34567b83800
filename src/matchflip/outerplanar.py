"""Perfect matching reconfiguration on outerplanar graphs.

The decision procedure applies three reductions, each of which preserves
the answer exactly:

* forced edges: a degree-<=1 vertex must use its only edge in every
  perfect matching, so both endpoints can be removed;
* cut splitting: at a cut vertex the unique odd component (with the cut
  vertex) separates from the rest, and edges from the cut vertex to other
  components can never be matched or flipped;
* degree-two pairs: for an edge e = uw whose endpoints both have degree
  two, with third neighbors x (of u) and y (of w): if xy is not an edge,
  e lies on no 4-cycle, so its matched status is frozen (answer NO if it
  disagrees between the matchings, otherwise drop e or the pair); if xy
  is an edge, the pair contracts onto the chord xy.

Each graph has one certified structure, cached while it lives: every
block's boundary cycle as vertex positions.  Recognition builds it (one
ear-contracted, checked cycle per block), or a valid boundary hint is it.
The solver reads pieces off it and never searches for a block: its graph
only loses vertices and edges, so each live vertex keeps a ring, the cycle
of the block holding its matched edge restricted to the vertex's piece.
Edges never cross on a ring; a ring whose neighbours are all adjacent is a
2-connected piece.  A gap (ring neighbours not adjacent) opens where a
vertex lives in another block or a pair or boundary edge is lost; the far
end c of the gap end's longest edge is then a cut vertex, as nothing
between them has an edge past c, and the ring is cut in two at c.

Even chords (an odd number of vertices on each side) of an even
2-connected piece cannot occur in any perfect matching nor in any flip.
They are purged once, when every ring has first closed.  From then on the
vertices on either side of a chord only lose even numbers: a lost pair is
adjacent, so it lies on one side, and a cut removes a perfectly matched
stretch of ring from one side.  So a chord's parity never changes, also in
odd input blocks and at cut vertices, where it is first measured after the
first split.  After purging, an even 2-connected piece always offers an
adjacent degree-two pair, which keeps the reduction moving.

A pair contraction lifts with at most one extra flip on each side:
flipping the square (x, u, w, y) toggles between "e matched" and
"boundary edges matched", after which the reduced sequence replays
verbatim.  The emitted sequence is the chronological list of initial-side
square flips, then the target-side ones in reverse order, less each
square flipped twice with only disjoint squares in between
(``graph._meet``).  No work is ordered by a ring's start or
direction, so the output depends on the graph and the matchings alone.

The live graph is lists indexed by vertex: live neighbour sets, liveness
flags and ring neighbours.  Each reduction is recorded as a tuple (step
class, its fields); :class:`ReductionTrace` builds the typed steps from
these the first time ``steps`` is read, so a caller that never reads the
trace, as the command line does not, never pays for them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .errors import NotOuterplanarError, NotTwoConnectedError
from .graph import (
    Edge,
    Graph,
    MODE_FLIP,
    ReconfigSequence,
    _meet,
    canonical_flip,
    edge,
    matching_partners,
)


# --- reduction trace ------------------------------------------------------


@dataclass(frozen=True)
class SplitStep:
    cut_vertex: int
    side: tuple[int, ...]


@dataclass(frozen=True)
class RemoveEvenChordStep:
    edge: Edge


@dataclass(frozen=True)
class Case1DropStep:
    edge: Edge


@dataclass(frozen=True)
class Case1RemoveStep:
    pair: Edge


@dataclass(frozen=True)
class ForcedPairStep:
    edge: Edge


@dataclass(frozen=True)
class Case2Step:
    pair: tuple[int, int]  # (u, w) with left adjacent to u, right to w
    left: int
    right: int
    e_in_ini: bool
    e_in_tar: bool


TraceStep = Union[
    SplitStep, RemoveEvenChordStep, Case1DropStep, Case1RemoveStep, ForcedPairStep, Case2Step
]


class ReductionTrace:
    """The reductions of one solve, in the order they fired, recorded as
    tuples (step class, its fields); ``steps`` builds the typed steps from
    them when first read.  Equality and repr go by ``steps``."""

    def __init__(self):
        self.records: list[tuple] = []

    @cached_property
    def steps(self) -> list[TraceStep]:
        return [r[0](*r[1:]) for r in self.records]

    def __eq__(self, other):
        return isinstance(other, ReductionTrace) and self.steps == other.steps

    def __repr__(self) -> str:
        return f"ReductionTrace(steps={self.steps!r})"


@dataclass(frozen=True)
class OuterplanarResult:
    """The answer, a flip sequence on YES, and the reductions made."""

    yes: bool
    sequence: Optional[ReconfigSequence]
    trace: ReductionTrace


# ---------------------------------------------------------------------------
# biconnectivity


def biconnected_blocks(
    adj: Sequence[Iterable[int]] | dict, roots: Iterable[int]
) -> tuple[list[set[int]], set[int], list[int]]:
    """Blocks (2-connected components, bridges as 2-sets, a lone vertex as
    a 1-set), cut vertices and reached vertices (in discovery order) of
    the components of ``adj`` that hold a root.

    ``adj`` must be closed over the vertices it reaches (a union of whole
    components): each ``adj[v]`` is walked as given, unfiltered.  Blocks
    are listed in no promised order.  One iterative vertex-stack Tarjan
    walk (Hopcroft and Tarjan): a finished child v of u closes the block
    of u and the vertices stacked since v when nothing below v climbs
    above u.  In a simple graph the parent edge only lowers ``low[v]`` to
    ``disc[u]``, which changes no such test, so it needs no special case;
    the root is a cut vertex when it has two or more children."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    blocks: list[set[int]] = []
    cuts: set[int] = set()
    for root in roots:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        vstack = [root]
        children = 0
        frames = [(root, iter(adj[root]), 0)]  # vertex, its walk, its vstack slot
        while frames:
            v, it, at = frames[-1]
            lv = low[v]
            for w in it:
                d = disc.get(w)
                if d is None:
                    low[v] = lv
                    disc[w] = low[w] = len(disc)
                    frames.append((w, iter(adj[w]), len(vstack)))
                    vstack.append(w)
                    break
                if d < lv:
                    lv = d
            else:
                frames.pop()
                if not frames:
                    break
                u = frames[-1][0]
                if lv < low[u]:
                    low[u] = lv
                elif lv >= disc[u]:  # u separates v's subtree: a block closes
                    blk = set(vstack[at:])
                    blk.add(u)
                    del vstack[at:]
                    blocks.append(blk)
                    if u == root:
                        children += 1
                    else:
                        cuts.add(u)
        if children >= 2:
            cuts.add(root)
        elif children == 0:  # no neighbour
            blocks.append({root})
    return blocks, cuts, list(disc)


# ---------------------------------------------------------------------------
# boundary cycle by ear contraction


def _boundary_cycle(adj, vertices: set[int]) -> Optional[dict[int, int]]:
    """Checked Hamiltonian boundary of a 2-connected outerplanar vertex
    set, as its vertex -> position map in cycle order, or None when it has
    none.

    Repeatedly contracts a degree-two ear, adding a virtual edge between
    its neighbors, then unwinds the contractions to rebuild the cycle.
    """
    n = len(vertices)
    local = {v: adj[v] & vertices for v in vertices}
    if n < 3 or sum(map(len, local.values())) > 2 * (2 * n - 3):
        return None
    work = {v: set(nv) for v, nv in local.items()}
    stack2 = [v for v in work if len(work[v]) == 2]
    insertions: list[tuple[int, int, int]] = []
    while len(work) > 3:
        while stack2 and (stack2[-1] not in work or len(work[stack2[-1]]) != 2):
            stack2.pop()
        if not stack2:
            return None  # no degree-two vertex left to contract
        v = stack2.pop()
        a, b = work.pop(v)
        work[a].discard(v)
        work[b].discard(v)
        work[a].add(b)
        work[b].add(a)
        insertions.append((v, a, b))
        stack2.extend(t for t in (a, b) if len(work[t]) == 2)
    x, y, z = sorted(work)
    if y not in work[x] or z not in work[x] or z not in work[y]:
        return None  # the contraction base is no triangle
    nxt = {x: y, y: z, z: x}
    for v, a, b in reversed(insertions):
        if nxt[b] == a:
            a, b = b, a
        elif nxt[a] != b:
            return None  # ear endpoints not adjacent at unwind
        nxt[a], nxt[v] = v, b
    out = [x]
    while nxt[out[-1]] != x:
        out.append(nxt[out[-1]])
    return _positions(local, out)


def _positions(adj, order: list[int]) -> Optional[dict[int, int]]:
    """The vertex -> position map of ``order`` if it is a boundary cycle:
    vertices distinct, consecutive ones adjacent, and chords nested (no
    chords (a, c), (b, d) with a < b < c < d); else None.  Each ``adj[v]``
    must lie inside ``order``.  The far ends of the open chords sit on a
    stack, nearest on top: a chord opening at p crosses one iff it reaches
    past the top, and the chords closing at p are the top entries p."""
    n = len(order)
    pos = dict(zip(order, range(n)))
    if len(pos) < n or order[0] not in adj[order[-1]]:
        return None
    at = pos.__getitem__
    stack = [n]
    for p in range(n - 1):
        nv = adj[order[p]]
        while stack[-1] == p:
            stack.pop()
        if order[p + 1] not in nv:
            return None
        if len(nv) > 2:
            far = sorted(map(at, nv), reverse=True)
            i = far.index(p + 1)  # far[:i]: the chords opening at p
            if i:
                if far[0] > stack[-1]:
                    return None
                stack += far[:i]
    return pos


_structures = weakref.WeakKeyDictionary()  # graphs are immutable and hash by identity


def _structure(g: Graph) -> Optional[list[dict[int, int]]]:
    """The graph's cached structure, its blocks' cycle position maps, or
    None when it is not outerplanar.  A bridge or a lone vertex is its
    block's own cycle."""
    if g not in _structures:
        maps = None
        if g.m <= max(0, 2 * g.n - 3):
            # a block holds every edge between its vertices
            maps = [_boundary_cycle(g.adj, blk) if len(blk) > 2 else dict(zip(blk, range(2)))
                    for blk in biconnected_blocks(g.adj, range(g.n))[0]]
        _structures[g] = None if maps is None or None in maps else maps
    return _structures[g]


def boundary_order(g: Graph) -> tuple[int, ...]:
    """The unique Hamiltonian boundary cycle of a 2-connected outerplanar
    graph, certified (consecutive adjacency and non-crossing chords)."""
    if g.n < 3:
        raise NotTwoConnectedError("need at least 3 vertices")
    blocks = _structure(g)
    if blocks is None:
        raise NotOuterplanarError("graph is not outerplanar")
    # blocks and cut vertices form a forest with one tree per component, and
    # a vertex in k blocks counts k - 1 times in the blocks' sizes beyond n
    if len(blocks) - (sum(map(len, blocks)) - g.n) != 1:
        raise NotTwoConnectedError("graph is disconnected")
    if len(blocks) != 1:
        raise NotTwoConnectedError("graph has a cut vertex")
    return tuple(blocks[0])


def verify_boundary_order(g: Graph, order) -> bool:
    """Check a claimed boundary cycle: Hamiltonian, consecutive vertices
    adjacent, chords non-crossing.  A valid one certifies ``g`` as
    2-connected outerplanar and becomes its structure."""
    order = list(order)
    n = g.n  # n entries in 0..n-1, which _positions sees are distinct
    ok = n >= 3 and len(order) == n and 0 <= min(order) <= max(order) < n
    pos = _positions(g.adj, order) if ok else None
    if pos is None:
        return False
    _structures[g] = [pos]
    return True


def is_outerplanar(g: Graph) -> bool:
    """Every biconnected block admits a certified boundary cycle."""
    return _structure(g) is not None


# ---------------------------------------------------------------------------
# the solver


class _No(Exception):
    pass


def solve_outerplanar(
    g: Graph, m_ini: frozenset[Edge], m_tar: frozenset[Edge]
) -> OuterplanarResult:
    """Decide flip reachability of two perfect matchings and, on YES,
    produce a verified flip sequence of length at most n.  Raises
    :class:`NotOuterplanarError` up front unless ``g`` is outerplanar; the
    pieces it meets are read off ``g``'s structure, never searched for."""
    p1, p2 = (matching_partners(g, m, perfect=True) for m in (m_ini, m_tar))
    blocks = _structure(g)
    if blocks is None:
        raise NotOuterplanarError("graph is not outerplanar")
    trace = ReductionTrace()
    record = trace.records.append
    n = g.n
    adj = list(map(set, g.adj))  # a vertex's live neighbours, while it lives
    live = [True] * n
    pre, post = [], []  # square flips on the initial and the target side
    low = [v for v in range(n) if len(adj[v]) <= 1]  # vertices whose degree may have dropped to <= 1
    cand: list[int] = []  # vertices whose degree may be exactly 2
    gaps: list[int] = []  # vertices whose ring neighbours may not be adjacent

    # a vertex lives in its block, a cut vertex (one in two blocks) in the
    # one holding its matched edge; its ring is that block's cycle restricted
    # to the live vertices living there, laid after the first split
    home: list = [None] * n
    cuts = set()
    for pos in blocks:
        for v in pos:
            if home[v] is None:
                home[v] = pos
            else:
                cuts.add(v)
                if p1[v] in pos:
                    home[v] = pos
    nxt, prv = list(range(n)), list(range(n))  # ring neighbours

    def lose(t: int, v: int) -> None:
        """t loses its edge to v; queue t by the degree left."""
        nt = adj[t]
        nt.discard(v)
        if len(nt) <= 2:
            (low if len(nt) < 2 else cand).append(t)

    def gap(a: int, b: int) -> None:
        """Queue the ring neighbours a and b if they are not adjacent."""
        if b not in adj[a]:
            gaps.extend((a, b) if a < b else (b, a))

    def kill_pair(u: int, w: int) -> None:
        """Remove a forced or contracted pair; their ring neighbours meet."""
        a, b = prv[u], nxt[u]
        nxt[a], prv[b] = b, a
        c, d = prv[w], nxt[w]
        nxt[c], prv[d] = d, c
        # both leave the live graph before either's neighbours are touched
        live[u] = live[w] = False
        for v in (u, w):
            for t in adj[v]:
                if live[t]:
                    lose(t, v)
        for a, b in ((a, b), (c, d)):
            if live[a] and live[b]:  # else u and w were ring neighbours
                gap(a, b)

    def sever(c: int, keep: set[int]) -> None:
        """Drop c's edges outside ``keep``, when c has any."""
        if len(keep) < len(adj[c]):
            record((SplitStep, c, tuple(sorted(keep))))
            for t in adj[c] - keep:
                lose(c, t)
                lose(t, c)

    def fire_pair(u: int, w: int, x: int) -> None:  # x: u's other neighbour
        y, z = adj[w]
        y = z if y == u else y
        e1, e2 = p1[u] == w, p2[u] == w
        if x != y and y in adj[x]:
            # contract the pair onto the chord xy: a side matching ux and wy
            # matches xy instead, lifted back by the square flip (x, u, w, y)
            for p, on, moves in ((p1, e1, pre), (p2, e2, post)):
                if not on:
                    if p[u] != x or p[w] != y:
                        raise RuntimeError("internal: degree-two pair not matched as forced")
                    p[x], p[y] = y, x
                    moves.append(canonical_flip((x, u, w, y)))
            record((Case2Step, (u, w), x, y, e1, e2))
        elif e1 != e2 or (x == y and not e1):
            # off every 4-cycle e's matched status never changes, and a
            # triangle tip's e is in every perfect matching
            raise _No()
        elif not e1:  # u and w then leave as forced pairs
            record((Case1DropStep, edge(u, w)))
            lose(u, w)
            lose(w, u)
            return
        else:
            record((Case1RemoveStep, edge(u, w)))
        kill_pair(u, w)

    def split(a: int, z: int) -> None:
        """Cut a's ring at a's farthest neighbour c away from the gap z-a,
        keeping c's edges on its partners' side."""
        pos = home[a]
        at, size = pos[a], len(pos)
        fwd, bwd, s = (nxt, prv, 1) if prv[a] == z else (prv, nxt, -1)
        far = lambda t: s * (pos[t] - at) % size  # noqa: E731
        c = max(adj[a], key=far)
        fc = far(c)
        keep = {t for t in adj[c] if far(t) < fc}
        near = far(p1[c]) < fc
        if near != (far(p2[c]) < fc):
            raise RuntimeError("internal: matched partners straddle blocks")
        sever(c, keep if near else adj[c] - keep)
        # rings a .. c and c's successor .. z, or a .. c's predecessor and c .. z
        p, q = (c, fwd[c]) if near else (bwd[c], c)
        fwd[p], bwd[a], fwd[z], bwd[q] = a, p, q, z
        gap(p, a)
        gap(z, q)

    def run(pairs: bool, splits: bool) -> None:
        while True:
            if low:
                v = low.pop()
                if live[v]:
                    if not adj[v]:
                        raise RuntimeError("internal: isolated vertex with live matching")
                    (t,) = adj[v]
                    # each edge removed is unmatched in both, and Case 2 moves p1, p2 onto
                    # its chord: both stay perfect on the live graph, so v's edge is in both
                    if p1[v] != t or p2[v] != t:
                        raise RuntimeError("internal: a degree-one vertex's edge is unmatched")
                    record((ForcedPairStep, (v, t) if v < t else (t, v)))
                    kill_pair(v, t)
            elif splits and gaps:
                v = gaps.pop()
                if live[v] and (nxt[v] not in adj[v] or prv[v] not in adj[v]):
                    # the gap end by label: the ring's direction stays unseen
                    split(v, min(t for t in (nxt[v], prv[v]) if t not in adj[v]))
            elif pairs and cand:
                v = cand.pop()
                if live[v] and len(adj[v]) == 2:
                    a, b = adj[v]
                    if len(adj[a]) == 2:
                        fire_pair(v, a, b)
                    elif len(adj[b]) == 2:
                        fire_pair(v, b, a)
            else:
                return

    try:
        run(False, False)
        for v in sorted(cuts):  # the first split, at the input's cut vertices, by label
            if live[v]:
                if p2[v] not in home[v]:
                    raise RuntimeError("internal: matched partners straddle blocks")
                sever(v, adj[v].intersection(home[v]))
        for pos in blocks:
            ring = [v for v in pos if live[v] and home[v] is pos]
            if ring:
                rot = ring[1:] + ring[:1]
                for a, b in zip(ring, rot):
                    nxt[a] = b
                    prv[b] = a
                if len(ring) < len(pos):  # around a vertex gone or living elsewhere
                    gaps.extend(t for a, b in zip(ring, rot) if b not in adj[a] for t in (a, b))
        gaps.sort()  # by label, as all work: never by a ring's start or direction
        run(False, True)
        # every ring is a cycle now: colour it alternately, 1 from its least
        # vertex, and purge the chords whose ends share a colour, the even
        # ones, once; only a vertex of degree three or more has a chord
        colour = [0] * n
        for v in range(n):
            if live[v] and not colour[v]:
                c, u = 1, v
                while not colour[u]:
                    colour[u] = c
                    c ^= 3
                    u = nxt[u]
                if c != 1:
                    raise RuntimeError("internal: odd component with perfect matchings")
        cand.clear()  # refilled by label: a vertex's degree is final once passed
        for v, nv in enumerate(adj):
            if not live[v]:
                continue
            if len(nv) > 2:
                cv = colour[v]
                chords = [w for w in nv if v < w and colour[w] == cv]
                if len(chords) > 1:  # as a set of nv's same-coloured members iterates them
                    chords = [w for w in {w for w in nv if colour[w] == cv} if v < w]
                for w in chords:
                    if p1[v] == w or p2[v] == w:
                        raise RuntimeError("internal: even chord inside a matching")
                    record((RemoveEvenChordStep, (v, w)))
                    nv.discard(w)
                    adj[w].discard(v)
            if len(nv) == 2:
                cand.append(v)
        run(True, True)
        if True in live:
            raise RuntimeError("internal: reduction stalled (no degree-two pair)")
    except _No:
        return OuterplanarResult(False, None, trace)
    return OuterplanarResult(True, ReconfigSequence(MODE_FLIP, tuple(_meet(pre, post))), trace)
