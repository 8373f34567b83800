"""Perfect matching reconfiguration on outerplanar graphs.

The decision procedure repeatedly applies three reductions, each of which
preserves the answer exactly:

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

Even chords of a 2-connected block's boundary cycle cannot occur in any
perfect matching nor in any flip, so they are purged whenever a block is
re-scanned; after purging, a block always offers an adjacent degree-two
pair, which keeps the reduction moving.

Each graph has one certified structure, cached while it lives: every
vertex's position on the boundary cycle of each block holding it.
Recognition builds it (one ear-contracted, checked cycle per block), or a
valid boundary hint is it, a checked Hamiltonian cycle with non-crossing
chords being a certificate.  The solver reads it: its graph only loses
vertices and edges (a pair contracts onto an existing chord), so a
2-connected piece lies in one block, and drawn with the block's vertices
on a circle in cycle order the piece is crossing-free with all vertices
on its outer face, which being 2-connected is a cycle in circle order:
the block's cycle restricted to the piece.

Sequence construction exploits that a pair contraction lifts with at most
one extra flip on each side: flipping the square (x, u, w, y) toggles
between "e matched" and "boundary edges matched", after which the reduced
sequence replays verbatim.  The emitted sequence is therefore the
chronological list of initial-side square flips followed by the
target-side square flips in reverse order.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from .errors import NotOuterplanarError, NotTwoConnectedError
from .graph import (
    Edge,
    Graph,
    MODE_FLIP,
    Move,
    ReconfigSequence,
    canonical_flip,
    edge,
    induced_subgraph,
    partner_maps,
)


@dataclass(frozen=True)
class BoundaryOrder:
    """Cyclic vertex order of a 2-connected outerplanar graph's outer face."""

    order: tuple[int, ...]


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


@dataclass
class ReductionTrace:
    steps: list[TraceStep] = field(default_factory=list)


@dataclass(frozen=True)
class SubInstance:
    graph: Graph
    m_ini: frozenset[Edge]
    m_tar: frozenset[Edge]
    vertex_map: tuple[int, ...]  # local index -> original vertex


@dataclass(frozen=True)
class OuterplanarResult:
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
    work = {v: set(adj[v]) & vertices for v in vertices}
    if n < 3 or sum(map(len, work.values())) > 2 * (2 * n - 3):
        return None
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
    return _positions(adj, out)


def _positions(adj, order: list[int]) -> Optional[dict[int, int]]:
    """The vertex -> position map of ``order`` if it is a boundary cycle:
    consecutive vertices adjacent, and chords nested (no chords (a, c),
    (b, d) with a < b < c < d); else None."""
    n = len(order)
    if any(order[i - 1] not in adj[v] for i, v in enumerate(order)):
        return None
    pos = dict(zip(order, range(n)))
    open_at: list[list[int]] = [[] for _ in range(n)]
    close_at: list[list[int]] = [[] for _ in range(n)]
    for v in order:
        for w in adj[v]:
            if w in pos and pos[v] < pos[w]:
                i, j = pos[v], pos[w]
                if j - i in (1, n - 1):
                    continue
                open_at[i].append(j)
                close_at[j].append(i)
    stack: list[int] = []
    for p in range(n):
        for _ in close_at[p]:
            if not stack or stack[-1] != p:
                return None
            stack.pop()
        for j in sorted(open_at[p], reverse=True):
            stack.append(j)
    return None if stack else pos


_structures = weakref.WeakKeyDictionary()  # graphs are immutable and hash by identity


def _by_vertex(n: int, maps: list[dict[int, int]]) -> list[list[dict[int, int]]]:
    """Per vertex, the position maps of the block cycles through it."""
    if len(maps) == 1 and len(maps[0]) == n:  # one block: one shared list
        return [maps] * n
    found: list[list[dict[int, int]]] = [[] for _ in range(n)]
    for pos in maps:
        for v in pos:
            found[v].append(pos)
    return found


def _structure(g: Graph) -> Optional[list[list[dict[int, int]]]]:
    """The graph's cached structure, or None when it is not outerplanar.
    A bridge or a lone vertex is its block's own cycle."""
    if g not in _structures:
        found = None
        if g.m <= max(0, 2 * g.n - 3):
            # a block holds every edge between its vertices
            maps = [_boundary_cycle(g.adj, blk) if len(blk) > 2 else dict(zip(blk, range(2)))
                    for blk in biconnected_blocks(g.adj, range(g.n))[0]]
            if None not in maps:
                found = _by_vertex(g.n, maps)
        _structures[g] = found
    return _structures[g]


def boundary_order(g: Graph) -> BoundaryOrder:
    """The unique Hamiltonian boundary cycle of a 2-connected outerplanar
    graph, certified (consecutive adjacency and non-crossing chords)."""
    if g.n < 3:
        raise NotTwoConnectedError("need at least 3 vertices")
    found = _structure(g)
    if found is None:
        raise NotOuterplanarError("graph is not outerplanar")
    blocks = len({id(pos) for maps in found for pos in maps})
    # blocks and cut vertices form a forest with one tree per component
    if blocks - sum(len(maps) - 1 for maps in found) != 1:
        raise NotTwoConnectedError("graph is disconnected")
    if blocks != 1:
        raise NotTwoConnectedError("graph has a cut vertex")
    return BoundaryOrder(tuple(found[0][0]))


def verify_boundary_order(g: Graph, order) -> bool:
    """Check a claimed boundary cycle: Hamiltonian, consecutive vertices
    adjacent, chords non-crossing.  A valid one certifies ``g`` as
    2-connected outerplanar and becomes its structure."""
    if isinstance(order, BoundaryOrder):
        order = order.order
    order = list(order)
    pos = _positions(g.adj, order) if g.n >= 3 and sorted(order) == list(range(g.n)) else None
    if pos is None:
        return False
    _structures[g] = _by_vertex(g.n, [pos])
    return True


def is_outerplanar(g: Graph) -> bool:
    """Every biconnected block admits a certified boundary cycle."""
    return _structure(g) is not None


# ---------------------------------------------------------------------------
# cut-vertex splitting (public operation)


def _kept_blocks(
    blocks: list[set[int]], cuts: set[int], p1: dict[int, int], p2: dict[int, int]
) -> list[tuple[int, set[int]]]:
    """Each cut vertex, in order, with the one block it keeps.

    Every perfect matching pairs a cut vertex into its unique odd side,
    which is the branch through the block holding its matched edge; edges
    into its other blocks can never be matched or flipped, so every cut
    vertex of a component can be severed from them at once."""
    blocks_of: dict[int, list[set[int]]] = {}
    for blk in blocks:
        for bv in blk:
            blocks_of.setdefault(bv, []).append(blk)
    out = []
    for v in sorted(cuts):
        keep = next((blk for blk in blocks_of[v] if p1[v] in blk), None)
        if keep is None or p2[v] not in keep:
            raise RuntimeError("internal: matched partners straddle blocks")
        out.append((v, keep))
    return out


def split_at_cut_vertices(
    g: Graph, m_ini: frozenset[Edge], m_tar: frozenset[Edge]
) -> list[SubInstance]:
    """Split at cut vertices into 2-connected (or K2) sub-instances with
    restricted matchings, listed by least vertex.  Each cut vertex of a
    component keeps only the block holding its matched edge, as in
    :func:`solve_outerplanar`; the components this leaves are split again
    until none has a cut vertex."""
    p_ini, p_tar = partner_maps(g, m_ini, m_tar)
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    blocks, cuts, _ = biconnected_blocks(adj, range(g.n))
    while cuts:
        for v, keep in _kept_blocks(blocks, cuts, p_ini, p_tar):
            for t in adj[v] - keep:
                adj[v].discard(t)
                adj[t].discard(v)
        blocks, cuts, _ = biconnected_blocks(adj, range(g.n))
    out = []
    # without cut vertices, each component is one block
    for piece in sorted(map(sorted, blocks)):
        sub, vmap = induced_subgraph(g, piece)
        idx = {v: i for i, v in enumerate(vmap)}
        # no cut vertex severs its matched edges, so partners share a piece
        local = [frozenset(edge(i, idx[p[v]]) for i, v in enumerate(vmap)) for p in (p_ini, p_tar)]
        out.append(SubInstance(sub, *local, vmap))
    return out


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
    boundary cycles of the pieces it meets are read off ``g``'s structure."""
    p1, p2 = partner_maps(g, m_ini, m_tar)
    found = _structure(g)
    if found is None:
        raise NotOuterplanarError("graph is not outerplanar")
    trace = ReductionTrace()
    if g.n == 0:
        return OuterplanarResult(True, ReconfigSequence(MODE_FLIP, ()), trace)

    adj: dict[int, set[int]] = {v: set(g.adj[v]) for v in range(g.n)}  # live vertices only
    pre: list[Move] = []
    post: list[Move] = []

    low: list[int] = []   # vertices whose degree may have dropped to <= 1
    cand: list[int] = []  # vertices whose degree may be exactly 2
    dirty: set[int] = set()  # regions structural scans must revisit

    def touch(t: int) -> None:
        dirty.add(t)
        d = len(adj[t])
        if d <= 1:
            low.append(t)
        elif d == 2:
            cand.append(t)

    def kill_pair(u: int, w: int) -> None:
        """Remove a forced or contracted pair and its incident edges."""
        for v in (u, w):
            dirty.discard(v)
            p1.pop(v, None)
            p2.pop(v, None)
        # both leave the live graph before either's neighbours are touched
        for v, nbrs in [(u, adj.pop(u)), (w, adj.pop(w))]:
            for t in nbrs:
                if t in adj:
                    adj[t].discard(v)
                    touch(t)

    def drop_edge(u: int, w: int) -> None:
        adj[u].discard(w)
        adj[w].discard(u)
        touch(u)
        touch(w)

    def fire_pair(u: int, w: int) -> None:
        e = edge(u, w)
        x = next(iter(adj[u] - {w}))
        y = next(iter(adj[w] - {u}))
        e1 = p1.get(u) == w
        e2 = p2.get(u) == w
        if x == y:
            # triangle tip: e is forced into every perfect matching
            if not (e1 and e2):
                raise _No()
            trace.steps.append(Case1RemoveStep(e))
            kill_pair(u, w)
            return
        if y in adj[x]:
            # contract the pair onto the chord xy: a side matching ux and wy
            # matches xy instead, lifted back by the square flip (x, u, w, y)
            for p, on, moves in ((p1, e1, pre), (p2, e2, post)):
                if not on:
                    if p.get(u) != x or p.get(w) != y:
                        raise RuntimeError("internal: degree-two pair not matched as forced")
                    p[x], p[y] = y, x
                    moves.append(canonical_flip((x, u, w, y)))
            trace.steps.append(Case2Step((u, w), x, y, e1, e2))
            kill_pair(u, w)
            return
        # e lies on no 4-cycle: its matched status never changes
        if e1 != e2:
            raise _No()
        if e1 and e2:
            trace.steps.append(Case1RemoveStep(e))
            kill_pair(u, w)
        else:
            trace.steps.append(Case1DropStep(e))
            drop_edge(u, w)

    def drain() -> None:
        while low or cand:
            while low:
                v = low.pop()
                if v not in adj:
                    continue
                d = len(adj[v])
                if d == 0:
                    raise RuntimeError("internal: isolated vertex with live matching")
                if d == 1:
                    t = next(iter(adj[v]))
                    if p1.get(v) != t or p2.get(v) != t:
                        raise _No()
                    trace.steps.append(ForcedPairStep(edge(v, t)))
                    kill_pair(v, t)
            while cand:
                v = cand.pop()
                if v not in adj or len(adj[v]) != 2:
                    continue
                mate = next((w for w in adj[v] if len(adj[w]) == 2), None)
                if mate is not None:
                    fire_pair(v, mate)
                    break  # re-check low before more pairs

    def structural() -> None:
        # components untouched since their last scan were already purged,
        # split and seeded; only revisit regions with recent reductions.
        # After drain() every live vertex has degree >= 2.
        pieces = []
        seen: set[int] = set()
        for s in dirty:  # one block search per dirty component
            if s not in seen:
                blocks, cuts, comp = biconnected_blocks(adj, (s,))
                seen.update(comp)
                pieces.append((sorted(comp), blocks, cuts))
        dirty.clear()
        pieces.sort(key=lambda piece: piece[0][0])
        for comp, blocks, cuts in pieces:
            if len(comp) % 2 == 1:
                raise RuntimeError("internal: odd component with perfect matchings")
            if cuts:
                for v, keep in _kept_blocks(blocks, cuts, p1, p2):
                    trace.steps.append(
                        SplitStep(v, tuple(sorted(w for w in adj[v] if w in keep)))
                    )
                    for t in list(adj[v]):
                        if t not in keep:
                            drop_edge(v, t)
                continue
            # 2-connected piece: purge even chords of its boundary cycle,
            # the cycle of g's block holding it restricted to the piece
            # (see the module docstring; the piece has even size, so a
            # rotated or reflected cycle gives every chord the same parity)
            v, w = comp[0], next(iter(adj[comp[0]]))
            order = sorted(comp, key=next(pos for pos in found[v] if w in pos).__getitem__)
            pos = {v: i for i, v in enumerate(order)}
            for v in comp:
                for w in [w for w in adj[v] if pos[v] < pos.get(w, -1)]:
                    gap = pos[w] - pos[v]
                    if gap % 2 == 0:
                        if p1.get(v) == w or p2.get(v) == w:
                            raise RuntimeError("internal: even chord inside a matching")
                        trace.steps.append(RemoveEvenChordStep(edge(v, w)))
                        drop_edge(v, w)
            for v in comp:
                if len(adj[v]) == 2:
                    cand.append(v)

    # every reduction appends its step before it edits the graph, and
    # every step is followed by an edit: a round without steps stalled
    try:
        for v in adj:
            touch(v)
        drain()
        while adj:
            before = len(trace.steps)
            structural()
            drain()
            if adj and len(trace.steps) == before:
                raise RuntimeError("internal: reduction stalled (no degree-two pair)")
    except _No:
        return OuterplanarResult(False, None, trace)

    moves = tuple(pre + post[::-1])
    return OuterplanarResult(True, ReconfigSequence(MODE_FLIP, moves), trace)
