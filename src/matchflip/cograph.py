"""Matching reconfiguration (flips + slides) on cographs.

Cographs are the P4-free graphs.  :func:`build_cotree` splits the vertex
set top-down from an explicit stack into connected components (union
nodes) and complement components (join nodes); a piece that is connected
and co-connected holds an induced P4 (Corneil, Perl & Stewart, SIAM J.
Comput. 1985).  Each node records its vertex count and maximum matching
size nu (Yu & Yang, IPL 1993): a union adds the nu of its sides; a join
of G1 and G2 with n1 >= n2 has nu = min(floor((n1+n2)/2), nu1+n2).

The same bottom-up pass builds such a matching without ever using an
edge inside the smaller side of a join.  A union concatenates its
parts' matchings.  A join keeps G1's matching; G2's vertices take G1's
free vertices first, then break G1's matched edges, two G2-vertices
each (every break adds one edge).  With f free vertices in G1 this
stops at nu1+n2 when n2 <= f, and otherwise at nu1+f+floor((n2-f)/2) =
floor((n1+n2)/2), which needs only floor((n2-f)/2) <= nu1 breaks: that
holds because n2 <= n1 = 2*nu1+f.  Either way the size is the join's nu.

A connected piece completely joins the larger side A of its cotree root
to the smaller side B.  Its size-k matchings are classified by C1 (some
keeps an edge inside B) and C2 (some leaves a B-vertex unmatched).
Deleting B-vertices S leaves the join of A and B-S, and k <= n/2 <= |A|,
so the join bound nu(B-S)+|A| never binds: C1 holds iff k >= 1, B has an
edge and min(floor((n-2)/2), nu(A)+|B|-2) >= k-1; C2 iff
min(floor((n-1)/2), nu(A)+|B|-1) >= k; any B-edge (B-vertex) witnesses.

Under either condition every two size-k matchings are connected by a
short sequence routed through an explicitly constructed anchor matching:
A's cotree matching with the B-vertices the anchor leaves over joined on
as above, so its only B-edge is the one C1 fixes (under C2 a B-vertex
it leaves free takes the cycles).  C1 and C2 share one route,
``_anchored``, and differ only in how they clear the difference of
cycles; each side of it holds its matching as a partner map.  When
both fail, every size-k matching covers B entirely, B is matched into A,
and reachability reduces to the matchings induced on A, with A-side
moves lifted back by turning blocked slides into flips and repairing the
A-B assignment with at most 2|B| extra moves.  The solver and
``reachability_class`` read the events of one walk, ``_walk_cotree``,
which hands each piece's vertex and edge sets down and cuts them in place,
so only a join's smaller side and a union's smaller parts are listed.

Within one transformation the two matchings share the neighbour map of
their symmetric difference, kept and walked only by ``graph``'s difference
helpers; each move updates it in O(1).  A choice reads the map only near
the vertices the last move touched: a path retraction or a
forbidden-pattern fix costs O(log d) heap work per move (d the size of
the difference), a check for cycles inside A walks the components
through the touched vertices, and the cycles routed through a free
B-vertex are listed once.  Only pushing the input's B-edges out, at the
start, still scans that matching once per push.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from functools import partial, reduce
from heapq import heapify, heappop, heappush
from itertools import islice, repeat
from typing import Optional, Sequence

from .errors import InvalidFlipError, InvalidSlideError, NotACographError
from .graph import (
    Edge,
    Flip,
    Graph,
    MODE_FLIP_SLIDE,
    Move,
    ReconfigSequence,
    Slide,
    _hop,
    _map_moves,
    _meet,
    _step,
    _toggle,
    _walk,
    canonical_flip,
    edge,
    edge_set,
    graph_from_adjacency,
    induced_subgraph,
    matching_partners,
)

_CLAIM_CAP_FACTOR = 10


# ---------------------------------------------------------------------------
# cotree


# compared, hashed and shown by identity: a threshold cograph's cotree is
# as deep as the graph is large, too deep for the recursive dataclass methods
@dataclass(frozen=True, eq=False, repr=False)
class CotreeNode:
    kind: str  # "leaf" | "union" | "join"
    vertex: Optional[int] = None
    left: Optional["CotreeNode"] = None
    right: Optional["CotreeNode"] = None
    # vertex count and maximum matching size of the subtree's cograph
    size: int = field(default=1, init=False, compare=False)
    nu: int = field(default=0, init=False, compare=False)

    def __post_init__(self):
        if self.kind == "leaf":
            return
        size = self.left.size + self.right.size
        if self.kind == "union":
            nu = self.left.nu + self.right.nu
        else:
            big, small = self.sides()
            nu = min(size // 2, big.nu + small.size)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "nu", nu)

    def sides(self) -> tuple["CotreeNode", "CotreeNode"]:
        """The two children, larger first (the left one on a tie)."""
        if self.left.size < self.right.size:
            return self.right, self.left
        return self.left, self.right

    def parts(self) -> list["CotreeNode"]:
        """Subtrees below this node's run of its kind, left to right."""
        out, stack = [], [self]
        while stack:
            t = stack.pop()
            if t.kind == self.kind != "leaf":
                stack += (t.right, t.left)
            else:
                out.append(t)
        return out

    def leaves(self) -> frozenset[int]:
        out, stack = [], [self]
        while stack:
            t = stack.pop()
            if t.kind == "leaf":
                out.append(t.vertex)
            else:
                stack += (t.left, t.right)
        return frozenset(out)


# the two completely joined sides of a piece, larger side A first
@dataclass(frozen=True)
class RootPartition:
    a: frozenset[int]
    b: frozenset[int]


def _split(adj, vertices: set[int], co: bool) -> list[set[int]]:
    """Components (``co``: of the complement) of ``g[vertices]`` by least vertex."""
    left = set(vertices)
    parts = []
    while left:
        start = min(left)
        left.discard(start)
        part, frontier = {start}, [start]
        while frontier and left:
            v = frontier.pop()
            grab = left - adj[v] if co else adj[v] & left
            left -= grab
            part |= grab
            frontier.extend(grab)
        parts.append(part)
    return parts


def _find_p4(g: Graph, vertices: set[int]) -> tuple[int, int, int, int]:
    for v in sorted(vertices):
        for w in sorted(g.adj[v] & vertices):
            if w < v:
                continue
            left = (g.adj[v] & vertices) - g.adj[w] - {w}
            right = (g.adj[w] & vertices) - g.adj[v] - {v}
            for u in sorted(left):
                for x in sorted(right):
                    if u != x and x not in g.adj[u]:
                        return (u, v, w, x)
    raise RuntimeError("internal: expected an induced P4")


_cotrees = weakref.WeakKeyDictionary()  # graphs are immutable and hash by identity


def build_cotree(g: Graph) -> CotreeNode:
    """Cotree of ``g`` (leaves are vertices; binary union/join nodes fold
    each split's parts left by least vertex), kept while ``g`` lives.
    Raises :class:`NotACographError` with an induced-P4 witness."""
    if g in _cotrees:
        return _cotrees[g]
    if g.n == 0:
        raise ValueError("cotree of the empty graph is undefined")
    # nodes[i]: a leaf, or (kind, child ids) until folded (children come later)
    nodes: list = [None]
    todo = [(0, set(range(g.n)), None)]
    while todo:
        i, vs, above = todo.pop()
        if len(vs) == 1:
            nodes[i] = CotreeNode("leaf", min(vs))
            continue
        # below a union the piece is connected, below a join co-connected
        for kind in ("union", "join"):
            parts = [] if kind == above else _split(g.adj, vs, kind == "join")
            if len(parts) > 1:
                break
        else:
            raise NotACographError(_find_p4(g, vs))
        ids = range(len(nodes), len(nodes) + len(parts))
        nodes[i] = (kind, ids)
        nodes.extend(repeat(None, len(parts)))
        todo.extend(zip(ids, parts, repeat(kind)))
    for i in reversed(range(len(nodes))):
        if isinstance(nodes[i], tuple):
            kind, ids = nodes[i]
            nodes[i] = reduce(partial(CotreeNode, kind, None), (nodes[j] for j in ids))
    _cotrees[g] = nodes[0]
    return nodes[0]


def _probe_p4(g: Graph) -> Optional[tuple[int, int, int, int]]:
    """An induced P4 (a, b, c, d) whose middle edge bc is 0-x or x-y, with
    x vertex 0's greatest neighbour and y x's, or None.  A few set
    operations on the neighbourhoods of those vertices: sparse graphs
    offer such a P4 almost always, and a cograph never does."""
    adj = g.adj
    if not g.n or not adj[0]:
        return None
    x = max(adj[0])
    for b, c in ((0, x), (x, max(adj[x]))):
        left = adj[b].difference(adj[c], (c,))
        right = adj[c].difference(adj[b], (b,))
        if left and right:
            a = max(left)
            rest = right - adj[a]
            if rest:
                d = max(rest)
                if (b in adj[a] and c in adj[b] and d in adj[c]
                        and c not in adj[a] and d not in adj[b] and d not in adj[a]):
                    return a, b, c, d
    return None


def is_cograph(g: Graph) -> bool:
    """Whether ``g`` is P4-free.  A P4 found by :func:`_probe_p4` answers
    no at once; otherwise the cotree decides, and stays cached."""
    if _probe_p4(g):
        return False
    try:
        if g.n:
            build_cotree(g)
        return True
    except NotACographError:
        return False


def _join_onto(matching: deque[Edge], free: deque[int], small: list[int]) -> None:
    """Join the vertices ``small`` onto a maximum matching of a side at
    least as large and that side's free vertices, in place and in order:
    they take the free vertices first, then break matched edges two at a
    time."""
    ys = iter(small)
    take = min(len(free), len(small))
    pairs = [edge(free.popleft(), y) for y in islice(ys, take)]
    for _ in range(min((len(small) - take) // 2, len(matching))):
        x, y = matching.popleft()
        pairs += (edge(x, next(ys)), edge(y, next(ys)))
    matching += pairs
    free += ys


def _cotree_matching(tree: CotreeNode) -> tuple[deque[Edge], deque[int]]:
    """A maximum matching of the cograph below ``tree`` and its free
    vertices, built bottom-up (module docstring); each node's larger
    child's lists absorb the smaller one's."""
    done: list = []  # (matching, free) of each finished subtree, left first
    todo = [(tree, False)]
    while todo:
        t, ready = todo.pop()
        if t.kind == "leaf":
            done.append((deque(), deque((t.vertex,))))
        elif not ready:
            todo += ((t, True), (t.right, False), (t.left, False))
        else:
            right, left = done.pop(), done.pop()
            (bm, bf), (sm, sf) = (right, left) if t.left.size < t.right.size else (left, right)
            if t.kind == "union":
                bm += sm
                bf += sf
            else:
                _join_onto(bm, bf, [*(v for e in sm for v in e), *sf])
            done.append((bm, bf))
    matching, free = done.pop()
    if len(matching) != tree.nu:
        raise RuntimeError(f"internal: cotree matching of size {len(matching)}, nu {tree.nu}")
    return matching, free


# ---------------------------------------------------------------------------
# conditions


@dataclass(frozen=True)
class Conditions:
    c1: bool
    c2: bool


def _node_conditions(node: CotreeNode, k: int) -> Conditions:
    """C1/C2 for size k at the join ``node`` of A and B, |A| >= |B|."""
    a, b = node.sides()
    n = node.size
    return Conditions(
        k >= 1 and b.nu > 0 and min((n - 2) // 2, a.nu + b.size - 2) >= k - 1,
        min((n - 1) // 2, a.nu + b.size - 1) >= k,
    )


def _b_edges(g: Graph, b: frozenset[int]):
    """The edges inside ``b`` in sorted order, lazily."""
    for u in sorted(b):
        yield from ((u, w) for w in sorted(g.adj[u] & b) if u < w)


class _Side:
    """A mutable matching, as its partner map, that records the moves applied
    to it.  Two sides made by :func:`_sides` share ``diff``, the neighbour
    map of their symmetric difference, which each move updates in place."""

    def __init__(self, g: Graph, start):
        self.g = g
        self.partner = matching_partners(g, start)
        self.moves: list[Move] = []
        self.diff: Optional[dict[int, set[int]]] = None

    def edges(self) -> set[Edge]:
        return {(u, w) for u, w in self.partner.items() if u < w}

    def flip(self, cycle: Sequence[int]) -> None:
        self._apply(canonical_flip, tuple(cycle))

    def slide(self, removed: Edge, added: Edge) -> None:
        self._apply(Slide, removed, added)

    def _apply(self, make, *args) -> None:
        """Build the move ``make(*args)``, apply it to ``partner`` with
        ``_step`` and toggle each edge it changes in the shared difference.
        A move that is malformed or does not apply is a fault of the solver."""
        try:
            mv = make(*args)
            _step(self.g, self.partner, mv)
        except (InvalidFlipError, InvalidSlideError) as exc:
            raise RuntimeError(f"internal: {exc}") from exc
        if self.diff is not None:
            for e in mv.cycle_edges() if isinstance(mv, Flip) else (mv.removed, mv.added):
                _toggle(self.diff, e)
        self.moves.append(mv)


def _sides(g: Graph, m1, m2) -> tuple[_Side, _Side]:
    """Two sides sharing the neighbour map of their symmetric difference."""
    s1, s2 = _Side(g, m1), _Side(g, m2)
    s1.diff = s2.diff = {}
    for e in s1.edges() ^ s2.edges():
        _toggle(s1.diff, e)
    return s1, s2


def _cycles_through(nbr: dict[int, set[int]], vertices) -> list[tuple[int, ...]]:
    """The difference cycles through ``vertices``, each once, by least
    vertex, in the order of ``symmetric_difference_components``."""
    out, seen = [], set()
    for v in vertices:
        if v in nbr and v not in seen:
            cycle, walk = _walk(nbr, v)
            seen.update(walk)
            if cycle:
                out.append(walk)
    return sorted(out)


def _make_equal_cycle_free(s1: _Side, s2: _Side) -> None:
    """Equalise two sides whose shared difference has no cycle: retract the
    path with the least end from that end while paths are left, then pair
    the lone edges of the two sides in sorted order."""
    nbr = s1.diff
    # Retraction drops the two edges at a path's end, so the only new path
    # end is the vertex two steps in; stale heap entries are skipped.
    ends = [v for v, ws in nbr.items() if len(ws) == 1]
    heapify(ends)
    while ends:
        v = heappop(ends)
        if len(nbr.get(v, ())) != 1 or len(nbr[u := min(nbr[v])]) != 2:
            continue  # gone, or a lone edge
        w = _hop(nbr, v, u)
        # the path's end vertex is unmatched on the side missing its end
        # edge, so that side absorbs it with one slide
        (s2 if s1.partner.get(v) == u else s1).slide(edge(u, w), edge(v, u))
        heappush(ends, w)
    # only lone edges are left, and resolving a pair removes just those two
    lone = sorted({edge(u, w) for u, ws in nbr.items() for w in ws})
    lone1 = [f for f in lone if s1.partner.get(f[0]) == f[1]]
    lone2 = [f for f in lone if s1.partner.get(f[0]) != f[1]]
    # the graph is connected (a piece below a join, or the C2 work graph, where
    # every B-vertex still sees all of a nonempty A), so all lone edges lie
    # in one component and pair in sorted order
    for e1, e2 in zip(lone1, lone2):
        _resolve_single_pair(s1.g, s1, e1, e2)


def _resolve_single_pair(g: Graph, s1: _Side, e1: Edge, e2: Edge) -> None:
    # both endpoints of e2 are unmatched in s1's matching
    endpoint_pairs = [(p, q) for p in e1 for q in e2]
    for p, q in endpoint_pairs:
        if q in g.adj[p]:
            s1.slide(e1, edge(p, q))
            s1.slide(edge(p, q), e2)
            return
    for p, q in endpoint_pairs:
        common = (g.adj[p] & g.adj[q]) - set(e1) - set(e2)
        if not common:
            continue
        w = min(common)
        if w not in s1.partner:
            s1.slide(e1, edge(p, w))
            s1.slide(edge(p, w), edge(w, q))
            s1.slide(edge(w, q), e2)
        else:
            wp = s1.partner[w]
            s1.slide(edge(w, wp), edge(w, q))
            s1.slide(edge(w, q), e2)
            s1.slide(e1, edge(p, w))
            s1.slide(edge(p, w), edge(w, wp))
        return
    raise RuntimeError("internal: lone difference edges further than distance 2")


# ---------------------------------------------------------------------------
# anchored transformations (C1: a fixed B-edge, C2: a free B-vertex)


def _anchor(part: RootPartition, a_matching, removed, size: int) -> list[Edge]:
    """The first ``size`` edges of ``a_matching`` (a maximum matching of
    g[A] and A's free vertices) with B minus ``removed`` joined on: a
    maximum matching of g minus ``removed`` that has no B-edge."""
    matching, free = map(deque, a_matching)
    _join_onto(matching, free, sorted(part.b.difference(removed)))
    return sorted(matching)[:size]


def _enforce_claim_assumptions(part: RootPartition, e: Edge, sm: _Side, si: _Side) -> None:
    """Local fixes until the difference with the anchor has no B-edge on
    the non-anchor side, no cycle inside A, and none of the three short
    forbidden patterns.  Each fix is the constructive step from the
    anchored-transformation argument; the loop is capped defensively.

    Each fix applies at the least site where its pattern matches.  It
    reads the shared difference only near that site, so a move can change
    the matches only near the vertices it touched.  Each fix keeps a heap
    holding every site where it matches (stale ones are dropped at the
    top) and the vertices moved since it last topped that heap up."""
    cap = _CLAIM_CAP_FACTOR * (sum(map(len, sm.diff.values())) // 2 + 2) + 20
    while _push_b_edge_out(part, si):  # no later fix gives si a B-edge
        cap -= 1
    nbr, a = sm.diff, part.a
    # per fix: its heap of sites, the vertices moved since its last top-up
    # (at first all of them), the sites near those and the fix at one site
    fixes = [
        ([], set(nbr), lambda moved: (c[0] for c in _cycles_through(nbr, a & moved)
                                     if a.issuperset(c)),
         lambda c: _fix_a_cycle(part, e, sm, c)),
        ([], set(nbr), lambda moved: _near(nbr, moved, 0),
         lambda site: _fix_short_pattern(part, sm, si, site)),
        ([], set(nbr), lambda moved: _near(nbr, moved, 4),
         lambda site: _fix_w_pattern(part, e, sm, site)),
    ]
    for _ in range(cap):
        done = len(sm.moves), len(si.moves)
        if not any(_fix_least(*fix) for fix in fixes):
            return
        touched = {v for mv in sm.moves[done[0]:] + si.moves[done[1]:]
                   for v in (mv.cycle if isinstance(mv, Flip) else mv.removed + mv.added)}
        for fix in fixes:
            fix[1].update(touched)
    raise RuntimeError("internal: assumption enforcement did not converge")


def _fix_least(heap: list, moved: set[int], near, fix) -> bool:
    """Push the sites ``near(moved)`` and start ``moved`` afresh; then pop
    the sites where ``fix`` matches nothing until it applies at the least
    one (True) or the heap is empty (False)."""
    for site in near(moved):
        heappush(heap, site)
    moved.clear()
    while heap:
        if fix(heap[0]):
            return True
        heappop(heap)
    return False


def _near(nbr: dict[int, set[int]], touched: set[int], hops: int) -> set[Edge]:
    """Difference edges with an end at most ``hops`` steps from ``touched``."""
    ball = frontier = touched & nbr.keys()
    for _ in range(hops):
        frontier = {w for v in frontier for w in nbr[v]} - ball
        ball = ball | frontier
    return {edge(v, w) for v in ball for w in nbr[v]}


def _push_b_edge_out(part: RootPartition, s: _Side) -> bool:
    """Move the least B-edge of ``s`` across the join: flip it with the
    least A-edge, else slide it to the least free A-vertex."""
    a_side, b_side = part.a, part.b
    bad = sorted(f for f in s.edges() if f[0] in b_side and f[1] in b_side)
    if not bad:
        return False
    x, y = bad[0]
    a_edges = sorted(f for f in s.edges() if f[0] in a_side and f[1] in a_side)
    free_a = sorted(v for v in a_side if v not in s.partner)
    if a_edges:
        c, d = a_edges[0]
        s.flip((x, c, d, y))  # removes {xy, cd}, adds {xc, dy}
    elif free_a:
        s.slide((x, y), (x, free_a[0]))
    else:
        raise RuntimeError("internal: B-edge with no A-edge and no free A-vertex")
    return True


def _fix_a_cycle(part, e, sm: _Side, c: int) -> bool:
    """Unwind the difference cycle inside A whose least vertex is ``c``."""
    cycles = _cycles_through(sm.diff, [c])
    if not (cycles and cycles[0][0] == c and part.a.issuperset(cycles[0])):
        return False
    xe, ye = e
    cyc = list(cycles[0])
    if sm.partner.get(cyc[-1]) != cyc[0]:
        cyc = cyc[1:] + cyc[:1]
    if sm.partner.get(cyc[-1]) != cyc[0]:
        raise RuntimeError("internal: cycle does not alternate")
    # rotate the anchor's B-edge around the cycle, restoring it at the end
    sm.flip((xe, ye, cyc[-1], cyc[0]))
    for i in range(1, len(cyc) // 2):
        sm.flip((xe, cyc[2 * i - 2], cyc[2 * i - 1], cyc[2 * i]))
    sm.flip((xe, cyc[-2], cyc[-1], ye))
    return True


def _fix_short_pattern(part, sm: _Side, si: _Side, site: Edge) -> bool:
    """Patterns (3) and (4): three consecutive difference edges, the middle
    one ``site``, that a single flip across the join collapses."""
    nbr = sm.diff
    v, w = site
    # a site whose edge left the difference matches nothing
    for vv, ww in ((v, w), (w, v)) if w in nbr.get(v, ()) else ():
        u, x = _hop(nbr, ww, vv), _hop(nbr, vv, ww)
        if u is None or x is None or u == x:
            continue
        in_a = [t in part.a for t in (u, vv, ww, x)]
        pat3 = in_a == [False, True, True, True]
        pat4 = in_a[0] != in_a[1] != in_a[2] != in_a[3]
        owner = sm if sm.partner.get(u) == vv else si
        if (pat3 or pat4) and owner.partner.get(ww) == x:
            owner.flip((u, vv, ww, x))
            return True
    return False


def _fix_w_pattern(part, e, sm: _Side, site: Edge) -> bool:
    """Pattern (5): a B-A-A-B-A-A run from ``site`` with the anchor's edges
    1, 3 and 5 (a run reads the map four steps past its first edge)."""
    xe, ye = e
    nbr = sm.diff
    u, v = site
    # a site whose edge left the difference matches nothing
    for walk in ([u, v], [v, u]) if v in nbr.get(u, ()) else ():
        while len(walk) < 6 and (t := _hop(nbr, walk[-2], walk[-1])) is not None:
            walk.append(t)
        if len(walk) < 6:
            continue
        uu, vv, w, x, y, z = walk
        if not (
            uu in part.b and x in part.b and part.a.issuperset((vv, w, y, z))
            and sm.partner.get(uu) == vv and sm.partner.get(w) == x
            and sm.partner.get(y) == z
        ):
            continue
        if {xe, ye} & set(walk):
            raise RuntimeError("internal: anchor edge inside W-pattern")
        sm.flip((xe, y, z, ye))
        sm.flip((x, y, xe, w))
        sm.flip((ye, z, uu, vv))
        sm.flip((xe, w, vv, ye))
        return True
    return False


def _clear_b_edge(part: RootPartition, e: Edge, sm: _Side, si: _Side) -> None:
    """C1: the claim's fixes, then a flip of the one 4-cycle through the
    anchor's B-edge ``e`` that they may leave."""
    _enforce_claim_assumptions(part, e, sm, si)
    cycles = _cycles_through(sm.diff, sm.diff)
    if cycles:
        if len(cycles) != 1 or len(cycles[0]) != 4 or not set(e) <= set(cycles[0]):
            raise RuntimeError("internal: unexpected cycle structure after fixes")
        sm.flip(cycles[0])


def _clear_free_vertex(part: RootPartition, v: int, sm: _Side, si: _Side) -> None:
    """C2: unwind each difference cycle on the anchor side ``sm`` by slides
    through the B-vertex ``v`` the anchor leaves free; ``si`` is untouched."""
    # unwinding one cycle leaves the others as they are
    for cycle in _cycles_through(sm.diff, sm.diff):
        # start at an A-vertex whose next edge is the anchor side's
        for cyc in (cycle, cycle[::-1]):
            starts = [
                i for i, x in enumerate(cyc)
                if x in part.a and sm.partner.get(x) == cyc[(i + 1) % len(cyc)]
            ]
            if starts:
                break
        else:
            raise RuntimeError("internal: difference cycle avoids side A")
        cyc = cyc[starts[0]:] + cyc[:starts[0]]
        t = len(cyc) // 2
        sm.slide(edge(cyc[0], cyc[1]), edge(cyc[0], v))
        for i in range(1, t):
            sm.slide(edge(cyc[2 * i], cyc[2 * i + 1]), edge(cyc[2 * i - 1], cyc[2 * i]))
        sm.slide(edge(cyc[0], v), edge(cyc[-1], cyc[0]))


# ---------------------------------------------------------------------------
# full solver


@dataclass(frozen=True)
class CographResult:
    yes: bool
    sequence: Optional[ReconfigSequence]


def _take(m: set[Edge], partner: dict[int, int], vertices) -> set[Edge]:
    """Remove from ``m`` and return its edges at ``vertices``, found through
    ``partner``, the partner map of a matching that contains ``m``."""
    out = {f for v in vertices if v in partner and (f := edge(v, partner[v])) in m}
    m -= out
    return out


def _union_pieces(parts: list[CotreeNode], vs: set[int], ms, partners) -> list[tuple]:
    """``(part, vertices, matchings)`` for each of a union's ``parts``, in
    order.  The largest part keeps the piece's own sets, from which every
    other part's vertices and edges are taken, so each vertex is listed
    only in parts at most half its piece's size."""
    big = max(parts, key=lambda t: t.size)
    out = []
    for t in parts:
        if t is big:
            out.append((t, vs, ms))
            continue
        leaves = set(t.leaves())
        vs -= leaves
        out.append((t, leaves, [_take(m, p, leaves) for m, p in zip(ms, partners)]))
    return out


def _walk_cotree(g: Graph, ms, partners):
    """Walk the cotree of ``g`` depth first with one or two matchings
    ``ms`` and their partner maps, cutting the pieces' sets in place, and
    yield ``(event, node, vertices, matchings, info)`` per decision, before
    any cut: ``"union"`` (``info`` its parts, walked next); ``"settled"``,
    a piece decided where it is (``info`` the C1/C2 of a join, None for a
    leaf or a piece with no edges); ``"reduced"``, a join walked on as side
    A (``info`` B); ``"end"`` of that side's walk; and ``"mismatch"``, the
    first piece whose matchings differ in size, which ends the walk."""
    if not g.n:
        yield "settled", None, set(), ms, None
        return
    todo: list = [(build_cotree(g), set(range(g.n)), [set(m) for m in ms])]
    while todo:
        node, vs, ms = todo.pop()
        if node is None:
            yield "end", None, None, None, None
            continue
        k = len(ms[0])
        if any(len(m) != k for m in ms):
            yield "mismatch", node, vs, ms, None
            return
        if node.kind == "union":
            parts = node.parts()
            yield "union", node, vs, ms, parts
            todo += reversed(_union_pieces(parts, vs, ms, partners))
            continue
        cond = _node_conditions(node, k) if node.kind == "join" and k else None
        if cond is None or cond.c1 or cond.c2:
            yield "settled", node, vs, ms, cond
            continue
        a, small = node.sides()
        b = small.leaves()
        yield "reduced", node, vs, ms, b
        vs -= b
        for m, p in zip(ms, partners):
            _take(m, p, b)
        todo += ((None, None, None), (a, vs, ms))


def _anchored(g: Graph, vs: set[int], node: CotreeNode, c1: bool, m1, m2) -> list[Move]:
    """The anchored transformation on the piece ``vs`` below the join
    ``node``, with A's matching read off its larger side; relabeled
    unless the piece is all of ``g``.  m1 and m2 each meet the anchor: a
    clearing step per condition, then the lone edges are paired."""
    a, small = node.sides()
    b = small.leaves()
    am, free = _cotree_matching(a)
    sub, vmap = induced_subgraph(g, vs)
    if sub is not g:
        idx = {v: i for i, v in enumerate(vmap)}
        am, m1, m2 = ([edge(idx[u], idx[v]) for u, v in m] for m in (am, m1, m2))
        b, free = frozenset(idx[v] for v in b), [idx[v] for v in free]
    part = RootPartition(frozenset(range(sub.n)) - b, b)
    k = len(m1)
    if c1:
        # the anchor joins B minus e onto A, so with A the larger side every
        # B-edge e leaves as many edges: the first is the only try
        e = next(_b_edges(sub, b), None)
        if k < 1 or e is None or len(rest := _anchor(part, (am, free), e, k - 1)) < k - 1:
            raise RuntimeError("internal: condition C1 does not hold")
        work, anchor, clear = sub, (e, *rest), partial(_clear_b_edge, part, e)
    else:
        # C1 fails, so no size-k matching uses a B-edge: without them the
        # B-vertices are twins, and any one witnesses C2
        v = min(b)
        work = graph_from_adjacency([ws - b if u in b else ws for u, ws in enumerate(sub.adj)])
        anchor, clear = _anchor(part, (am, free), {v}, k), partial(_clear_free_vertex, part, v)
    halves = []
    for m in (m1, m2):
        sm, si = _sides(work, anchor, m)
        clear(sm, si)
        _make_equal_cycle_free(si, sm)
        if si.partner != sm.partner:
            raise RuntimeError("internal: sides did not meet")
        halves.append(_meet(si.moves, sm.moves))
    moves = _meet(*halves)
    return moves if sub is g else _map_moves(moves, vmap.__getitem__)


def _solve_tree(g: Graph, m1, m2, partners) -> Optional[list[Move]]:
    """Moves from m1 to m2 (None on NO) read off :func:`_walk_cotree`: a
    settled join is anchored, a reduced one lifts its side A's moves."""
    out: list[Move] = []
    lifts = []  # (B, the piece's two matchings, len(out)) per reduced join
    for event, node, vs, ms, info in _walk_cotree(g, (m1, m2), partners):
        if event == "mismatch":
            return None
        if event == "settled" and info is not None:
            out += _anchored(g, vs, node, info.c1, *ms)
        elif event == "reduced":
            lifts.append((info, *map(frozenset, ms), len(out)))
        elif event == "end":
            b, a1, a2, start = lifts.pop()
            out[start:] = _lift_from_a(g, b, a1, a2, out[start:])
    return out


def _lift_from_a(g: Graph, b: frozenset[int], m1, m2, a_moves) -> list[Move]:
    """Replay A-side moves on the full graph (blocked slides become flips
    with the B-partner), then align which A-vertices serve B and repair
    the A-B assignment by transposition flips."""
    s = _Side(g, m1)
    for mv in a_moves:
        if isinstance(mv, Flip):
            s.flip(mv.cycle)
            continue
        piv = mv.pivot
        far = mv.added[0] if mv.added[1] == piv else mv.added[1]
        if far not in s.partner:
            s.slide(mv.removed, mv.added)
        else:
            x = s.partner[far]
            other = mv.removed[0] if mv.removed[1] == piv else mv.removed[1]
            s.flip((other, piv, far, x))
    tar = matching_partners(g, m2)
    # the A-vertices matched into B, read from B's side
    cur_a = {s.partner[v] for v in b if v in s.partner and s.partner[v] not in b}
    tar_a = {tar[v] for v in b if v in tar and tar[v] not in b}
    for a in sorted(cur_a - tar_a):
        a2 = min(tar_a - cur_a)
        bpart = s.partner[a]
        s.slide(edge(a, bpart), edge(bpart, a2))
        cur_a ^= {a, a2}
    for bvert in sorted(b):
        want = tar.get(bvert)
        have = s.partner.get(bvert)
        if want is None or have is None:
            raise RuntimeError("internal: B-vertex unmatched though C2 fails")
        if have != want:
            s.flip((bvert, have, s.partner[want], want))
    if s.partner != tar:
        raise RuntimeError("internal: lift did not reach the target")
    return s.moves


def solve_cograph(g: Graph, m_ini, m_tar) -> CographResult:
    """Decide flip+slide reachability between two matchings of a cograph
    and produce a verified sequence on YES."""
    m_ini, m_tar = edge_set(m_ini), edge_set(m_tar)
    partners = [matching_partners(g, m) for m in (m_ini, m_tar)]
    moves = _solve_tree(g, m_ini, m_tar, partners)
    if moves is None:
        return CographResult(False, None)
    return CographResult(True, ReconfigSequence(MODE_FLIP_SLIDE, tuple(moves)))


def reachability_class(g: Graph, m) -> tuple:
    """Invariant deciding reachability: two matchings of ``g`` are
    connected under flips+slides iff their classes are equal.  The class
    is a flat tuple of :func:`_walk_cotree`'s events: ``"u", c`` opens a
    union of c component classes, ``"l", k`` a size-k join whose class
    is that of side A, and ``"k", k`` ends a size-k piece.  Raises
    :class:`SizeMismatchError` when ``m`` is not a matching."""
    m = edge_set(m)
    out: list = []
    for event, _, _, ms, info in _walk_cotree(g, (m,), (matching_partners(g, m),)):
        if event == "union":
            out += ("u", len(info))
        elif event in ("settled", "reduced"):
            out += ("k" if event == "settled" else "l", len(ms[0]))
    return tuple(out)
