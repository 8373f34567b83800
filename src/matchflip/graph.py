"""Graph/matching data model, move semantics and sequence verification.

Everything downstream (solvers, oracle, generators) works on the types in
this module.  Vertices are dense integers ``0..n-1``; an edge is an ordered
pair ``(u, v)`` with ``u < v``; a matching is a frozenset of such pairs.
A :class:`Graph` holds its adjacency; its edge set is built on first use.
All values are immutable after construction and all public functions are
pure.  :func:`matching_partners` alone checks a matching into its vertex
-> partner map, and raises on an edge outside the graph, a shared vertex
or (if asked) a matching that is not perfect; ``_step`` alone checks and
applies a move on such a map in O(move size), for every caller that
moves a matching; ``_map_moves`` renames the vertices of moves; ``_meet``
glues two halves of a route and is the one place where moves cancel, in
one commute-and-cancel pass over the glued sequence; :func:`check_mode`
alone admits a (mode, k).
The difference M1 (triangle) M2 of two matchings is one vertex -> neighbours
map that ``_toggle`` updates, ``_hop`` steps along and ``_walk`` lists a
component of; :func:`symmetric_difference_components` and the cograph
solver read it only through these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Optional, Sequence, Union

from .errors import (
    DuplicateEdgeError,
    EdgeNotInGraphError,
    InvalidFlipError,
    InvalidSlideError,
    NotPerfectError,
    SelfLoopError,
    SizeMismatchError,
    VertexOutOfRangeError,
)

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Canonical form of the undirected edge {u, v}."""
    return (u, v) if u < v else (v, u)


def edge_set(pairs: Iterable[Sequence[int]]) -> frozenset[Edge]:
    return frozenset((u, v) if u < v else (v, u) for u, v in pairs)


class Graph:
    """A simple undirected graph on vertices ``0..n-1``.

    Construction validates simplicity in one pass that builds ``adj``:
    self-loops, duplicate edges (found through the adjacency) and
    out-of-range endpoints are rejected.  ``edges`` is built on first use.
    """

    __slots__ = ("n", "m", "adj", "_pairs", "_edges", "__weakref__")

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        if n < 0:
            raise VertexOutOfRangeError(f"negative vertex count {n}")
        pairs = list(edges)  # a copy: later edits to the caller's list stay out
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in pairs:
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if v in adj[u]:
                raise DuplicateEdgeError(f"duplicate edge {edge(u, v)}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.m = len(pairs)
        self.adj: tuple[frozenset[int], ...] = tuple(map(frozenset, adj))
        self._pairs, self._edges = pairs, None  # edges: built on first use

    @property
    def edges(self) -> frozenset[Edge]:
        if self._edges is None and self._pairs is None:  # from graph_from_adjacency
            self._edges = frozenset((u, w) for u, ws in enumerate(self.adj) for w in ws if u < w)
        elif self._edges is None:
            es: set[Edge] = set()  # grown edge by edge: callers see its iteration order
            for u, v in self._pairs:
                es.add((u, v) if u < v else (v, u))
            self._edges, self._pairs = frozenset(es), None
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# matchings


def matching_partners(g: Graph, matching: Iterable[Sequence[int]], perfect: bool = False) -> dict[int, int]:
    """Vertex -> partner map of ``matching`` in one pass (a repeated edge
    counts once), checked in order: :class:`EdgeNotInGraphError` if any
    edge is absent from ``g``; :class:`NotPerfectError` (``perfect``) when
    it is not a perfect matching; :class:`SizeMismatchError` when two of
    its edges share a vertex."""
    adj, n = g.adj, g.n
    p: dict[int, int] = {}
    clash = False
    for u, v in matching:
        if not (0 <= u < n and v in adj[u]):
            raise EdgeNotInGraphError(f"edge {edge(u, v)} not in graph")
        if p.get(u, v) != v or p.get(v, u) != u:
            clash = True
        p[u] = v
        p[v] = u
    if perfect and (clash or len(p) != n):
        raise NotPerfectError("both input matchings must be perfect")
    if clash:
        raise SizeMismatchError("input is not a matching")
    return p


# ---------------------------------------------------------------------------
# moves


@dataclass(frozen=True)
class Flip:
    """Exchange the matched and unmatched edges of an alternating even cycle.

    ``cycle`` lists the vertices in traversal order.  The plain flip
    operation uses a 4-cycle; k-flip sequences carry longer cycles.
    """

    cycle: tuple[int, ...]

    def __post_init__(self):
        c = self.cycle
        if len(c) < 4 or len(c) % 2 != 0 or len(set(c)) != len(c):
            raise InvalidFlipError(f"bad flip cycle {c}")

    def cycle_edges(self) -> list[Edge]:
        c = self.cycle
        return [edge(c[i], c[(i + 1) % len(c)]) for i in range(len(c))]


@dataclass(frozen=True)
class Slide:
    """Replace matched edge ``removed`` by incident edge ``added``.

    The two edges share the pivot vertex; the far endpoint of ``added``
    must be unmatched before the move.
    """

    removed: Edge
    added: Edge

    def __post_init__(self):
        object.__setattr__(self, "removed", edge(*self.removed))
        object.__setattr__(self, "added", edge(*self.added))
        if not set(self.removed) & set(self.added):
            raise InvalidSlideError(
                f"slide edges {self.removed}, {self.added} share no pivot"
            )
        if self.removed == self.added:
            raise InvalidSlideError("slide must change the matching")

    @property
    def pivot(self) -> int:
        (a, b), (c, d) = self.removed, self.added
        return a if a in (c, d) else b


Move = Union[Flip, Slide]


def canonical_flip(cycle: Sequence[int]) -> Flip:
    """Rotate/reflect a cycle so it starts at its smallest vertex and
    continues toward the smaller of that vertex's two cycle neighbors."""
    c = list(cycle)
    if len(c) < 4:  # Flip refuses it too, but only after the rotation reads c[1]
        raise InvalidFlipError(f"bad flip cycle {tuple(c)}")
    i = c.index(min(c))
    c = c[i:] + c[:i]
    if c[-1] < c[1]:
        c = [c[0]] + c[:0:-1]
    return Flip(tuple(c))


def invert_move(move: Move) -> Move:
    """The move undoing ``move`` (flips are involutions); a slide's edges
    swap places, already checked, so the inverse skips the checks."""
    if isinstance(move, Flip):
        return move
    inv = object.__new__(Slide)
    object.__setattr__(inv, "removed", move.added)
    object.__setattr__(inv, "added", move.removed)
    return inv


def _meet(fwd: list[Move], bwd: list[Move]) -> list[Move]:
    """``fwd`` then ``bwd`` reversed and inverted, both ending in one
    matching, less every move undone later past vertex-disjoint moves only.

    A move reads and changes the matching on its own vertices alone, so
    disjoint moves commute: such a move can be carried up to its inverse,
    and the two cancel.  One O(L) pass keeps per vertex a stack of the
    surviving moves at it; a move cancels the survivor that is its inverse
    and tops every one of its vertices' stacks.  That is the fixpoint: a
    move that blocks a pair shares a vertex with both members, and the
    later one stays above it there, so it is never cancelled itself.
    """
    out: list[Optional[Move]] = []
    stacks: dict[int, list[int]] = {}
    get = stacks.get
    for mv in fwd + [invert_move(mv) for mv in reversed(bwd)]:
        flip = type(mv) is Flip
        vs = mv.cycle if flip else mv.removed + mv.added
        top = get(vs[0])
        if top:
            i = top[-1]
            y = out[i]
            if (type(y) is type(mv)
                    and (y.cycle == vs if flip else y.removed == mv.added and y.added == mv.removed)
                    and all(stacks[v][-1] == i for v in vs)):
                for v in vs:
                    stacks[v].pop()
                out[i] = None
                continue
        i = len(out)
        out.append(mv)
        for v in vs:
            s = get(v)
            if s is None:
                stacks[v] = [i]
            else:
                s.append(i)
    return [mv for mv in out if mv is not None]


def _step(g: Graph, partner: dict[int, int], move: Move) -> None:
    """Check ``move`` against the matching held as a vertex -> partner map
    and apply it in place; :class:`InvalidFlipError` /
    :class:`InvalidSlideError` when it does not apply."""
    if isinstance(move, Flip):
        c = move.cycle
        if not all(g.has_edge(u, v) for u, v in zip(c, c[1:] + c[:1])):
            raise InvalidFlipError(f"cycle {c} leaves the graph")
        # A matched edge per cycle vertex inside the cycle leaves no room
        # for another matched edge at it, so one parity matched suffices.
        if all(partner.get(c[t]) == c[t + 1] for t in range(0, len(c), 2)):
            new = c[1:] + c[:1]
        elif all(partner.get(c[t - 1]) == c[t] for t in range(0, len(c), 2)):
            new = c
        else:
            raise InvalidFlipError(f"cycle {c} is not alternating for this matching")
        partner.update(zip(new[0::2], new[1::2]))
        partner.update(zip(new[1::2], new[0::2]))
    elif isinstance(move, Slide):
        rem, add = move.removed, move.added
        if partner.get(rem[0]) != rem[1]:
            raise InvalidSlideError(f"removed edge {rem} not in matching")
        if not g.has_edge(*add):
            raise InvalidSlideError(f"added edge {add} not in graph")
        pivot = move.pivot
        far = add[0] if add[1] == pivot else add[1]
        other = rem[0] if rem[1] == pivot else rem[1]
        if far in partner:
            raise InvalidSlideError(f"target vertex {far} already matched")
        del partner[other]
        partner[pivot], partner[far] = far, pivot
    else:
        raise TypeError(f"unknown move {move!r}")


def _map_moves(moves: Iterable[Move], f) -> list[Move]:
    """``moves`` with each vertex v renamed ``f(v)``; ``f`` is one to one."""
    return [
        canonical_flip(tuple(map(f, mv.cycle))) if isinstance(mv, Flip)
        else Slide(tuple(map(f, mv.removed)), tuple(map(f, mv.added)))
        for mv in moves
    ]


def apply_move(g: Graph, matching: frozenset[Edge], move: Move) -> frozenset[Edge]:
    """Apply a flip or slide to ``matching`` in ``g``, checking both as
    :func:`matching_partners` and :func:`_step` do."""
    partner = matching_partners(g, matching)
    _step(g, partner, move)
    return frozenset((u, v) for u, v in partner.items() if u < v)


# ---------------------------------------------------------------------------
# symmetric difference structure


@dataclass(frozen=True)
class DiffComponent:
    """One connected component of M1 (symmetric difference) M2.

    ``kind`` is ``single_edge`` (one edge), ``alternating_path`` (>= 2
    edges, endpoints distinct) or ``even_cycle``.  ``vertices`` lists the
    component's vertices in path/cycle order.
    """

    kind: Literal["single_edge", "alternating_path", "even_cycle"]
    vertices: tuple[int, ...]

    @property
    def edge_count(self) -> int:
        if self.kind == "even_cycle":
            return len(self.vertices)
        return len(self.vertices) - 1


def _toggle(nbr: dict[int, set[int]], e: Edge) -> None:
    """An edge entering or leaving one matching leaves or enters the
    difference held as the neighbour map ``nbr``."""
    for x, y in (e, e[::-1]):
        ws = nbr.setdefault(x, set())
        ws ^= {y}
        if not ws:
            del nbr[x]


def _hop(nbr: dict[int, set[int]], frm: int, at: int) -> Optional[int]:
    """The difference neighbour of ``at`` other than ``frm``, if any."""
    for t in nbr.get(at, ()):  # a loop, not next(generator): twice as fast per step
        if t != frm:
            return t
    return None


def _walk(nbr: dict[int, set[int]], v: int) -> tuple[bool, tuple[int, ...]]:
    """Whether the difference component through ``v`` is a cycle, and its
    vertices: a cycle from its least vertex toward that vertex's lesser
    neighbour, a path from its lesser end."""
    walk = [v]
    for start in sorted(nbr[v]):  # a path is walked both ways from v
        prev, cur = v, start
        while cur is not None and cur != v:
            walk.append(cur)
            prev, cur = cur, _hop(nbr, prev, cur)
        if cur == v:
            return True, canonical_flip(walk).cycle
        walk.reverse()  # v's other side is appended after it
    return False, tuple(walk if walk[0] < walk[-1] else walk[::-1])


def symmetric_difference_components(
    m1: frozenset[Edge], m2: frozenset[Edge]
) -> list[DiffComponent]:
    """Decompose M1 (triangle) M2 into single edges, paths and even cycles,
    by first vertex.

    Every vertex meets at most one edge of each matching, so components
    are paths or cycles whose edges alternate between the two matchings.
    """
    nbr: dict[int, set[int]] = {}
    for u, v in m1 ^ m2:  # each edge enters once, so no toggling
        nbr.setdefault(u, set()).add(v)
        nbr.setdefault(v, set()).add(u)
    comps: list[DiffComponent] = []
    seen: set[int] = set()
    for v in sorted(nbr):
        if v not in seen:
            cycle, vs = _walk(nbr, v)
            seen.update(vs)
            kind = "even_cycle" if cycle else "single_edge" if len(vs) == 2 else "alternating_path"
            comps.append(DiffComponent(kind, vs))
    comps.sort(key=lambda c: c.vertices[0])  # a path's lesser end may not be its least vertex
    return comps


# ---------------------------------------------------------------------------
# reconfiguration sequences

MODE_FLIP = "flip"
MODE_FLIP_SLIDE = "flip_slide"
MODE_KFLIP = "kflip"
MODES = (MODE_FLIP, MODE_FLIP_SLIDE, MODE_KFLIP)


def check_mode(kind: str, k: Optional[int]) -> None:
    """The one rule for a (mode, k) pair: a known mode, and ``k`` given
    with kflip alone, as an even ``int`` >= 4 (not a float or a bool);
    :class:`ValueError` else."""
    if kind not in MODES:
        raise ValueError(f"unknown mode {kind!r}")
    if kind == MODE_KFLIP and (type(k) is not int or k < 4 or k % 2 != 0):
        raise ValueError(f"kflip needs even k >= 4, got {k}")
    if kind != MODE_KFLIP and k is not None:
        raise ValueError("k only applies to kflip mode")


@dataclass(frozen=True)
class ReconfigSequence:
    """An ordered list of moves under a fixed mode.

    ``flip`` allows 4-cycle flips only, ``flip_slide`` adds slides, and
    ``kflip`` allows flips on alternating cycles of length exactly ``k``
    (:func:`check_mode`).
    """

    mode: str
    moves: tuple[Move, ...]
    k: Optional[int] = None

    def __post_init__(self):
        check_mode(self.mode, self.k)

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self) -> Iterator[Move]:
        return iter(self.moves)


@dataclass(frozen=True)
class Verdict:
    """Outcome of :func:`verify_sequence`.

    ``step`` is the index of the offending move; a final-matching mismatch
    reports ``step == len(moves)``.
    """

    ok: bool
    step: Optional[int] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


REASON_MODE = "mode_violation"
REASON_FLIP = "invalid_flip"
REASON_SLIDE = "invalid_slide"
REASON_FINAL = "final_mismatch"
REASON_INPUT = "invalid_matching"


def verify_sequence(
    g: Graph,
    m_ini: frozenset[Edge],
    seq: ReconfigSequence,
    m_tar: frozenset[Edge],
) -> Verdict:
    """Check a reconfiguration sequence move by move.

    Accepts iff every move applies validly in order, respects the mode,
    and the final matching equals ``m_tar``.  Problems are reported in the
    verdict, never raised.  Both matchings are checked as they are turned
    into partner maps; the moves are replayed on ``m_ini``'s, in O(size)
    each, and the final map is compared with ``m_tar``'s.
    """
    try:
        partner, final = matching_partners(g, m_ini), matching_partners(g, m_tar)
    except (EdgeNotInGraphError, SizeMismatchError):
        return Verdict(False, None, REASON_INPUT)
    want = seq.k if seq.mode == MODE_KFLIP else 4
    for i, move in enumerate(seq.moves):
        if isinstance(move, Slide) and seq.mode != MODE_FLIP_SLIDE:
            return Verdict(False, i, REASON_MODE)
        if isinstance(move, Flip) and len(move.cycle) != want:
            return Verdict(False, i, REASON_MODE)
        try:
            _step(g, partner, move)
        except InvalidFlipError:
            return Verdict(False, i, REASON_FLIP)
        except InvalidSlideError:
            return Verdict(False, i, REASON_SLIDE)
    if partner != final:
        return Verdict(False, len(seq.moves), REASON_FINAL)
    return Verdict(True)


# ---------------------------------------------------------------------------
# shared structural helpers


def four_cycles(g: Graph) -> list[tuple[int, int, int, int]]:
    """All 4-cycles of ``g``, each reported once in canonical orientation
    (smallest vertex first, then its smaller cycle neighbor)."""
    out: list[tuple[int, int, int, int]] = []
    adj = g.adj
    for a, ws in enumerate(adj):
        nbrs = [w for w in ws if w > a]
        nbrs.sort()
        for i, b in enumerate(nbrs, 1):
            ab = adj[b]
            for d in nbrs[i:]:
                for c in ab & adj[d]:  # c is neither b nor d: no self-loops
                    if c > a:
                        out.append((a, b, c, d))
    return out


def graph_from_adjacency(adj: Sequence[frozenset[int]]) -> Graph:
    """A :class:`Graph` from a symmetric, loop-free adjacency, trusted
    without re-validation (for subgraphs of a validated graph)."""
    g = object.__new__(Graph)
    g.n = len(adj)
    g.adj = tuple(adj)
    g._pairs = g._edges = None  # edges: built on first use
    g.m = sum(map(len, g.adj)) // 2
    return g


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Relabeled induced subgraph plus its local-index -> original map
    (``g`` itself when every vertex is kept)."""
    keep = set(vertices)
    if keep == set(range(g.n)):
        return g, tuple(range(g.n))
    vmap = tuple(sorted(keep))
    idx = {v: i for i, v in enumerate(vmap)}
    return graph_from_adjacency([frozenset(idx[w] for w in g.adj[v] & keep) for v in vmap]), vmap
