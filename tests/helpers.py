"""Shared fixtures: small graphs, random generators, brute-force oracles."""

from __future__ import annotations

import itertools
import random
from collections import deque

from matchflip.errors import (
    InvalidFlipError,
    InvalidSlideError,
    NotOuterplanarError,
    NotPerfectError,
    SizeMismatchError,
)
from matchflip.graph import (
    MODE_FLIP,
    MODE_FLIP_SLIDE,
    MODE_KFLIP,
    REASON_FINAL,
    REASON_FLIP,
    REASON_INPUT,
    REASON_MODE,
    REASON_SLIDE,
    DiffComponent,
    Edge,
    Flip,
    Graph,
    Move,
    ReconfigSequence,
    Slide,
    Verdict,
    canonical_flip,
    edge,
    edge_set,
    matching_partners,
)
from matchflip.outerplanar import (
    Case1DropStep,
    Case1RemoveStep,
    Case2Step,
    ForcedPairStep,
    OuterplanarResult,
    ReductionTrace,
    RemoveEvenChordStep,
    SplitStep,
    _structure,
    biconnected_blocks,
)


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


C4 = cycle_graph(4)
C6 = cycle_graph(6)
K4 = complete_graph(4)
C6_CHORD = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])

C4_PM1 = edge_set([(0, 1), (2, 3)])
C4_PM2 = edge_set([(1, 2), (3, 0)])
C6_PM1 = edge_set([(0, 1), (2, 3), (4, 5)])
C6_PM2 = edge_set([(1, 2), (3, 4), (5, 0)])


def is_matching(g: Graph, m) -> bool:
    """True iff no two edges of ``m`` share a vertex; an edge outside
    ``g`` raises, as :func:`matching_partners` does."""
    try:
        matching_partners(g, m)
    except SizeMismatchError:
        return False
    return True


def is_perfect(g: Graph, m) -> bool:
    """True iff ``m`` is a perfect matching of ``g``."""
    try:
        matching_partners(g, m, perfect=True)
    except NotPerfectError:
        return False
    return True


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_matching_of(g: Graph, rng: random.Random) -> frozenset:
    es = list(g.edges)
    rng.shuffle(es)
    used: set[int] = set()
    out = []
    for u, v in es:
        if u not in used and v not in used and rng.random() < 0.8:
            used.add(u)
            used.add(v)
            out.append(edge(u, v))
    return frozenset(out)


def all_matchings_by_size(g: Graph, budget: int = 10**7):
    """The matchings of each size that has any, the sizes in increasing order."""
    from matchflip.oracle import enumerate_matchings

    by_size: dict[int, list[frozenset]] = {}
    for size in range(g.n // 2 + 1):
        ms = enumerate_matchings(g, size, budget)
        if ms:
            by_size[size] = ms
    return by_size


def reference_max_matching(g: Graph, vertices=None) -> frozenset[Edge]:
    """Maximum matching of the subgraph induced on ``vertices`` (default:
    all of ``g``), by augmenting paths with blossom contraction (base
    relabeling) from every exposed vertex after a greedy warm start;
    O(V^3)."""
    n = g.n
    order = range(n) if vertices is None else sorted(vertices)
    keep = set(order)
    adj = [sorted(g.adj[v] & keep) for v in range(n)]
    match = [-1] * n
    for v in order:
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v], match[w] = w, v
                    break

    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    blossom = [False] * n

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_path(root: int) -> int:
        for i in range(n):
            used[i] = False
            parent[i] = -1
            base[i] = i
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    cur = lca(v, to)
                    for i in range(n):
                        blossom[i] = False
                    mark_path(v, cur, to)
                    mark_path(to, cur, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    q.append(match[to])
        return -1

    for v in order:
        if match[v] == -1:
            u = find_path(v)
            while u != -1:
                pv = parent[u]
                ppv = match[pv]
                match[u], match[pv] = pv, u
                u = ppv

    return frozenset(edge(v, match[v]) for v in range(n) if match[v] > v)


def connected_cographs(max_n: int):
    """All unlabeled connected cographs on 1..max_n vertices, via canonical
    alternating multiset trees (join of non-join pieces / union of
    non-union pieces)."""

    def partitions(n: int, minparts: int):
        def rec(n, mx):
            if n == 0:
                yield []
                return
            for first in range(min(n, mx), 0, -1):
                for rest in rec(n - first, first):
                    yield [first] + rest

        for p in rec(n, n):
            if len(p) >= minparts:
                yield p

    def pick(sizes, gen):
        groups: dict[int, int] = {}
        for s in sizes:
            groups[s] = groups.get(s, 0) + 1

        def rec(items):
            if not items:
                yield []
                return
            (sz, cnt), rest = items[0], items[1:]
            for combo in itertools.combinations_with_replacement(gen(sz), cnt):
                for tail in rec(rest):
                    yield list(combo) + tail

        yield from rec(sorted(groups.items()))

    memo_c: dict[int, list] = {}
    memo_nj: dict[int, list] = {}

    def conn(n: int):
        if n not in memo_c:
            if n == 1:
                memo_c[n] = [("v",)]
            else:
                out = []
                for parts in partitions(n, 2):
                    for combo in pick(parts, nonjoin):
                        out.append(("J",) + tuple(sorted(combo)))
                memo_c[n] = out
        return memo_c[n]

    def nonjoin(n: int):
        if n not in memo_nj:
            if n == 1:
                memo_nj[n] = [("v",)]
            else:
                out = []
                for parts in partitions(n, 2):
                    for combo in pick(parts, conn):
                        out.append(("U",) + tuple(sorted(combo)))
                memo_nj[n] = out
        return memo_nj[n]

    def materialize(tree):
        if tree[0] == "v":
            return 1, []
        n = 0
        groups = []
        edges = []
        for sub in tree[1:]:
            sn, se = materialize(sub)
            edges += [(u + n, v + n) for u, v in se]
            groups.append(range(n, n + sn))
            n += sn
        if tree[0] == "J":
            for i in range(len(groups)):
                for j in range(i + 1, len(groups)):
                    edges += [(u, v) for u in groups[i] for v in groups[j]]
        return n, edges

    out = []
    for n in range(1, max_n + 1):
        for tree in conn(n):
            nn, ee = materialize(tree)
            out.append(Graph(nn, ee))
    return out


def random_outerplanar(rng: random.Random, n: int, p: float) -> Graph:
    """Cycle plus random non-crossing chords (triangulation thinned by p)."""
    edges = [(i, (i + 1) % n) for i in range(n)]

    def tri(a, b):
        if b - a < 2:
            return
        c = rng.randint(a + 1, b - 1)
        if c - a > 1 and rng.random() < p:
            edges.append((a, c))
        if b - c > 1 and rng.random() < p:
            edges.append((c, b))
        tri(a, c)
        tri(c, b)

    tri(0, n - 1)
    return Graph(n, set(edge(u, v) for u, v in edges))


def threshold_graph(n: int, rng: random.Random, join: float) -> Graph:
    """A threshold graph built vertex by vertex: v joins every earlier
    vertex with probability ``join``, else none.  It is a cograph, and its
    construction order 0..n-1 is a strong ordering."""
    return Graph(n, [(u, v) for v in range(n) if rng.random() < join for u in range(v)])


def random_square_flips(g: Graph, m: frozenset, rng: random.Random, steps: int) -> frozenset:
    """The matching ``m`` after ``steps`` tries at a random alternating-square
    flip: matched edges ab and cd, sampled by their ends a and c, flip when
    bc and da are edges.  No 4-cycle list is built, so dense graphs cost
    O(steps)."""
    p = matching_partners(g, m)
    ends = sorted(p)
    for _ in range(steps):
        a, c = rng.sample(ends, 2)
        b, d = p[a], p[c]
        if b != c and c in g.adj[b] and a in g.adj[d]:
            p[a], p[b], p[c], p[d] = d, c, b, a
    return edge_set(p.items())


# ---------------------------------------------------------------------------
# reference implementations the fast checks in src/ are compared against


def reference_apply_move(g: Graph, matching: frozenset, move) -> frozenset:
    """Apply a flip or slide to a whole frozenset matching, validating all
    preconditions (InvalidFlipError / InvalidSlideError otherwise)."""
    if isinstance(move, Flip):
        cyc_edges = move.cycle_edges()
        for e in cyc_edges:
            if e[1] not in g.adj[e[0]]:
                raise InvalidFlipError(f"cycle edge {e} not in graph")
        even = frozenset(cyc_edges[0::2])
        odd = frozenset(cyc_edges[1::2])
        if even <= matching and not (odd & matching):
            inside = even
        elif odd <= matching and not (even & matching):
            inside = odd
        else:
            raise InvalidFlipError(f"cycle {move.cycle} is not alternating for this matching")
        outside = (even | odd) - inside
        return (matching - inside) | outside

    if isinstance(move, Slide):
        rem, add = move.removed, move.added
        if rem not in matching:
            raise InvalidSlideError(f"removed edge {rem} not in matching")
        if add[1] not in g.adj[add[0]]:
            raise InvalidSlideError(f"added edge {add} not in graph")
        pivot = move.pivot
        far = add[0] if add[1] == pivot else add[1]
        other = rem[0] if rem[1] == pivot else rem[1]
        if far == other:
            raise InvalidSlideError("slide does not move")
        if any(far in e for e in matching):
            raise InvalidSlideError(f"target vertex {far} already matched")
        return (matching - {rem}) | {add}

    raise TypeError(f"unknown move {move!r}")


def reference_symmetric_difference_components(m1: frozenset, m2: frozenset) -> list[DiffComponent]:
    """M1 (triangle) M2 in two passes over neighbour lists: paths walked
    from their degree-1 ends first, then the remaining cycles."""
    nbr: dict[int, list[int]] = {}
    for u, v in m1 ^ m2:
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)
    comps: list[DiffComponent] = []
    seen: set[int] = set()
    for start in sorted(nbr):
        if start in seen or len(nbr[start]) == 2:
            continue  # cycle or path interior; handled from an endpoint
        path = [start]
        seen.add(start)
        prev, cur = start, nbr[start][0]
        while True:
            path.append(cur)
            seen.add(cur)
            nxt = [w for w in nbr[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        if path[-1] < path[0]:
            path.reverse()
        kind = "single_edge" if len(path) == 2 else "alternating_path"
        comps.append(DiffComponent(kind, tuple(path)))
    for start in sorted(nbr):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        prev, cur = start, min(nbr[start])
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            nxt = [w for w in nbr[cur] if w != prev]
            prev, cur = cur, nxt[0]
        comps.append(DiffComponent("even_cycle", tuple(cyc)))
    comps.sort(key=lambda c: c.vertices[0])
    return comps


def reference_verify(g: Graph, m_ini: frozenset, seq, m_tar: frozenset) -> Verdict:
    """Replay ``seq`` with :func:`reference_apply_move`, frozenset by frozenset."""
    for m in (m_ini, m_tar):
        es = {edge(*e) for e in m}
        ends = [v for e in es for v in e]
        if not all(g.has_edge(*e) for e in es) or len(ends) != len(set(ends)):
            return Verdict(False, None, REASON_INPUT)
    cur = frozenset(m_ini)
    for i, move in enumerate(seq.moves):
        if isinstance(move, Slide) and seq.mode != MODE_FLIP_SLIDE:
            return Verdict(False, i, REASON_MODE)
        if isinstance(move, Flip):
            want = seq.k if seq.mode == MODE_KFLIP else 4
            if len(move.cycle) != want:
                return Verdict(False, i, REASON_MODE)
        try:
            cur = reference_apply_move(g, cur, move)
        except InvalidFlipError:
            return Verdict(False, i, REASON_FLIP)
        except InvalidSlideError:
            return Verdict(False, i, REASON_SLIDE)
    if cur != frozenset(m_tar):
        return Verdict(False, len(seq.moves), REASON_FINAL)
    return Verdict(True)


def reference_distance(g: Graph, m1: frozenset, m2: frozenset, mode):
    """Distance from ``m1`` to ``m2`` under ``mode`` by a plain one-ended
    BFS over the oracle's neighbour masks, or None when unreachable."""
    from matchflip.oracle import MaskSpace, _neighbors

    space = MaskSpace(g)
    start, goal = space.to_mask(m1), space.to_mask(m2)
    dist = {start: 0}
    layer = [start]
    while layer and goal not in dist:
        nxt = []
        for cur in layer:
            for nb in _neighbors(space, cur, mode):
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    nxt.append(nb)
        layer = nxt
    return dist.get(goal)


def reference_stats(g: Graph, target, mode, source=None):
    """``oracle.reconfiguration_stats`` by one BFS per matching over the
    oracle's neighbour masks: each BFS gives its source's eccentricity and
    component.  Raises :class:`SizeMismatchError` for a source outside the
    target class."""
    from matchflip.oracle import MaskSpace, ReconfigGraphStats, _neighbors, enumerate_matchings

    space = MaskSpace(g)
    masks = [space.to_mask(m) for m in enumerate_matchings(g, target)]
    known = set(masks)
    nbrs = {m: [w for w in _neighbors(space, m, mode) if w in known] for m in masks}
    ecc, comp = {}, {}
    for s in masks:
        dist = {s: 0}
        q = deque([s])
        while q:
            v = q.popleft()
            for w in nbrs[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        ecc[s], comp[s] = max(dist.values()), frozenset(dist)
    comps = set(comp.values())
    sizes = tuple(sorted(map(len, comps), reverse=True))
    if source is None:
        diameter = max(ecc.values(), default=None)
    elif space.to_mask(source) in known:
        diameter = max(ecc[m] for m in comp[space.to_mask(source)])
    else:
        raise SizeMismatchError("source matching not in the target class")
    return ReconfigGraphStats(len(masks), len(comps), sizes, diameter)


def reference_flip_neighbor_masks(space, mask: int) -> list[int]:
    """Flip neighbours in the oracle's order, by testing every 4-cycle of
    ``graph.four_cycles``: a cycle flips when ``mask`` holds exactly its
    even pair or exactly its odd pair (valid for any edge subset whose
    degrees the exchange should preserve)."""
    from matchflip.graph import four_cycles

    out = []
    for a, b, c, d in four_cycles(space.g):
        bits = [1 << space.index[edge(u, v)] for u, v in ((a, b), (b, c), (c, d), (d, a))]
        even, odd = bits[0] | bits[2], bits[1] | bits[3]
        inter = mask & (even | odd)
        if inter == even or inter == odd:
            out.append(mask ^ even ^ odd)
    return out


def reference_slide_neighbor_masks(space, mask: int) -> list[int]:
    """Slide neighbours in the oracle's order, matched edges found by
    testing every edge index."""
    g = space.g
    matched = [space.edges[i] for i in range(len(space.edges)) if mask >> i & 1]
    covered = {v for e in matched for v in e}
    out = []
    for u, v in matched:
        bit = 1 << space.index[(u, v)]
        for pivot, other in ((u, v), (v, u)):
            for w in g.adj[pivot]:
                if w not in covered and w != other:
                    out.append((mask ^ bit) | (1 << space.index[edge(pivot, w)]))
    return out


def reference_kflip_neighbor_masks(space, mask: int, k: int) -> list[int]:
    """k-flip neighbours in the oracle's order, by a recursive search from
    each cycle's least vertex along its matched edge."""
    g = space.g
    partner: dict[int, int] = {}
    for i, e in enumerate(space.edges):
        if mask >> i & 1:
            partner[e[0]] = e[1]
            partner[e[1]] = e[0]
    out = []
    for u0 in sorted(partner):
        v1 = partner[u0]
        if v1 < u0:
            continue
        path = [u0, v1]
        used = {u0, v1}

        def rec(cur: int, steps: int):
            if steps == k - 1:
                if u0 in g.adj[cur] and partner.get(cur) != u0:
                    cmask = 0
                    for i in range(k):
                        cmask |= 1 << space.index[edge(path[i], path[(i + 1) % k])]
                    out.append(mask ^ cmask)
                return
            if steps % 2 == 1:
                nexts = [w for w in g.adj[cur] if partner.get(cur) != w and w in partner]
            else:
                nexts = [partner[cur]] if cur in partner else []
            for w in nexts:
                if w > u0 and w not in used:
                    path.append(w)
                    used.add(w)
                    rec(w, steps + 1)
                    path.pop()
                    used.discard(w)

        rec(v1, 1)
    return out


def reference_strong_order_violation(g: Graph, order):
    """First violating quadruple (i, j, k, l) of positions, or None, found
    by shifting position bitmasks over every candidate pair."""
    n = g.n
    pos = {v: i for i, v in enumerate(order)}
    rows = [0] * n
    for i, v in enumerate(order):
        for w in g.adj[v]:
            rows[i] |= 1 << pos[w]
    for i in range(n):
        row_i = rows[i]
        r = row_i
        while r:
            kbit = r & -r
            r ^= kbit
            k = kbit.bit_length() - 1
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
                    return i, j, k, (bad & -bad).bit_length() - 1
    return None


def reference_verify_boundary_order(g: Graph, order) -> bool:
    """The boundary-cycle check without the cached structure: Hamiltonian,
    consecutive vertices adjacent, and no two edges crossing, tried pair by
    pair on the cycle's positions."""
    order = list(order)
    n = g.n
    if sorted(order) != list(range(n)) or n < 3:
        return False
    if any(order[(i + 1) % n] not in g.adj[v] for i, v in enumerate(order)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    spans = [tuple(sorted((pos[u], pos[v]))) for u, v in g.edges]
    return not any(a < c < b < d for a, b in spans for c, d in spans)


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



class _No(Exception):
    pass


def reference_solve_outerplanar(
    g: Graph, m_ini: frozenset[Edge], m_tar: frozenset[Edge]
) -> OuterplanarResult:
    """The round-based outerplanar solver: each round re-runs the block
    search over every component a reduction touched, severs its cut
    vertices and purges the even chords of its 2-connected pieces."""
    p1, p2 = (matching_partners(g, m, perfect=True) for m in (m_ini, m_tar))
    cycles = _structure(g)  # g's block cycles as position maps
    if cycles is None:
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
            order = sorted(comp, key=next(pos for pos in cycles if v in pos and w in pos).__getitem__)
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
