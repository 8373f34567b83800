"""Ground truth that does not come from the code under test.

Everything here works on plain instance data (``n``, edge pairs and
matchings as pairs) and shares no code with ``matchflip``: a move replayer
that checks emitted sequences, a random walk builder for verifier inputs,
and brute-force BFS for small instances (decision, shortest distance and
reconfiguration-graph statistics).
"""

from __future__ import annotations

from collections import deque


def norm(u, v):
    return (u, v) if u < v else (v, u)


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def matching(pairs):
    return frozenset(norm(u, v) for u, v in pairs)


# ---------------------------------------------------------------------------
# sequence replay


def _flip_ok(adj, partner, cyc):
    """The 2-colouring of an alternating cycle's edges, or None."""
    k = len(cyc)
    if k < 4 or k % 2 or len(set(cyc)) != k:
        return None
    cyc_edges = [(cyc[i], cyc[(i + 1) % k]) for i in range(k)]
    if any(b not in adj[a] for a, b in cyc_edges):
        return None
    matched = [partner.get(a) == b for a, b in cyc_edges]
    if all(matched[0::2]) and not any(matched[1::2]):
        return cyc_edges[0::2], cyc_edges[1::2]
    if all(matched[1::2]) and not any(matched[0::2]):
        return cyc_edges[1::2], cyc_edges[0::2]
    return None


def apply(adj, partner, move, mode, k=None):
    """Apply one move (sequence-file form) to ``partner`` in place.
    Returns False, leaving ``partner`` unchanged, when the move is invalid."""
    if "flip" in move:
        cyc = move["flip"]
        if len(cyc) != (k if mode == "kflip" else 4):
            return False
        split = _flip_ok(adj, partner, cyc)
        if split is None:
            return False
        out, into = split
        for a, b in out:
            del partner[a], partner[b]
        for a, b in into:
            partner[a], partner[b] = b, a
        return True
    if mode != "flip_slide":
        return False
    rem, add = move["slide"]["remove"], move["slide"]["add"]
    pivots = set(rem) & set(add)
    if len(pivots) != 1 or norm(*rem) == norm(*add):
        return False
    (p,) = pivots
    other = rem[0] if rem[1] == p else rem[1]
    far = add[0] if add[1] == p else add[1]
    if partner.get(p) != other or far not in adj[p] or far in partner:
        return False
    del partner[other]
    partner[p], partner[far] = far, p
    return True


def replay(adj, m_ini, seq, m_tar):
    """``(ok, step)``: step is the first invalid move, or len(moves) when
    the final matching differs from ``m_tar``."""
    partner = {}
    for u, v in m_ini:
        partner[u], partner[v] = v, u
    moves = seq["moves"]
    for i, mv in enumerate(moves):
        if not apply(adj, partner, mv, seq["mode"], seq.get("k")):
            return False, i
    final = frozenset(norm(u, v) for u, v in partner.items() if u < v)
    if final != matching(m_tar):
        return False, len(moves)
    return True, None


# ---------------------------------------------------------------------------
# random walks (verifier inputs and YES-by-construction targets)


def _random_move(adj, partner, rng, slides):
    matched = [u for u in partner if u < partner[u]]
    for _ in range(64):
        a = rng.choice(matched)
        b = partner[a]
        if rng.random() < 0.5:
            a, b = b, a
        if slides and rng.random() < 0.3:
            free = [w for w in adj[a] if w not in partner]
            if free:
                w = rng.choice(sorted(free))
                return {"slide": {"remove": [a, b], "add": [a, w]}}
            continue
        nbrs = sorted(w for w in adj[a] if w != b and w in partner)
        if not nbrs:
            continue
        c = rng.choice(nbrs)
        d = partner[c]
        if d != b and d in adj[b]:
            return {"flip": [a, b, d, c]}
    return None


def random_walk(adj, m_ini, steps, rng, slides=False):
    """Up to ``steps`` random valid flips (and slides) from ``m_ini``.
    Returns the moves and the matching they reach."""
    partner = {}
    for u, v in m_ini:
        partner[u], partner[v] = v, u
    mode = "flip_slide" if slides else "flip"
    moves = []
    while len(moves) < steps and partner:
        mv = _random_move(adj, partner, rng, slides)
        if mv is None:
            break
        if not apply(adj, partner, mv, mode):
            raise AssertionError(f"walk built an invalid move {mv}")
        moves.append(mv)
    end = sorted(norm(u, v) for u, v in partner.items() if u < v)
    return moves, end


def corrupt(moves, rng):
    """Replace one flip by the crossing 4-cycle of its vertices, which uses
    neither matched edge and so never alternates.  Returns the new move
    list and the corrupted step."""
    flips = [i for i, mv in enumerate(moves) if "flip" in mv]
    i = rng.choice(flips)
    a, b, d, c = moves[i]["flip"]
    bad = list(moves)
    bad[i] = {"flip": [a, d, b, c]}
    return bad, i


# ---------------------------------------------------------------------------
# brute force for small instances


def neighbours(adj, m, slides):
    """Matchings one flip (or slide) away from the sorted edge tuple ``m``."""
    cur = set(m)
    out = []
    for i in range(len(m)):
        a, b = m[i]
        for j in range(i + 1, len(m)):
            c, d = m[j]
            for x, y in ((c, d), (d, c)):
                if x in adj[a] and y in adj[b]:
                    nxt = cur - {m[i], m[j]} | {norm(a, x), norm(b, y)}
                    out.append(tuple(sorted(nxt)))
    if slides:
        covered = {v for e in m for v in e}
        for e in m:
            for p in e:
                for w in adj[p]:
                    if w not in covered:
                        out.append(tuple(sorted(cur - {e} | {norm(p, w)})))
    return out


def shortest_distance(adj, m1, m2, slides, budget=500_000):
    """BFS distance between two matchings, or None when unreachable."""
    start, goal = tuple(sorted(matching(m1))), tuple(sorted(matching(m2)))
    if len(start) != len(goal):
        return None
    dist = {start: 0}
    q = deque([start])
    while q:
        cur = q.popleft()
        if cur == goal:
            return dist[cur]
        for nb in neighbours(adj, cur, slides):
            if nb not in dist:
                dist[nb] = dist[cur] + 1
                q.append(nb)
        if len(dist) > budget:
            raise RuntimeError("brute-force state space over budget")
    return None


def perfect_matchings(adj, n):
    """All perfect matchings as sorted edge tuples.  Branches on the free
    vertex with the fewest free neighbours, so dead ends show at once."""
    out = []

    def rec(free, cur):
        if not free:
            out.append(tuple(sorted(cur)))
            return
        v = min(free, key=lambda x: len(adj[x] & free))
        for w in adj[v] & free:
            rec(free - {v, w}, cur + [norm(v, w)])

    rec(frozenset(range(n)), [])
    return sorted(out)


def reconfiguration_stats(adj, n, source):
    """nodes, components, descending component sizes and the diameter of
    ``source``'s component, over all perfect matchings under flips."""
    nodes = perfect_matchings(adj, n)
    ids = {m: i for i, m in enumerate(nodes)}
    nbr = [[ids[x] for x in neighbours(adj, m, False)] for m in nodes]
    comp = [-1] * len(nodes)
    members = []
    for s in range(len(nodes)):
        if comp[s] < 0:
            comp[s] = len(members)
            group = [s]
            for v in group:
                for w in nbr[v]:
                    if comp[w] < 0:
                        comp[w] = comp[s]
                        group.append(w)
            members.append(group)
    src = ids[tuple(sorted(matching(source)))]
    diameter = 0
    for s in members[comp[src]]:
        dist = {s: 0}
        q = deque([s])
        while q:
            v = q.popleft()
            for w in nbr[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        diameter = max(diameter, max(dist.values()))
    return {
        "nodes": len(nodes),
        "components": len(members),
        "component_sizes": sorted((len(g) for g in members), reverse=True),
        "diameter": diameter,
    }


def greedy_matching(adj, n, rng):
    """A random maximal matching."""
    used = set()
    out = []
    for v in rng.sample(range(n), n):
        if v in used:
            continue
        free = sorted(w for w in adj[v] if w not in used)
        if free:
            w = rng.choice(free)
            used |= {v, w}
            out.append(norm(v, w))
    return sorted(out)


def threshold_graph(n, rng):
    """Connected threshold graph: each new vertex is isolated or dominating,
    the last one dominating.  Its cotree is a caterpillar of depth ~n/2."""
    edges = []
    for v in range(1, n):
        if v == n - 1 or rng.random() < 0.5:
            edges.extend((u, v) for u in range(v))
    return edges

