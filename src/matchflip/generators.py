"""Random instance generators with a fixed-seed reproducibility contract.

Three families, one per polynomial solver: interval graphs carrying a
strong-order hint, maximal outerplanar graphs minus random chords with a
boundary-order hint, and cograph instances from random cotrees.  The
dict-returning variants produce instance-file payloads byte-identical
across runs for equal seeds.
"""

from __future__ import annotations

import random

from .graph import Edge, Flip, Graph, _step, edge, four_cycles, matching_partners
from .strongly_orderable import canonical_matching


def random_interval_graph(n: int, rng: random.Random, spread: float = 2.0):
    """Interval graph on n vertices whose consecutive intervals always
    overlap (so a perfect matching exists for even n).  Returns the graph
    and a strong ordering (sorted by right endpoint)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    ivals = []
    for i in range(n):
        start = i + rng.uniform(-0.3, 0.3)
        length = rng.uniform(1.7, 1.7 + spread)
        ivals.append((start, start + length))
    edges = []
    active: list[int] = []
    for i in sorted(range(n), key=lambda x: ivals[x][0]):
        active = [j for j in active if ivals[j][1] >= ivals[i][0]]
        for j in active:
            edges.append(edge(i, j))
        active.append(i)
    order = sorted(range(n), key=lambda v: ivals[v][1])
    return Graph(n, edges), tuple(order)


def random_perfect_matching(g: Graph, rng: random.Random, tries: int = 40):
    """A perfect matching by randomized greedy completion, or None."""
    for _ in range(tries):
        verts = list(range(g.n))
        rng.shuffle(verts)
        matched = [False] * g.n
        out = []
        ok = True
        for v in verts:
            if matched[v]:
                continue
            free = [w for w in g.adj[v] if not matched[w]]
            if not free:
                ok = False
                break
            w = rng.choice(free)
            matched[v] = matched[w] = True
            out.append(edge(v, w))
        if ok:
            return frozenset(out)
    return None


def random_interval_instance(n: int, seed: int, spread: float = 2.0) -> dict:
    if n % 2 != 0:
        n += 1
    rng = random.Random(seed)
    g, order = random_interval_graph(n, rng, spread)
    m_ini = canonical_matching(g, order)
    m_tar = None
    if n <= 400:
        m_tar = random_perfect_matching(g, rng)
    if m_tar is None:
        m_tar = mutate_by_flips(g, m_ini, rng, max(8, n // 100))
    from .io import instance_to_dict

    return instance_to_dict(g, m_ini, m_tar, {"strong_order": list(order)})


def random_outerplanar_graph(
    n: int, rng: random.Random, chord_drop: float = 0.3
) -> Graph:
    """Cycle triangulated by random non-crossing chords, each chord then
    dropped independently; the boundary cycle always survives."""
    if n < 3:
        raise ValueError("need n >= 3")
    edges = [edge(i, (i + 1) % n) for i in range(n)]
    chords: list[Edge] = []
    stack = [(0, n - 1)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        c = rng.randint(a + 1, b - 1)
        if c - a > 1:
            chords.append(edge(a, c))
        if b - c > 1:
            chords.append(edge(c, b))
        stack.append((a, c))
        stack.append((c, b))
    # the hull edge (0, n-1) is a boundary edge, not a chord
    for ch in chords:
        if ch != edge(0, n - 1) and rng.random() >= chord_drop:
            edges.append(ch)
    return Graph(n, set(edges))


def mutate_by_flips(g: Graph, m: frozenset[Edge], rng: random.Random, steps: int):
    """Walk `steps` random flips from the matching m (fewer if none applies)."""
    cycles = four_cycles(g)
    p = matching_partners(g, m)
    for _ in range(steps):
        rng.shuffle(cycles)
        for a, b, c, d in cycles:
            if (p.get(a), p.get(c)) in ((b, d), (d, b)):  # ab, cd or bc, da matched
                _step(g, p, Flip((a, b, c, d)))
                break
        else:
            break
    return frozenset((u, v) for u, v in p.items() if u < v)


def random_outerplanar_instance(
    n: int, seed: int, chord_drop: float = 0.3, walk: int = 30
) -> dict:
    if n % 2 != 0:
        n += 1
    rng = random.Random(seed)
    g = random_outerplanar_graph(n, rng, chord_drop)
    m_ini = frozenset(edge(2 * i, 2 * i + 1) for i in range(n // 2))
    m_tar = mutate_by_flips(g, m_ini, rng, walk)
    from .io import instance_to_dict

    return instance_to_dict(
        g, m_ini, m_tar, {"boundary_order": list(range(n))}
    )


def random_cotree_graph(n: int, rng: random.Random) -> Graph:
    """Connected cograph from a random binary cotree (root is a join)."""
    if n < 1:
        raise ValueError("need n >= 1")
    labels = list(range(n))
    rng.shuffle(labels)
    edges: list[Edge] = []
    stack = [(labels, n > 1)]  # cotree nodes in preorder, left before right
    while stack:
        verts, force_join = stack.pop()
        if len(verts) == 1:
            continue
        cut = rng.randint(1, len(verts) - 1)
        left, right = verts[:cut], verts[cut:]
        if force_join or rng.random() < 0.5:  # a join
            edges.extend(edge(u, v) for u in left for v in right)
        stack += ((right, False), (left, False))
    return Graph(n, set(edges))


def random_matching_pair(g: Graph, rng: random.Random):
    """Two random equal-size matchings (greedy, truncated to equal size)."""

    def greedy():
        es = list(g.edges)
        rng.shuffle(es)
        used: set[int] = set()
        out = []
        for u, v in es:
            if u not in used and v not in used:
                used.add(u)
                used.add(v)
                out.append(edge(u, v))
        return out

    a, b = greedy(), greedy()
    k = min(len(a), len(b))
    if k and rng.random() < 0.5:
        k = rng.randint(1, k)
    return frozenset(sorted(a)[:k]), frozenset(sorted(b)[:k])


def random_cograph_instance(n: int, seed: int) -> dict:
    rng = random.Random(seed)
    g = random_cotree_graph(n, rng)
    m_ini, m_tar = random_matching_pair(g, rng)
    from .io import instance_to_dict

    return instance_to_dict(g, m_ini, m_tar)
