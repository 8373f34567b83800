"""Maximum-cardinality matching on general graphs.

Augmenting-path search with blossom contraction (base relabeling), run
from every exposed vertex after a greedy warm start.  O(V^3), which is
plenty for the instance sizes the solvers hand it.
"""

from __future__ import annotations

from collections import deque

from .graph import Edge, Graph, edge


def max_matching(g: Graph, vertices=None) -> frozenset[Edge]:
    """Maximum matching of the subgraph induced on ``vertices`` (default:
    all of ``g``); the same as on that subgraph relabeled in order."""
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
