"""Differential tests against networkx (a test-only dependency): the
component search of a graph and of its complement, the block
decomposition and the reference maximum matching on random graphs that
hold isolated vertices and bridges; the cotree matching and the cograph
anchors on random cographs; outerplanarity against planarity of the
graph plus an apex vertex; and cograph recognition against a
brute-force search for an induced P4."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from matchflip.cograph import (
    RootPartition,
    _anchor,
    _probe_p4,
    _b_edges,
    _cotree_matching,
    _split,
    build_cotree,
    is_cograph,
)
from matchflip.generators import random_cotree_graph, random_outerplanar_graph
from matchflip.graph import Graph, edge, graph_from_adjacency, induced_subgraph
from matchflip.outerplanar import biconnected_blocks, is_outerplanar, verify_boundary_order

from helpers import is_matching, reference_max_matching

nx = pytest.importorskip("networkx")


def _graph(n: int, p: float, seed: int) -> Graph:
    """A random graph on ``n`` vertices plus a pendant edge at vertex 0
    (a bridge) and one isolated vertex."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n + 2, edges + [(0, n)])


def _nx(g: Graph, keep) -> "nx.Graph":
    h = nx.Graph()
    h.add_nodes_from(keep)
    h.add_edges_from((u, v) for u, v in g.edges if u in keep and v in keep)
    return h


graphs = st.builds(_graph, st.integers(1, 12), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))


@settings(max_examples=300)
@given(graphs, st.data())
def test_split_matches_networkx(g, data):
    keep = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)) | {0, g.n - 2, g.n - 1}
    h = _nx(g, keep)
    for co, want in ((False, h), (True, nx.complement(h))):
        parts = _split(g.adj, keep, co)
        assert [min(p) for p in parts] == sorted(min(p) for p in parts)  # by least vertex
        assert sorted(map(sorted, parts)) == sorted(sorted(c) for c in nx.connected_components(want))


@settings(max_examples=300)
@given(graphs, st.data())
def test_biconnected_blocks_match_networkx(g, data):
    keep = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)) | {0, g.n - 2, g.n - 1}
    h = _nx(g, keep)
    # the search walks an adjacency closed over the vertices it reaches
    blocks, cuts, reached = biconnected_blocks({v: g.adj[v] & keep for v in keep}, keep)
    assert sorted(reached) == sorted(keep)
    # a vertex without a live neighbour is a block of its own
    lone = sorted(v for v in keep if not h[v])
    assert sorted(sorted(b) for b in blocks if len(b) > 1) == sorted(
        sorted(b) for b in nx.biconnected_components(h)
    )
    assert sorted(min(b) for b in blocks if len(b) == 1) == lone
    assert cuts == set(nx.articulation_points(h))


@settings(max_examples=300)
@given(graphs, st.data())
def test_max_matching_size_matches_networkx(g, data):
    keep = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)) | {0, g.n - 2, g.n - 1}
    m = reference_max_matching(g, keep)
    assert is_matching(g, m)
    assert all(u in keep and v in keep for u, v in m)
    assert len(m) == len(nx.max_weight_matching(_nx(g, keep), maxcardinality=True))
    if len(keep) == g.n:
        assert len(reference_max_matching(g)) == len(m)


def _nu(g: Graph) -> int:
    return len(nx.max_weight_matching(_nx(g, range(g.n)), maxcardinality=True))


@settings(max_examples=300)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.data())
def test_cotree_matching_is_maximum(n, seed, data):
    # on a random cograph G, on G - S for |S| <= 2 and on G with the inner
    # edges of its smaller root side B removed (the graph a C2 anchor lives
    # in), the cotree matching is a matching of the graph, as large as
    # networkx's, and its free list holds exactly the unmatched vertices
    g = random_cotree_graph(n, random.Random(seed))
    removed = data.draw(st.sets(st.integers(0, n - 1), max_size=min(2, n - 1)))
    graphs = [g, induced_subgraph(g, set(range(n)) - removed)[0]]
    tree = build_cotree(g)
    if tree.kind == "join":
        part = RootPartition(*(side.leaves() for side in tree.sides()))
        b = part.b
        graphs.append(graph_from_adjacency([a - b if v in b else a for v, a in enumerate(g.adj)]))
    for h in graphs:
        matching, free = _cotree_matching(build_cotree(h))
        assert is_matching(h, matching)
        covered = {v for e in matching for v in e}
        assert len(covered) == 2 * len(matching)
        assert sorted(free) == sorted(set(range(h.n)) - covered)
        assert len(matching) == _nu(h)
    # the anchors: A's matching with B minus a B-edge (C1) or minus a
    # B-vertex (C2) joined on is a maximum matching of G minus those
    # vertices, and holds no B-edge
    if tree.kind == "join":
        a_matching = _cotree_matching(tree.sides()[0])
        for s in filter(None, (next(_b_edges(g, b), None), (min(b),))):
            anchor = _anchor(part, a_matching, s, n)
            assert is_matching(g, anchor)
            assert not any(u in s or v in s or (u in b and v in b) for u, v in anchor)
            assert len(anchor) == _nu(induced_subgraph(g, set(range(n)) - set(s))[0])


def _near_outerplanar(n: int, seed: int, cut: float, extra: int) -> tuple[Graph, list[int]]:
    """A generator outerplanar graph with boundary edges cut at random (so
    it may have cut vertices and several components) and ``extra`` random
    edges added, labels scrambled; with the generator's boundary order."""
    rng = random.Random(seed)
    base = random_outerplanar_graph(n, rng, rng.random())
    es = {e for e in base.edges if e[1] - e[0] not in (1, n - 1) or rng.random() >= cut}
    while extra and len(es) < n * (n - 1) // 2:
        e = edge(*rng.sample(range(n), 2))
        if e not in es:
            es.add(e)
            extra -= 1
    perm = rng.sample(range(n), n)
    return Graph(n, [(perm[u], perm[v]) for u, v in es]), perm


@settings(max_examples=300)
@given(st.builds(_near_outerplanar, st.integers(3, 24), st.integers(0, 2**32 - 1),
                 st.sampled_from([0.0, 0.1, 0.4]), st.integers(0, 3)), st.booleans())
def test_is_outerplanar_matches_apex_planarity(case, hinted):
    # G is outerplanar iff G plus a vertex joined to all of G is planar
    g, order = case
    h = _nx(g, range(g.n))
    h.add_edges_from((g.n, v) for v in range(g.n))
    planar = nx.check_planarity(h)[0]
    if hinted and verify_boundary_order(g, order):  # a valid hint is the structure
        assert planar
    assert is_outerplanar(g) == planar


def _is_induced_p4(g: Graph, a: int, b: int, c: int, d: int) -> bool:
    return (b in g.adj[a] and c in g.adj[b] and d in g.adj[c]
            and c not in g.adj[a] and d not in g.adj[b] and d not in g.adj[a])


def _has_induced_p4(g: Graph) -> bool:
    return any(a < d and _is_induced_p4(g, a, b, c, d)
               for quad in itertools.combinations(range(g.n), 4) for a, b, c, d in itertools.permutations(quad))


def _maybe_cograph(n: int, p: float, seed: int, kind: str) -> Graph:
    """A random graph; a random cograph with one pair toggled at random
    (which may or may not leave a cograph); or a sparse connected graph, a
    random tree plus a few edges, where ``_probe_p4`` mostly finds a P4."""
    rng = random.Random(seed)
    if kind == "random":
        return Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p])
    if kind == "sparse":
        perm = rng.sample(range(n), n)
        es = {edge(perm[v], perm[rng.randrange(v)]) for v in range(1, n)}
        es |= {edge(*rng.sample(range(n), 2)) for _ in range(int(p * n / 2))}
        return Graph(n, es)
    es = set(random_cotree_graph(n, rng).edges)
    if n > 1 and rng.random() < 0.5:
        es ^= {edge(*rng.sample(range(n), 2))}
    return Graph(n, es)


@settings(max_examples=400)
@given(st.builds(_maybe_cograph, st.integers(4, 8), st.floats(0.0, 1.0),
                 st.integers(0, 2**32 - 1), st.sampled_from(["random", "cotree", "sparse"])))
def test_is_cograph_matches_induced_p4_search(g):
    # a P4 the probe offers must be one: it answers before the cotree
    witness = _probe_p4(g)
    assert witness is None or _is_induced_p4(g, *witness)
    assert is_cograph(g) == (not _has_induced_p4(g))
