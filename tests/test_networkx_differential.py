"""Differential tests against networkx (a test-only dependency): the
component search, the block decomposition and the maximum matching on
random graphs that hold isolated vertices and bridges; and cograph
recognition against a brute-force search for an induced P4."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from matchflip.blossom import max_matching
from matchflip.cograph import is_cograph
from matchflip.generators import random_cotree_graph
from matchflip.graph import Graph, connected_components, edge, matching_partners
from matchflip.outerplanar import biconnected_blocks

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


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(graphs, st.data())
def test_connected_components_match_networkx(g, data):
    keep = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)) | {0, g.n - 2, g.n - 1}
    seeds = data.draw(st.sets(st.integers(0, g.n - 1), max_size=4))
    want = sorted(sorted(c) for c in nx.connected_components(_nx(g, keep)))
    want_seeded = [c for c in want if seeds & set(c)]
    adjs = (g.adj, {v: set(g.adj[v]) for v in range(g.n)})
    containers = [set(keep), dict.fromkeys(keep).keys()]
    if len(keep) == g.n:
        containers.append(range(g.n))
    for adj in adjs:
        for vertices in containers:
            assert connected_components(adj, vertices) == want
            assert connected_components(adj, vertices, seeds) == want_seeded


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(graphs, st.data())
def test_biconnected_blocks_match_networkx(g, data):
    keep = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)) | {0, g.n - 2, g.n - 1}
    h = _nx(g, keep)
    blocks, cuts = biconnected_blocks(g.adj, keep)
    # a vertex without a live neighbour is a block of its own
    lone = sorted(v for v in keep if not h[v])
    assert sorted(sorted(b) for b in blocks if len(b) > 1) == sorted(
        sorted(b) for b in nx.biconnected_components(h)
    )
    assert sorted(min(b) for b in blocks if len(b) == 1) == lone
    assert cuts == set(nx.articulation_points(h))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(graphs, st.data())
def test_max_matching_size_matches_networkx(g, data):
    keep = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)) | {0, g.n - 2, g.n - 1}
    m = max_matching(g, keep)
    assert matching_partners(g, m) is not None
    assert all(u in keep and v in keep for u, v in m)
    assert len(m) == len(nx.max_weight_matching(_nx(g, keep), maxcardinality=True))
    if len(keep) == g.n:
        assert len(max_matching(g)) == len(m)


def _has_induced_p4(g: Graph) -> bool:
    for quad in itertools.combinations(range(g.n), 4):
        for a, b, c, d in itertools.permutations(quad):
            if (a < d and b in g.adj[a] and c in g.adj[b] and d in g.adj[c]
                    and c not in g.adj[a] and d not in g.adj[b] and d not in g.adj[a]):
                return True
    return False


def _maybe_cograph(n: int, p: float, seed: int, from_cotree: bool) -> Graph:
    """A random graph, or a random cograph with one pair toggled at random
    (which may or may not leave a cograph)."""
    rng = random.Random(seed)
    if not from_cotree:
        return Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p])
    es = set(random_cotree_graph(n, rng).edges)
    if n > 1 and rng.random() < 0.5:
        es ^= {edge(*rng.sample(range(n), 2))}
    return Graph(n, es)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.builds(_maybe_cograph, st.integers(4, 8), st.floats(0.0, 1.0),
                 st.integers(0, 2**32 - 1), st.booleans()))
def test_is_cograph_matches_induced_p4_search(g):
    assert is_cograph(g) == (not _has_induced_p4(g))
