"""Differential tests against networkx (a test-only dependency): the
component search and the block decomposition on random graphs that hold
isolated vertices and bridges."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from matchflip.graph import Graph, connected_components
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
