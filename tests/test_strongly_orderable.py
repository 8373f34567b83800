from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from matchflip.errors import (
    NoPerfectMatchingError,
    NotAPermutationError,
    NotPerfectError,
    OrderInvalidError,
)
from matchflip.generators import random_interval_graph, random_perfect_matching
from matchflip.graph import Graph, edge_set, verify_sequence
from matchflip.oracle import enumerate_matchings, reachable
from matchflip.strongly_orderable import (
    canonical_matching,
    solve_strongly_orderable,
    verify_strong_ordering,
)

from helpers import (
    C4,
    C6,
    C6_PM1,
    C6_PM2,
    K4,
    path_graph,
    random_graph,
    reference_strong_order_violation,
)


def test_verify_c4_orders():
    assert verify_strong_ordering(C4, (0, 1, 3, 2)).valid
    assert verify_strong_ordering(C4, (0, 1, 2, 3)).valid


def test_verify_small_graphs_trivially_valid():
    # the defining implication needs four distinct vertices
    for g in (Graph(1, []), Graph(2, [(0, 1)]), path_graph(3)):
        assert verify_strong_ordering(g, tuple(range(g.n))).valid


def test_verify_rejects_non_permutation():
    with pytest.raises(NotAPermutationError):
        verify_strong_ordering(C4, (0, 1, 2, 2))


def test_c6_has_no_strong_ordering():
    # scanned exhaustively: a long induced cycle defeats every ordering
    for perm in itertools.permutations(range(6)):
        chk = verify_strong_ordering(C6, perm)
        assert not chk.valid
        i, j, k, l = chk.witness
        assert i < j and k < l


def _assert_violation(g, order, witness):
    i, j, k, l = witness
    vi, vj, vk, vl = (order[x] for x in witness)
    assert i < j and k < l and j != l
    assert g.has_edge(vi, vk) and g.has_edge(vi, vl) and g.has_edge(vj, vk)
    assert not g.has_edge(vj, vl)


def test_witness_is_a_real_violation():
    order = tuple(range(6))
    _assert_violation(C6, order, verify_strong_ordering(C6, order).witness)


@settings(max_examples=300)
@given(st.integers(4, 9), st.floats(0.1, 0.9), st.integers(0, 2**32 - 1))
def test_next_one_rule_matches_exhaustive_check(n, p, seed):
    """The next-one rule accepts exactly the orders the exhaustive bitmask
    check accepts, and every witness it reports is a genuine violation."""
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    for _ in range(40):
        order = rng.sample(range(n), n)
        chk = verify_strong_ordering(g, order)
        assert chk.valid == (reference_strong_order_violation(g, order) is None)
        if not chk.valid:
            _assert_violation(g, order, chk.witness)


def test_next_one_rule_on_interval_orders():
    rng = random.Random(404)
    for _ in range(150):
        n = rng.choice([8, 16, 40, 90])
        g, order = random_interval_graph(n, rng, rng.uniform(0.3, 3.0))
        assert verify_strong_ordering(g, order).valid
        bad = list(order)
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(range(n), 2)
            bad[a], bad[b] = bad[b], bad[a]
        chk = verify_strong_ordering(g, bad)
        assert chk.valid == (reference_strong_order_violation(g, bad) is None)
        if not chk.valid:
            _assert_violation(g, bad, chk.witness)


def test_canonical_matching_examples():
    assert canonical_matching(C4, (0, 1, 3, 2)) == edge_set([(0, 1), (2, 3)])
    assert canonical_matching(Graph(2, [(0, 1)]), (0, 1)) == edge_set([(0, 1)])
    with pytest.raises(NoPerfectMatchingError):
        canonical_matching(path_graph(3), (0, 1, 2))


def test_canonical_uses_order_positions():
    # order (1, 0, 3, 2): first vertex is 1, matched to its earliest
    # neighbor in the order
    assert canonical_matching(C4, (1, 0, 3, 2)) == edge_set([(0, 1), (2, 3)])
    assert canonical_matching(C4, (1, 2, 3, 0)) == edge_set([(1, 2), (3, 0)])


def test_solve_identity_empty():
    m = edge_set([(0, 1), (2, 3)])
    assert len(solve_strongly_orderable(C4, (0, 1, 3, 2), m, m)) == 0


def test_solve_c4_example():
    m_ini = edge_set([(0, 1), (2, 3)])
    m_tar = edge_set([(0, 3), (1, 2)])
    seq = solve_strongly_orderable(C4, (0, 1, 3, 2), m_ini, m_tar)
    assert len(seq) <= 2
    assert verify_sequence(C4, m_ini, seq, m_tar).ok


def test_solve_k4_example():
    m_ini = edge_set([(0, 2), (1, 3)])
    m_tar = edge_set([(0, 3), (1, 2)])
    seq = solve_strongly_orderable(K4, (0, 1, 2, 3), m_ini, m_tar)
    assert len(seq) <= 2
    assert verify_sequence(K4, m_ini, seq, m_tar).ok
    assert reachable(K4, m_ini, m_tar).distance <= len(seq)


def test_solve_rejects_imperfect():
    with pytest.raises(NotPerfectError):
        solve_strongly_orderable(C4, (0, 1, 3, 2), edge_set([(0, 1)]), edge_set([(1, 2)]))


def test_invalid_order_detected_midway():
    with pytest.raises(OrderInvalidError):
        solve_strongly_orderable(C6, tuple(range(6)), C6_PM1, C6_PM2)


def test_random_interval_sweep_against_oracle():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.choice([4, 6, 8, 10])
        g, order = random_interval_graph(n, rng, rng.uniform(0.2, 2.5))
        assert verify_strong_ordering(g, order).valid
        pms = enumerate_matchings(g, "perfect")
        assert pms, "generator must admit a perfect matching"
        a = rng.choice(pms)
        b = rng.choice(pms)
        seq = solve_strongly_orderable(g, order, a, b)
        assert len(seq) <= g.n
        assert verify_sequence(g, a, seq, b).ok
        orc = reachable(g, a, b)
        assert orc.reachable and orc.distance <= len(seq)


def test_generator_matchings_are_perfect():
    rng = random.Random(55)
    g, order = random_interval_graph(30, rng)
    m = random_perfect_matching(g, rng)
    assert m is not None and len(m) == 15
