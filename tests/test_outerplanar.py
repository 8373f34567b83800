from __future__ import annotations

import random

import pytest

from matchflip.errors import NotOuterplanarError, NotPerfectError, NotTwoConnectedError
from matchflip.graph import Graph, edge, edge_set, verify_sequence
from matchflip.oracle import enumerate_matchings, reachable
from matchflip.outerplanar import (
    Case1DropStep,
    Case1RemoveStep,
    Case2Step,
    boundary_order,
    is_outerplanar,
    solve_outerplanar,
    split_at_cut_vertices,
    verify_boundary_order,
)

from helpers import (
    C4,
    C4_PM1,
    C4_PM2,
    C6,
    C6_CHORD,
    C6_PM1,
    C6_PM2,
    K4,
    path_graph,
    random_outerplanar,
)


def _same_cycle(a, b):
    a, b = list(a), list(b)
    if len(a) != len(b):
        return False
    for rot in range(len(a)):
        r = a[rot:] + a[:rot]
        if r == b or r[::-1] == [b[-1]] + b[:-1][::-1] or r[:1] + r[1:][::-1] == b:
            return True
    return False


def test_boundary_order_c6():
    order = boundary_order(C6).order
    assert verify_boundary_order(C6, order)
    assert sorted(order) == list(range(6))


def test_boundary_order_with_chord():
    order = boundary_order(C6_CHORD).order
    assert verify_boundary_order(C6_CHORD, order)


def test_boundary_k4_not_outerplanar():
    with pytest.raises(NotOuterplanarError):
        boundary_order(K4)


def test_boundary_not_two_connected():
    with pytest.raises(NotTwoConnectedError):
        boundary_order(path_graph(4))
    with pytest.raises(NotTwoConnectedError):
        boundary_order(Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]))


def test_boundary_k23_not_outerplanar():
    k23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    with pytest.raises(NotOuterplanarError):
        boundary_order(k23)


def test_is_outerplanar():
    assert is_outerplanar(C6) and is_outerplanar(C6_CHORD) and is_outerplanar(path_graph(5))
    assert not is_outerplanar(K4)


def test_split_p4():
    p4 = path_graph(4)
    subs = split_at_cut_vertices(p4, edge_set([(0, 1), (2, 3)]), edge_set([(0, 1), (2, 3)]))
    assert [s.vertex_map for s in subs] == [(0, 1), (2, 3)]
    assert all(s.graph.n == 2 for s in subs)


def test_split_two_connected_is_identity():
    subs = split_at_cut_vertices(C4, C4_PM1, C4_PM2)
    assert len(subs) == 1 and subs[0].graph.n == 4


def test_split_k2():
    k2 = Graph(2, [(0, 1)])
    subs = split_at_cut_vertices(k2, edge_set([(0, 1)]), edge_set([(0, 1)]))
    assert len(subs) == 1 and subs[0].graph.n == 2


def test_split_recursive_path():
    p6 = path_graph(6)
    m = edge_set([(0, 1), (2, 3), (4, 5)])
    subs = split_at_cut_vertices(p6, m, m)
    assert [s.vertex_map for s in subs] == [(0, 1), (2, 3), (4, 5)]
    assert all(s.m_ini == edge_set([(0, 1)]) for s in subs)


def test_split_long_path():
    # deeper than the interpreter's recursion limit; one K2 per matched edge
    m = edge_set((2 * i, 2 * i + 1) for i in range(1200))
    subs = split_at_cut_vertices(path_graph(2400), m, m)
    assert [s.vertex_map for s in subs] == [(2 * i, 2 * i + 1) for i in range(1200)]
    assert all(s.graph.n == 2 and s.m_ini == s.m_tar == edge_set([(0, 1)]) for s in subs)


def test_solve_c6_no():
    res = solve_outerplanar(C6, C6_PM1, C6_PM2)
    assert not res.yes and res.sequence is None


def test_solve_c6_chord_two_flips():
    res = solve_outerplanar(C6_CHORD, C6_PM1, C6_PM2)
    assert res.yes and len(res.sequence) == 2
    assert verify_sequence(C6_CHORD, C6_PM1, res.sequence, C6_PM2).ok


def test_solve_c4_one_flip():
    res = solve_outerplanar(C4, C4_PM1, C4_PM2)
    assert res.yes and len(res.sequence) == 1
    assert verify_sequence(C4, C4_PM1, res.sequence, C4_PM2).ok


def test_solve_identity():
    res = solve_outerplanar(C6, C6_PM1, C6_PM1)
    assert res.yes and len(res.sequence) == 0


def test_solve_rejects_imperfect():
    with pytest.raises(NotPerfectError):
        solve_outerplanar(C4, edge_set([(0, 1)]), C4_PM2)


def test_solve_not_outerplanar():
    with pytest.raises(NotOuterplanarError):
        solve_outerplanar(K4, C4_PM1, C4_PM2)


def test_trace_records_reductions():
    res = solve_outerplanar(C6_CHORD, C6_PM1, C6_PM2)
    kinds = {type(s) for s in res.trace.steps}
    assert Case2Step in kinds


def test_disconnected_components_solved_independently():
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    a = edge_set([(0, 1), (2, 3), (4, 5), (6, 7)])
    b = edge_set([(1, 2), (3, 0), (5, 6), (7, 4)])
    res = solve_outerplanar(g, a, b)
    assert res.yes and len(res.sequence) == 2
    assert verify_sequence(g, a, res.sequence, b).ok


def test_pendant_blocks():
    # two squares joined by a bridge: cut splitting plus forced edges
    g = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5),
                   (5, 6), (6, 7), (7, 8), (8, 5), (4, 9), (9, 5)])
    pms = enumerate_matchings(g, "perfect")
    for a in pms:
        for b in pms:
            res = solve_outerplanar(g, a, b)
            orc = reachable(g, a, b)
            assert res.yes == orc.reachable
            if res.yes:
                assert verify_sequence(g, a, res.sequence, b).ok


def test_random_sweep_against_oracle():
    rng = random.Random(4242)
    pairs = 0
    for _ in range(150):
        n = rng.choice([4, 6, 8, 10])
        g = random_outerplanar(rng, n, rng.random())
        pms = enumerate_matchings(g, "perfect")
        for a in pms:
            for b in pms:
                res = solve_outerplanar(g, a, b)
                orc = reachable(g, a, b)
                assert res.yes == orc.reachable, (sorted(g.edges), sorted(a), sorted(b))
                if res.yes:
                    v = verify_sequence(g, a, res.sequence, b)
                    assert v.ok
                    assert len(res.sequence) <= g.n
                    assert orc.distance <= len(res.sequence)
                pairs += 1
    assert pairs > 500


def test_trace_replay_reaches_reduced_instance():
    # replaying the recorded steps reproduces a fully reduced instance
    res = solve_outerplanar(C6_CHORD, C6_PM1, C6_PM2)
    alive = set(range(6))
    m1, m2 = set(C6_PM1), set(C6_PM2)
    for step in res.trace.steps:
        if isinstance(step, Case2Step):
            u, w = step.pair
            if step.e_in_ini:
                m1.discard(edge(u, w))
            else:
                m1 -= {edge(step.left, u), edge(w, step.right)}
                m1.add(edge(step.left, step.right))
            if step.e_in_tar:
                m2.discard(edge(u, w))
            else:
                m2 -= {edge(step.left, u), edge(w, step.right)}
                m2.add(edge(step.left, step.right))
            alive -= set(step.pair)
        elif isinstance(step, (Case1RemoveStep,)):
            m1.discard(step.pair)
            m2.discard(step.pair)
            alive -= set(step.pair)
        elif isinstance(step, Case1DropStep):
            pass
        elif hasattr(step, "edge"):  # forced pairs / chord removals
            if step.edge in m1:
                m1.discard(step.edge)
                m2.discard(step.edge)
                alive -= set(step.edge)
    assert not alive and not m1 and not m2
