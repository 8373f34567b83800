from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from matchflip import outerplanar
from matchflip.errors import NotOuterplanarError, NotPerfectError, NotTwoConnectedError
from matchflip.generators import (
    mutate_by_flips,
    random_outerplanar_graph,
    random_outerplanar_instance,
    random_perfect_matching,
)
from matchflip.graph import Graph, edge, edge_set, verify_sequence
from matchflip.io import load_instance, sequence_to_dict
from matchflip.oracle import enumerate_matchings, reachable
from matchflip.outerplanar import (
    Case1DropStep,
    Case1RemoveStep,
    Case2Step,
    ForcedPairStep,
    SplitStep,
    _boundary_cycle,
    _structure,
    biconnected_blocks,
    boundary_order,
    is_outerplanar,
    solve_outerplanar,
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
    reference_solve_outerplanar,
    reference_verify_boundary_order,
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
    order = boundary_order(C6)
    assert verify_boundary_order(C6, order)
    assert type(order) is tuple and sorted(order) == list(range(6))


def test_boundary_order_with_chord():
    order = boundary_order(C6_CHORD)
    assert verify_boundary_order(C6_CHORD, order)


def test_boundary_k4_not_outerplanar():
    with pytest.raises(NotOuterplanarError):
        boundary_order(K4)


def test_boundary_not_two_connected():
    with pytest.raises(NotTwoConnectedError, match="cut vertex"):
        boundary_order(path_graph(4))
    with pytest.raises(NotTwoConnectedError, match="cut vertex"):
        boundary_order(Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]))
    # connectivity is read off the block sizes: two triangles, and a
    # triangle beside a path, are disconnected
    for extra in ([(3, 4), (4, 5), (5, 3)], [(3, 4), (4, 5)]):
        with pytest.raises(NotTwoConnectedError, match="disconnected"):
            boundary_order(Graph(6, [(0, 1), (1, 2), (2, 0)] + extra))


def test_boundary_k23_not_outerplanar():
    k23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    with pytest.raises(NotOuterplanarError):
        boundary_order(k23)


def test_is_outerplanar():
    assert is_outerplanar(C6) and is_outerplanar(C6_CHORD) and is_outerplanar(path_graph(5))
    assert not is_outerplanar(K4)


def _forced_edges(res) -> set:
    """The matched edges that ``res``'s trace peeled as forced pairs."""
    assert all(isinstance(step, ForcedPairStep) for step in res.trace.steps)
    return {step.edge for step in res.trace.steps}


def test_split_p4():
    # P4 falls into two K2 pieces at its cut vertices, each a forced pair
    m = edge_set([(0, 1), (2, 3)])
    res = solve_outerplanar(path_graph(4), m, m)
    assert res.yes and len(res.sequence) == 0
    assert _forced_edges(res) == {(0, 1), (2, 3)}


def test_split_two_connected_is_identity():
    res = solve_outerplanar(C4, C4_PM1, C4_PM2)
    assert res.yes and len(res.sequence) == 1
    assert not any(isinstance(step, SplitStep) for step in res.trace.steps)


def test_split_k2():
    m = edge_set([(0, 1)])
    res = solve_outerplanar(Graph(2, [(0, 1)]), m, m)
    assert res.yes and len(res.sequence) == 0 and _forced_edges(res) == {(0, 1)}


def test_split_recursive_path():
    m = edge_set([(0, 1), (2, 3), (4, 5)])
    res = solve_outerplanar(path_graph(6), m, m)
    assert res.yes and len(res.sequence) == 0
    assert _forced_edges(res) == {(0, 1), (2, 3), (4, 5)}


def test_split_long_path():
    # deeper than the interpreter's recursion limit; one piece per matched edge
    m = edge_set((2 * i, 2 * i + 1) for i in range(1200))
    res = solve_outerplanar(path_graph(2400), m, m)
    assert res.yes and len(res.sequence) == 0 and _forced_edges(res) == m


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


def test_pendant_vertices_start_with_forced_pairs():
    # a degree-one vertex at the start takes the solver's forced-edge path
    # before any other reduction; pendants hang off a random outerplanar
    # graph either as a two-vertex tail or as a single leaf
    rng = random.Random(909)
    pairs = 0
    for _ in range(150):
        base = rng.choice([4, 6, 8])
        edges = set(random_outerplanar(rng, base, rng.random()).edges)
        n = base
        for _ in range(rng.randint(1, 3)):
            x = rng.randrange(n)
            if rng.random() < 0.5:
                edges |= {(x, n), (n, n + 1)}
                n += 2
            else:
                edges.add((x, n))
                n += 1
        g = Graph(n, edges)
        assert is_outerplanar(g)
        pms = enumerate_matchings(g, "perfect")
        for a in pms:
            for b in pms:
                res = solve_outerplanar(g, a, b)
                assert isinstance(res.trace.steps[0], ForcedPairStep)
                orc = reachable(g, a, b)
                assert res.yes == orc.reachable, (sorted(g.edges), sorted(a), sorted(b))
                if res.yes:
                    assert verify_sequence(g, a, res.sequence, b).ok
                    assert len(res.sequence) <= g.n
                pairs += 1
    assert pairs > 200


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


def test_outerplanar_output_pinned():
    # Emitted sequences and the sorted trace steps, hashed: chord_drop 0,
    # 0.3, 0.6 and 0.9, two blocks joined by a bridge (cut vertices at both
    # ends), a NO pair and scrambled labels, then n = 2000; any change to a
    # reduction rule or to the cancelling pass (``graph._meet``) changes a
    # hash.  The order of trace steps is not pinned.
    cases = []
    for n, seed, drop in ((40, 3, 0.0), (60, 8, 0.3), (80, 5, 0.6), (120, 2, 0.9), (300, 11, 0.3)):
        inst = load_instance(random_outerplanar_instance(n, seed, drop))
        cases.append((inst.graph, inst.m_ini, inst.m_tar))
    left, right = (load_instance(random_outerplanar_instance(n, seed)) for n, seed in ((30, 4), (20, 9)))
    shift = lambda es: {(u + 30, v + 30) for u, v in es}  # noqa: E731
    cases.append((Graph(50, sorted(left.graph.edges | shift(right.graph.edges) | {(0, 30)})),
                  left.m_ini | shift(right.m_ini), left.m_tar | shift(right.m_tar)))
    rng = random.Random(3)
    g = random_outerplanar_graph(24, rng, 0.3)
    cases.append((g, random_perfect_matching(g, rng), random_perfect_matching(g, rng)))
    # the generator's boundary is 0..n-1; scramble the labels
    perm = random.Random(7).sample(range(100), 100)
    inst = load_instance(random_outerplanar_instance(100, 7))
    es, a, b = (edge_set((perm[u], perm[v]) for u, v in m) for m in (inst.graph.edges, inst.m_ini, inst.m_tar))
    cases.append((Graph(100, sorted(es)), a, b))
    h = hashlib.sha256()
    answers = []
    for g, a, b in cases:
        res = solve_outerplanar(g, a, b)
        answers.append(res.yes)
        h.update(json.dumps(sequence_to_dict(res.sequence) if res.yes else None).encode())
        h.update(json.dumps(sorted(map(repr, res.trace.steps))).encode())
    assert answers == [True] * 6 + [False, True]
    assert h.hexdigest() == "4778a1f928b3ea1ea6a05528814365ab04ea9c41a9a729a59f4e2884413d29af"
    # one instance at the size the benchmark times, hashed on its own
    inst = load_instance(random_outerplanar_instance(2000, 13))
    res = solve_outerplanar(inst.graph, inst.m_ini, inst.m_tar)
    h = hashlib.sha256(json.dumps(sequence_to_dict(res.sequence)).encode())
    h.update(json.dumps(sorted(map(repr, res.trace.steps))).encode())
    assert res.yes and len(res.sequence) == 22
    assert h.hexdigest() == "394896f41776c410e3a57861551f9f1609f9baee3ce536ddbdbd230205c670b9"


@settings(max_examples=200)
@given(st.integers(3, 40), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.data())
def test_inherited_order_matches_ear_contraction(n, seed, drop, data):
    # delete vertices and edges of an outerplanar graph: each 2-connected
    # piece left, sorted by its positions on the original block, is the
    # piece's own boundary cycle up to rotation and reflection
    rng = random.Random(seed)
    base = random_outerplanar_graph(n, rng, drop)
    perm = rng.sample(range(n), n)  # the generator's boundary is 0..n-1
    g = Graph(n, [(perm[u], perm[v]) for u, v in base.edges])
    blocks = _structure(g)
    gone = data.draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    cut = data.draw(st.sets(st.sampled_from(sorted(g.edges)), max_size=g.m // 3))
    alive = set(range(n)) - gone
    adj = {v: {w for w in g.adj[v] if w in alive and edge(v, w) not in cut} for v in alive}
    for blk in biconnected_blocks(adj, alive)[0]:
        if len(blk) < 3:
            continue
        v = min(blk)
        w = next(iter(adj[v]))
        inherited = sorted(blk, key=next(pos for pos in blocks if v in pos and w in pos).__getitem__)
        assert _same_cycle(inherited, _boundary_cycle(adj, blk))


@settings(max_examples=300)
@given(st.sampled_from(range(15)), st.integers(0, 2**32 - 1), st.sampled_from(
    ["cycle", "rotated", "reversed", "swapped", "not_permutation", "random"]), st.data())
def test_verify_boundary_order_matches_reference(n, seed, kind, data):
    # true cycles and their rotations and reversals, swaps, non-permutations,
    # random orders on random and outerplanar graphs, n < 3 included; each
    # checked with the structure cache cold, warmed by recognition and
    # warmed by a valid hint
    rng = random.Random(seed)
    outer = n >= 3 and data.draw(st.booleans())
    if outer:
        g = random_outerplanar_graph(n, rng, rng.random())
        order = list(range(n))
    else:
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        order = rng.sample(range(n), n)
    if kind == "rotated" and n:
        k = rng.randrange(n)
        order = order[k:] + order[:k]
    elif kind == "reversed":
        order.reverse()
    elif kind == "swapped" and n >= 2:
        i, j = rng.sample(range(n), 2)
        order[i], order[j] = order[j], order[i]
    elif kind == "not_permutation":
        order = order[:-1] + [rng.choice(order[:-1] + [n, -1])] if order else [0]
    elif kind == "random":
        rng.shuffle(order)
    want = reference_verify_boundary_order(g, order)
    outer_ref = is_outerplanar(Graph(g.n, g.edges))
    for warm in ("cold", "recognised", "hinted"):
        h = Graph(g.n, g.edges)
        if warm == "recognised":
            is_outerplanar(h)
        elif warm == "hinted" and outer:
            assert verify_boundary_order(h, range(n))
        assert verify_boundary_order(h, order) == want, warm
        # a rejected order never reaches the cache, a valid one certifies
        assert is_outerplanar(h) == outer_ref
        if want:
            assert _same_cycle(boundary_order(h), order)


def _glued_blocks(rng: random.Random, count: int):
    """``count`` graphs of two or three random outerplanar blocks glued at
    shared vertices, with an even vertex count and scrambled labels."""
    for _ in range(count):
        sizes = [rng.randint(3, 6) for _ in range(rng.randint(2, 3))]
        n = sum(sizes) - len(sizes) + 1
        if n % 2:
            sizes[0] += 1
            n += 1
        perm = rng.sample(range(n), n)
        edges, top = set(), 0
        for k in sizes:
            base = rng.randrange(top + 1)  # the vertex this block shares
            labels = [base] + list(range(top + 1, top + k))
            top += k - 1
            for u, v in random_outerplanar_graph(k, rng, rng.random()).edges:
                edges.add(edge(perm[labels[u]], perm[labels[v]]))
        yield Graph(n, sorted(edges))


def test_glued_blocks_against_oracle():
    # the pieces the solver meets start at cut vertices of the input, so it
    # must find each piece's cycle through the block that holds it
    pairs = 0
    for g in _glued_blocks(random.Random(99), 80):
        pms = enumerate_matchings(g, "perfect")
        for a in pms:
            for b in pms:
                res = solve_outerplanar(g, a, b)
                assert res.yes == reachable(g, a, b).reachable
                if res.yes:
                    assert verify_sequence(g, a, res.sequence, b).ok
                pairs += 1
    assert pairs > 100


def test_solver_never_searches_for_blocks(monkeypatch):
    # recognition (or a checked hint) is the one block search: with the
    # structure warm, the solver reads every piece off it, at the input's
    # cut vertices and at the cuts its own reductions open
    cases = [(g, enumerate_matchings(g, "perfect")) for g in _glued_blocks(random.Random(7), 30)]
    inst = load_instance(random_outerplanar_instance(300, 11, walk=60))
    assert all(is_outerplanar(g) for g in [inst.graph] + [g for g, _ in cases])  # no hint: recognition runs

    def no_search(*args):
        raise AssertionError("block search outside recognition")

    monkeypatch.setattr(outerplanar, "biconnected_blocks", no_search)
    res = solve_outerplanar(inst.graph, inst.m_ini, inst.m_tar)
    assert res.yes and verify_sequence(inst.graph, inst.m_ini, res.sequence, inst.m_tar).ok
    solved = 0
    for g, pms in cases:
        for a, b in zip(pms, pms[::-1]):
            res = solve_outerplanar(g, a, b)
            if res.yes:
                assert verify_sequence(g, a, res.sequence, b).ok
                solved += 1
    assert solved > 10


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.0, 1.0))
def test_solver_matches_round_based_reference(seed, glued, drop):
    # the cycle-local solver, which purges each even chord once, against
    # the round-based one that re-scanned every touched piece: outerplanar
    # graphs with scrambled labels, and glued blocks with odd blocks and
    # cut vertices, under random perfect matching pairs
    rng = random.Random(seed)
    if glued:
        g = next(_glued_blocks(rng, 1))
        pms = enumerate_matchings(g, "perfect")
        assume(pms)
        a, b = rng.choice(pms), rng.choice(pms)
    else:
        n = rng.randrange(4, 41, 2)
        base = random_outerplanar_graph(n, rng, drop)
        perm = rng.sample(range(n), n)
        g = Graph(n, [(perm[u], perm[v]) for u, v in base.edges])
        a, b = random_perfect_matching(g, rng), random_perfect_matching(g, rng)
        assume(a is not None and b is not None)
    res = solve_outerplanar(g, a, b)
    assert res.yes == reference_solve_outerplanar(g, a, b).yes
    if res.yes:
        assert verify_sequence(g, a, res.sequence, b).ok
        assert len(res.sequence) <= g.n


@settings(max_examples=150)
@given(st.integers(2, 30), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.integers(0, 59),
       st.booleans(), st.booleans())
def test_output_does_not_depend_on_the_hint(half, seed, drop, turn, flip, walk):
    # the same sequence and the same steps in the same order with no hint
    # and with any valid boundary order, rotated or reversed; a flip walk
    # or an independent matching
    n = 2 * half
    rng = random.Random(seed)
    base = random_outerplanar_graph(n, rng, drop)
    perm = rng.sample(range(n), n)
    edges = sorted((perm[u], perm[v]) for u, v in base.edges)
    order = [perm[i] for i in range(n)]
    order = order[turn % n:] + order[:turn % n]
    if flip:
        order.reverse()
    plain, hinted = Graph(n, edges), Graph(n, edges)
    assert verify_boundary_order(hinted, order)
    a = random_perfect_matching(plain, rng)
    assume(a is not None)
    b = mutate_by_flips(plain, a, rng, n // 4) if walk else random_perfect_matching(plain, rng)
    assume(b is not None)
    x, y = solve_outerplanar(plain, a, b), solve_outerplanar(hinted, a, b)
    assert x.yes == y.yes and x.sequence == y.sequence
    assert x.trace.steps == y.trace.steps


def test_biconnected_blocks_fixed_cases():
    def search(g, roots):
        blocks, cuts, reached = biconnected_blocks(g.adj, roots)
        return sorted(map(sorted, blocks)), cuts, sorted(reached)

    bowtie = Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    # the DFS root is the cut vertex: it has two children
    assert search(bowtie, [0]) == ([[0, 1, 2], [0, 3, 4]], {0}, [0, 1, 2, 3, 4])
    assert search(bowtie, [3]) == ([[0, 1, 2], [0, 3, 4]], {0}, [0, 1, 2, 3, 4])
    assert search(Graph(2, [(0, 1)]), [1]) == ([[0, 1]], set(), [0, 1])
    # a lone vertex is a block of its own; only the roots' components are walked
    lone = Graph(5, [(1, 2), (2, 3), (3, 1)])
    assert search(lone, range(5)) == ([[0], [1, 2, 3], [4]], set(), [0, 1, 2, 3, 4])
    assert search(lone, [4, 2]) == ([[1, 2, 3], [4]], set(), [1, 2, 3, 4])
    # 10^5 vertices, far past the recursion limit
    n = 100_000
    path = path_graph(n)
    assert search(path, [0]) == ([[i, i + 1] for i in range(n - 1)], set(range(1, n - 1)),
                                 list(range(n)))
    blocks, cuts, _ = biconnected_blocks(path.adj, [n // 2])
    assert len(blocks) == n - 1 and cuts == set(range(1, n - 1))
    ladder = Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)] + [(i, i + 2) for i in range(n - 2)])
    assert search(ladder, [n - 1]) == ([list(range(n))], set(), list(range(n)))
