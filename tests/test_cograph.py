from __future__ import annotations

import hashlib
import json
import random

import pytest

from matchflip.cli import main
from matchflip.cograph import (
    CographResult,
    Conditions,
    RootPartition,
    _cotree_matching,
    _glue,
    _make_equal_cycle_free,
    _node_conditions,
    _Side,
    _sides,
    _via_b_edge,
    build_cotree,
    is_cograph,
    reachability_class,
    solve_cograph,
)
from matchflip.errors import EdgeNotInGraphError, MatchFlipError, NotACographError, SizeMismatchError
from matchflip.generators import random_cograph_instance, random_cotree_graph, random_matching_pair
from matchflip.graph import (
    MODE_FLIP_SLIDE,
    Graph,
    ReconfigSequence,
    Slide,
    edge_set,
    induced_subgraph,
    symmetric_difference_components,
    verify_sequence,
)
from matchflip.io import instance_to_dict, load_instance, load_sequence, sequence_to_dict
from matchflip.oracle import FLIP_SLIDE, enumerate_matchings, reachable, reconfiguration_components
from hypothesis import given, settings, strategies as st

from helpers import (
    C4,
    C4_PM1,
    C4_PM2,
    K4,
    all_matchings_by_size,
    complete_graph,
    connected_cographs,
    path_graph,
    petersen_graph,
    random_graph,
    reference_max_matching,
)


# the join of two 2K2s: {0, 1, 2, 3} and {4, 5, 6, 7}
JOIN_2K2S = Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)]
                  + [(a, b) for a in range(4) for b in range(4, 8)])


def test_cotree_c4():
    t = build_cotree(C4)
    assert t.kind == "join"
    sides = [t.left.leaves(), t.right.leaves()]
    assert sorted(map(sorted, sides)) == [[0, 2], [1, 3]]
    assert t.left.kind == "union" and t.right.kind == "union"


def test_cotree_p4_witness():
    with pytest.raises(NotACographError) as ei:
        build_cotree(path_graph(4))
    a, b, c, d = ei.value.witness
    g = path_graph(4)
    assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
    assert not g.has_edge(a, c) and not g.has_edge(a, d) and not g.has_edge(b, d)


def test_cotree_single_vertex():
    t = build_cotree(Graph(1, []))
    assert t.kind == "leaf" and t.vertex == 0


def test_deep_cotree_methods_do_not_recurse():
    # the star K_{1,n-1}, a threshold cograph (n - 1 isolated vertices, then
    # a dominating one): its cotree folds the leaves' union into a path, of
    # depth n - 1 in all, beyond the interpreter's recursion limit
    n = 1500
    edges = [(v, n - 1) for v in range(n - 1)]
    t, twin = build_cotree(Graph(n, edges)), build_cotree(Graph(n, edges))
    stack, leaves, depth = [(t, 0)], [], 0
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if node.kind == "leaf":
            leaves.append(node.vertex)
        else:
            stack += ((node.left, d + 1), (node.right, d + 1))
    assert depth == n - 1 and sorted(leaves) == list(range(n))
    # equal in structure, yet nodes compare and hash by identity
    assert t == t and t != twin and hash(t) == hash(t)
    assert "CotreeNode" in repr(t) and len(repr(t)) < 100


def test_witnesses_on_random_noncographs():
    rng = random.Random(8)
    found = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(4, 9), rng.uniform(0.2, 0.8))
        try:
            build_cotree(g)
        except NotACographError as exc:
            found += 1
            a, b, c, d = exc.witness
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
            assert not g.has_edge(a, c) and not g.has_edge(a, d) and not g.has_edge(b, d)
    assert found > 20


def test_max_matching_examples():
    assert len(reference_max_matching(C4)) == 2
    assert len(reference_max_matching(Graph(3, [(0, 1), (1, 2), (0, 2)]))) == 1
    assert len(reference_max_matching(petersen_graph())) == 5
    # cross-check Petersen by exhaustive enumeration
    assert enumerate_matchings(petersen_graph(), "perfect")


def test_max_matching_random_brute_force():
    rng = random.Random(12)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.9))
        best = 0
        k = g.n // 2
        while k > 0:
            if enumerate_matchings(g, k, budget=500000):
                best = k
                break
            k -= 1
        mm = reference_max_matching(g)
        assert len(mm) == best
        cov = set()
        for u, v in mm:
            assert g.has_edge(u, v) and u not in cov and v not in cov
            cov |= {u, v}


def test_check_conditions_examples():
    # the cotree puts the larger side A first: C4 joins {0, 2} to {1, 3},
    # K4 joins {0, 1, 2} to {3}, and the join of two 2K2s has a B-edge
    assert _node_conditions(build_cotree(C4), 2) == Conditions(False, False)
    assert _node_conditions(build_cotree(C4), 1).c2 is True
    assert _node_conditions(build_cotree(K4), 2) == Conditions(False, False)
    assert _node_conditions(build_cotree(K4).sides()[0], 1).c2 is True
    assert _node_conditions(build_cotree(JOIN_2K2S), 4).c1 is True


def _cycle_free(g: Graph, m1, m2) -> ReconfigSequence:
    """The sequence between two matchings whose difference has no cycle."""
    s1, s2 = _sides(g, m1, m2)
    _make_equal_cycle_free(g, s1, s2)
    return ReconfigSequence(MODE_FLIP_SLIDE, tuple(_glue(s1, s2)))


def test_transform_cycle_free_examples():
    p3 = path_graph(3)
    seq = _cycle_free(p3, edge_set([(0, 1)]), edge_set([(1, 2)]))
    assert len(seq) == 1 and isinstance(seq.moves[0], Slide)
    assert verify_sequence(p3, edge_set([(0, 1)]), seq, edge_set([(1, 2)])).ok

    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    seq = _cycle_free(star, edge_set([(0, 1)]), edge_set([(0, 2)]))
    assert len(seq) == 1
    assert verify_sequence(star, edge_set([(0, 1)]), seq, edge_set([(0, 2)])).ok

    assert len(_cycle_free(C4, C4_PM1, C4_PM1)) == 0


def test_transform_cycle_free_random():
    # on connected cographs, as the solver calls it
    rng = random.Random(77)
    done = 0
    for _ in range(400):
        g = random_cotree_graph(rng.randint(2, 9), rng)
        if build_cotree(g).kind == "union":
            continue
        ms = all_matchings_by_size(g)
        sizes = [k for k in ms if k > 0]
        if not sizes:
            continue
        k = rng.choice(sizes)
        a, b = rng.choice(ms[k]), rng.choice(ms[k])
        if any(c.kind == "even_cycle" for c in symmetric_difference_components(a, b)):
            continue
        seq = _cycle_free(g, a, b)
        assert verify_sequence(g, a, seq, b).ok
        assert len(seq) <= 2 * len(a ^ b)
        done += 1
    assert done > 100


def test_transform_with_b_edge_k4():
    # K4's root has B = {3}, so its perfect matchings lift to side A = K3,
    # where one matched edge is anchored through the free B-vertex 2
    m1 = edge_set([(0, 1), (2, 3)])
    m2 = edge_set([(0, 2), (1, 3)])
    assert _node_conditions(build_cotree(K4).sides()[0], 1).c2
    res = solve_cograph(K4, m1, m2)
    assert res.yes and verify_sequence(K4, m1, res.sequence, m2).ok
    assert len(solve_cograph(K4, m1, m1).sequence) == 0


def test_transform_with_b_edge_condition_checked():
    # the solver enters the B-edge anchor only under C1: C4's perfect
    # matchings break it, and that is a fault of the solver
    tree = build_cotree(C4)
    a, b = (side.leaves() for side in tree.sides())
    assert not _node_conditions(tree, 2).c1
    with pytest.raises(RuntimeError, match="^internal: ") as info:
        _via_b_edge(C4, RootPartition(a, b), _cotree_matching(tree.sides()[0]), C4_PM1, C4_PM2)
    assert not isinstance(info.value, MatchFlipError)


def test_transform_with_b_edge_join_of_2k2s():
    # join of 2K2 and 2K2: B-side has edges, C1 holds for perfect matchings
    g = JOIN_2K2S
    assert _node_conditions(build_cotree(g), 4).c1
    pms = enumerate_matchings(g, "perfect")
    comp = reconfiguration_components(g, pms, FLIP_SLIDE)
    assert len(set(comp)) == 1
    rng = random.Random(3)
    for _ in range(15):
        a, b = rng.choice(pms), rng.choice(pms)
        res = solve_cograph(g, a, b)
        assert res.yes and verify_sequence(g, a, res.sequence, b).ok
        assert len(res.sequence) <= 40 * g.n


def test_transform_with_free_b_vertex_examples():
    m1, m2 = edge_set([(0, 1)]), edge_set([(1, 2)])
    cond = _node_conditions(build_cotree(C4), 1)
    assert cond.c2 and not cond.c1
    res = solve_cograph(C4, m1, m2)
    assert res.yes and verify_sequence(C4, m1, res.sequence, m2).ok
    assert len(solve_cograph(C4, m1, m1).sequence) == 0


def test_star_matchings_two_slides():
    # every size-1 matching of a star covers the hub, which sits alone on
    # side B, so neither condition holds and the solver recurses on the
    # leaf side; any pair still connects within two slides
    star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    res = solve_cograph(star, [(0, 1)], [(0, 4)])
    assert res.yes and len(res.sequence) <= 2
    assert verify_sequence(star, edge_set([(0, 1)]), res.sequence, edge_set([(0, 4)])).ok


def test_solve_2k2_no():
    g = Graph(4, [(0, 1), (2, 3)])
    res = solve_cograph(g, [(0, 1)], [(2, 3)])
    assert not res.yes


def test_solve_c4_one_flip():
    res = solve_cograph(C4, C4_PM1, C4_PM2)
    assert res.yes and len(res.sequence) == 1
    assert verify_sequence(C4, C4_PM1, res.sequence, C4_PM2).ok


def test_solve_size_mismatch_no():
    # the walk builds the cotree, then stops at the root's size mismatch
    for a, b in (([(0, 1)], []), ([], [(0, 1)]), (C4_PM1, [(1, 2)])):
        assert solve_cograph(C4, a, b) == CographResult(False, None)


def test_solve_rejects_non_cograph():
    # whatever the matching sizes: the cotree is built before they are compared
    for a, b in (([(0, 1)], [(2, 3)]), ([(0, 1)], []), ([], [(1, 2)]), ([(0, 1), (2, 3)], [(1, 2)])):
        with pytest.raises(NotACographError):
            solve_cograph(path_graph(4), a, b)


def test_solve_five_vertex_cograph_full_sweep():
    # join(2K1, 2K1 + K2): all matching pairs against the oracle
    edges = [(3, 4)]
    edges += [(a, b) for a in (0, 1) for b in (2, 3, 4)]
    g = Graph(5, edges)
    by_size = all_matchings_by_size(g)
    for k, ms in by_size.items():
        comp = reconfiguration_components(g, ms, FLIP_SLIDE)
        for i in range(len(ms)):
            for j in range(len(ms)):
                res = solve_cograph(g, ms[i], ms[j])
                assert res.yes == (comp[i] == comp[j])
                if res.yes:
                    assert verify_sequence(g, ms[i], res.sequence, ms[j]).ok


def test_perfect_inputs_emit_no_slides():
    rng = random.Random(21)
    checked = 0
    for _ in range(200):
        g = random_cotree_graph(rng.choice([4, 6, 8]), rng)
        pms = enumerate_matchings(g, "perfect")
        if len(pms) < 2:
            continue
        a, b = rng.sample(pms, 2)
        res = solve_cograph(g, a, b)
        if res.yes:
            assert all(not isinstance(mv, Slide) for mv in res.sequence.moves)
            checked += 1
    assert checked > 20


def test_lift_equivalence_when_conditions_fail():
    # whenever C1 and C2 both fail, reachability must equal reachability
    # of the induced matchings on side A
    rng = random.Random(31)
    seen = 0
    for _ in range(300):
        g = random_cotree_graph(rng.randint(2, 7), rng)
        tree = build_cotree(g)
        if tree.kind != "join":  # connected on >= 2 vertices
            continue
        by_size = all_matchings_by_size(g)
        for k, ms in by_size.items():
            if k == 0:
                continue
            cond = _node_conditions(tree, k)
            if cond.c1 or cond.c2:
                continue
            seen += 1
            comp = reconfiguration_components(g, ms, FLIP_SLIDE)
            cls = [reachability_class(g, m) for m in ms]
            groups = {}
            for i in range(len(ms)):
                groups.setdefault(cls[i], set()).add(comp[i])
            assert all(len(v) == 1 for v in groups.values())
    assert seen > 5


def test_solve_matches_oracle_random_cotrees():
    rng = random.Random(91)
    for _ in range(60):
        g = random_cotree_graph(rng.randint(2, 7), rng)
        a, b = random_matching_pair(g, rng)
        res = solve_cograph(g, a, b)
        orc = reachable(g, a, b, FLIP_SLIDE) if len(a) == len(b) else None
        if orc is None:
            assert not res.yes or a == b
            continue
        assert res.yes == orc.reachable
        if res.yes:
            assert verify_sequence(g, a, res.sequence, b).ok
            assert len(res.sequence) <= 40 * g.n


def _no_pair(shape: str, rng: random.Random):
    """A cograph and two matchings of one size that are not connected.
    "union": two random cotree graphs side by side, the matchings split
    differently between them.  "join": the same two joined to an
    independent set B, |B| < |A|, under perfect matchings that match B into
    A, so that C1 and C2 fail at the root; they split differently on A."""
    g1, g2 = (random_cotree_graph(rng.randint(2, 10 if shape == "join" else 20), rng)
              for _ in range(2))
    m1, m2 = (sorted(reference_max_matching(h)) for h in (g1, g2))
    rng.shuffle(m1)
    rng.shuffle(m2)
    size = rng.randint(1, len(m1) + len(m2) - 1)
    i, j = rng.sample(range(max(0, size - len(m2)), min(len(m1), size) + 1), 2)

    def shift(es):
        return [(u + g1.n, v + g1.n) for u, v in es]

    n = g1.n + g2.n
    edges = [*g1.edges, *shift(g2.edges)]
    pair = [[*m1[:t], *shift(m2[:size - t])] for t in (i, j)]
    if shape == "join":
        bs = range(n, 2 * n - 2 * size)
        edges += [(u, v) for u in range(n) for v in bs]
        pair = [[*m, *zip(sorted(set(range(n)) - {x for e in m for x in e}), bs)]
                for m in pair]
        n += len(bs)
    perm = rng.sample(range(n), n)
    g = Graph(n, [(perm[u], perm[v]) for u, v in edges])
    return (g, *(edge_set((perm[u], perm[v]) for u, v in m) for m in pair))


@settings(max_examples=150)
@given(st.sampled_from(["random", "union", "join"]), st.integers(0, 2**32 - 1))
def test_decision_equals_class_equality(shape, seed):
    # the solver's answer is equality of the two classes, on random pairs
    # (almost always YES) and on the two NO shapes of ``_no_pair``; the
    # oracle agrees up to 10 vertices
    rng = random.Random(seed)
    if shape == "random":
        g = random_cotree_graph(rng.randint(1, 40), rng)
        a, b = random_matching_pair(g, rng)
    else:
        g, a, b = _no_pair(shape, rng)
        assert len(a) == len(b) and g.n <= 40
        if shape == "join":
            assert 2 * len(a) == g.n
    res = solve_cograph(g, a, b)
    assert res.yes == (reachability_class(g, a) == reachability_class(g, b))
    if shape != "random":
        assert not res.yes
    elif res.yes:
        assert verify_sequence(g, a, res.sequence, b).ok
    if g.n <= 10:
        assert reachable(g, a, b, FLIP_SLIDE).reachable == res.yes


def test_class_rejects_a_non_matching():
    k3 = complete_graph(3)
    # two edges at vertex 1: not a matching
    with pytest.raises(SizeMismatchError):
        reachability_class(k3, [(0, 1), (1, 2)])
    # (0, 5) is no edge of the 3-vertex graph
    with pytest.raises(EdgeNotInGraphError):
        reachability_class(k3, [(0, 1), (0, 5)])
    assert reachability_class(k3, [(0, 1)]) == reachability_class(k3, [(1, 2)])


def test_complete_graph_matchings_connected():
    g = complete_graph(6)
    pms = enumerate_matchings(g, "perfect")
    rng = random.Random(1)
    for _ in range(10):
        a, b = rng.choice(pms), rng.choice(pms)
        res = solve_cograph(g, a, b)
        assert res.yes
        assert verify_sequence(g, a, res.sequence, b).ok


@settings(max_examples=150)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.data())
def test_cotree_nu_equals_blossom(n, seed, data):
    # the cotree's matching-size record against blossom, on G minus S for
    # S empty, one vertex or two vertices
    g = random_cotree_graph(n, random.Random(seed))
    removed = data.draw(st.sets(st.integers(0, n - 1), max_size=min(2, n - 1)))
    sub, _ = induced_subgraph(g, set(range(n)) - removed)
    assert build_cotree(sub).nu == len(reference_max_matching(sub))


def _conditions_by_definition(by_size, b, k) -> Conditions:
    # some size-k matching with an edge inside B / missing a B-vertex
    ms = by_size.get(k, [])
    return Conditions(
        any(u in b and v in b for m in ms for (u, v) in m),
        any(not b <= {x for e in m for x in e} for m in ms),
    )


def test_closed_form_conditions_match_brute_force():
    # on every connected cograph with <= 7 vertices
    checked = 0
    for g in connected_cographs(7):
        if g.n < 2:
            continue
        tree = build_cotree(g)
        b = tree.sides()[1].leaves()
        by_size = all_matchings_by_size(g)
        for k in range(g.n // 2 + 2):
            want = _conditions_by_definition(by_size, b, k)
            assert _node_conditions(tree, k) == want, (sorted(g.edges), k)
            checked += 1
    assert checked > 500


def test_deep_threshold_cograph(tmp_path, capsys):
    # vertices alternately isolated and dominating when added: the cotree
    # is a path of depth n, and the (unique) perfect matching makes the
    # solver and the class descend through every level
    n = 1200
    edges = [(u, v) for v in range(1, n, 2) for u in range(v)]
    g = Graph(n, edges)
    assert is_cograph(g)
    pm = edge_set((v - 1, v) for v in range(1, n, 2))
    res = solve_cograph(g, pm, pm)
    assert res.yes and verify_sequence(g, pm, res.sequence, pm).ok
    assert reachability_class(g, pm).count("l") == n // 2
    # a size-300 pair one slide per edge apart
    a = edge_set((v - 1, v) for v in range(3, n, 4))
    b = edge_set((v - 3, v) for v in range(3, n, 4))
    res = solve_cograph(g, a, b)
    assert res.yes and len(res.sequence) > 0
    assert verify_sequence(g, a, res.sequence, b).ok
    assert reachability_class(g, a) == reachability_class(g, b)
    ipath, spath = tmp_path / "deep.json", tmp_path / "seq.json"
    ipath.write_text(json.dumps(instance_to_dict(g, pm, pm)))
    assert main(["solve", "--class", "auto", str(ipath), "--emit-sequence", str(spath)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "YES"
    assert verify_sequence(g, pm, load_sequence(str(spath)), pm).ok


def test_solver_output_pinned():
    # The emitted sequences, hashed.  The cases run C1 anchors with every
    # claim fix (cycles inside A in 30/65 and 60/20, W-patterns in
    # 120/2), a C2 anchor with a lift (40/1) and lone-edge pairs on a
    # threshold graph; any change to a choice rule, to the anchors or to
    # the cancelling pass (``graph._meet``) changes the hash.
    cases = []
    for n, seed in ((20, 47), (30, 65), (40, 1), (60, 20), (120, 2)):
        inst = load_instance(random_cograph_instance(n, seed))
        cases.append((inst.graph, inst.m_ini, inst.m_tar))
    n = 80
    g = Graph(n, [(u, v) for v in range(1, n, 2) for u in range(v)])
    cases.append((g, edge_set((v - 1, v) for v in range(3, n, 4)),
                  edge_set((v - 3, v) for v in range(3, n, 4))))
    h = hashlib.sha256()
    for g, a, b in cases:
        seq = solve_cograph(g, a, b).sequence
        h.update(json.dumps(sequence_to_dict(seq), sort_keys=True).encode())
    assert h.hexdigest() == "eedff83db25cb5d2352e5900bc2f01eb1984ef692c3d81b2f5ee88c996ed9f99"


def _random_move(g: Graph, side, rng: random.Random) -> bool:
    """Apply a random valid slide or 4-cycle flip to ``side``, if any."""
    moves = []
    for x, y in sorted(side.m):
        for piv, other in ((x, y), (y, x)):
            moves += [("slide", (x, y), (piv, w)) for w in sorted(g.adj[piv])
                      if w != other and w not in side.partner]
        for c, d in sorted(side.m):
            if (x, y) < (c, d):
                if c in g.adj[x] and d in g.adj[y]:
                    moves.append(("flip", (x, y, d, c)))
                if d in g.adj[x] and c in g.adj[y]:
                    moves.append(("flip", (x, y, c, d)))
    if not moves:
        return False
    kind, *args = rng.choice(moves)
    getattr(side, kind)(*args)
    return True


def test_shared_difference_map_follows_moves():
    # random flip and slide streams on both sides of a pair: after every
    # move the neighbour map the sides keep must be the one read off the
    # difference's components
    def components(s1, s2):
        comps = symmetric_difference_components(frozenset(s1.m), frozenset(s2.m))
        nbr: dict[int, set[int]] = {}
        for c in comps:
            vs = c.vertices
            pairs = zip(vs, vs[1:] + vs[:1]) if c.kind == "even_cycle" else zip(vs, vs[1:])
            for u, w in pairs:
                nbr.setdefault(u, set()).add(w)
                nbr.setdefault(w, set()).add(u)
        paths = [frozenset(c.vertices) for c in comps if c.kind != "even_cycle"]
        cycles = {frozenset(c.vertices) for c in comps if c.kind == "even_cycle"}
        return nbr, paths, cycles

    def spans(parts, others):
        # whether some part meets two of the others
        return any(sum(1 for o in others if p & o) > 1 for p in parts)

    rng = random.Random(5)
    seen = set()
    for _ in range(40):
        g = random_cotree_graph(rng.randint(4, 12), rng)
        sides = _sides(g, *random_matching_pair(g, rng))
        _, paths, cycles = components(*sides)
        assert sides[0].diff is sides[1].diff
        for _ in range(30):
            if not _random_move(g, rng.choice(sides), rng):
                continue
            nbr, new_paths, new_cycles = components(*sides)
            assert sides[0].diff == nbr
            seen.update(name for name, hit in (
                ("merge", spans(new_paths, paths)),
                ("split", spans(paths, new_paths)),
                ("cycle made", new_cycles - cycles),
                ("cycle undone", cycles - new_cycles),
            ) if hit)
            paths, cycles = new_paths, new_cycles
    assert seen == {"merge", "split", "cycle made", "cycle undone"}


@pytest.mark.parametrize("move", [
    ("flip", (0, 2, 1, 3)),  # no edge of it is matched
    ("flip", (0, 1, 2, 2)),  # not a cycle, refused while the move is built
    ("slide", (0, 2), (0, 3)),  # (0, 2) is not matched
    ("slide", (0, 1), (1, 2)),  # 2 is matched
    ("slide", (0, 1), (2, 3)),  # no shared pivot, refused while built
])
def test_side_move_that_does_not_apply_is_internal(move):
    # a solver's own move that fails is a fault (exit 4), not bad input
    side = _Side(K4, C4_PM1)
    with pytest.raises(RuntimeError, match="^internal: ") as info:
        getattr(side, move[0])(*move[1:])
    assert not isinstance(info.value, MatchFlipError)
    assert side.m == set(C4_PM1) and side.moves == []
