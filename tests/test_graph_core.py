from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from matchflip.errors import (
    DuplicateEdgeError,
    EdgeNotInGraphError,
    InvalidFlipError,
    InvalidSlideError,
    NotPerfectError,
    SelfLoopError,
    SizeMismatchError,
    VertexOutOfRangeError,
)
from matchflip.graph import (
    Flip,
    Graph,
    MODE_FLIP,
    MODE_FLIP_SLIDE,
    MODE_KFLIP,
    MODES,
    ReconfigSequence,
    Slide,
    _meet,
    apply_move,
    canonical_flip,
    check_mode,
    edge_set,
    four_cycles,
    graph_from_adjacency,
    induced_subgraph,
    invert_move,
    matching_partners,
    symmetric_difference_components,
    verify_sequence,
)
from matchflip.oracle import KFLIP_MAX, Mode, enumerate_matchings

from helpers import (
    C4,
    C4_PM1,
    C4_PM2,
    C6,
    C6_PM1,
    C6_PM2,
    is_matching,
    is_perfect,
    path_graph,
    random_graph,
    random_matching_of,
    reference_apply_move,
    reference_symmetric_difference_components,
    reference_verify,
)


def test_validate_graph_c4():
    g = Graph(4, [[0, 1], [1, 2], [2, 3], [3, 0]])
    assert g.n == 4 and g.m == 4
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)


def test_validate_graph_rejections():
    with pytest.raises(SelfLoopError):
        Graph(2, [[0, 0]])
    with pytest.raises(DuplicateEdgeError):
        Graph(3, [[0, 1], [1, 0]])
    with pytest.raises(VertexOutOfRangeError):
        Graph(2, [[0, 2]])


def test_graph_edges_built_on_first_use():
    pairs = [[0, 1], [2, 1], (3, 2), [0, 3], [1, 3]]
    for given_edges in (pairs, set(edge_set(pairs)), (p for p in pairs)):
        g = Graph(4, given_edges)
        assert g.edges == edge_set(pairs) and g.m == len(g.edges) == 5
        assert g.adj == (frozenset({1, 3}), frozenset({0, 2, 3}), frozenset({1, 3}), frozenset({0, 1, 2}))
    mine = [list(p) for p in pairs]
    g = Graph(4, mine)
    mine.append([0, 2])
    del mine[0]
    assert g.edges == edge_set(pairs) and g.m == 5
    h = graph_from_adjacency(g.adj)
    assert (h.n, h.m, h.adj, h.edges) == (g.n, g.m, g.adj, g.edges)
    assert graph_from_adjacency([]).m == 0 and Graph(3, []).edges == frozenset()
    # induced subgraphs: m from the degree sum, edges built on first use in
    # the order of the eager frozenset
    rng = random.Random(5)
    g = random_graph(rng, 40, 0.3)
    for keep in (range(0, 40, 2), rng.sample(range(40), 25), [3], []):
        sub, vmap = induced_subgraph(g, keep)
        want = frozenset((u, w) for u, ws in enumerate(sub.adj) for w in ws if u < w)
        assert sub._edges is None
        assert sub.m == len(want) == sum(u in keep and v in keep for u, v in g.edges)
        assert sub.edges == want and list(sub.edges) == list(want)
        assert {(vmap[u], vmap[v]) for u, v in sub.edges} == {e for e in g.edges if set(e) <= set(keep)}


def test_duplicate_edge_error_names_the_first_duplicate():
    with pytest.raises(DuplicateEdgeError, match=r"duplicate edge \(1, 2\)$"):
        Graph(4, [[0, 1], [2, 1], [3, 0], [1, 2], [0, 3]])


def test_matching_partners():
    assert matching_partners(C4, [(0, 1), (2, 3)]) == {0: 1, 1: 0, 2: 3, 3: 2}
    assert is_perfect(C4, [(0, 1), (2, 3)])
    assert matching_partners(C4, [(0, 1)]) == {0: 1, 1: 0}  # a matching of size 1
    assert not is_perfect(C4, [(0, 1)])
    assert matching_partners(C4, [(0, 1), (1, 0), (0, 1)]) == {0: 1, 1: 0}
    assert matching_partners(C4, []) == {}
    for shared in ([(0, 1), (1, 2)], [(1, 2), (0, 1)]):
        with pytest.raises(SizeMismatchError, match="input is not a matching"):
            matching_partners(C4, shared)
    # every edge is checked, also after a shared vertex
    with pytest.raises(EdgeNotInGraphError, match=r"edge \(0, 2\) not in graph"):
        matching_partners(C4, [(0, 1), (1, 2), (2, 0)])
    for bad in ([(0, 2)], [(0, 4)], [(-1, 0)], [(1, 1)]):
        with pytest.raises(EdgeNotInGraphError):
            matching_partners(C4, bad)
    assert matching_partners(C4, C4_PM2, perfect=True) == {0: 3, 3: 0, 1: 2, 2: 1}
    for bad in ([], [(0, 1)], [(0, 1), (1, 2)]):
        with pytest.raises(NotPerfectError, match="both input matchings must be perfect"):
            matching_partners(C4, bad, perfect=True)


def test_every_entry_point_refuses_a_bad_matching_alike():
    # C4 is a cograph, outerplanar and strongly orderable, so every entry
    # point that takes a matching takes C4's; a bad matching on either side
    # is refused with the same class everywhere
    from matchflip.cograph import reachability_class, solve_cograph
    from matchflip.hardness import k_factor_instance
    from matchflip.oracle import reachable
    from matchflip.outerplanar import solve_outerplanar
    from matchflip.strongly_orderable import solve_strongly_orderable

    flip = Flip((0, 1, 2, 3))
    entry_points = [  # a call on two matchings, and whether it takes perfect ones only
        (lambda a, b: [matching_partners(C4, m) for m in (a, b)], False),
        (lambda a, b: [matching_partners(C4, m, perfect=True) for m in (a, b)], True),
        (lambda a, b: [apply_move(C4, m, flip) for m in (a, b)], False),
        (lambda a, b: [reachability_class(C4, m) for m in (a, b)], False),
        (lambda a, b: reachable(C4, a, b), False),
        (lambda a, b: solve_cograph(C4, a, b), False),
        (lambda a, b: solve_outerplanar(C4, a, b), True),
        (lambda a, b: solve_strongly_orderable(C4, (0, 1, 2, 3), a, b), True),
        (lambda a, b: k_factor_instance(C4, a, b, 3), True),
    ]
    bad_inputs = [  # a bad matching, the error where any matching goes, where perfect ones only
        ([(1, 2), (0, 2)], EdgeNotInGraphError, EdgeNotInGraphError),  # (0, 2) also shares vertex 2
        ([(0, 1), (1, 2)], SizeMismatchError, NotPerfectError),
        ([(0, 1)], None, NotPerfectError),
    ]
    empty = ReconfigSequence(MODE_FLIP, ())
    for bad, error, perfect_error in bad_inputs:
        for a, b in ((bad, C4_PM1), (C4_PM1, bad)):
            for call, perfect in entry_points:
                want = perfect_error if perfect else error
                if want is not None:
                    with pytest.raises(want):
                        call(a, b)
            if error is not None:
                assert verify_sequence(C4, edge_set(a), empty, edge_set(b)).reason == "invalid_matching"
    for call, _ in entry_points:  # the good pair passes everywhere
        call(C4_PM1, C4_PM2)


@pytest.mark.parametrize("cls", ["cograph", "outerplanar", "interval"])
def test_solver_output_depends_only_on_the_sets(cls):
    # a solver reads the graph and the two matchings as sets of edges:
    # shuffling their edge lists and turning every pair round leaves the
    # emitted sequence as it is
    from matchflip.cograph import solve_cograph
    from matchflip.generators import (
        random_cograph_instance, random_interval_instance, random_outerplanar_instance,
    )
    from matchflip.outerplanar import solve_outerplanar
    from matchflip.strongly_orderable import solve_strongly_orderable

    make, solve = {
        "cograph": (random_cograph_instance,
                    lambda g, a, b, hints: solve_cograph(g, a, b).sequence),
        "outerplanar": (random_outerplanar_instance,
                        lambda g, a, b, hints: solve_outerplanar(g, a, b).sequence),
        "interval": (random_interval_instance, lambda g, a, b, hints:
                     solve_strongly_orderable(g, hints["strong_order"], a, b)),
    }[cls]
    rng = random.Random(17)
    yes = 0
    for seed in range(8):
        data = make(rng.randint(10, 160), seed)
        hints = data.get("hints")
        want = solve(Graph(data["n"], data["edges"]), data["m_ini"], data["m_tar"], hints)
        yes += want is not None
        for _ in range(3):
            edges, m1, m2 = ([[v, u] for u, v in rng.sample(data[key], len(data[key]))]
                             for key in ("edges", "m_ini", "m_tar"))
            assert solve(Graph(data["n"], edges), m1, m2, hints) == want, (cls, seed)
    assert yes >= 3


def test_apply_flip_c4():
    assert apply_move(C4, C4_PM1, Flip((0, 1, 2, 3))) == C4_PM2


def test_apply_slide_path():
    p3 = path_graph(3)
    assert apply_move(p3, edge_set([(0, 1)]), Slide((0, 1), (1, 2))) == edge_set([(1, 2)])


def test_flip_missing_edge_rejected():
    with pytest.raises(InvalidFlipError):
        apply_move(C6, C6_PM1, Flip((0, 1, 2, 3)))  # edge (3, 0) absent in C6


def test_slide_rejections():
    p3 = path_graph(3)
    with pytest.raises(InvalidSlideError):
        apply_move(p3, edge_set([(0, 1), (1, 2)]) - {(0, 1)}, Slide((0, 1), (1, 2)))
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InvalidSlideError):
        # far endpoint already matched
        apply_move(g, edge_set([(0, 1), (2, 3)]), Slide((0, 1), (1, 2)))


def test_apply_move_rejects_a_non_matching():
    # three edges of C4 share vertices 1 and 2: no matching, as the
    # verifier's invalid_matching says of the same input
    with pytest.raises(SizeMismatchError, match="input is not a matching"):
        apply_move(C4, edge_set([(0, 1), (1, 2), (2, 3)]), Flip((0, 1, 2, 3)))
    seq = ReconfigSequence(MODE_FLIP, (Flip((0, 1, 2, 3)),))
    assert verify_sequence(C4, edge_set([(0, 1), (1, 2), (2, 3)]), seq, C4_PM2).reason == "invalid_matching"


def test_flip_involution_and_preservation_random():
    rng = random.Random(2024)
    for _ in range(250):
        g = random_graph(rng, rng.randint(4, 12), rng.uniform(0.2, 0.8))
        matchings = enumerate_matchings(g, rng.randint(0, max(0, g.n // 2)), budget=200000)
        if not matchings:
            continue
        m = rng.choice(matchings)
        cycles = four_cycles(g)
        rng.shuffle(cycles)
        for cyc in cycles[:5]:
            fl = canonical_flip(cyc)
            try:
                m2 = apply_move(g, m, fl)
            except InvalidFlipError:
                continue
            assert len(m2) == len(m)
            assert is_matching(g, m2)
            assert apply_move(g, m2, fl) == m  # involution
            diff = symmetric_difference_components(m, m2)
            assert len(diff) == 1 and diff[0].kind == "even_cycle"
            assert len(diff[0].vertices) == 4


def test_symmetric_difference_examples():
    comps = symmetric_difference_components(C4_PM1, C4_PM2)
    assert len(comps) == 1 and comps[0].kind == "even_cycle"
    assert sorted(comps[0].vertices) == [0, 1, 2, 3]
    assert symmetric_difference_components(C4_PM1, C4_PM1) == []
    comps = symmetric_difference_components(C6_PM1, C6_PM2)
    assert len(comps) == 1 and comps[0].kind == "even_cycle"
    assert len(comps[0].vertices) == 6


def test_symmetric_difference_structure_random():
    rng = random.Random(7)
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 11), rng.uniform(0.2, 0.9))
        ms = enumerate_matchings(g, rng.randint(0, g.n // 2), budget=100000)
        if len(ms) < 2:
            continue
        m1, m2 = rng.sample(ms, 2)
        comps = symmetric_difference_components(m1, m2)
        assert sum(c.edge_count for c in comps) == len(m1 ^ m2)
        for c in comps:
            if c.kind == "even_cycle":
                assert len(c.vertices) % 2 == 0 and len(c.vertices) >= 4
            # edges alternate between the two matchings
            vs = c.vertices
            edges = [
                tuple(sorted((vs[i], vs[(i + 1) % len(vs)])))
                for i in range(len(vs) if c.kind == "even_cycle" else len(vs) - 1)
            ]
            sides = [e in m1 for e in edges]
            for a, b in zip(sides, sides[1:]):
                assert a != b


@settings(max_examples=400)
@given(
    st.integers(0, 14),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["other", "same", "empty", "part"]),
)
def test_symmetric_difference_matches_reference(n, seed, pair):
    """One walk per component returns exactly the two-pass walk's list:
    kinds, order and each component's vertex order, on matchings that
    need not be perfect, and on empty and identical pairs."""
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.2, 0.9))
    m1 = random_matching_of(g, rng)
    m2 = {
        "other": lambda: random_matching_of(g, rng),
        "same": lambda: m1,
        "empty": lambda: frozenset(),
        "part": lambda: frozenset(e for e in m1 if rng.random() < 0.5),
    }[pair]()
    for a, b in ((m1, m2), (m2, m1)):
        assert symmetric_difference_components(a, b) == reference_symmetric_difference_components(a, b)


def test_flip_adjacency_iff_single_4cycle():
    rng = random.Random(99)
    for _ in range(120):
        g = random_graph(rng, rng.randint(4, 9), rng.uniform(0.3, 0.9))
        pms = enumerate_matchings(g, "perfect")
        for i in range(len(pms)):
            for j in range(i + 1, len(pms)):
                comps = symmetric_difference_components(pms[i], pms[j])
                single4 = len(comps) == 1 and comps[0].kind == "even_cycle" and len(comps[0].vertices) == 4
                adjacent = False
                if comps and comps[0].kind == "even_cycle" and len(comps[0].vertices) == 4:
                    try:
                        adjacent = apply_move(g, pms[i], canonical_flip(comps[0].vertices)) == pms[j]
                    except InvalidFlipError:
                        adjacent = False
                assert single4 == adjacent


def test_verify_sequence_examples():
    seq = ReconfigSequence(MODE_FLIP, (Flip((0, 1, 2, 3)),))
    assert verify_sequence(C4, C4_PM1, seq, C4_PM2).ok

    empty = ReconfigSequence(MODE_FLIP, ())
    v = verify_sequence(C4, C4_PM1, empty, C4_PM2)
    assert not v.ok and v.step == 0 and v.reason == "final_mismatch"

    slide_seq = ReconfigSequence(MODE_FLIP, (Slide((0, 1), (1, 2)),))
    v = verify_sequence(C4, C4_PM1, slide_seq, C4_PM2)
    assert not v.ok and v.step == 0 and v.reason == "mode_violation"


def test_verify_sequence_replays():
    rng = random.Random(31)
    from matchflip.oracle import FLIP_SLIDE, reachable

    for _ in range(60):
        g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.3, 0.9))
        ms = enumerate_matchings(g, rng.randint(1, max(1, g.n // 2)), budget=50000)
        if len(ms) < 2:
            continue
        a, b = rng.sample(ms, 2)
        res = reachable(g, a, b, FLIP_SLIDE, want_path=True)
        if not res.reachable:
            continue
        assert verify_sequence(g, a, res.sequence, b).ok
        cur = a
        for mv in res.sequence.moves:
            cur = apply_move(g, cur, mv)
        assert cur == b


def test_kflip_mode_verification():
    seq = ReconfigSequence("kflip", (Flip((0, 1, 2, 3, 4, 5)),), k=6)
    assert verify_sequence(C6, C6_PM1, seq, C6_PM2).ok
    wrong = ReconfigSequence("kflip", (Flip((0, 1, 2, 3)),), k=6)
    v = verify_sequence(C6, C6_PM1, wrong, C6_PM2)
    assert not v.ok and v.reason == "mode_violation"


def test_one_rule_admits_a_mode():
    with pytest.raises(ValueError):
        ReconfigSequence(MODE_FLIP, (), 6)
    # a sequence and the oracle's mode admit the same pairs, the oracle
    # only capping k
    for kind in MODES + ("flips",):
        for k in (None, 0, 2, 4, 5, 6, 6.0, True, KFLIP_MAX, KFLIP_MAX + 2):
            try:
                check_mode(kind, k)
                ok = True
            except ValueError:
                ok = False
            assert ok == (kind in MODES and (k is None) != (kind == MODE_KFLIP)
                          and (k is None or type(k) is int and k >= 4 and k % 2 == 0))
            for make, admits in ((lambda: ReconfigSequence(kind, (), k), ok),
                                 (lambda: Mode(kind, k), ok and (k or 0) <= KFLIP_MAX)):
                if admits:
                    make()
                else:
                    with pytest.raises(ValueError):
                        make()


def test_generator_outputs_pinned():
    # The canonical instance files of each family at a few sizes, seeds
    # 0-4, hashed: a change in the iteration order of ``Graph.adj`` or
    # ``Graph.edges`` changes what the generators emit.
    from matchflip.generators import (
        random_cograph_instance,
        random_interval_instance,
        random_outerplanar_instance,
    )
    from matchflip.io import dumps_canonical

    want = {
        "interval": "f46790f934d6999cd15db8316cb51b4f8487293bae0b3470f86dd598800bf84d",
        "outerplanar": "af2afa28c1b7e05e7cf7eb787932dd5140f2348b22cbe628171c970a09292c99",
        "cograph": "10223e8f7804549c242c57fca28e03dd0290f6cf835f3da198768e2411286056",
    }
    families = (("interval", random_interval_instance, (12, 90, 500)),
                ("outerplanar", random_outerplanar_instance, (10, 64, 300)),
                ("cograph", random_cograph_instance, (9, 40, 120)))
    for name, make, sizes in families:
        h = hashlib.sha256()
        for n in sizes:
            for seed in range(5):
                h.update(dumps_canonical(make(n, seed)).encode())
        assert h.hexdigest() == want[name], name


def test_load_solve_verify_never_build_the_edge_set(tmp_path, capsys, monkeypatch):
    from matchflip.cli import main
    from matchflip.cograph import solve_cograph
    from matchflip.generators import (
        random_cograph_instance,
        random_interval_instance,
        random_outerplanar_instance,
    )
    from matchflip.io import load_instance
    from matchflip.outerplanar import solve_outerplanar
    from matchflip.strongly_orderable import solve_strongly_orderable

    data = [random_interval_instance(60, 1), random_outerplanar_instance(60, 2),
            random_cograph_instance(30, 3)]

    def refuse(g):
        raise AssertionError("Graph.edges was built")

    monkeypatch.setattr(Graph, "edges", property(refuse))
    for i, d in enumerate(data):
        path, seq_path = tmp_path / f"inst{i}.json", str(tmp_path / f"seq{i}.json")
        path.write_text(json.dumps(d))
        assert main(["solve", str(path), "--emit-sequence", seq_path]) == 0, capsys.readouterr()
        assert main(["verify", str(path), seq_path]) == 0, capsys.readouterr()
        inst = load_instance(d)
        g, a, b = inst.graph, inst.m_ini, inst.m_tar
        if i == 0:
            seq = solve_strongly_orderable(g, inst.hints["strong_order"], a, b)
        else:
            seq = (solve_outerplanar if i == 1 else solve_cograph)(g, a, b).sequence
        assert verify_sequence(g, a, seq, b).ok
        assert is_matching(g, a)


def test_empty_graph_identity():
    g = Graph(0, [])
    assert is_perfect(g, [])
    assert verify_sequence(g, frozenset(), ReconfigSequence(MODE_FLIP_SLIDE, ()), frozenset()).ok


def test_empty_graph_through_all_solvers():
    from matchflip.cograph import solve_cograph
    from matchflip.outerplanar import solve_outerplanar
    from matchflip.strongly_orderable import solve_strongly_orderable

    g = Graph(0, [])
    empty = frozenset()
    assert solve_outerplanar(g, empty, empty).yes
    assert solve_cograph(g, empty, empty).yes
    assert len(solve_strongly_orderable(g, (), empty, empty)) == 0


def _valid_moves(g: Graph, m: frozenset, mode: str, k: int) -> list:
    """Every flip of the mode's cycle length (and, under flip_slide, every
    slide) that applies to ``m``; cycles are lists of matched edges joined
    by graph edges."""
    partner = matching_partners(g, m)
    length = k if mode == MODE_KFLIP else 4
    moves = []

    def grow(cycle):
        if len(cycle) == length:
            if cycle[0] in g.adj[cycle[-1]]:
                moves.append(canonical_flip(cycle))
            return
        for w in g.adj[cycle[-1]]:
            if w in partner and w not in cycle and partner[w] not in cycle:
                grow(cycle + [w, partner[w]])

    for a, b in m:
        grow([a, b])
    if mode == MODE_FLIP_SLIDE:
        for a, b in m:
            for pivot, other in ((a, b), (b, a)):
                moves += [Slide((pivot, other), (pivot, w)) for w in g.adj[pivot] if w not in partner]
    return sorted(set(moves), key=repr)


def _noise_move(rng: random.Random, n: int, k: int):
    """An arbitrary well-formed move on 0..n-1 (n >= 4), valid or not."""
    if rng.random() < 0.5:
        p, a, b = rng.sample(range(n), 3)
        return Slide((p, a), (p, b))
    return Flip(tuple(rng.sample(range(n), min(n, rng.choice([4, 6, k or 4])) // 2 * 2)))


@settings(max_examples=400)
@given(
    st.integers(4, 9),
    st.integers(0, 2**32 - 1),
    st.sampled_from([MODE_FLIP, MODE_FLIP_SLIDE, MODE_KFLIP]),
    st.sampled_from(["intact", "replace", "insert", "drop", "swap", "target", "truncate"]),
)
def test_verifier_matches_reference_replay(n, seed, mode, mutation):
    """The partner-map verifier gives the same Verdict (ok, step, reason)
    as replaying frozensets move by move, on walks and their mutations;
    along the walk, apply_move agrees with the frozenset step."""
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.4, 0.95))
    k = 6 if mode == MODE_KFLIP else None
    m_ini = random_matching_of(g, rng)
    cur, moves = m_ini, []
    for _ in range(rng.randint(0, 8)):
        options = _valid_moves(g, cur, mode, k)
        if not options:
            break
        mv = rng.choice(options)
        nxt = reference_apply_move(g, cur, mv)
        assert apply_move(g, cur, mv) == nxt
        cur = nxt
        moves.append(mv)
    m_tar = cur
    at = rng.randrange(len(moves) + 1)
    if mutation in ("replace", "insert"):
        moves[at:at + (mutation == "replace")] = [_noise_move(rng, n, k)]
    elif mutation == "drop" and moves:
        del moves[min(at, len(moves) - 1)]
    elif mutation == "swap" and len(moves) >= 2:
        i, j = rng.sample(range(len(moves)), 2)
        moves[i], moves[j] = moves[j], moves[i]
    elif mutation == "target":
        m_tar = random_matching_of(g, rng) if rng.random() < 0.7 else m_tar | {rng.choice(sorted(g.edges))}
    elif mutation == "truncate":
        moves = moves[:at]
    seq = ReconfigSequence(mode, tuple(moves), k)
    assert verify_sequence(g, m_ini, seq, m_tar) == reference_verify(g, m_ini, seq, m_tar)


def test_meet_cancels_inverse_pairs_past_disjoint_moves():
    a, b, c = Flip((0, 1, 2, 3)), Flip((4, 5, 6, 7)), Flip((2, 3, 4, 5))
    assert _meet([a, b, a], []) == [b]  # b is disjoint from a
    assert _meet([a, b], [a]) == [b]  # the backward half's a, inverted
    assert _meet([a, c, a], []) == [a, c, a]  # c shares 2 and 3 with a
    s, s_inv = Slide((0, 1), (1, 2)), Slide((1, 2), (0, 1))
    assert _meet([s, s_inv], []) == [] and _meet([s], [s]) == []
    assert _meet([s, b, s_inv], []) == [b]
    assert _meet([s, s], []) == [s, s]  # a slide is not its own inverse
    assert _meet([s, a, s_inv], []) == [s, a, s_inv]
    # nested pairs a c c^-1 a^-1 vanish, also when c blocks a on its own
    assert _meet([a, c], [a, c]) == []
    assert _meet([s, c, c, s_inv], []) == []
    assert _meet([s, a], []) == [s, a]  # a flip never undoes a slide
    assert _meet([], []) == []


def _cancel_to_fixpoint(moves: list) -> list:
    """Cancel any move and a later inverse with only vertex-disjoint moves
    between them, one pair at a time, until no pair is left."""
    moves = list(moves)
    verts = [set(mv.cycle) if isinstance(mv, Flip) else set(mv.removed + mv.added) for mv in moves]
    found = True
    while found:
        found = False
        for i in range(len(moves)):
            for j in range(i + 1, len(moves)):
                if moves[j] == invert_move(moves[i]):
                    del moves[j], moves[i], verts[j], verts[i]
                    found = True
                    break
                if verts[j] & verts[i]:
                    break
            if found:
                break
    return moves


@settings(max_examples=300)
@given(st.integers(4, 9), st.integers(0, 2**32 - 1), st.sampled_from([MODE_FLIP, MODE_FLIP_SLIDE]))
def test_meet_output_verifies_and_is_a_fixpoint(n, seed, mode):
    """Random valid walks, with moves undone at random further on, split
    into a forward and a backward half: the glued sequence verifies, is
    never longer, a second pass changes nothing, and pair-at-a-time
    cancellation reaches the same length."""
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.4, 0.95))
    m_ini = cur = random_matching_of(g, rng)
    moves = []
    for _ in range(rng.randint(0, 14)):
        options = _valid_moves(g, cur, mode, None)
        undo = [invert_move(mv) for mv in moves if invert_move(mv) in options]
        if undo and rng.random() < 0.5:
            mv = rng.choice(undo)  # an inverse pair spliced in
        elif options:
            mv = rng.choice(options)
        else:
            break
        cur = apply_move(g, cur, mv)
        moves.append(mv)
    k = rng.randint(0, len(moves))
    out = _meet(moves[:k], [invert_move(mv) for mv in reversed(moves[k:])])
    assert verify_sequence(g, m_ini, ReconfigSequence(mode, tuple(out)), cur).ok
    assert len(out) <= len(moves)
    assert _meet(list(out), []) == out
    assert len(_cancel_to_fixpoint(moves)) == len(out)
