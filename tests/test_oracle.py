from __future__ import annotations

import collections
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from matchflip.cli import main
from matchflip.errors import BudgetExceededError, EdgeNotInGraphError, SizeMismatchError
from matchflip.generators import random_cotree_graph, random_matching_pair
from matchflip.graph import Graph, edge, edge_set, four_cycles, verify_sequence
from matchflip.hardness import (
    configuration_components,
    enumerate_configurations,
    enumerate_k_factors,
    k4_or_machine,
    reduce_ncl_to_pmr,
)
from matchflip import oracle
from matchflip.io import instance_to_dict
from matchflip.oracle import (
    FLIP_ONLY,
    FLIP_SLIDE,
    MaskSpace,
    ReachResult,
    _factors,
    _neighbors,
    enumerate_matchings,
    kflip,
    reachable,
    reconfiguration_components,
    reconfiguration_stats,
)

from helpers import (
    C4,
    C4_PM1,
    C6,
    C6_CHORD,
    C6_PM1,
    C6_PM2,
    K4,
    all_matchings_by_size,
    complete_graph,
    path_graph,
    random_graph,
    reference_distance,
    reference_flip_neighbor_masks,
    reference_kflip_neighbor_masks,
    reference_slide_neighbor_masks,
    reference_stats,
)


def test_enumerate_perfect_k4():
    pms = enumerate_matchings(K4, "perfect")
    assert [sorted(m) for m in pms] == [
        [(0, 1), (2, 3)],
        [(0, 2), (1, 3)],
        [(0, 3), (1, 2)],
    ]


@settings(max_examples=300)
@given(st.integers(0, 10), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
def test_enumerators_yield_in_lexicographic_order(n, p, seed):
    # enumerate_matchings returns them as found: the one search must yield
    # sorted edge tuples, the tuples in increasing order, for every count
    # of bare vertices (test_enumerators_match_brute_force checks k-factors)
    g = random_graph(random.Random(seed), n, p)
    for spare in range(n + 1):
        found = list(_factors(g, 1, spare, 10**6))
        assert all(list(m) == sorted(m) for m in found)
        assert found == sorted(found)
        assert len(set(found)) == len(found)


@settings(max_examples=150)
@given(st.integers(0, 8), st.integers(0, 12), st.integers(0, 2**32 - 1))
def test_enumerators_match_brute_force(n, m, seed):
    # every edge subset, filed under each (k, spare) it fits: its vertices
    # have degree k or none, spare of them none; combinations of the sorted
    # edges come in lexicographic order, and all of one (k, spare) share a size
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph(n, random.Random(seed).sample(pairs, min(m, len(pairs))))
    want = collections.defaultdict(list)
    for size in range(g.m + 1):
        for sub in itertools.combinations(g.sorted_edges(), size):
            deg = collections.Counter(v for e in sub for v in e)
            for k in (1, 2, 3):
                if set(deg.values()) <= {k}:
                    want[k, n - len(deg)].append(list(sub))
    for k in (1, 2, 3):
        for spare in range(n + 1):
            assert [list(f) for f in _factors(g, k, spare, 10**6)] == want[k, spare]

    def listed(found):
        return [sorted(f) for f in found]

    for size in range(n // 2 + 1):
        assert listed(enumerate_matchings(g, size)) == want[1, n - 2 * size]
    assert listed(enumerate_matchings(g, "perfect")) == want[1, 0]
    for k in (2, 3):
        assert listed(enumerate_k_factors(g, k)) == want[k, 0]


def test_enumerate_perfect_c6():
    assert len(enumerate_matchings(C6, "perfect")) == 2


def test_enumerate_size_classes():
    assert len(enumerate_matchings(C4, 1)) == 4
    assert enumerate_matchings(C4, 0) == [frozenset()]


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_matchings(K4, 1, budget=2)


def test_reachable_k4_distance_one():
    res = reachable(K4, C4_PM1, edge_set([(0, 2), (1, 3)]), FLIP_ONLY, want_path=True)
    assert res.reachable and res.distance == 1
    assert verify_sequence(K4, C4_PM1, res.sequence, edge_set([(0, 2), (1, 3)])).ok


def test_reachable_c6_no():
    assert not reachable(C6, C6_PM1, C6_PM2).reachable


def test_reachable_c6_chord_distance_two():
    # all three perfect matchings of C6 plus chord (0, 3), distance 2 via
    # the matching using the chord
    pms = enumerate_matchings(C6_CHORD, "perfect")
    assert len(pms) == 3
    res = reachable(C6_CHORD, C6_PM1, C6_PM2, want_path=True)
    assert res.reachable and res.distance == 2
    assert verify_sequence(C6_CHORD, C6_PM1, res.sequence, C6_PM2).ok


def test_reachable_size_mismatch():
    # every move keeps a matching's size: matchings of two sizes are NO,
    # after the budget is checked as the search checks it; a non-matching
    # is still refused
    for mode in (FLIP_ONLY, FLIP_SLIDE, kflip(6)):
        assert reachable(C4, edge_set([(0, 1)]), C4_PM1, mode) == ReachResult(False)
        assert reachable(C4, C4_PM1, edge_set([(1, 2)]), mode, budget=2) == ReachResult(False)
        with pytest.raises(BudgetExceededError):
            reachable(C4, edge_set([(0, 1)]), C4_PM1, mode, budget=1)
    with pytest.raises(SizeMismatchError):
        reachable(C4, edge_set([(0, 1), (1, 2)]), C4_PM1, FLIP_SLIDE)


def test_reachable_symmetric_random():
    rng = random.Random(5)
    for _ in range(80):
        g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.3, 0.9))
        ms = enumerate_matchings(g, rng.randint(1, max(1, g.n // 2)))
        if len(ms) < 2:
            continue
        a, b = rng.sample(ms, 2)
        mode = rng.choice([FLIP_ONLY, FLIP_SLIDE])
        assert reachable(g, a, b, mode).reachable == reachable(g, b, a, mode).reachable


def test_kflip_c6():
    res = reachable(C6, C6_PM1, C6_PM2, kflip(6), want_path=True)
    assert res.reachable and res.distance == 1
    assert verify_sequence(C6, C6_PM1, res.sequence, C6_PM2).ok
    assert not reachable(C6, C6_PM1, C6_PM2, kflip(8)).reachable


def test_kflip4_equals_fliponly_on_perfect():
    rng = random.Random(13)
    for _ in range(40):
        g = random_graph(rng, rng.choice([4, 6, 8]), rng.uniform(0.4, 0.9))
        pms = enumerate_matchings(g, "perfect")
        if len(pms) < 2:
            continue
        a, b = rng.sample(pms, 2)
        assert reachable(g, a, b, FLIP_ONLY).reachable == reachable(g, a, b, kflip(4)).reachable


def test_kflip_neighbor_masks_against_flips():
    """On every matching of a few random graphs: k = 4 finds exactly the
    4-cycle flips, and k = 6 finds no neighbour twice.  Slide and k-flip
    neighbours come in the order of the reference generators, which test
    every edge index and search recursively."""
    rng = random.Random(29)
    checked = 0
    for _ in range(8):
        g = random_graph(rng, rng.choice([6, 7, 8]), rng.uniform(0.5, 0.9))
        space = MaskSpace(g)
        for ms in all_matchings_by_size(g).values():
            for m in ms:
                mask = space.to_mask(m)
                assert space.to_edges(mask) == m
                flips = reference_flip_neighbor_masks(space, mask)
                four = _neighbors(space, mask, kflip(4))
                assert sorted(four) == sorted(flips)
                six = _neighbors(space, mask, kflip(6))
                assert len(six) == len(set(six))
                checked += len(six)
                for k in (4, 6, 8):
                    assert (_neighbors(space, mask, kflip(k))
                            == reference_kflip_neighbor_masks(space, mask, k))
                slides = _neighbors(space, mask, FLIP_SLIDE)[len(flips):]
                assert slides == reference_slide_neighbor_masks(space, mask)
    assert checked > 0


def test_flip_neighbors_against_reference_scan():
    """The bit-sliced flips equal a test of every 4-cycle, as lists in the
    same order: on every matching and every 2-factor of random graphs, and
    on random edge subsets, some of which hold one pair of a cycle and an
    edge of the other (which does not flip)."""
    rng = random.Random(53)
    factors = subsets = blocked = 0
    for _ in range(30):
        g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.3, 1.0))
        space = MaskSpace(g)
        masks = [space.to_mask(m) for ms in all_matchings_by_size(g).values() for m in ms]
        two = [space.to_mask(f) for f in _factors(g, 2, 0, 10**6)]
        factors += len(two)
        masks += two
        for _ in range(60):
            masks.append(rng.getrandbits(len(space.edges)))
            subsets += 1
            held = [sum(masks[-1] >> space.index[edge(c[i - 1], c[i])] & 1 for i in range(4))
                    for c in four_cycles(g)]
            blocked += 3 in held
        for mask in masks:
            assert _neighbors(space, mask, FLIP_ONLY) == reference_flip_neighbor_masks(space, mask)
    assert factors and blocked > subsets // 10


@settings(max_examples=400)
@given(st.booleans(), st.sampled_from([FLIP_ONLY, FLIP_SLIDE, kflip(4), kflip(6)]),
       st.integers(0, 2**32 - 1))
def test_reachable_matches_one_ended_reference(largest, mode, seed):
    # the two-ended search answers as a plain BFS from the start does, at
    # the same distance, and its path is a verified sequence of that length;
    # pairs are of the largest size (perfect when the graph has a perfect
    # matching) or of a random size, distinct where the size allows
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.3, 1.0))
    by_size = all_matchings_by_size(g)
    sizes = [s for s in sorted(by_size) if len(by_size[s]) > 1] or sorted(by_size)
    ms = by_size[sizes[-1] if largest else rng.choice(sizes)]
    a, b = rng.sample(ms, 2) if len(ms) > 1 and rng.random() < 0.95 else (ms[0], ms[0])
    expect = reference_distance(g, a, b, mode)
    res = reachable(g, a, b, mode, want_path=True)
    assert res.reachable == (expect is not None)
    if res.reachable:
        assert res.distance == expect == len(res.sequence)
        assert verify_sequence(g, a, res.sequence, b).ok


def test_kflip_search_leaves_cycle_table_unbuilt(monkeypatch):
    # k-flip neighbours come from the alternating-cycle search alone, so a
    # k-flip call never builds the 4-cycle table; a flip call builds it,
    # and a 4-flip is a flip: the distances agree with a one-ended search
    spaces = []

    class Recording(oracle.MaskSpace):
        def __init__(self, g):
            super().__init__(g)
            spaces.append(self)

    monkeypatch.setattr(oracle, "MaskSpace", Recording)
    rng = random.Random(41)
    pairs = 0
    while pairs < 25:
        g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.4, 1.0))
        ms = max(all_matchings_by_size(g).items())[1]
        if len(ms) < 2:
            continue
        a, b = rng.sample(ms, 2)
        pairs += 1
        for k in (4, 6):
            del spaces[:]
            res = reachable(g, a, b, kflip(k))
            assert res.distance == reference_distance(g, a, b, kflip(k))
            assert spaces and all("cycle_table" not in vars(s) for s in spaces)
        del spaces[:]
        res = reachable(g, a, b, FLIP_ONLY)
        assert res.distance == reference_distance(g, a, b, kflip(4))
        assert "cycle_table" in vars(spaces[0])  # reachable's own space


def test_two_ended_search_expands_fewer_and_repeats(monkeypatch):
    # the reduced k4_or machine from its first configuration to every other
    # one in its component; an expansion is one call of ``_steps``, which
    # the two-ended search makes itself and the one-ended reference makes
    # through ``_neighbors``
    machine = k4_or_machine()
    confs = enumerate_configurations(machine)
    comp = configuration_components(machine)
    insts = [reduce_ncl_to_pmr(machine, confs[0], c) for c in confs[1:] if comp[c] == comp[confs[0]]]
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return steps(*args)

    steps = oracle._steps
    monkeypatch.setattr(oracle, "_steps", counting)
    assert len(insts) >= 20
    ours = theirs = 0
    for inst in insts:
        calls[0] = 0
        res = reachable(inst.graph, inst.m_ini, inst.m_tar)
        ours += calls[0]
        calls[0] = 0
        assert res.distance == reference_distance(inst.graph, inst.m_ini, inst.m_tar, FLIP_ONLY)
        theirs += calls[0]
    assert 0 < ours < theirs
    far = max(insts, key=lambda i: len(i.m_ini ^ i.m_tar))
    first, again = (reachable(far.graph, far.m_ini, far.m_tar, want_path=True) for _ in range(2))
    assert first.sequence == again.sequence
    assert verify_sequence(far.graph, far.m_ini, first.sequence, far.m_tar).ok


def test_enumeration_deep_path(tmp_path, capsys):
    g = path_graph(3000)
    pms = enumerate_matchings(g, "perfect")
    assert pms == [edge_set((2 * i, 2 * i + 1) for i in range(1500))]
    path = tmp_path / "path.json"
    path.write_text(json.dumps(instance_to_dict(g, pms[0], pms[0])))
    assert main(["stats", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["nodes"] == 1


def test_stats_examples():
    st = reconfiguration_stats(K4, "perfect", FLIP_ONLY)
    assert (st.nodes, st.components, st.diameter) == (3, 1, 1)
    st = reconfiguration_stats(C6, "perfect", FLIP_ONLY)
    assert (st.nodes, st.components) == (2, 2)
    assert sum(st.component_sizes) == st.nodes
    st = reconfiguration_stats(C6, "perfect", kflip(6))
    assert (st.nodes, st.components, st.diameter) == (2, 1, 1)


def test_stats_source_component():
    st = reconfiguration_stats(C6, "perfect", FLIP_ONLY, source=C6_PM1)
    assert st.diameter == 0  # the component containing the source is a singleton


def _disjoint_four_cycles(k: int):
    """k disjoint 4-cycles and two opposite corners of the hypercube Q_k
    their perfect matchings form under flips."""
    g = Graph(4 * k, [(4 * i + j, 4 * i + (j + 1) % 4) for i in range(k) for j in range(4)])
    even = edge_set(e for i in range(k) for e in ((4 * i, 4 * i + 1), (4 * i + 2, 4 * i + 3)))
    return g, even, g.edges - even


def test_stats_hypercube_of_disjoint_four_cycles():
    # one BFS per matching would take seconds here
    k = 11
    g, source, _ = _disjoint_four_cycles(k)
    for src in (None, source):
        st_ = reconfiguration_stats(g, "perfect", FLIP_ONLY, source=src)
        assert (st_.nodes, st_.components, st_.component_sizes, st_.diameter) == (
            2**k, 1, (2**k,), k)


def test_reachable_across_the_hypercube_of_disjoint_four_cycles():
    # opposite corners of Q_11: each side's aggregates are updated along
    # chains of up to six flips before the searches meet
    g, a, b = _disjoint_four_cycles(11)
    for mode in (FLIP_ONLY, FLIP_SLIDE):
        res = reachable(g, a, b, mode, want_path=True)
        assert res.distance == len(res.sequence) == 11
        assert verify_sequence(g, a, res.sequence, b).ok


def test_stats_match_per_source_reference():
    # the bit-parallel diameter equals one BFS per matching, with blocks of
    # 1 and 3 sources as well (several passes), with and without a source;
    # some draws have a source whose component is narrower than the widest
    narrower = []

    @settings(max_examples=150)
    @given(st.sampled_from([FLIP_ONLY, FLIP_SLIDE, kflip(6)]), st.integers(0, 2**32 - 1))
    def check(mode, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(3, 8), rng.uniform(0.2, 0.8))
        target = rng.choice(["perfect", *range(g.n // 2 + 1)])
        ms = enumerate_matchings(g, target)
        source = rng.choice(ms) if ms else None
        expect = reference_stats(g, target, mode)
        expect_src = reference_stats(g, target, mode, source)
        if source and expect_src.diameter < expect.diameter:
            narrower.append(seed)
        for block in (1, 3, oracle._BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle, "_BLOCK", block)
                assert reconfiguration_stats(g, target, mode) == expect
                assert reconfiguration_stats(g, target, mode, source) == expect_src

    check()
    assert narrower


def test_budget_exceeded_reachability():
    # force an unreachable pair so BFS must exhaust the (capped) space
    with pytest.raises(BudgetExceededError):
        reachable(C6_CHORD, C6_PM1, C6_PM2, FLIP_SLIDE, budget=1)
    # the start alone is one state held
    with pytest.raises(BudgetExceededError):
        reachable(C4, C4_PM1, C4_PM1, budget=0)
    assert reachable(C4, C4_PM1, C4_PM1, budget=1).distance == 0


def test_budget_exceeded_stats():
    with pytest.raises(BudgetExceededError):
        reconfiguration_stats(K4, 1, FLIP_SLIDE, budget=3)


def test_shortest_path_is_minimal():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.choice([4, 6]), rng.uniform(0.4, 0.9))
        pms = enumerate_matchings(g, "perfect")
        if len(pms) < 2:
            continue
        a, b = rng.sample(pms, 2)
        res = reachable(g, a, b, FLIP_ONLY, want_path=True)
        if res.reachable:
            assert len(res.sequence) == res.distance


def test_wide_lanes_on_k8_and_random_cographs():
    # K_8 has 210 4-cycles, so its lanes are 840 bits wide; its flips equal
    # the scan on every matching, and distances under flips and flips with
    # slides, on perfect and smaller matchings of K_8 and of random cographs,
    # equal a one-ended search's
    g = complete_graph(8)
    space = MaskSpace(g)
    assert len(four_cycles(g)) == 210
    by_size = all_matchings_by_size(g)
    for ms in by_size.values():
        for m in ms:
            mask = space.to_mask(m)
            assert _neighbors(space, mask, FLIP_ONLY) == reference_flip_neighbor_masks(space, mask)
    rng = random.Random(61)
    pairs = [(g, *rng.sample(by_size[s], 2)) for s in (3, 4) for _ in range(4)]
    for n in range(4, 11):
        for _ in range(3):
            h = random_cotree_graph(n, rng)
            pairs.append((h, *random_matching_pair(h, rng)))
    for h, a, b in pairs:
        for mode in (FLIP_ONLY, FLIP_SLIDE):
            res = reachable(h, a, b, mode, want_path=True)
            assert res.distance == reference_distance(h, a, b, mode)
            if res.reachable:
                assert verify_sequence(h, a, res.sequence, b).ok


def test_mask_of_an_edge_outside_the_graph():
    # refused as matching_partners refuses it, not as a bare KeyError
    with pytest.raises(EdgeNotInGraphError, match=r"\(0, 2\)"):
        reconfiguration_components(C4, [frozenset({(0, 2), (1, 3)})])
    with pytest.raises(EdgeNotInGraphError):
        MaskSpace(C4).to_mask([(3, 1)])
