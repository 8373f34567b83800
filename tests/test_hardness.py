from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from matchflip.errors import (
    InvalidConfigurationError,
    KOddError,
    KTooSmallError,
    MalformedMachineError,
    NotBipartiteError,
    NotPerfectError,
    UnbalancedSidesError,
)
from matchflip.graph import Graph, edge, edge_set
from matchflip.hardness import (
    NclMachine,
    SAMPLE_MACHINES,
    configuration_components,
    enumerate_configurations,
    enumerate_k_factors,
    gadget_selftest,
    is_bipartite,
    k_factor_instance,
    mixed_machine,
    reduce_ncl_to_pmr,
    split_completion,
    standalone_edge_system,
    subdivide_edges,
    subdivide_for_kflip,
    two_and_machine,
    two_or_machine,
    validate_machine,
    validate_ncl,
)
from matchflip.io import instance_to_dict
from matchflip.oracle import enumerate_matchings, kflip, reachable, reconfiguration_components

from helpers import C4, C4_PM1, C4_PM2, C6, K4, cycle_graph, is_perfect


def test_validate_ncl_and_vertex_semantics():
    m = mixed_machine()
    # vertex 0 is an AND: weight-1 edges 0, 1 and weight-2 edge 2.  The
    # weight-2 edge may leave only when both weight-1 edges point in.
    assert validate_ncl(m, (0, 0, 2, 1, 3, 2))
    assert not validate_ncl(m, (0, 1, 2, 1, 3, 2))
    for c in enumerate_configurations(m):
        assert validate_ncl(m, c)


def test_validate_ncl_neutral_contributes_nothing():
    m = two_or_machine()
    assert validate_ncl(m, (0, 1, 1))
    assert not validate_ncl(m, (None, 1, 1))  # vertex 0 loses its only in-edge


def test_or_all_outward_invalid():
    # all edges away from vertex 0 -> vertex 0 starves
    m = two_or_machine()
    assert not validate_ncl(m, (1, 1, 1))


def test_malformed_machines_rejected():
    with pytest.raises(MalformedMachineError):
        validate_machine(NclMachine(("or", "or"), ((0, 1, 2), (0, 1, 2))))  # degree 2
    with pytest.raises(MalformedMachineError):
        validate_machine(NclMachine(("and", "and"), ((0, 1, 2), (0, 1, 2), (0, 1, 2))))
    with pytest.raises(MalformedMachineError):
        validate_machine(NclMachine(("or",), ((0, 0, 2), (0, 0, 2), (0, 0, 2))))


def test_gadget_selftests_pass():
    for kind in ("edge", "and", "or"):
        rep = gadget_selftest(kind)
        assert rep.ok, (kind, rep)


def test_edge_gadget_regression_counts():
    rep = gadget_selftest("edge")
    assert rep.class_counts == {"toward_p": 1, "toward_q": 1, "neutral": 4}


def test_and_gadget_regression_counts():
    rep = gadget_selftest("and")
    counts = {tuple(sorted(k)): v for k, v in rep.class_counts.items()}
    assert counts == {
        ("a",): 25,
        ("a", "b"): 10,
        ("a", "c"): 10,
        ("b", "c"): 5,
        ("a", "b", "c"): 5,
    }


def test_or_gadget_regression_counts():
    rep = gadget_selftest("or")
    counts = {tuple(sorted(k)): v for k, v in rep.class_counts.items()}
    assert counts == {
        ("a",): 25,
        ("b",): 25,
        ("c",): 25,
        ("a", "b"): 15,
        ("a", "c"): 15,
        ("b", "c"): 15,
        ("a", "b", "c"): 9,
    }


def test_reduction_structure_all_samples():
    for name, mk in SAMPLE_MACHINES.items():
        machine = mk()
        confs = enumerate_configurations(machine)
        assert len(confs) >= 2, name
        inst = reduce_ncl_to_pmr(machine, confs[0], confs[-1])
        g = inst.graph
        assert is_bipartite(g) is not None, name
        assert max(g.degree(v) for v in range(g.n)) <= 5, name
        assert is_perfect(g, inst.m_ini)
        assert is_perfect(g, inst.m_tar)
        # connector pairs straddle the bipartition
        zero, one = is_bipartite(g)
        for (v, e), (g0, g1) in inst.connector_pairs.items():
            assert (g0 in zero) != (g1 in zero)


def test_encode_decode_round_trips():
    for name, mk in SAMPLE_MACHINES.items():
        machine = mk()
        confs = enumerate_configurations(machine)
        inst = reduce_ncl_to_pmr(machine, confs[0], confs[-1])
        encodings = set()
        for c in confs:
            m = inst.encode_configuration(c)
            assert inst.decode_matching(m) == c
            encodings.add(m)
        assert len(encodings) == len(confs)


def test_reduce_rejects_bad_inputs():
    m = two_or_machine()
    with pytest.raises(InvalidConfigurationError):
        reduce_ncl_to_pmr(m, (0, 0, 0), (0, 1, 1))  # vertex 1 starves
    with pytest.raises(InvalidConfigurationError):
        reduce_ncl_to_pmr(m, (None, 1, 1), (0, 1, 1))


def test_decode_rejects_pair_splitting_matchings():
    # perfect matchings that cover a connector pair half-and-half exist
    # but sit in flip components unreachable from any encoding; they do
    # not represent an orientation and decode refuses them
    m = two_or_machine()
    confs = enumerate_configurations(m)
    inst = reduce_ncl_to_pmr(m, confs[0], confs[1])
    rogue = None
    for pm in enumerate_matchings(inst.graph, "perfect"):
        try:
            inst.decode_matching(pm)
        except InvalidConfigurationError:
            rogue = pm
            break
    assert rogue is not None
    assert not reachable(inst.graph, inst.m_ini, rogue).reachable


def test_identity_configuration_gives_identity_matchings():
    m = two_or_machine()
    confs = enumerate_configurations(m)
    inst = reduce_ncl_to_pmr(m, confs[0], confs[0])
    assert inst.m_ini == inst.m_tar


def test_two_and_machine_is_frozen():
    m = two_and_machine()
    confs = enumerate_configurations(m)
    assert len(confs) == 2
    comps = configuration_components(m)
    assert comps[confs[0]] != comps[confs[1]]
    inst = reduce_ncl_to_pmr(m, confs[0], confs[1])
    assert not reachable(inst.graph, inst.m_ini, inst.m_tar).reachable


def test_split_completion_examples():
    sc = split_completion(C4, [0, 2])
    assert sc.edges == C4.edges | {(0, 2)}
    assert enumerate_matchings(sc, "perfect") == enumerate_matchings(C4, "perfect")

    sc6 = split_completion(C6, [0, 2, 4])
    assert len(enumerate_matchings(sc6, "perfect")) == 2

    k2 = Graph(2, [(0, 1)])
    assert split_completion(k2, [0]).edges == k2.edges


def test_split_completion_rejections():
    with pytest.raises(NotBipartiteError):
        split_completion(C4, [0, 1])
    with pytest.raises(UnbalancedSidesError):
        split_completion(Graph(4, [(0, 1), (0, 2), (0, 3)]), [0])


def test_k_factor_k2_example():
    k2 = Graph(2, [(0, 1)])
    kf = k_factor_instance(k2, edge_set([(0, 1)]), edge_set([(0, 1)]), 2)
    assert kf.graph.n == 4  # one new vertex per endpoint
    for v in range(kf.graph.n):
        assert sum(1 for e in kf.h_ini if v in e) == 2  # a genuine 2-factor


def test_k_factor_degree_checks():
    kf = k_factor_instance(C4, C4_PM1, C4_PM2, 3)
    for v in kf.new_vertices:
        assert kf.graph.degree(v) == 3
        assert sum(1 for e in kf.h_ini if v in e) == 3
        assert sum(1 for e in kf.h_tar if v in e) == 3
    for v in range(C4.n):
        assert sum(1 for e in kf.h_ini if v in e) == 3


def test_k_factor_rejects_small_k_and_imperfect():
    with pytest.raises(KTooSmallError):
        k_factor_instance(C4, C4_PM1, C4_PM2, 1)
    with pytest.raises(NotPerfectError):
        k_factor_instance(C4, edge_set([(0, 1)]), C4_PM2, 2)


def test_k_factor_reachability_mirrors_matchings():
    rng = random.Random(6)
    for g in (C4, K4, C6):
        pms = enumerate_matchings(g, "perfect")
        pcomp = reconfiguration_components(g, pms)
        for k in (2, 3):
            kf = k_factor_instance(g, pms[0], pms[-1], k)
            factors = enumerate_k_factors(kf.graph, k)
            base = [frozenset(e for e in f if e[0] < g.n and e[1] < g.n) for f in factors]
            assert sorted(map(sorted, base)) == sorted(map(sorted, pms))
            fcomp = reconfiguration_components(kf.graph, factors)
            for i in range(len(factors)):
                for j in range(len(factors)):
                    want = pcomp[pms.index(base[i])] == pcomp[pms.index(base[j])]
                    assert (fcomp[i] == fcomp[j]) == want


def test_k_factors_deep_cycle():
    # one edge decision per level, deeper than the interpreter's recursion
    # limit; a cycle's only 2-factor is the cycle itself
    g = cycle_graph(3000)
    assert enumerate_k_factors(g, 2) == [g.edges]


def test_gadget_tables_are_built_on_first_use():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = (
        "import matchflip.cli, matchflip.hardness as h; "
        "print(h._class_table.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_reduction_output_pinned():
    # The reduction's layout, hashed for every sample machine at k = 4 and
    # 6: the instance file, the orange edges, the connector pairs, the
    # subdivision paths and each gadget's vertex map and edges.  Any change
    # to how gadgets are numbered or glued changes the hash.
    h = hashlib.sha256()
    for mk in SAMPLE_MACHINES.values():
        machine = mk()
        confs = enumerate_configurations(machine)
        base = reduce_ncl_to_pmr(machine, confs[0], confs[-1])
        for k in (4, 6):
            inst = subdivide_for_kflip(base, k)
            gadgets = [
                (sorted(info.local_to_global.items()), sorted(info.edge_set))
                for info in inst.vertex_gadgets + inst.edge_gadgets
            ]
            h.update(json.dumps([
                instance_to_dict(inst.graph, inst.m_ini, inst.m_tar),
                inst.orange_edges,
                sorted(inst.connector_pairs.items()),
                sorted(inst.subdivision.items()),
                gadgets,
            ]).encode())
    assert h.hexdigest() == "b891f867af7b4de502e0d3d12a9a0e85ea183ff2e549f351115e1a24a2fc4e77"


def test_subdivide_identity_and_rejections():
    m = two_or_machine()
    confs = enumerate_configurations(m)
    inst = reduce_ncl_to_pmr(m, confs[0], confs[1])
    assert subdivide_for_kflip(inst, 4) is inst
    with pytest.raises(KOddError):
        subdivide_for_kflip(inst, 5)
    with pytest.raises(KTooSmallError):
        subdivide_for_kflip(inst, 2)


def test_subdivide_preserves_pm_count_per_gadget():
    g, meta = standalone_edge_system()
    base = len(enumerate_matchings(g, "perfect"))
    for k in (6, 8):
        g2, _, _ = subdivide_edges(g, meta["orange"], k, [])
        assert len(enumerate_matchings(g2, "perfect")) == base


def test_subdivided_instance_round_trips():
    m = two_or_machine()
    confs = enumerate_configurations(m)
    inst = subdivide_for_kflip(reduce_ncl_to_pmr(m, confs[0], confs[1]), 6)
    assert is_perfect(inst.graph, inst.m_ini)
    for c in confs:
        assert inst.decode_matching(inst.encode_configuration(c)) == c


def test_every_alternating_kcycle_in_subdivided_gadget_has_orange():
    # every single k-flip move available anywhere in the subdivided edge
    # gadget runs through a stretched (orange-derived) path edge
    g, meta = standalone_edge_system()
    k = 6
    g2, _, pmap = subdivide_edges(g, meta["orange"], k, [])
    orange_edges = set()
    for path in pmap.values():
        for i in range(len(path) - 1):
            orange_edges.add(edge(path[i], path[i + 1]))
    pms = enumerate_matchings(g2, "perfect")
    moves = 0
    for a in pms:
        for b in pms:
            res = reachable(g2, a, b, kflip(k), want_path=True)
            if res.reachable and res.distance == 1:
                moves += 1
                es = set(res.sequence.moves[0].cycle_edges())
                assert es & orange_edges
    assert moves > 0


def test_subdivided_gadget_connectivity_under_kflip():
    g, meta = standalone_edge_system()
    g6, _, pmap = subdivide_edges(g, meta["orange"], 6, [])
    pms = enumerate_matchings(g6, "perfect")
    assert len(pms) == 6
    pair_p, pair_q = meta["pair_p"], meta["pair_q"]

    def cls(m):
        pv, qv = pair_p in m, pair_q in m
        if pv and not qv:
            return "toward_p"
        if qv and not pv:
            return "toward_q"
        assert not (pv and qv)
        return "neutral"

    classes = [cls(m) for m in pms]
    seen_cross = set()
    for i, a in enumerate(pms):
        for j, b in enumerate(pms):
            if i < j:
                res = reachable(g6, a, b, kflip(6))
                if res.reachable and res.distance == 1 and classes[i] != classes[j]:
                    seen_cross.add(frozenset((classes[i], classes[j])))
    # quotient over single moves: same diagram as before subdivision
    assert seen_cross == {
        frozenset(("toward_p", "neutral")),
        frozenset(("toward_q", "neutral")),
    }
    for cname in ("toward_p", "toward_q", "neutral"):
        members = [m for m, c in zip(pms, classes) if c == cname]
        for a in members:
            for b in members:
                assert reachable(g6, a, b, kflip(6)).reachable
