"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from hypothesis import given, settings, strategies as st

from matchflip.cograph import reachability_class, solve_cograph
from matchflip.errors import NoPerfectMatchingError
from matchflip.generators import (
    mutate_by_flips,
    random_cograph_instance,
    random_interval_graph,
    random_interval_instance,
    random_outerplanar_graph,
    random_outerplanar_instance,
    random_perfect_matching,
)
from matchflip.graph import (
    Flip,
    Graph,
    ReconfigSequence,
    Slide,
    apply_move,
    edge,
    verify_sequence,
)
from matchflip.hardness import (
    SAMPLE_MACHINES,
    configuration_components,
    enumerate_configurations,
    enumerate_k_factors,
    gadget_selftest,
    is_bipartite,
    k_factor_instance,
    reduce_ncl_to_pmr,
    split_completion,
    standalone_edge_system,
    standalone_vertex_system,
    subdivide_edges,
)
from matchflip.io import instance_to_dict, load_instance
from matchflip.oracle import (
    FLIP_ONLY,
    FLIP_SLIDE,
    MaskSpace,
    _neighbors,
    enumerate_matchings,
    kflip,
    reachable,
    reconfiguration_components,
)
from matchflip.outerplanar import is_outerplanar, solve_outerplanar
from matchflip.strongly_orderable import (
    canonical_matching,
    solve_strongly_orderable,
    verify_strong_ordering,
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
    all_matchings_by_size,
    connected_cographs,
    is_matching,
    is_perfect,
    random_graph,
    random_outerplanar,
    random_square_flips,
    threshold_graph,
)


def _report(num: int, text: str) -> None:
    print(f"[criterion {num:02d}] PASS  {text}")


def test_criterion_01_cograph_oracle_agreement():
    """Every connected cograph on <= 8 vertices, every pair of equal-size
    matchings: solver YES/NO equals flip+slide oracle reachability.

    All-pairs coverage comes from partition equality: the solver's
    decision is exactly equality of reachability classes (one shared code
    path: ``solve_cograph`` and ``reachability_class`` both read the events
    of ``cograph._walk_cotree``, and
    ``test_cograph.py::test_decision_equals_class_equality`` holds the two
    equal on NO pairs too), so class partition == oracle component
    partition covers every pair; direct solver runs on samples also verify
    emitted sequences."""
    rng = random.Random(0)
    graphs = connected_cographs(8)
    pair_count = 0
    solve_count = 0
    for g in graphs:
        if g.n < 2:
            continue
        by_size = all_matchings_by_size(g)
        for k, ms in by_size.items():
            comp = reconfiguration_components(g, ms, FLIP_SLIDE)
            sigs = [reachability_class(g, m) for m in ms]
            by_sig: dict = {}
            by_comp: dict = {}
            for i, s in enumerate(sigs):
                by_sig.setdefault(s, set()).add(comp[i])
                by_comp.setdefault(comp[i], set()).add(s)
            assert all(len(v) == 1 for v in by_sig.values()), (sorted(g.edges), k)
            assert all(len(v) == 1 for v in by_comp.values()), (sorted(g.edges), k)
            pair_count += len(ms) ** 2
            idx = list(range(len(ms)))
            if len(ms) <= 6:
                sample = [(i, j) for i in idx for j in idx]
            else:
                sample = [(rng.choice(idx), rng.choice(idx)) for _ in range(8)]
            for i, j in sample:
                res = solve_cograph(g, ms[i], ms[j])
                assert res.yes == (comp[i] == comp[j])
                if res.yes:
                    assert verify_sequence(g, ms[i], res.sequence, ms[j]).ok
                    assert len(res.sequence) <= 40 * g.n
                solve_count += 1
    assert pair_count > 1_000_000
    _report(
        1,
        f"cograph solver == oracle on {len(graphs)} graphs, "
        f"{pair_count} matching pairs (100% agreement, {solve_count} direct runs)",
    )


def test_criterion_02_outerplanar_oracle_agreement():
    """>= 500 two-connected outerplanar graphs on <= 10 vertices (cycle
    plus random non-crossing chords), all perfect matching pairs."""
    rng = random.Random(20240817)
    graphs = 0
    pairs = 0
    while graphs < 520:
        n = rng.choice([4, 6, 8, 10])
        g = random_outerplanar(rng, n, rng.random())
        graphs += 1
        pms = enumerate_matchings(g, "perfect")
        for a in pms:
            for b in pms:
                res = solve_outerplanar(g, a, b)
                orc = reachable(g, a, b, FLIP_ONLY)
                assert res.yes == orc.reachable, (sorted(g.edges), sorted(a), sorted(b))
                if res.yes:
                    assert verify_sequence(g, a, res.sequence, b).ok
                    assert orc.distance <= len(res.sequence) <= g.n
                pairs += 1
    _report(2, f"outerplanar solver == oracle on {graphs} graphs, {pairs} PM pairs")


def test_criterion_03_strongly_orderable_always_yes():
    """>= 500 random interval graphs (n up to 200) with verified strong
    orderings: the solver always returns a verified flip sequence of
    length <= n."""
    rng = random.Random(7)
    failures = 0
    count = 0
    while count < 500:
        n = rng.choice([10, 20, 40, 80, 120, 160, 200])
        g, order = random_interval_graph(n, rng, rng.uniform(0.3, 3.0))
        chk = verify_strong_ordering(g, order)
        assert chk.valid, "generator must emit verified strong orderings"
        m_ini = canonical_matching(g, order)
        m_tar = random_perfect_matching(g, rng) if n <= 40 else None
        if m_tar is None:
            m_tar = mutate_by_flips(g, m_ini, rng, rng.randint(1, 25))
        seq = solve_strongly_orderable(g, order, m_ini, m_tar)
        if len(seq) > g.n or not verify_sequence(g, m_ini, seq, m_tar).ok:
            failures += 1
        count += 1
    assert failures == 0
    _report(3, f"strongly orderable: {count} instances, all YES, length <= n, 0 failures")


def test_criterion_04_canonical_instances():
    """C6's two perfect matchings answer NO (solver and oracle); C4's
    answer YES at distance 1."""
    assert not solve_outerplanar(C6, C6_PM1, C6_PM2).yes
    assert not reachable(C6, C6_PM1, C6_PM2, FLIP_ONLY).reachable
    res = solve_outerplanar(C4, C4_PM1, C4_PM2)
    orc = reachable(C4, C4_PM1, C4_PM2, FLIP_ONLY)
    assert res.yes and orc.reachable and orc.distance == 1 and len(res.sequence) == 1
    _report(4, "C6 is NO for solver and oracle; C4 is YES at distance 1")


def test_criterion_05_gadget_suite():
    """Edge/AND/OR gadget behavioral properties, re-derived by exhaustive
    enumeration in under a second."""
    t0 = time.perf_counter()
    for kind in ("edge", "and", "or"):
        rep = gadget_selftest(kind)
        assert rep.forbidden_empty, kind
        assert rep.classes_nonempty, kind
        assert rep.internally_connected, kind
        assert rep.quotient_ok, kind
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"gadget suite took {elapsed:.2f}s"
    _report(5, f"edge/and/or gadget self-tests pass in {elapsed * 1000:.0f} ms")


def test_criterion_06_reduction_structure():
    """Reduction outputs: bipartite, maximum degree <= 5; encode/decode
    round-trips on every valid configuration of machines with <= 6
    vertices."""
    machines = 0
    trips = 0
    for name, mk in SAMPLE_MACHINES.items():
        machine = mk()
        assert machine.n <= 6
        confs = enumerate_configurations(machine)
        inst = reduce_ncl_to_pmr(machine, confs[0], confs[-1])
        g = inst.graph
        assert is_bipartite(g) is not None, name
        assert max(g.degree(v) for v in range(g.n)) <= 5, name
        assert is_perfect(g, inst.m_ini)
        assert is_perfect(g, inst.m_tar)
        seen = set()
        for c in confs:
            m = inst.encode_configuration(c)
            assert inst.decode_matching(m) == c
            seen.add(m)
            trips += 1
        assert len(seen) == len(confs)
        machines += 1
    _report(6, f"{machines} machines: bipartite, max degree 5, {trips} round-trips")


def test_criterion_07_end_to_end_equivalence():
    """NCL configuration reachability equals flip reachability of the
    encoded perfect matchings, on machines small enough for both sides
    (including one machine whose two configurations are mutually
    unreachable)."""
    from collections import deque

    names = ("two_or", "two_and", "k4_or", "mixed", "six_mixed")
    for name in names:
        machine = SAMPLE_MACHINES[name]()
        confs = enumerate_configurations(machine)
        inst = reduce_ncl_to_pmr(machine, confs[0], confs[-1])
        space = MaskSpace(inst.graph)
        masks = [space.to_mask(inst.encode_configuration(c)) for c in confs]
        label: dict = {}
        comp_of = {}
        cid = 0
        for s in masks:
            if s in label:
                comp_of[s] = label[s]
                continue
            label[s] = cid
            q = deque([s])
            while q:
                cur = q.popleft()
                for nb in _neighbors(space, cur, FLIP_ONLY):
                    if nb not in label:
                        label[nb] = cid
                        q.append(nb)
            comp_of[s] = cid
            cid += 1
        ncl = configuration_components(machine)
        a: dict = {}
        b: dict = {}
        for c, m in zip(confs, masks):
            a.setdefault(ncl[c], set()).add(comp_of[m])
            b.setdefault(comp_of[m], set()).add(ncl[c])
        assert all(len(v) == 1 for v in a.values()), name
        assert all(len(v) == 1 for v in b.values()), name
    _report(7, f"NCL reachability == reduced flip reachability on {len(names)} machines")


def test_criterion_08_instance_transformations():
    """Split completion preserves the perfect matching set (n <= 12);
    k-factor lifts are k-regular on new vertices and preserve
    reachability (n <= 6 bases); k=6 subdivision preserves per-gadget
    matching counts and the edge gadget's k-flip class structure."""
    rng = random.Random(5)
    # split completion on structured and random balanced bipartite graphs
    cases = [(C4, (0, 2)), (C6, (0, 2, 4)), (Graph(2, [(0, 1)]), (0,))]
    for _ in range(30):
        half = rng.randint(1, 6)
        left = tuple(range(half))
        edges = [
            (u, v + half)
            for u in left
            for v in range(half)
            if rng.random() < 0.7
        ]
        if not edges:
            continue
        cases.append((Graph(2 * half, edges), left))
    for g, side in cases:
        sc = split_completion(g, side)
        assert enumerate_matchings(sc, "perfect") == enumerate_matchings(g, "perfect")

    # k-factor lifts
    bases = [C4, K4, C6, C6_CHORD]
    for g in bases:
        pms = enumerate_matchings(g, "perfect")
        pcomp = reconfiguration_components(g, pms)
        for k in (2, 3):
            kf = k_factor_instance(g, pms[0], pms[-1], k)
            for v in kf.new_vertices:
                assert sum(1 for e in kf.h_ini if v in e) == k
                assert sum(1 for e in kf.h_tar if v in e) == k
            factors = enumerate_k_factors(kf.graph, k)
            base = [
                frozenset(e for e in f if e[0] < g.n and e[1] < g.n) for f in factors
            ]
            assert sorted(map(sorted, base)) == sorted(map(sorted, pms))
            fcomp = reconfiguration_components(kf.graph, factors)
            pidx = {m: i for i, m in enumerate(pms)}
            for i in range(len(factors)):
                for j in range(len(factors)):
                    want = pcomp[pidx[base[i]]] == pcomp[pidx[base[j]]]
                    assert (fcomp[i] == fcomp[j]) == want

    # subdivision: per-gadget perfect matching counts, then the edge
    # gadget's class structure under k-flip(6)
    g, meta = standalone_edge_system()
    base_count = len(enumerate_matchings(g, "perfect"))
    g6, _, pmap = subdivide_edges(g, meta["orange"], 6, [])
    pms6 = enumerate_matchings(g6, "perfect")
    assert len(pms6) == base_count == 6
    for kind in ("and", "or"):
        gv, metav = standalone_vertex_system(kind)
        cnt = len(enumerate_matchings(gv, "perfect"))
        gv6, _, _ = subdivide_edges(gv, metav["orange"], 6, [])
        assert len(enumerate_matchings(gv6, "perfect")) == cnt
    pair_p, pair_q = meta["pair_p"], meta["pair_q"]

    def cls(m):
        pv, qv = pair_p in m, pair_q in m
        assert not (pv and qv)
        return "toward_p" if pv else "toward_q" if qv else "neutral"

    classes = [cls(m) for m in pms6]
    cross = set()
    for i, a in enumerate(pms6):
        for j, b in enumerate(pms6):
            res = reachable(g6, a, b, kflip(6))
            if classes[i] == classes[j]:
                assert res.reachable
            elif res.reachable and res.distance == 1:
                cross.add(frozenset((classes[i], classes[j])))
    assert cross == {
        frozenset(("toward_p", "neutral")),
        frozenset(("toward_q", "neutral")),
    }
    _report(8, "split completion, k-factor lift and k-flip subdivision all check out")


def _mutation_pool(rng: random.Random):
    """Valid (graph, m_ini, sequence, m_tar) tuples to corrupt."""
    pool = []
    while len(pool) < 45:
        g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.3, 0.9))
        ms = enumerate_matchings(g, rng.randint(1, max(1, g.n // 2)))
        if len(ms) < 2:
            continue
        a, b = rng.sample(ms, 2)
        res = reachable(g, a, b, FLIP_SLIDE, want_path=True)
        if res.reachable and len(res.sequence) >= 1:
            pool.append((g, a, res.sequence, b))
    for g, a, b in (
        (C4, C4_PM1, C4_PM2),
        (C6_CHORD, C6_PM1, C6_PM2),
    ):
        res = solve_outerplanar(g, a, b)
        pool.append((g, a, res.sequence, b))
    return pool


def _mutate(rng, g, seq, m_tar):
    """Return (sequence, target) with a single corrupted move or target."""
    choice = rng.random()
    moves = list(seq.moves)
    if choice < 0.7 and moves:
        i = rng.randrange(len(moves))
        mv = moves[i]
        if isinstance(mv, Flip):
            cyc = list(mv.cycle)
            j = rng.randrange(len(cyc))
            repl = rng.randrange(g.n)
            if repl in cyc:
                repl = (max(cyc) + 1 + rng.randrange(g.n)) % (g.n + 2)
            cyc[j] = repl
            try:
                moves[i] = Flip(tuple(cyc))
            except Exception:
                return None
        else:
            piv = mv.pivot
            far = rng.randrange(g.n)
            if far == piv:
                return None
            try:
                moves[i] = Slide(mv.removed, (piv, far))
            except Exception:
                return None
        return ReconfigSequence(seq.mode, tuple(moves), seq.k), m_tar
    # corrupt the final matching
    tar = set(m_tar)
    all_edges = list(g.edges)
    if tar and rng.random() < 0.5:
        tar.discard(rng.choice(sorted(tar)))
    else:
        tar.add(rng.choice(all_edges))
    if frozenset(tar) == m_tar:
        return None
    return seq, frozenset(tar)


def test_criterion_09_verifier_mutation_soundness():
    """10,000 single-point corruptions of valid sequences; each one that
    genuinely breaks the transformation must be rejected."""
    rng = random.Random(424242)
    pool = _mutation_pool(rng)
    rejected = 0
    total = 0
    while total < 10_000:
        g, m_ini, seq, m_tar = pool[rng.randrange(len(pool))]
        mut = _mutate(rng, g, seq, m_tar)
        if mut is None:
            continue
        new_seq, new_tar = mut
        # ground truth: replay with apply_move
        cur = m_ini
        valid = True
        for mv in new_seq.moves:
            if isinstance(mv, Slide) and new_seq.mode == "flip":
                valid = False
                break
            try:
                cur = apply_move(g, cur, mv)
            except Exception:
                valid = False
                break
        genuinely_broken = (
            not valid
            or cur != new_tar
            or not is_matching(g, new_tar)
        )
        if not genuinely_broken:
            continue  # the corruption happened to produce another valid pair
        total += 1
        verdict = verify_sequence(g, m_ini, new_seq, new_tar)
        assert not verdict.ok
        rejected += 1
    assert rejected == total == 10_000
    _report(9, f"verifier rejected {rejected}/10000 corrupted sequences")


def test_criterion_10_performance_near_linear():
    """solve_strongly_orderable and solve_outerplanar each handle an
    n = 10,000 random instance in under a second."""
    rng = random.Random(123)
    n = 10_000
    g, order = random_interval_graph(n, rng)
    m_ini = canonical_matching(g, order)
    m_tar = mutate_by_flips(g, m_ini, rng, 100)
    t0 = time.perf_counter()
    seq = solve_strongly_orderable(g, order, m_ini, m_tar)
    t_so = time.perf_counter() - t0
    assert t_so < 1.0, f"strongly orderable took {t_so:.2f}s"
    assert len(seq) <= n
    assert verify_sequence(g, m_ini, seq, m_tar).ok

    g2 = random_outerplanar_graph(n, rng, 0.3)
    a = frozenset(edge(2 * i, 2 * i + 1) for i in range(n // 2))
    b = mutate_by_flips(g2, a, rng, 30)
    t0 = time.perf_counter()
    res = solve_outerplanar(g2, a, b)
    t_op = time.perf_counter() - t0
    assert t_op < 1.0, f"outerplanar took {t_op:.2f}s"
    assert res.yes
    assert verify_sequence(g2, a, res.sequence, b).ok
    _report(
        10,
        f"n=10000: strongly orderable {t_so * 1000:.0f} ms, outerplanar {t_op * 1000:.0f} ms",
    )


def test_ladder_1e5_solves_through_cli(tmp_path):
    """A 10^5-vertex ladder, rungs to paired rails (25,000 flips), runs end
    to end through `matchflip solve --class auto` in a subprocess: loading,
    recognition, the solve and the independent verification stay
    near-linear."""
    rail = 50_000
    edges = [[i, i + 1] for r in (0, rail) for i in range(r, r + rail - 1)]
    edges += [[i, rail + i] for i in range(rail)]
    inst = {
        "n": 2 * rail,
        "edges": edges,
        "m_ini": [[i, rail + i] for i in range(rail)],
        "m_tar": [[i, i + 1] for r in (0, rail) for i in range(r, r + rail, 2)],
    }
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(inst))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "matchflip.cli", "solve", "--class", "auto", str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    took = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["YES", "length 25000"]
    assert took < 20.0, f"ladder took {took:.1f} s"
    _report(10, f"ladder n=100000 through the CLI in {took:.1f} s")


@settings(max_examples=540)
@given(st.sampled_from(["interval", "outerplanar", "outerplanar pair", "cograph"]),
       st.integers(0, 2**32 - 1), st.data())
def test_three_solvers_against_the_oracle(cls, seed, data):
    """One draw across the three generators: every emitted sequence
    verifies, interval and outerplanar ones have length <= n, none is
    shorter than the oracle's distance, and the oracle, asked on every YES,
    on every n <= 10 and on every outerplanar pair, gives the same answer.
    An outerplanar pair is two independent random perfect matchings of a
    random outerplanar graph (n 6-12), so it is often NO; the flip-walk
    targets of the other draws are almost always YES."""
    n = data.draw(st.integers(2, 12 if cls == "cograph" else 16), label="n")
    if cls == "interval":
        inst = load_instance(random_interval_instance(n, seed))
        seq = solve_strongly_orderable(inst.graph, inst.hints["strong_order"], inst.m_ini, inst.m_tar)
    elif cls == "outerplanar":
        inst = load_instance(random_outerplanar_instance(max(n, 4), seed))
        seq = solve_outerplanar(inst.graph, inst.m_ini, inst.m_tar).sequence
    elif cls == "outerplanar pair":
        rng = random.Random(seed)
        g = random_outerplanar_graph(min(max(n, 6), 12) // 2 * 2, rng)
        # every other boundary edge where the greedy draw fails (rarely)
        pair = (random_perfect_matching(g, rng) or [(i, i + 1) for i in range(0, g.n, 2)] for _ in "ab")
        inst = load_instance(instance_to_dict(g, *pair))
        seq = solve_outerplanar(inst.graph, inst.m_ini, inst.m_tar).sequence
    else:
        inst = load_instance(random_cograph_instance(n, seed))
        seq = solve_cograph(inst.graph, inst.m_ini, inst.m_tar).sequence
    g = inst.graph
    if seq is not None:
        assert verify_sequence(g, inst.m_ini, seq, inst.m_tar).ok
        assert cls == "cograph" or len(seq) <= g.n
    if seq is not None or g.n <= 10 or cls == "outerplanar pair":
        res = reachable(g, inst.m_ini, inst.m_tar, FLIP_SLIDE if cls == "cograph" else FLIP_ONLY)
        assert res.reachable == (seq is not None)
        assert seq is None or len(seq) >= res.distance


@settings(max_examples=40)
@given(st.integers(4, 150), st.integers(0, 2**32 - 1))
def test_two_solvers_agree_where_the_classes_meet(half, seed):
    """Every two perfect matchings of a strongly orderable graph are
    connected, so on a strongly orderable cograph or outerplanar graph a
    NO from either solver is a bug at any n.  Threshold graphs are
    cographs with a strong ordering (their construction order), and
    interval instances of low spread are outerplanar; targets come from
    random square flips of the canonical matching."""
    rng = random.Random(seed)
    n = 2 * half
    g = threshold_graph(n, rng, 0.8)
    order = tuple(range(n))
    assert verify_strong_ordering(g, order).valid
    try:
        m_ini = canonical_matching(g, order)
    except NoPerfectMatchingError:
        m_ini = None  # greedy on a strong ordering misses no perfect matching
    if m_ini is not None:
        m_tar = random_square_flips(g, m_ini, rng, 2 * n)
        res = solve_cograph(g, m_ini, m_tar)
        assert res.yes and verify_sequence(g, m_ini, res.sequence, m_tar).ok
        assert len(res.sequence) <= 40 * n
        seq = solve_strongly_orderable(g, order, m_ini, m_tar)
        assert len(seq) <= n and verify_sequence(g, m_ini, seq, m_tar).ok
    inst = load_instance(random_interval_instance(min(n, 120), seed, spread=0.5))
    g = inst.graph
    if is_outerplanar(g):
        res = solve_outerplanar(g, inst.m_ini, inst.m_tar)
        assert res.yes and len(res.sequence) <= g.n
        assert verify_sequence(g, inst.m_ini, res.sequence, inst.m_tar).ok
