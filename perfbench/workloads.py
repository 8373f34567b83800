"""Build one workload's inputs from a seed.

    python3 perfbench/workloads.py --workload interval --seed 1 --out DIR

writes instance and sequence files under DIR plus ``DIR/manifest.json``,
which lists every operation the benchmark runs on them and the answer each
must give.  Answers come from construction (random walks from ``m_ini``),
from NCL configuration components, or from the brute force in
``checks.py``, never from the solver being measured.  The same seed gives
byte-identical files and the same ``input_sha256``.

Every workload carries the same side mix for a seed: NCL machine pairs
decided by the oracle, small interval, outerplanar and cograph pairs
decided by both solver and oracle (the optimality gap), and ``stats``
calls.  On the ``oracle`` workload its oracle calls are the answers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from matchflip import generators, hardness  # noqa: E402
from matchflip.io import instance_to_dict  # noqa: E402

WORKLOADS = ("interval", "outerplanar", "cograph", "oracle")

# The mix every workload runs.  Small pairs are the same on every workload
# for a seed; they are many because opt_gap is a ratio of sums over their
# YES cases (~32 per class keep its seed-to-seed spread near 5%); off the
# oracle workload only the first few also go to the oracle.  NCL draws
# are larger on the oracle workload ("ncl_main"), most of them on k4_or, so
# that its p90 falls inside one machine's spread.  A machine's pairs cycle
# through the Hamming distances between its configurations, a random pair
# at each, so that how far apart a seed's pairs lie does not swing the BFS
# costs from seed to seed.  k4_or k-flips and
# flip+slide stats on cographs are left out: their cost swings by 10-100x
# between draws.
NCL_MACHINES = ("two_or", "two_and", "k4_or", "mixed")
MIXES = {
    "full": dict(ncl_side=dict(two_or=(2, 1), two_and=(2, 1), k4_or=(2, 0), mixed=(2, 1)),
                 ncl_main=dict(two_or=(12, 4), two_and=(12, 4), k4_or=(48, 0), mixed=(24, 8)),
                 small=dict(interval=32, outerplanar=64, cograph=32),
                 stats_ncl=dict(two_or=1, two_and=1), stats_cograph=40, walks=4, side_oracle=4),
    "smoke": dict(ncl_side=dict(two_or=(1, 1), two_and=(1, 0), k4_or=(1, 0), mixed=(1, 0)),
                  ncl_main=dict(two_or=(1, 1), two_and=(1, 0), k4_or=(1, 0), mixed=(1, 0)),
                  small=dict(interval=2, outerplanar=2, cograph=2),
                  stats_ncl=dict(two_or=1, two_and=1), stats_cograph=4, walks=1, side_oracle=1),
}

# Main pools.  Sizes are spread log-uniformly over a 3x range: on a shared
# VM the CPU speed can flip between two levels ~40% apart, and the median of
# a pool of equal-cost calls jumps with it, while that of a spread pool moves
# smoothly.
# Walk lengths follow the solvers' emitted lengths: ~n/100 flips on
# interval, ~n/10 on outerplanar, ~n/2 moves on cographs.  Random cographs
# are the central ones by edge density of a fixed number of draws with
# density 0.5-0.9, so seeds differ in instances rather than in how dense
# the pool is, or how dense its densest few are.
SCALES = {
    "full": {
        "interval": dict(count=8, n=(1500, 4500)),
        "outerplanar": dict(count=16, n=(1000, 3000)),
        "cograph": dict(count=24, n=120, threshold=8, threshold_n=100),
    },
    "smoke": {
        "interval": dict(count=2, n=(150, 300)),
        "outerplanar": dict(count=2, n=(80, 120)),
        "cograph": dict(count=4, n=20, threshold=1, threshold_n=16),
    },
}
COGRAPH_DENSITY = (0.5, 0.9)
# perfect-matching counts of the cographs given to ``stats``, whose cost
# follows that count; ~7% of the generator's cographs on 8 vertices have one
STATS_PMS = (32, 40)


def pairs_by_distance(configs):
    """Ordered pairs of distinct configurations, grouped by the number of
    edges whose orientation differs, nearest group first."""
    groups = {}
    for a in configs:
        for b in configs:
            if a != b:
                groups.setdefault(sum(x != y for x, y in zip(a, b)), []).append((a, b))
    return [groups[d] for d in sorted(groups)]


def spread_sizes(lo, hi, count):
    """``count`` even sizes log-uniform over [lo, hi], in a strided order so
    that any prefix of the pool covers the range."""
    stride = next(k for k in (3, 5, 7, 11) if count % k)
    raw = [lo * (hi / lo) ** (i / max(1, count - 1)) for i in range(count)]
    return [int(raw[i * stride % count]) // 2 * 2 for i in range(count)]


class Builder:
    def __init__(self, out: str, seed: int):
        self.out = out
        self.seed = seed
        self.ops: list[dict] = []
        self.spans: list[list] = []  # [name, seconds, part] of generator/hardness calls
        self.part = "main"  # or "side" while the side mix is built
        self.files: list[str] = []
        for sub in ("inst", "seq", "emit"):
            os.makedirs(os.path.join(out, sub), exist_ok=True)

    def rng(self, *tag) -> random.Random:
        return random.Random(":".join(map(str, (self.seed,) + tag)))

    def timed(self, name, fn, *args):
        t0 = time.perf_counter()
        res = fn(*args)
        self.spans.append([name, time.perf_counter() - t0, self.part])
        return res

    def write(self, sub: str, name: str, data: dict) -> str:
        rel = f"{sub}/{name}.json"
        if rel in self.files:
            return rel
        with open(os.path.join(self.out, rel), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
        self.files.append(rel)
        return rel

    def op(self, role: str, argv: list, inst: dict, check: dict) -> None:
        """``argv`` names files relative to the output directory with a
        leading ``@``; ``check`` says what a correct run prints."""
        oid = f"{role}{len(self.ops)}"
        self.ops.append({
            "id": oid, "role": role, "argv": argv,
            "n": inst["n"], "m": len(inst["edges"]), "check": check,
        })

    # -- ops ---------------------------------------------------------------

    def solve(self, role, name, inst, expect, mode, bound_n, distance=None):
        rel = self.write("inst", name, inst)
        argv = ["solve", "@" + rel, "--class", "auto", "--emit-sequence", f"@emit/{name}.solve.json"]
        self.op(role, argv, inst, {"kind": "solve", "inst": rel, "expect": expect,
                                    "mode": mode, "bound_n": bound_n,
                                    "distance": distance, "emit": f"emit/{name}.solve.json"})

    def oracle(self, role, name, inst, expect, mode, distance, k=None):
        rel = self.write("inst", name, inst)
        argv = ["oracle", "@" + rel, "--mode", mode, "--want-path",
                "--emit-sequence", f"@emit/{name}.oracle.json"]
        if k:
            argv += ["--k", str(k)]
        self.op(role, argv, inst, {"kind": "oracle", "inst": rel, "expect": expect,
                                    "mode": mode, "k": k, "distance": distance,
                                    "emit": f"emit/{name}.oracle.json"})

    def walks(self, name, inst, steps, slides, rng):
        """An intact walk (Accept) and a copy corrupted at a known step
        (Reject there), both checked against a target at the walk's end."""
        adj = checks.adjacency(inst["n"], inst["edges"])
        moves, end = checks.random_walk(adj, inst["m_ini"], steps, rng, slides)
        if not any("flip" in mv for mv in moves):
            return
        mode = "flip_slide" if slides else "flip"
        walk_inst = dict(inst, m_tar=[list(e) for e in end])
        rel = self.write("inst", name + ".walk", walk_inst)
        bad, step = checks.corrupt(moves, rng)
        for tag, seq, check in (("ok", moves, {"expect": "accept"}),
                                ("bad", bad, {"expect": "reject", "step": step})):
            srel = self.write("seq", f"{name}.{tag}", {"mode": mode, "moves": seq})
            self.op("verdict", ["verify", "@" + rel, "@" + srel], walk_inst,
                    dict(check, kind="verify", inst=rel))

    def stats(self, name, inst):
        """Reconfiguration-graph statistics over all perfect matchings."""
        rel = self.write("inst", name, inst)
        adj = checks.adjacency(inst["n"], inst["edges"])
        ground = checks.reconfiguration_stats(adj, inst["n"], inst["m_ini"])
        self.op("stats", ["stats", "@" + rel, "--mode", "flip", "--target", "perfect"], inst,
                {"kind": "stats", "inst": rel, "expect": ground})

    # -- pools -------------------------------------------------------------

    def main_pool(self, workload, size):
        if workload in ("interval", "outerplanar"):
            gen = {"interval": generators.random_interval_instance,
                   "outerplanar": generators.random_outerplanar_instance}[workload]
            walk = {"interval": 100, "outerplanar": 10}[workload]
            for i, n in enumerate(spread_sizes(*size["n"], size["count"])):
                inst = self.timed(f"generators.{workload}_instance", gen, n, self.seed * 1000 + i)
                name = f"{workload}{i}"
                self.solve("answer", name, inst, "yes", "flip", True)
                self.walks(name, inst, n // walk, False, self.rng("walk", i))
        elif workload == "cograph":
            # deep cotrees (threshold graphs, built here) interleaved with the
            # random ones, one from each density stratum in turn
            n = size["n"]
            pool = self.central(
                lambda i: self.timed("generators.cograph_instance",
                                     generators.random_cograph_instance, n, self.seed * 1000 + i),
                lambda inst: len(inst["edges"]) / (n * (n - 1) / 2), COGRAPH_DENSITY, size["count"])
            step = max(1, len(pool) // max(1, size["threshold"]))
            for i, base in enumerate(pool):
                self.cograph(f"cograph{i}", base["n"], base["edges"], base["m_ini"], self.rng("cograph", i))
                t = i // step
                if (i + 1) % step == 0 and t < size["threshold"]:
                    rng = self.rng("threshold", t)
                    n = size["threshold_n"]
                    edges = checks.threshold_graph(n, rng)
                    m_ini = checks.greedy_matching(checks.adjacency(n, edges), n, rng)
                    self.cograph(f"threshold{t}", n, edges, m_ini, rng)

    def central(self, make, key, bounds, count):
        """``count`` of the draws ``make(0), make(1), ...`` whose ``key``
        lies in ``bounds``: those nearest the median key, ordered so that
        every prefix takes from each quarter of their range in turn.  Twice
        ``count`` draws are made, more only if fewer than ``count`` fall in
        range, so the set-up cost barely moves with the seed."""
        kept, i = [], 0
        while i < 2 * count or len(kept) < count:
            if i > 100 * count:
                raise RuntimeError(f"{len(kept)} of {i} draws in {bounds}, {count} needed")
            x = make(i)
            i += 1
            if bounds[0] <= key(x) < bounds[1]:
                kept.append(x)
        lo = (len(kept) - count) // 2
        mid = sorted(kept, key=key)[lo:lo + count]
        q = count // 4
        return [x for row in zip(*(mid[k * q:(k + 1) * q] for k in range(4))) for x in row]

    def cograph(self, name, n, edges, m_ini, rng):
        # YES by construction: the target is a random walk away
        adj = checks.adjacency(n, edges)
        _, m_tar = checks.random_walk(adj, m_ini, n, rng, slides=True)
        inst = {"n": n, "edges": [list(e) for e in edges],
                "m_ini": [list(e) for e in m_ini], "m_tar": [list(e) for e in m_tar]}
        self.solve("answer", name, inst, "yes", "flip_slide", False)
        self.walks(name, inst, n // 2, True, rng)

    def mix(self, counts, main):
        """NCL pairs, small solver/oracle pairs and stats calls.  On the
        oracle workload (``main``) oracle calls are the answers and verify
        runs on walks over the small graphs.  Pairs are generated round-robin
        over machines and classes, so any prefix of a pool is a fair mix."""
        oracle_role = "answer" if main else "side"
        walks = counts["walks"] if main else 0
        self.part = "main" if main else "side"
        ncl = counts["ncl_main" if main else "ncl_side"]
        machines = {}
        for mname in NCL_MACHINES:
            machine = hardness.SAMPLE_MACHINES[mname]()
            comp = self.timed("hardness.configuration_components",
                              hardness.configuration_components, machine)
            machines[mname] = (machine, comp, sorted(comp), self.rng("ncl", mname))
        for j in range(max(flips for flips, _ in ncl.values())):
            for mname, (flips, kflips) in ncl.items():
                if j >= flips:
                    continue
                machine, comp, configs, rng = machines[mname]
                by_distance = pairs_by_distance(configs)
                a, b = rng.choice(by_distance[j % len(by_distance)])
                expect = "yes" if comp[a] == comp[b] else "no"
                gi = self.timed("hardness.reduce_ncl_to_pmr", hardness.reduce_ncl_to_pmr, machine, a, b)
                inst = instance_to_dict(gi.graph, gi.m_ini, gi.m_tar)
                self.oracle(oracle_role, f"{mname}{j}", inst, expect, "flip", None)
                if j < walks:
                    self.walks(f"{mname}{j}", inst, 8, False, rng)
                if j < kflips:
                    gk = self.timed("hardness.subdivide_for_kflip", hardness.subdivide_for_kflip, gi, 6)
                    kinst = instance_to_dict(gk.graph, gk.m_ini, gk.m_tar)
                    self.oracle(oracle_role, f"{mname}{j}.k6", kinst, expect, "kflip", None, k=6)
        for mname, count in counts["stats_ncl"].items():
            machine, _, configs, rng = machines[mname]
            for j in range(count):
                c = rng.choice(configs)
                gi = self.timed("hardness.reduce_ncl_to_pmr", hardness.reduce_ncl_to_pmr, machine, c, c)
                self.stats(f"{mname}{j}.stats", instance_to_dict(gi.graph, gi.m_ini, gi.m_tar))
        # cographs on 8 vertices in a narrow band of perfect-matching counts,
        # so stats costs stay within ~2x of each other
        rng = self.rng("stats", "cograph")

        def small_cograph(_):
            inst = self.timed("generators.cograph_instance", generators.random_cograph_instance,
                              8, rng.randrange(1 << 30))
            return inst, checks.perfect_matchings(checks.adjacency(8, inst["edges"]), 8)

        for j, (inst, pms) in enumerate(self.central(small_cograph, lambda x: len(x[1]), STATS_PMS,
                                                     counts["stats_cograph"])):
            source = [list(e) for e in rng.choice(pms)]
            self.stats(f"cograph{j}.stats", dict(inst, m_ini=source, m_tar=source))

        small = counts["small"]
        for j in range(max(small.values())):
            for cls, count in small.items():
                if j >= count:
                    continue
                rng = self.rng("small", cls, j)
                inst, slides = self.small_instance(cls, rng)
                adj = checks.adjacency(inst["n"], inst["edges"])
                dist = checks.shortest_distance(adj, inst["m_ini"], inst["m_tar"], slides)
                expect = "no" if dist is None else "yes"
                mode = "flip_slide" if slides else "flip"
                name = f"small_{cls}{j}"
                self.solve("side", name, inst, expect, mode, False, dist)
                if main or j < counts["side_oracle"]:
                    self.oracle(oracle_role, name, inst, expect, mode, dist)
                if j < walks and cls != "interval":
                    self.walks(name, inst, 8, slides, rng)

    def small_instance(self, cls, rng):
        if cls == "interval":
            inst = self.timed("generators.interval_instance", generators.random_interval_instance,
                              rng.choice((16, 18, 20)), rng.randrange(1 << 30))
            return inst, False
        if cls == "cograph":
            inst = self.timed("generators.cograph_instance", generators.random_cograph_instance,
                              rng.choice((8, 9)), rng.randrange(1 << 30))
            return inst, True
        # outerplanar: two independent random perfect matchings, often NO
        while True:
            n = rng.choice((16, 18, 20, 22, 24))
            t0 = time.perf_counter()
            g = generators.random_outerplanar_graph(n, rng)
            pair = [generators.random_perfect_matching(g, rng) for _ in range(2)]
            self.spans.append(["generators.outerplanar_instance", time.perf_counter() - t0, self.part])
            if None not in pair:
                inst = instance_to_dict(g, pair[0], pair[1], {"boundary_order": list(range(n))})
                return inst, False

    def manifest(self, workload, scale) -> dict:
        h = hashlib.sha256()
        for rel in sorted(self.files):
            h.update(rel.encode())
            with open(os.path.join(self.out, rel), "rb") as fh:
                h.update(fh.read())
        h.update(json.dumps(self.ops, sort_keys=True).encode())
        return {"workload": workload, "seed": self.seed, "scale": scale,
                "input_sha256": h.hexdigest(), "ops": self.ops, "setup_spans": self.spans}


def build(workload: str, seed: int, scale: str, out: str) -> dict:
    b = Builder(out, seed)
    if workload != "oracle":
        b.main_pool(workload, SCALES[scale][workload])
    b.mix(MIXES[scale], main=workload == "oracle")
    man = b.manifest(workload, scale)
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(man, fh)
    return man


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", default="full", choices=sorted(MIXES))
    p.add_argument("--out", required=True)
    a = p.parse_args()
    man = build(a.workload, a.seed, a.scale, a.out)
    print(man["input_sha256"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
