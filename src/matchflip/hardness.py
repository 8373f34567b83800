"""NCL machines, the gadget reduction to perfect matching reconfiguration,
and the instance transformations built on top of it.

An NCL machine is a degree-3 graph of AND vertices (incident weights
1, 1, 2) and OR vertices (2, 2, 2); a configuration orients every edge so
each vertex collects in-weight >= 2.  The reduction replaces every NCL
edge and vertex by a fixed gadget; gadgets share only *connector pairs*,
and which gadget covers a pair encodes the corresponding edge direction:
a pair covered by its AND/OR gadget means the edge points into that
vertex, a pair covered by the edge gadget means it points away.

Gadget layouts are shipped as data (vertex names, edges, the subdividable
"orange" edges) and laid out by one helper, ``_lay``, for the reduction
and the self-test alike; their behavior -- forbidden states unmatchable,
states within one orientation class flip-connected, class-to-class
transitions matching the legal orientation changes -- is re-derived by
enumeration in :func:`gadget_selftest` rather than trusted.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Optional, Sequence

from .errors import (
    InvalidConfigurationError,
    KOddError,
    KTooSmallError,
    MalformedMachineError,
    NotBipartiteError,
    NotPerfectError,
    UnbalancedSidesError,
)
from .graph import Edge, Graph, edge, matching_partners
from .oracle import (
    DEFAULT_BUDGET,
    FLIP_ONLY,
    MaskSpace,
    _adjacency,
    _components,
    _factors,
    enumerate_matchings,
)

# ---------------------------------------------------------------------------
# gadget templates
#
# Edge gadget for an NCL edge between p and q: connector pairs (p0, p1)
# and (q0, q1) shared with the endpoint gadgets, four middle vertices.
# If all four connectors are covered from outside, m0 and m3 cannot be
# matched, which forbids the both-inward orientation.

EDGE_GADGET = {
    "vertices": ("p0", "p1", "q0", "q1", "m0", "m1", "m2", "m3"),
    "edges": (
        ("p0", "m0"),
        ("m0", "q0"),
        ("q1", "m3"),
        ("m3", "p1"),
        ("p0", "m1"),
        ("m1", "q0"),
        ("p1", "m2"),
        ("m2", "q1"),
        ("m1", "m2"),
    ),
    "orange": (("p0", "m0"), ("q1", "m3"), ("m1", "m2")),
    "pairs": {"p": ("p0", "p1"), "q": ("q0", "q1")},
}

# AND gadget: slot a carries the weight-2 edge, slots b and c the two
# weight-1 edges.  The pair edges (a0,a1), (b0,b1), (c0,c1) belong to
# this gadget, not to the adjacent edge gadgets.

AND_GADGET = {
    "vertices": ("a0", "a1", "b0", "b1", "c0", "c1", "i0", "i1"),
    "edges": (
        ("a0", "a1"),
        ("a1", "i1"),
        ("i1", "c0"),
        ("c0", "c1"),
        ("c1", "b1"),
        ("b1", "b0"),
        ("b0", "i0"),
        ("i0", "a0"),
        ("c1", "a1"),
        ("b1", "a0"),
    ),
    "orange": (("i1", "c0"), ("c1", "b1"), ("b0", "i0")),
    "pairs": {"a": ("a0", "a1"), "b": ("b0", "b1"), "c": ("c0", "c1")},
}

OR_GADGET = {
    "vertices": ("a0", "a1", "b0", "b1", "c0", "c1", "i0", "i1"),
    "edges": (
        ("a0", "a1"),
        ("a1", "c0"),
        ("c0", "c1"),
        ("c1", "b1"),
        ("b1", "b0"),
        ("b0", "a0"),
        ("a0", "i0"),
        ("i0", "b1"),
        ("a1", "i1"),
        ("i1", "c1"),
        ("b0", "i1"),
        ("c0", "i0"),
    ),
    "orange": (("a1", "c0"), ("c1", "b1"), ("b0", "a0")),
    "pairs": {"a": ("a0", "a1"), "b": ("b0", "b1"), "c": ("c0", "c1")},
}

VERTEX_GADGETS = {"and": AND_GADGET, "or": OR_GADGET}

# local 2-colorings; pairs straddle the split in every gadget
_GADGET_COLOR = {
    "and": {"a0": 0, "i1": 0, "c1": 0, "b0": 0, "a1": 1, "c0": 1, "b1": 1, "i0": 1},
    "or": {"a0": 0, "c0": 0, "b1": 0, "i1": 0, "a1": 1, "c1": 1, "b0": 1, "i0": 1},
    "edge": {"p0": 0, "q0": 0, "m2": 0, "m3": 0, "p1": 1, "q1": 1, "m0": 1, "m1": 1},
}


def _valid_inward_sets(kind: str) -> list[frozenset[str]]:
    """Slot subsets whose inward weights sum to >= 2."""
    weight = {"a": 2, "b": 1, "c": 1} if kind == "and" else {"a": 2, "b": 2, "c": 2}
    out = []
    for r in range(4):
        for combo in itertools.combinations("abc", r):
            if sum(weight[s] for s in combo) >= 2:
                out.append(frozenset(combo))
    return out


def _pair_slots(covered: AbstractSet, pairs: dict) -> frozenset[str]:
    """Slots whose connector pair lies in ``covered``, the vertices one
    gadget's edges cover.  A pair with one vertex in it is split between
    two gadgets, so the matching encodes no orientation."""
    out = []
    for slot, (x, y) in pairs.items():
        if (x in covered) != (y in covered):
            raise InvalidConfigurationError(
                "matching splits a connector pair between gadgets; "
                "it does not encode an orientation"
            )
        if x in covered:
            out.append(slot)
    return frozenset(out)


def _lay(gadget: dict, loc: dict, nxt: int, edges: list[Edge], orange: list[Edge]) -> int:
    """Lay one copy of ``gadget``: each name missing from ``loc`` (glued
    connectors are in it already) gets a fresh vertex from ``nxt`` on, in
    template order; the copy's sorted edges go to ``edges`` and its orange
    edges to ``orange``.  Returns the next free vertex."""
    for name in gadget["vertices"]:
        if name not in loc:
            loc[name] = nxt
            nxt += 1
    edges.extend(sorted(edge(loc[a], loc[b]) for a, b in gadget["edges"]))
    orange.extend(edge(loc[a], loc[b]) for a, b in gadget["orange"])
    return nxt


@functools.cache
def _class_table(kind: str) -> dict[frozenset[str], tuple[tuple[str, str], ...]]:
    """Per class, the least gadget-internal matching of gadget ``kind``
    ("and", "or" or "edge"), built on first use.  A gadget-internal
    matching covers every internal vertex; its class is the set of slots
    whose connector pair it covers.  Matchings that cover one vertex of a
    pair (11 for AND, 21 for OR, 2 for the edge gadget) exist but split
    that pair with the neighbouring gadget, which encodes no orientation,
    so they are skipped.  The oracle's one search lists the matchings of
    each size; the sizes are merged into one lexicographic order."""
    gadget = EDGE_GADGET if kind == "edge" else VERTEX_GADGETS[kind]
    edges: list[Edge] = []
    g = Graph(_lay(gadget, {}, 0, edges, []), edges)
    names = gadget["vertices"]  # numbered in template order
    internals = set(names) - {v for pair in gadget["pairs"].values() for v in pair}
    table: dict[frozenset[str], tuple[tuple[str, str], ...]] = {}
    # merged, the sizes keep lexicographic order, so the first of a class is least
    sizes = (_factors(g, 1, spare, DEFAULT_BUDGET) for spare in range(g.n % 2, g.n + 1, 2))
    for m in heapq.merge(*sizes):
        covered = {names[v] for e in m for v in e}
        if not internals <= covered:
            continue
        try:
            slots = _pair_slots(covered, gadget["pairs"])
        except InvalidConfigurationError:
            continue
        table.setdefault(slots, tuple((names[a], names[b]) for a, b in m))
    return table


# ---------------------------------------------------------------------------
# NCL machines


@dataclass(frozen=True)
class NclMachine:
    """AND/OR constraint graph; parallel edges allowed, self-loops not."""

    vertex_types: tuple[str, ...]  # "and" | "or" per vertex
    edges: tuple[tuple[int, int, int], ...]  # (u, v, weight)

    @property
    def n(self) -> int:
        return len(self.vertex_types)

    def incident(self, v: int) -> list[int]:
        return [i for i, (a, b, _) in enumerate(self.edges) if v in (a, b)]


def validate_machine(machine: NclMachine) -> None:
    for t in machine.vertex_types:
        if t not in ("and", "or"):
            raise MalformedMachineError(f"unknown vertex type {t!r}")
    for u, v, w in machine.edges:
        if u == v:
            raise MalformedMachineError("self-loop NCL edge")
        if not (0 <= u < machine.n and 0 <= v < machine.n):
            raise MalformedMachineError("NCL edge endpoint out of range")
        if w not in (1, 2):
            raise MalformedMachineError(f"edge weight {w} not in {{1, 2}}")
    for v in range(machine.n):
        inc = machine.incident(v)
        if len(inc) != 3:
            raise MalformedMachineError(f"vertex {v} has degree {len(inc)}, need 3")
        weights = sorted(machine.edges[i][2] for i in inc)
        want = [1, 1, 2] if machine.vertex_types[v] == "and" else [2, 2, 2]
        if weights != want:
            raise MalformedMachineError(
                f"vertex {v} ({machine.vertex_types[v]}) has weights {weights}"
            )


def _slot_assignment(machine: NclMachine) -> list[dict[str, int]]:
    """Per NCL vertex: slot name -> incident edge index.  The weight-2
    edge of an AND vertex takes slot a; remaining slots go by edge index."""
    out = []
    for v in range(machine.n):
        inc = machine.incident(v)
        if machine.vertex_types[v] == "and":
            two = [i for i in inc if machine.edges[i][2] == 2]
            ones = sorted(i for i in inc if machine.edges[i][2] == 1)
            out.append({"a": two[0], "b": ones[0], "c": ones[1]})
        else:
            inc = sorted(inc)
            out.append({"a": inc[0], "b": inc[1], "c": inc[2]})
    return out


Configuration = tuple  # head vertex per edge, or None for neutral


def validate_ncl(machine: NclMachine, config: Sequence[Optional[int]]) -> bool:
    """True iff every vertex receives in-weight >= 2; a neutral edge
    (head ``None``) contributes to neither endpoint."""
    validate_machine(machine)
    return _in_weights_hold(machine, config)


def _in_weights_hold(machine: NclMachine, config: Sequence[Optional[int]]) -> bool:
    """:func:`validate_ncl` on a machine already validated."""
    if len(config) != len(machine.edges):
        raise InvalidConfigurationError("configuration length mismatch")
    inw = [0] * machine.n
    for head, (u, v, w) in zip(config, machine.edges):
        if head is None:
            continue
        if head not in (u, v):
            raise InvalidConfigurationError(f"head {head} not an endpoint")
        inw[head] += w
    return all(x >= 2 for x in inw)


def enumerate_configurations(machine: NclMachine) -> list[Configuration]:
    """All valid neutral-free configurations (exponential; test-scale)."""
    validate_machine(machine)
    out = []
    for choice in itertools.product(*[(u, v) for (u, v, _) in machine.edges]):
        if _in_weights_hold(machine, choice):
            out.append(tuple(choice))
    return out


def configuration_components(machine: NclMachine) -> dict[Configuration, int]:
    """Component id of each valid configuration under single-edge reversal."""
    configs = enumerate_configurations(machine)
    ids = {c: i for i, c in enumerate(configs)}
    adj = []
    for c in configs:
        reversals = (c[:i] + (u if c[i] == v else v,) + c[i + 1:]
                     for i, (u, v, _) in enumerate(machine.edges))
        adj.append([ids[r] for r in reversals if r in ids])
    return dict(zip(configs, _components(adj)))


# sample machines (small enough for exhaustive checks)


def two_or_machine() -> NclMachine:
    return NclMachine(("or", "or"), ((0, 1, 2), (0, 1, 2), (0, 1, 2)))


def two_and_machine() -> NclMachine:
    """Exactly two valid configurations, not reachable from each other."""
    return NclMachine(("and", "and"), ((0, 1, 2), (0, 1, 1), (0, 1, 1)))


def k4_or_machine() -> NclMachine:
    edges = tuple((u, v, 2) for u in range(4) for v in range(u + 1, 4))
    return NclMachine(("or",) * 4, edges)


def mixed_machine() -> NclMachine:
    return NclMachine(
        ("and", "and", "or", "or"),
        ((0, 1, 1), (0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 3, 2), (2, 3, 2)),
    )


def six_mixed_machine() -> NclMachine:
    return NclMachine(
        ("and", "and", "or", "or", "or", "or"),
        (
            (0, 1, 1),
            (0, 1, 1),
            (0, 2, 2),
            (1, 3, 2),
            (2, 4, 2),
            (2, 5, 2),
            (3, 4, 2),
            (3, 5, 2),
            (4, 5, 2),
        ),
    )


SAMPLE_MACHINES = {
    "two_or": two_or_machine,
    "two_and": two_and_machine,
    "k4_or": k4_or_machine,
    "mixed": mixed_machine,
    "six_mixed": six_mixed_machine,
}


# ---------------------------------------------------------------------------
# the reduction


@dataclass(frozen=True)
class VertexGadgetInfo:
    ncl_vertex: int
    kind: str
    local_to_global: dict
    edge_set: frozenset[Edge]
    slot_edges: dict  # slot -> NCL edge index


@dataclass(frozen=True)
class EdgeGadgetInfo:
    ncl_edge: int
    p_vertex: int  # NCL endpoint attached at the p-side pair
    q_vertex: int
    local_to_global: dict
    edge_set: frozenset[Edge]


@dataclass
class GadgetInstance:
    graph: Graph
    m_ini: frozenset[Edge]
    m_tar: frozenset[Edge]
    machine: NclMachine
    vertex_gadgets: tuple[VertexGadgetInfo, ...]
    edge_gadgets: tuple[EdgeGadgetInfo, ...]
    connector_pairs: dict  # (ncl vertex, ncl edge idx) -> (g0, g1)
    orange_edges: tuple[Edge, ...]
    k: int = 4
    subdivision: dict = field(default_factory=dict)  # orange edge -> path tuple

    def encode_configuration(self, config: Sequence[Optional[int]]) -> frozenset[Edge]:
        return _encode(self, tuple(config))

    def decode_matching(self, matching: frozenset[Edge]) -> Configuration:
        return _decode(self, frozenset(matching))


def reduce_ncl_to_pmr(
    machine: NclMachine,
    c_ini: Sequence[Optional[int]],
    c_tar: Sequence[Optional[int]],
) -> GadgetInstance:
    """Build the gadget graph and the perfect matchings encoding the two
    configurations.  Configurations must be valid and neutral-free."""
    validate_machine(machine)
    for c in (c_ini, c_tar):
        if any(h is None for h in c):
            raise InvalidConfigurationError("input configurations must not be neutral")
        if not _in_weights_hold(machine, c):
            raise InvalidConfigurationError("configuration violates in-weight bounds")
    slots = _slot_assignment(machine)
    nxt = 0
    vertex_infos = []
    connector_pairs: dict = {}
    all_edges: list[Edge] = []
    orange: list[Edge] = []
    color: dict[int, int] = {}
    for v in range(machine.n):
        kind = machine.vertex_types[v]
        gadget = VERTEX_GADGETS[kind]
        loc: dict = {}
        start = len(all_edges)
        nxt = _lay(gadget, loc, nxt, all_edges, orange)
        color.update((x, _GADGET_COLOR[kind][name]) for name, x in loc.items())
        for slot, eidx in slots[v].items():
            connector_pairs[(v, eidx)] = tuple(loc[x] for x in gadget["pairs"][slot])
        ed = frozenset(all_edges[start:])
        vertex_infos.append(VertexGadgetInfo(v, kind, loc, ed, dict(slots[v])))
    edge_infos = []
    for i, (u, v, _) in enumerate(machine.edges):
        p, q = (u, v) if u < v else (v, u)
        pp = connector_pairs[(p, i)]
        qq = connector_pairs[(q, i)]
        # orient the gluing so the edge gadget's bipartition extends the
        # global coloring: p0 and q0 must land on connectors of one color
        if color[qq[0]] != color[pp[0]]:
            qq = qq[::-1]
        loc = {"p0": pp[0], "p1": pp[1], "q0": qq[0], "q1": qq[1]}
        start = len(all_edges)
        nxt = _lay(EDGE_GADGET, loc, nxt, all_edges, orange)
        base = color[pp[0]]
        for name, x in loc.items():
            # connectors keep their colour: the pair check below still tests it
            color.setdefault(x, base ^ _GADGET_COLOR["edge"][name])
        edge_infos.append(EdgeGadgetInfo(i, p, q, loc, frozenset(all_edges[start:])))
    graph = Graph(nxt, all_edges)
    # structural guarantees, asserted on every build
    for u, v in graph.edges:
        if color[u] == color[v]:
            raise RuntimeError("internal: reduction output is not bipartite")
    if graph.n and max(graph.degree(v) for v in range(graph.n)) > 5:
        raise RuntimeError("internal: reduction output exceeds degree five")
    for (v, eidx), (g0, g1) in connector_pairs.items():
        if color[g0] == color[g1]:
            raise RuntimeError("internal: connector pair on one side of the split")
    inst = GadgetInstance(
        graph=graph,
        m_ini=frozenset(),
        m_tar=frozenset(),
        machine=machine,
        vertex_gadgets=tuple(vertex_infos),
        edge_gadgets=tuple(edge_infos),
        connector_pairs=connector_pairs,
        orange_edges=tuple(sorted(set(orange))),
    )
    inst.m_ini = _encode(inst, tuple(c_ini))
    inst.m_tar = _encode(inst, tuple(c_tar))
    return inst


def _encode(inst: GadgetInstance, config: Configuration) -> frozenset[Edge]:
    """The encoding of ``config``; the instance's machine was validated
    when the instance was built."""
    if not _in_weights_hold(inst.machine, config):
        raise InvalidConfigurationError("invalid configuration")
    chosen: set[Edge] = set()
    for vg in inst.vertex_gadgets:
        inward = frozenset(
            s for s, eidx in vg.slot_edges.items() if config[eidx] == vg.ncl_vertex
        )
        table = _class_table(vg.kind)
        if inward not in table:
            raise InvalidConfigurationError(
                f"vertex {vg.ncl_vertex}: orientation {sorted(inward)} unmatchable"
            )
        loc = vg.local_to_global
        chosen.update(edge(loc[a], loc[b]) for a, b in table[inward])
    for eg in inst.edge_gadgets:
        head = config[eg.ncl_edge]
        if head is None:
            raise InvalidConfigurationError("neutral edge in configuration")
        # the tail-side pair is covered by the edge gadget
        side = frozenset("p") if head == eg.q_vertex else frozenset("q")
        loc = eg.local_to_global
        chosen.update(edge(loc[a], loc[b]) for a, b in _class_table("edge")[side])
    out = _along_paths(chosen, inst.subdivision)
    try:
        matching_partners(inst.graph, out, perfect=True)
    except NotPerfectError:
        raise RuntimeError("internal: encoding is not a perfect matching") from None
    return out


def _along_paths(m: AbstractSet[Edge], paths: dict[Edge, tuple[int, ...]]) -> frozenset[Edge]:
    """``m`` on the graph whose edges ``paths`` subdivides: a path takes
    its first, third, ... edges where ``m`` holds its edge, and its second,
    fourth, ... edges where not (alternation is forced either way)."""
    out = {e for e in m if e not in paths}
    for e, path in paths.items():
        first = 0 if e in m else 1
        out.update(edge(path[i], path[i + 1]) for i in range(first, len(path) - 1, 2))
    return frozenset(out)


def _path_edges(paths: dict[Edge, tuple[int, ...]]) -> set[Edge]:
    """Every edge of every path."""
    return {edge(path[i], path[i + 1]) for path in paths.values() for i in range(len(path) - 1)}


def _project_subdivided(inst: GadgetInstance, m: frozenset[Edge]) -> frozenset[Edge]:
    """``m`` on the graph before subdivision: a path stands for its edge
    where ``m`` holds the path's first edge."""
    path_edges = _path_edges(inst.subdivision)
    out = {e for e in m if e not in path_edges}
    out.update(e for e, path in inst.subdivision.items() if edge(path[0], path[1]) in m)
    return frozenset(out)


def _decode(inst: GadgetInstance, matching: frozenset[Edge]) -> Configuration:
    """Orientation encoded by a perfect matching; neutral edges decode to
    ``None``.

    Flips move whole connector pairs between gadgets (or stay inside one
    gadget), so every matching reachable from an encoded one covers each
    pair wholly from one side.  Stray perfect matchings that split a pair
    exist but sit in unreachable flip components; they are rejected."""
    m = _project_subdivided(inst, matching)
    heads: list[Optional[int]] = []
    for eg in inst.edge_gadgets:
        pairs = {
            "p": inst.connector_pairs[(eg.p_vertex, eg.ncl_edge)],
            "q": inst.connector_pairs[(eg.q_vertex, eg.ncl_edge)],
        }
        by_edge_gadget = _pair_slots({v for e in eg.edge_set & m for v in e}, pairs)
        if len(by_edge_gadget) == 2:
            heads.append(None)  # neutral
        elif "p" in by_edge_gadget:
            heads.append(eg.q_vertex)
        elif "q" in by_edge_gadget:
            heads.append(eg.p_vertex)
        else:
            raise RuntimeError("internal: both-inward edge state in a perfect matching")
    return tuple(heads)


# ---------------------------------------------------------------------------
# gadget self-tests


@dataclass(frozen=True)
class GadgetReport:
    kind: str
    class_counts: dict
    forbidden_empty: bool
    classes_nonempty: bool
    internally_connected: bool
    quotient_ok: bool
    quotient_edges: frozenset

    @property
    def ok(self) -> bool:
        return (
            self.forbidden_empty
            and self.classes_nonempty
            and self.internally_connected
            and self.quotient_ok
        )


def standalone_edge_system() -> tuple[Graph, dict]:
    """Edge gadget plus the two pair edges owned by the endpoint gadgets."""
    idx: dict = {}
    edges: list[Edge] = []
    orange: list[Edge] = []
    n = _lay(EDGE_GADGET, idx, 0, edges, orange)
    pair_p = edge(idx["p0"], idx["p1"])
    pair_q = edge(idx["q0"], idx["q1"])
    g = Graph(n, edges + [pair_p, pair_q])
    return g, {"pair_p": pair_p, "pair_q": pair_q, "orange": orange, "index": idx}


def standalone_vertex_system(kind: str) -> tuple[Graph, dict]:
    """AND/OR gadget with a full edge gadget hanging off each slot and a
    far pair edge closing each of them."""
    gadget = VERTEX_GADGETS[kind]
    loc: dict = {}
    edges: list[Edge] = []
    orange: list[Edge] = []
    nxt = _lay(gadget, loc, 0, edges, orange)
    vertex_edges = frozenset(edges)
    slot_pairs = {slot: (loc[x], loc[y]) for slot, (x, y) in gadget["pairs"].items()}
    for x, y in slot_pairs.values():
        sub = {"p0": x, "p1": y}
        nxt = _lay(EDGE_GADGET, sub, nxt, edges, orange)
        edges.append(edge(sub["q0"], sub["q1"]))  # far pair edge
    g = Graph(nxt, edges)
    return g, {"vertex_edges": vertex_edges, "slot_pairs": slot_pairs, "orange": orange}


def gadget_selftest(kind: str) -> GadgetReport:
    """Enumerate all perfect matchings of the standalone gadget system,
    classify them by orientation, and check the three behavioral
    properties against the legal orientation transitions."""
    if kind == "edge":
        g, meta = standalone_edge_system()
        owned = g.edges - {meta["pair_p"], meta["pair_q"]}
        pairs = {"p": meta["pair_p"], "q": meta["pair_q"]}
    else:
        g, meta = standalone_vertex_system(kind)
        owned, pairs = meta["vertex_edges"], meta["slot_pairs"]
    pms = enumerate_matchings(g, "perfect")
    # per matching, the slots whose pair the gadget under test covers
    classes = [_pair_slots({v for e in m & owned for v in e}, pairs) for m in pms]
    if kind == "edge":
        names = {frozenset("q"): "toward_p", frozenset("p"): "toward_q", frozenset("pq"): "neutral"}
        classes = [names.get(c, "forbidden") for c in classes]
        valid = tuple(names.values())
        expected_quotient = frozenset(
            {frozenset(("toward_p", "neutral")), frozenset(("toward_q", "neutral"))}
        )
    else:
        valid = tuple(_valid_inward_sets(kind))
        expected_quotient = frozenset(
            frozenset((s, t))
            for s in valid
            for t in valid
            if len(s ^ t) == 1
        )
    counts = dict(Counter(classes))
    forbidden_empty = all(c in valid for c in classes)
    classes_nonempty = all(counts.get(c, 0) > 0 for c in valid)
    space = MaskSpace(g)
    adj = _adjacency(space, [space.to_mask(m) for m in pms], FLIP_ONLY, DEFAULT_BUDGET)
    # each class is flip-connected on its own iff dropping the flips
    # between classes leaves exactly one component per class
    within = [[j for j in adj[i] if classes[j] == classes[i]] for i in range(len(pms))]
    internally_connected = len(set(_components(within))) == len(set(classes))
    quotient = frozenset(
        frozenset((classes[i], classes[j]))
        for i in range(len(pms))
        for j in adj[i]
        if classes[i] != classes[j]
    )
    return GadgetReport(
        kind=kind,
        class_counts=counts,
        forbidden_empty=forbidden_empty,
        classes_nonempty=classes_nonempty,
        internally_connected=internally_connected,
        quotient_ok=quotient == expected_quotient,
        quotient_edges=quotient,
    )


# ---------------------------------------------------------------------------
# derived instance transformations


def split_completion(g: Graph, side: Iterable[int]) -> Graph:
    """Complete one side of a balanced bipartition into a clique; the new
    edges can never sit in a perfect matching, so the matching set is
    unchanged."""
    side = frozenset(side)
    for u, v in g.edges:
        if (u in side) == (v in side):
            raise NotBipartiteError(f"edge ({u}, {v}) does not cross the bipartition")
    if 2 * len(side) != g.n:
        raise UnbalancedSidesError(
            f"side has {len(side)} of {g.n} vertices; need exactly half"
        )
    new_edges = list(g.edges)
    for u, v in itertools.combinations(sorted(side), 2):
        new_edges.append((u, v))
    return Graph(g.n, new_edges)


@dataclass(frozen=True)
class KFactorInstance:
    graph: Graph
    h_ini: frozenset[Edge]
    h_tar: frozenset[Edge]
    new_vertices: tuple[int, ...]


def k_factor_instance(
    g: Graph, m_ini: frozenset[Edge], m_tar: frozenset[Edge], k: int
) -> KFactorInstance:
    """Lift two perfect matchings to k-factors whose flip graph mirrors
    the matchings' flip graph exactly.

    Original vertices are paired up; between each pair hangs a complete
    bipartite K_{k-1,k-1} of new vertices with spokes into the pair.  All
    new vertices end up with total degree exactly k, so every k-factor
    contains all gadget edges, leaves each original vertex needing one
    matching edge, and no 4-cycle through a gadget ever alternates."""
    if k < 2:
        raise KTooSmallError("k-factor lift needs k >= 2")
    for m in (m_ini, m_tar):
        matching_partners(g, m, perfect=True)
    forced: list[Edge] = []  # the gadget edges, numbered upwards, so each (u, v) has u < v
    nxt = g.n
    for x in range(0, g.n, 2):  # the pair x, x + 1
        a_block = range(nxt, nxt + k - 1)
        b_block = range(nxt + k - 1, nxt + 2 * k - 2)
        nxt += 2 * k - 2
        forced += [(x, a) for a in a_block] + [(x + 1, b) for b in b_block]
        forced += [(a, b) for a in a_block for b in b_block]
    graph = Graph(nxt, list(g.edges) + forced)
    return KFactorInstance(
        graph,
        frozenset(m_ini).union(forced),
        frozenset(m_tar).union(forced),
        tuple(range(g.n, nxt)),
    )


def enumerate_k_factors(g: Graph, k: int, budget: int = 200_000) -> list[frozenset[Edge]]:
    """All spanning subgraphs with every degree exactly k (test-scale), in
    lexicographic sorted-edge order."""
    return [frozenset(f) for f in _factors(g, k, 0, budget)]


def subdivide_edges(
    g: Graph, targets: Sequence[Edge], k: int, matchings: Sequence[frozenset[Edge]]
) -> tuple[Graph, list[frozenset[Edge]], dict]:
    """Replace each target edge by a path on k-3 edges, rewriting the given
    matchings along the paths (alternation is forced either way)."""
    if k % 2 != 0:
        raise KOddError(f"k must be even, got {k}")
    if k < 4:
        raise KTooSmallError(f"k must be >= 4, got {k}")
    targets = [edge(*t) for t in targets]
    if k == 4:
        return g, [frozenset(m) for m in matchings], {}
    edges = [e for e in g.sorted_edges() if e not in set(targets)]
    nxt = g.n
    path_map: dict[Edge, tuple[int, ...]] = {}
    for x, y in sorted(targets):
        inner = list(range(nxt, nxt + k - 4))
        nxt += k - 4
        path = [x] + inner + [y]
        path_map[(x, y)] = tuple(path)
        for i in range(len(path) - 1):
            edges.append((path[i], path[i + 1]))
    return Graph(nxt, edges), [_along_paths(m, path_map) for m in matchings], path_map


def subdivide_for_kflip(inst: GadgetInstance, k: int) -> GadgetInstance:
    """Stretch every subdividable gadget edge to a path on k-3 edges so
    only k-cycles through single gadgets stay flippable; k = 4 is the
    identity.  Per-gadget perfect matching counts are unchanged."""
    # subdivide_edges checks k before the instance is refused
    new_g, (mi, mt), path_map = subdivide_edges(
        inst.graph, inst.orange_edges, k, [inst.m_ini, inst.m_tar]
    )
    if inst.subdivision:
        raise InvalidConfigurationError("instance is already subdivided")
    if k == 4:
        return inst
    return GadgetInstance(
        graph=new_g,
        m_ini=mi,
        m_tar=mt,
        machine=inst.machine,
        vertex_gadgets=inst.vertex_gadgets,
        edge_gadgets=inst.edge_gadgets,
        connector_pairs=inst.connector_pairs,
        orange_edges=tuple(sorted(_path_edges(path_map))),
        k=k,
        subdivision=path_map,
    )


def is_bipartite(g: Graph) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """A 2-coloring certificate, or None."""
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        q = deque([s])
        while q:
            v = q.popleft()
            for w in g.adj[v]:
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    q.append(w)
                elif color[w] == color[v]:
                    return None
    zero = frozenset(v for v in range(g.n) if color[v] == 0)
    return zero, frozenset(range(g.n)) - zero
