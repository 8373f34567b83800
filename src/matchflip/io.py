"""Instance / sequence / NCL-machine JSON formats.

Instance files carry a graph, two matchings and optional solver hints::

    {"n": 6, "edges": [[0,1], ...], "m_ini": [[0,1], ...],
     "m_tar": [[1,2], ...], "hints": {"strong_order": [...],
     "boundary_order": [...]}}

Vertex labels may be arbitrary integers; they are mapped onto 0..n-1 by
sorted order (the identity when they already are 0..n-1).  An ``n`` above
:data:`MAX_VERTICES` is refused before any edge is read.  Sequence files::

    {"mode": "flip" | "flip_slide" | "kflip", "k": 6,
     "moves": [{"flip": [a, b, c, d]},
               {"slide": {"remove": [u, v], "add": [v, w]}}]}

NCL machine files, every number an exact int and each configuration
orienting each edge index 0..m-1 once::

    {"vertices": [{"id": 0, "type": "and"}, ...],
     "edges": [{"u": 0, "v": 1, "w": 2}, ...],
     "c_ini": [{"edge": 0, "head": 1}, ...], "c_tar": [...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Union

from .errors import MalformedInputError, MatchFlipError
from .graph import (
    Edge,
    Flip,
    Graph,
    Move,
    ReconfigSequence,
    Slide,
    canonical_flip,
    edge,
    edge_set,
)


MAX_VERTICES = 10**6  # the largest n: a Graph holds ~450 bytes per vertex, edges or not


@dataclass
class Instance:
    graph: Graph
    m_ini: frozenset[Edge]
    m_tar: frozenset[Edge]
    hints: dict = field(default_factory=dict)
    label_of: tuple = ()  # internal index -> original label


def _load_json(source: Union[str, dict]) -> tuple[dict, bool]:
    """The object, and whether it may hold a JSON boolean: a dict may, a
    file only when its text spells one."""
    if isinstance(source, dict):
        return source, True
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
        data = json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:  # also bad UTF-8, huge ints, deep nesting
        raise MalformedInputError(f"cannot read JSON from {source}: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedInputError("top-level JSON value must be an object")
    return data, "true" in text or "false" in text


def _label_map(n: int, labels: set, kinds: set) -> dict:
    # kinds: the types of the labels as read; bool is an int but no label
    if not kinds <= {int}:
        raise MalformedInputError("vertex labels must be integers")
    if not labels or min(labels) >= 0 and max(labels) < n:  # no labels: identity alone
        return {x: x for x in range(n)}
    if len(labels) != n:
        raise MalformedInputError(
            f"{len(labels)} distinct labels for n={n}; cannot infer the mapping"
        )
    return {lab: i for i, lab in enumerate(sorted(labels))}


def load_instance(source: Union[str, dict]) -> Instance:
    """Read an instance.  When the labels are ints in 0..n-1 the edge list
    goes to :class:`Graph` as parsed, and its one validating pass checks
    them; any other input takes the relabelling path, which reports faults."""
    data, maybe_bool = _load_json(source)
    try:
        n, edges = data["n"], data["edges"]
        if type(n) is not int:  # a float, string or bool is no vertex count
            raise TypeError(f"n must be an integer, not {n!r}")
        if n > MAX_VERTICES:  # refused before a Graph or label map sizes anything by n
            raise MalformedInputError(f"n is above the limit of {MAX_VERTICES:,} vertices")
        ini, tar = data.get("m_ini", []), data.get("m_tar", [])
        hints = data.get("hints", {}) or {}
        orders = {k: list(hints[k]) for k in ("strong_order", "boundary_order")
                  if hints.get(k) is not None}
        ends = [x for u, v in chain(ini, tar) for x in (u, v)] + list(chain(*orders.values()))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise MalformedInputError(f"bad instance structure: {exc}") from exc
    # ints only: a bool or a float label takes the relabelling path, which
    # refuses it; edge label types are read only where a bool may be
    if edges and (not ends or set(map(type, ends)) == {int} and 0 <= min(ends) and max(ends) < n):
        try:
            if not maybe_bool or bool not in set(map(type, chain.from_iterable(edges))):
                return Instance(Graph(n, edges), edge_set(ini), edge_set(tar), orders, tuple(range(n)))
        except (MatchFlipError, TypeError, ValueError):
            pass  # the relabelling path below reports the fault
    labels = set()  # in reading order: of equal labels the first is kept
    try:
        for u, v in chain(edges, ini, tar):
            labels.add(u)
            labels.add(v)
        labels.update(*orders.values())
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad instance structure: {exc}") from exc
    mapping = _label_map(n, labels, set(map(type, chain(chain.from_iterable(edges), ends))))
    try:
        g = Graph(n, [(mapping[u], mapping[v]) for u, v in edges])
    except MatchFlipError as exc:
        raise MalformedInputError(f"bad graph: {exc}") from exc
    m_ini, m_tar = (edge_set((mapping[u], mapping[v]) for u, v in m) for m in (ini, tar))
    orders = {key: [mapping[v] for v in order] for key, order in orders.items()}
    return Instance(g, m_ini, m_tar, orders, tuple(sorted(mapping)))


def instance_to_dict(
    graph: Graph,
    m_ini,
    m_tar,
    hints: Optional[dict] = None,
) -> dict:
    out = {
        "n": graph.n,
        "edges": [list(e) for e in graph.sorted_edges()],
        "m_ini": [list(e) for e in sorted(edge(*x) for x in m_ini)],
        "m_tar": [list(e) for e in sorted(edge(*x) for x in m_tar)],
    }
    if hints:
        out["hints"] = {k: list(v) for k, v in sorted(hints.items())}
    return out


def dump_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(data))


def dumps_canonical(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def sequence_to_dict(seq: ReconfigSequence) -> dict:
    moves = []
    for mv in seq.moves:
        if isinstance(mv, Flip):
            moves.append({"flip": list(mv.cycle)})
        else:
            moves.append({"slide": {"remove": list(mv.removed), "add": list(mv.added)}})
    out = {"mode": seq.mode, "moves": moves}
    if seq.k is not None:
        out["k"] = seq.k
    return out


def _ints(values) -> tuple[int, ...]:
    """``values`` as a tuple, each an exact int: no bool, float or string."""
    out = tuple(values)
    if set(map(type, out)) - {int}:  # a bool is an int but no label
        raise ValueError(f"expected integers, got {list(out)}")
    return out


def load_sequence(source: Union[str, dict]) -> ReconfigSequence:
    data = _load_json(source)[0]
    try:
        mode = data["mode"]
        k = data.get("k")
        moves: list[Move] = []
        for item in data["moves"]:
            if "flip" in item:
                moves.append(canonical_flip(_ints(item["flip"])))
            elif "slide" in item:
                s = item["slide"]
                moves.append(Slide(_ints(s["remove"]), _ints(s["add"])))
            else:
                raise MalformedInputError(f"unknown move {item!r}")
        return ReconfigSequence(mode, tuple(moves), k)
    except MalformedInputError:
        raise
    except (KeyError, TypeError, ValueError, MatchFlipError) as exc:
        raise MalformedInputError(f"bad sequence structure: {exc}") from exc


def load_ncl(source: Union[str, dict]):
    """Returns (machine, c_ini, c_tar); configurations may be None.  The NCL
    module is imported here, so a process that only loads instances skips it."""
    from .hardness import NclMachine, validate_machine

    data = _load_json(source)[0]
    try:
        vmeta = data["vertices"]
        ids = _ints(v["id"] for v in vmeta)
        mapping = {lab: i for i, lab in enumerate(sorted(ids))}
        if len(mapping) != len(ids):
            raise MalformedInputError("duplicate NCL vertex ids")
        types = [""] * len(ids)
        for v, lab in zip(vmeta, ids):
            types[mapping[lab]] = v["type"]
        edges = tuple(
            (mapping[u], mapping[v], w)
            for u, v, w in (_ints((e["u"], e["v"], e["w"])) for e in data["edges"])
        )
        machine = NclMachine(tuple(types), edges)
        validate_machine(machine)

        def conf(key):
            if key not in data or data[key] is None:
                return None
            heads = [None] * len(edges)
            for item in data[key]:
                i, head = _ints((item["edge"], item["head"]))
                if not 0 <= i < len(edges) or heads[i] is not None:
                    raise MalformedInputError(
                        f"{key}: edge index {i} repeated or outside 0..{len(edges) - 1}")
                heads[i] = mapping[head]
            if any(h is None for h in heads):
                raise MalformedInputError(f"{key} does not orient every edge")
            return tuple(heads)

        return machine, conf("c_ini"), conf("c_tar")
    except MalformedInputError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, MatchFlipError) as exc:
        raise MalformedInputError(f"bad NCL machine structure: {exc}") from exc
