"""Span recorder wrapped around the entry points the CLI calls.

Wrapping happens from the benchmark's side: each public function that
``matchflip.cli`` (or ``matchflip.oracle``, for the BFS calls the CLI makes
through the module) looks up by name is replaced by a recorder for the
traced run and restored afterwards.  Spans stay in memory as
``[name, start, end, parent index, op id, count]`` until written out.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter


def _bytes_in(args, kwargs, result):
    src = args[0]
    return os.path.getsize(src) if isinstance(src, str) else 0


def _moves_checked(args, kwargs, result):
    seq = args[2]
    if result.ok or result.step is None:
        return len(seq.moves)
    return min(result.step + 1, len(seq.moves))


def _trace_steps(args, kwargs, result):
    return Counter(type(s).__name__ for s in result.trace.steps)


def _distance(args, kwargs, result):
    return result.distance or 0


def _nodes(args, kwargs, result):
    return result.nodes


# span name -> (module, attribute, count taken from the call's result)
TARGETS = {
    "cli.main": ("matchflip.cli", "main", None),
    "io.load_instance": ("matchflip.cli", "load_instance", _bytes_in),
    "io.load_sequence": ("matchflip.cli", "load_sequence", _bytes_in),
    "io.sequence_to_dict": ("matchflip.cli", "sequence_to_dict", None),
    "io.dump_json": ("matchflip.cli", "dump_json", None),
    "graph.verify_sequence": ("matchflip.cli", "verify_sequence", _moves_checked),
    "strongly_orderable.verify_strong_ordering": ("matchflip.cli", "verify_strong_ordering", None),
    "strongly_orderable.solve": ("matchflip.cli", "solve_strongly_orderable", None),
    "outerplanar.is_outerplanar": ("matchflip.cli", "is_outerplanar", None),
    "outerplanar.verify_boundary_order": ("matchflip.cli", "verify_boundary_order", None),
    "outerplanar.solve": ("matchflip.cli", "solve_outerplanar", _trace_steps),
    "cograph.is_cograph": ("matchflip.cli", "is_cograph", None),
    "cograph.solve": ("matchflip.cli", "solve_cograph", None),
    "oracle.reachable": ("matchflip.oracle", "reachable", _distance),
    "oracle.reconfiguration_stats": ("matchflip.oracle", "reconfiguration_stats", _nodes),
}


class TraceError(RuntimeError):
    """A wrapped entry point is missing or an expected span never fired."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.errors: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for name, (modname, attr, count) in TARGETS.items():
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                raise TraceError(f"entry point {modname}.{attr} is missing; span {name} cannot fire")
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, count))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def recorder(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name.split(".")[0]] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, result)
            return result

        recorder.__wrapped__ = fn
        return recorder

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out

    def fired(self) -> set:
        return {s[0] for s in self.spans}

    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("name", "start", "end", "parent", "op", "count")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=[dict(zip(keys, s)) for s in self.spans]), fh)
