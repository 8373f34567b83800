"""Reference-speed calibration.

The benchmark runs on shared machines whose CPU speed drifts by a quarter
or more between runs, and switches between levels for seconds at a time
within one, in step for all pure-Python code.  Each run therefore times
``work()``, a fixed pure-Python task shaped like matchflip's own (adjacency
sets, dict lookups, BFS, sorting, frozenset symmetric differences),
interleaved with the measured operations.  A time measured at moment ``t``
is reported scaled by ``REFERENCE_MS / median of the K calibration times
nearest t``: the time the operation would take on a machine where
``work()`` takes ``REFERENCE_MS``.  A change to matchflip cannot move
``work()``; the calibration medians stay in the run's record.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

# median time of work() on a 2-vCPU x86-64 VM with CPython 3.11 when the
# host was quiet; it only fixes the scale of the reported numbers
REFERENCE_MS = 12.0

_rng = random.Random(20190412)
_N = 400
_EDGES = sorted({tuple(sorted(_rng.sample(range(_N), 2))) for _ in range(2400)})
_MATCHINGS = [frozenset(_rng.sample(_EDGES, 150)) for _ in range(2)]


def work() -> int:
    adj = {v: set() for v in range(_N)}
    for u, v in _EDGES:
        adj[u].add(v)
        adj[v].add(u)
    total = 0
    for src in range(0, _N, 20):
        dist = {src: 0}
        queue = [src]
        for u in queue:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        total += sum(dist.values())
    order = sorted(range(_N), key=lambda v: (len(adj[v]), -v))
    total += order[0]
    a, b = _MATCHINGS
    for _ in range(80):
        total += len(a ^ b) + len([e for e in a if e[0] in adj[e[1]]])
    return total


class Clock:
    """Calibration times over a run, by the moment they were taken."""

    K = 7

    def __init__(self):
        self.at: list[float] = []  # midpoints, increasing
        self.took: list[float] = []  # seconds

    def sample(self, count: int) -> float:
        """Time ``work()`` ``count`` times; returns the seconds spent."""
        spent = 0.0
        for _ in range(count):
            t0 = time.perf_counter()
            work()
            dt = time.perf_counter() - t0
            self.at.append(t0 + dt / 2)
            self.took.append(dt)
            spent += dt
        return spent

    def factor(self, t0: float, t1: float) -> float:
        """Multiplier that turns a time measured over [t0, t1] into a
        reference-speed time."""
        mid = (t0 + t1) / 2
        i = bisect.bisect(self.at, mid)
        lo, hi = i, i
        while hi - lo < min(self.K, len(self.at)):  # the K samples nearest mid
            if lo > 0 and (hi == len(self.at) or mid - self.at[lo - 1] <= self.at[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_MS / (statistics.median(self.took[lo:hi]) * 1000)

    def median_ms(self, since: float = float("-inf"), until: float = float("inf")) -> float:
        return statistics.median(dt for at, dt in zip(self.at, self.took) if since <= at < until) * 1000
