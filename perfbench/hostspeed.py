"""How fast the host runs right now, and timings read against it.

The benchmark shares a few cores of a host whose speed swings by two times
over seconds to minutes (other tenants, time slicing, shared caches), so a bare wall
time follows the host as much as the program.  Each timed phase is therefore
bracketed by a fixed reference workload -- pure-Python Dijkstra over a fixed
graph, JSON round trips and a sort, the kinds of work the program itself
does -- and reported in *reference-normalised* units::

    normalised = wall * nominal_s / median(reference runs near the phase)

``nominal_s`` (``settings.json``, ``reference_nominal_s``) is a typical
reference time on the host the benchmark was tuned on, so a normalised
figure reads as seconds on that host at its usual speed.
A change to the program moves the wall time and leaves the reference alone,
so it moves the normalised figure by the same share; a host that slows both
down moves neither.  The wall times are kept beside it in the diagnostics.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

_rng = random.Random(20080325)
#: Sized so the reference touches a few MB, as the program's phases do: a
#: working set that fits in a core's own cache would not feel the contention
#: for shared caches and memory that slows the program.
_NODES = 4000
GRAPH: Dict[int, Dict[int, float]] = {node: {} for node in range(_NODES)}
for _node in range(_NODES):
    for _ in range(3):
        _other = _rng.randrange(_NODES)
        if _other != _node:
            GRAPH[_node][_other] = GRAPH[_other][_node] = _rng.random()
DOCUMENT = {
    "peers": [
        {
            "id": f"p{index}",
            "latency": [_rng.random() for _ in range(8)],
            "tags": {"rank": index, "name": str(index)},
        }
        for index in range(1500)
    ]
}


def _reference_once() -> float:
    distance = {0: 0.0}
    heap = [(0.0, 0)]
    while heap:
        reached, node = heapq.heappop(heap)
        if reached > distance.get(node, float("inf")):
            continue
        for other, weight in GRAPH[node].items():
            candidate = reached + weight
            if candidate < distance.get(other, float("inf")):
                distance[other] = candidate
                heapq.heappush(heap, (candidate, other))
    total = sum(distance.values())
    back = json.loads(json.dumps(DOCUMENT, sort_keys=True))
    total += len(sorted((peer["id"], peer["tags"]["rank"]) for peer in back["peers"]))
    return total


def reference_s() -> float:
    """Wall time of the fixed reference workload (about 50 ms on a quiet host).

    The cyclic collector is off meanwhile: a collection would walk the
    program's heap, which would tie the reference to the program's state.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _reference_once()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def _pooled_reference_s(_: int) -> float:
    return reference_s()


class HostSpeed:
    """The reference runs taken through one benchmark run, and timings read
    against them.

    ``references`` holds (time at the middle of the run, seconds) pairs on
    the ``time.perf_counter`` clock, which on Linux is the same monotonic
    clock in every process, so the load generator's runs join the
    benchmark's own.  An interval is read against the median of the runs
    taken within ``window_s`` of it: near enough to follow the host's swings
    over seconds, wide enough that the reference's own jitter over
    milliseconds does not become the figure's.
    """

    def __init__(
        self, nominal_s: float, window_s: float, pool: Optional[Any] = None, width: int = 1
    ) -> None:
        self.nominal_s = nominal_s
        self.window_s = window_s
        #: With a process pool of ``width`` processes, each sample runs the
        #: reference in every one at once and records the mean: the speed of
        #: the whole host, for work that keeps every core busy.
        self.pool = pool
        self.width = width
        self.references: List[Tuple[float, float]] = []

    def sample(self) -> float:
        """Time the reference workload once, record it and return it."""
        started = time.perf_counter()
        if self.pool is None:
            seconds = reference_s()
        else:
            seconds = statistics.mean(self.pool.map(_pooled_reference_s, range(self.width), 1))
        self.references.append((started + (time.perf_counter() - started) / 2, seconds))
        return seconds

    def sample_unless_recent(self, age_s: float) -> None:
        """Sample, unless the middle of the last sample is less than
        ``age_s`` ago: the reference after one phase then serves as the one
        before the next."""
        if not self.references or time.perf_counter() - self.references[-1][0] > age_s:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """``nominal_s`` over the host's reference time around [start, end]."""
        near = [
            seconds
            for middle, seconds in self.references
            if start - self.window_s <= middle <= end + self.window_s
        ]
        if not near:
            middle = (start + end) / 2
            near = [min(self.references, key=lambda pair: abs(pair[0] - middle))[1]]
        return self.nominal_s / statistics.median(near)

    def normalise(self, start: float, end: float) -> float:
        """The interval's length, in seconds of a host at nominal speed."""
        return (end - start) * self.factor(start, end)


def median_reference(count: int = 9) -> float:
    """Median of ``count`` reference runs: the host's speed at one moment."""
    return statistics.median(reference_s() for _ in range(count))
