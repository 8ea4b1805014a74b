"""Outside-in tracing: wrap the program's public functions, record spans.

Nothing in ``src/`` is instrumented for the benchmark.  :class:`Tracer`
replaces each function in :data:`TRACED` with a wrapper that records one span
(name, start, end, parent) per call, and puts the originals back on
:meth:`Tracer.remove`.  A function imported by name into other modules is
patched in every module that holds it, because the caller looks the name up
in its own module (``repro.core.maintenance.merge_hierarchies`` is a
different attribute from ``repro.saintetiq.merging.merge_hierarchies``).

Spans stay in memory (parallel arrays, so a few hundred thousand cost a few
megabytes) and :meth:`Tracer.write` dumps them when the run ends.  The
self time of a span is its duration minus the durations of its direct
children; spans nest per thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: (module, attribute path, span name, counter).  An attribute path with a
#: dot names a method on a class; a bare name is a module-level function.  The
#: counter, when given, is called with (tracer, call arguments, result).
TRACED: List[Tuple[str, str, str, Optional[str]]] = [
    ("repro.network.overlay", "Overlay.latency", "network.overlay.latency", "latency"),
    ("repro.core.construction", "DomainBuilder.build", "core.construction.build", None),
    ("repro.core.maintenance", "MaintenanceEngine.reconcile", "core.maintenance.reconcile", None),
    ("repro.core.protocol", "SummaryManagementSystem.pose_query", "core.protocol.pose_query", None),
    ("repro.core.routing", "QueryRouter.route_in_domain", "core.routing.route_in_domain", None),
    ("repro.core.routing", "QueryRouter.flooding_cost", "core.routing.flooding_cost", None),
    # The pipeline maps records one at a time (SummaryHierarchy.add_record ->
    # MappingService.map_record); map_records is the batch entry point.
    ("repro.saintetiq.mapping", "MappingService.map_record", "saintetiq.mapping.map_records", "record"),
    ("repro.saintetiq.mapping", "MappingService.map_records", "saintetiq.mapping.map_records", "records"),
    ("repro.saintetiq.hierarchy", "SummaryHierarchy.add_record", "saintetiq.hierarchy.incorporate_cells", "cells"),
    ("repro.saintetiq.hierarchy", "SummaryHierarchy.incorporate_cells", "saintetiq.hierarchy.incorporate_cells", "cells"),
    ("repro.saintetiq.hierarchy", "SummaryHierarchy.select", "querying.select", None),
    ("repro.saintetiq.merging", "merge_hierarchies", "saintetiq.merging.merge", None),
    ("repro.core.approximate", "answer_in_domain", "core.approximate.answer_in_domain", None),
    ("repro.store.checkpoint", "capture_session", "store.checkpoint.capture", None),
    # Encoding and hashing a hierarchy is part of capturing the session.
    ("repro.store.snapshots", "SnapshotStore.put_hierarchy", "store.checkpoint.capture", "put"),
    ("repro.store.snapshots", "SnapshotStore.get_hierarchy", "store.snapshots.get", None),
    ("repro.store.backend", "SqliteBackend.put", "store.backend.write", "write"),
    ("repro.saintetiq.serialization", "hierarchy_from_dict", "store.serialization.decode", None),
    ("repro.serve.wire", "encode_answer", "serve.wire.encode", None),
    ("repro.serve.wire", "decode_answer", "serve.wire.decode", None),
]

#: Modules that import a traced function by name; imported before patching so
#: every copy of the name is found.
_IMPORTERS = [
    "repro.core.construction",  # merge_hierarchies
    "repro.core.maintenance",  # merge_hierarchies
    "repro.store.snapshots",  # hierarchy_from_dict
]


class Tracer:
    """Records spans from wrapped functions while installed."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.latency_pairs: Set[Tuple[str, str]] = set()
        self.counts: Dict[str, int] = {}
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- span recording ----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return found

    def _wrap(self, original: Callable, name: str, counter: Optional[str]) -> Callable:
        name_id = self._name_id(name)
        note = _NOTES[counter] if counter is not None else None
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            index = len(tracer.start)
            tracer.name_of.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(index)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                tracer.start[index] = started
                tracer.end[index] = ended
            if note is not None:
                note(tracer, args, result)
            return result

        return traced

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    # -- installation ------------------------------------------------------------

    def install(self) -> "Tracer":
        for module_name in _IMPORTERS:
            importlib.import_module(module_name)
        for module_name, path, span_name, counter in TRACED:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, method = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self._wrap(original, span_name, counter))
            else:
                original = getattr(module, path)
                wrapped = self._wrap(original, span_name, counter)
                for name, holder in list(sys.modules.items()):
                    if name.startswith("repro") and getattr(holder, path, None) is original:
                        self._patch(holder, path, wrapped)
        return self

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def remove(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- aggregation -------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        count = len(self.start)
        child_time = [0.0] * count
        for index in range(count):
            parent = self.parent[index]
            if parent >= 0:
                child_time[parent] += self.end[index] - self.start[index]
        out: Dict[str, Tuple[int, float]] = {}
        for index in range(count):
            name = self._names[self.name_of[index]]
            calls, seconds = out.get(name, (0, 0.0))
            duration = self.end[index] - self.start[index]
            out[name] = (calls + 1, seconds + duration - child_time[index])
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line ``[name, start, end, parent]``."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(json.dumps({"names": self._names}) + "\n")
            for index in range(len(self.start)):
                handle.write(
                    f"[{self.name_of[index]},{self.start[index]:.9f},"
                    f"{self.end[index]:.9f},{self.parent[index]}]\n"
                )


def _note_write(tracer: Tracer, args: tuple, result: Any) -> None:
    backend, kind, key = args[0], args[1], args[2]
    tracer.add("snapshot_rows_written", int(kind == "snapshot"))
    tracer.add("bytes_written", backend.size_bytes(kind, key))


_NOTES: Dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "latency": lambda tracer, args, result: tracer.latency_pairs.add((args[1], args[2])),
    "record": lambda tracer, args, result: tracer.add("records", 1),
    "records": lambda tracer, args, result: tracer.add("records", len(args[1])),
    "cells": lambda tracer, args, result: tracer.add("cells", int(result)),
    "put": lambda tracer, args, result: tracer.add("puts", 1),
    "write": _note_write,
}


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The span-derived per-layer metrics (zero for a layer that never ran)."""
    totals = tracer.totals()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    def seconds(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    latency_calls = calls("network.overlay.latency")
    puts = tracer.counts.get("puts", 0)
    return {
        "network.overlay.latency_calls": latency_calls,
        "network.overlay.latency_s": seconds("network.overlay.latency"),
        "network.overlay.latency_distinct_ratio": (
            len(tracer.latency_pairs) / latency_calls if latency_calls else 0.0
        ),
        "core.construction.build_self_s": seconds("core.construction.build"),
        "core.maintenance.reconcile_calls": calls("core.maintenance.reconcile"),
        "core.maintenance.reconcile_s": seconds("core.maintenance.reconcile"),
        "core.protocol.pose_query_self_s": seconds("core.protocol.pose_query"),
        "core.routing.route_in_domain_calls": calls("core.routing.route_in_domain"),
        "core.routing.route_in_domain_s": seconds("core.routing.route_in_domain"),
        "core.routing.flooding_cost_s": seconds("core.routing.flooding_cost"),
        "saintetiq.mapping.map_records_s": seconds("saintetiq.mapping.map_records"),
        "saintetiq.mapping.records": tracer.counts.get("records", 0),
        "saintetiq.hierarchy.incorporate_cells_s": seconds(
            "saintetiq.hierarchy.incorporate_cells"
        ),
        "saintetiq.hierarchy.cells": tracer.counts.get("cells", 0),
        "saintetiq.merging.merge_s": seconds("saintetiq.merging.merge"),
        "saintetiq.merging.calls": calls("saintetiq.merging.merge"),
        "querying.select_s": seconds("querying.select"),
        "querying.select_calls": calls("querying.select"),
        "core.approximate.answer_in_domain_s": seconds("core.approximate.answer_in_domain"),
        "store.checkpoint.capture_s": seconds("store.checkpoint.capture"),
        "store.backend.write_s": seconds("store.backend.write"),
        "store.snapshots.puts": puts,
        "store.snapshots.reused_ratio": (
            1.0 - tracer.counts.get("snapshot_rows_written", 0) / puts if puts else 0.0
        ),
        "store.snapshots.gets": calls("store.snapshots.get"),
        "store.snapshots.get_s": seconds("store.snapshots.get"),
        "store.serialization.decode_s": seconds("store.serialization.decode"),
        "store.bytes_written": tracer.counts.get("bytes_written", 0),
    }
