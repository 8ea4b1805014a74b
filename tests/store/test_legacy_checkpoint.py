"""Checkpoints written by older releases still restore.

Releases that had pluggable execution backends recorded a ``"runtime"`` key
(``"concurrent"``) in checkpoints taken on the non-default backend.  Every
backend drained events in the same order, so such a checkpoint describes the
same state as one without the key: restoring must ignore it and continue
exactly like the live session, from a full checkpoint and through a delta
chain alike.
"""

import copy

from repro.store import InMemoryBackend
from repro.store.checkpoint import CHECKPOINT_KIND, restore_session
from repro.store.deltas import diff_documents
from repro.workloads.registry import default_registry

HORIZON = 1800.0
MIDPOINT = 900.0
LATE = 1200.0


def _finish(session, queries=4):
    session.run_until(HORIZON)
    return {
        "answers": session.query_batch(count=queries, required_results=3),
        "counter": session.system.counter.state_payload(),
        "now": session.now,
    }


def _legacy(document):
    legacy = copy.deepcopy(document)
    legacy["runtime"] = "concurrent"
    return legacy


def test_checkpoint_with_legacy_runtime_key_restores_like_the_live_session():
    scenario = default_registry().scenario(
        "table3-default", peer_count=32, duration_seconds=HORIZON
    )
    live = scenario.apply_dynamics(scenario.builder()).build()
    backend = InMemoryBackend()

    live.run_until(MIDPOINT)
    live.checkpoint(backend, name="mid")
    mid = _legacy(backend.get(CHECKPOINT_KIND, "mid"))
    backend.put(CHECKPOINT_KIND, "legacy-mid", mid)

    live.run_until(LATE)
    live.checkpoint(backend, name="late")
    late = _legacy(backend.get(CHECKPOINT_KIND, "late"))
    backend.put(
        CHECKPOINT_KIND,
        "legacy-late",
        {"format": late["format"], "base": "legacy-mid", "patch": diff_documents(mid, late)},
    )

    reference = _finish(live)
    assert _finish(restore_session(backend, name="legacy-mid")) == reference
    assert _finish(restore_session(backend, name="legacy-late")) == reference
