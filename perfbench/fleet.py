"""The ``serve-fleet`` workload: the Table-3 checkpoint behind a supervised fleet.

The session is built, simulated, saved and restored exactly as in
``table3-planned`` (``pipeline.py``); then ``Supervisor`` serves the delta
checkpoint from ``nproc`` worker processes with the production default
response cache.  ``setup_s`` is the median build time plus the median time
from ``Supervisor(...).start()`` to a ready fleet, over ``setup_repeats``.
Times are normalised to the reference workload around them
(``hostspeed.py``): the fleet's start and each segment of the load.

The load comes from ``loadgen.py`` in its own process.  The fleet's workers
are read only through ``/health`` and ``/metrics``.  Answers are checked
twice: before any timing, a sample of fleet answers must equal the answer of
a freshly restored local session (``restore_session``) for the same key;
after the load, every response to a key must carry the same bytes, and the
most requested keys are re-fetched and checked against fresh restores.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import urllib.request
from collections import Counter
from typing import Any, Dict, List, Optional

from repro.obs.registry import parse_prometheus
from repro.serve import ServeClient, wire
from repro.serve.supervisor import Supervisor
from repro.store.checkpoint import restore_session

from hostspeed import HostSpeed
from loadgen import request_body
from pipeline import (
    FINAL,
    PHASES,
    Run,
    gate,
    overhead_ratio,
    peak_rss_mb,
    percentile,
    phase,
    pipeline,
    repeat_pipeline,
    report_phases,
    store_bytes,
    table3_factory,
)
from tracer import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))

#: Seconds the generator may run past its schedule before it is stopped.
LOADGEN_GRACE_S = 60.0


def reference_answer(store: str, originator: str, key: int, required: int):
    """What a fresh local restore of the checkpoint answers for one key."""
    return restore_session(store, name=FINAL).query(
        originator, query_id=key, required_results=required
    )


def fleet_gate(
    run: Run, url: str, store: str, originators: List[str], required: int
) -> None:
    """Fleet answers for sampled keys must equal fresh local restores."""
    client = ServeClient(url)
    messages: List[int] = []
    rng = random.Random(run.seed + 1)
    key_space = run.settings["serve"]["key_space"]
    for _ in range(run.scales["gate_samples"]):
        key = rng.randrange(key_space)
        originator = originators[key % len(originators)]
        try:
            served = client.query(originator, query_id=key, required_results=required)
        except Exception as exc:  # noqa: BLE001 - a refused request fails the gate
            run.check(False, f"fleet refused key {key}: {exc}")
            continue
        local = reference_answer(store, originator, key, required)
        if run.traced:  # times the encoder the workers run, on the same answer
            run.tracer.install()
            wire.encode_answer(local)
            run.tracer.remove()
        run.check(served == local, f"fleet answer for key {key} differs from a restore")
        messages.append(served.total_messages)
    run.layers["core.protocol.messages_per_query"] = statistics.mean(messages)


def drive(run: Run, url: str, originators: List[str], required: int) -> Dict[str, Any]:
    """Run ``loadgen.py`` in its own process and return its rows."""
    serve = run.settings["serve"]
    spec = {
        "seed": run.seed,
        "rate": serve["open_loop_rate_per_s"],
        # At least min_query_calls requests, so the p99 has ten beyond it.
        "open_seconds": max(
            run.seconds, run.scales["min_query_calls"] / serve["open_loop_rate_per_s"]
        ),
        "closed_seconds": run.seconds * serve["closed_loop_share_of_seconds"],
        "threads": os.cpu_count() or 1,
        "segments": serve["segments"],
        "key_space": serve["key_space"],
        "zipf_exponent": serve["zipf_exponent"],
        "originators": originators,
        "required": required,
        "trace": run.traced,
    }
    spec_path = os.path.join(run.workdir, "load-spec.json")
    out_path = os.path.join(run.workdir, "load-out.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    budget = spec["open_seconds"] + spec["closed_seconds"] + LOADGEN_GRACE_S
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "loadgen.py"), "--url", url,
         "--spec", spec_path, "--out", out_path],
        env=env,
    )
    try:
        code = process.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise RuntimeError(f"load generator did not finish within {budget:.0f}s")
    if code != 0:
        raise RuntimeError(f"load generator exited with code {code}")
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def verify(
    run: Run,
    url: str,
    store: str,
    rows: List[List[Any]],
    originators: List[str],
    required: int,
) -> Dict[int, str]:
    """Check every response against the others for its key and the most
    requested keys against fresh restores; returns the trusted digest per key
    (a key whose responses disagree has none)."""
    digests: Dict[int, set] = {}
    for row in rows:
        key, status, digest = row[0], row[4], row[6]
        if status == 200:
            digests.setdefault(key, set()).add(digest)
    trusted = {key: next(iter(found)) for key, found in digests.items() if len(found) == 1}
    for key in set(digests) - set(trusted):
        run.check(False, f"key {key} was answered with {len(digests[key])} different bodies")
    popular = Counter(row[0] for row in rows if row[4] == 200)
    for key, _count in popular.most_common(run.settings["serve"]["verify_top_keys"]):
        request = urllib.request.Request(
            url + "/query",
            data=request_body(key, originators, required),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30.0) as response:
                raw = response.read()
        except OSError as exc:  # a refused or failed request fails the check
            raw = b""
            run.notes.append(f"popular key {key}: {exc}")
        local = reference_answer(store, originators[key % len(originators)], key, required)
        same = (
            hashlib.sha256(raw).hexdigest() == trusted.get(key)
            and wire.decode_answer(json.loads(raw.decode("utf-8"))["answer"]) == local
        )
        if not run.check(same, f"popular key {key} differs from a restore"):
            trusted.pop(key, None)
    return trusted


def open_loop_valid(run: Run, rows: List[List[Any]]) -> bool:
    """The generator kept its schedule and the backlog did not grow.

    Lateness is send time minus due time.  The run is invalid when the median
    send went out late by more than a tenth of the latency limit (the
    generator fell behind its schedule), or when the requests of the last
    quarter of the schedule went out later, on median, than those of the
    first quarter by more than a tenth of the limit (a growing backlog).  A
    short stall of the fleet delays the sends queued behind it: that delay is
    part of their latency, timed from the due time, and shows in
    ``loadgen.late_p99_ms``, but it is not the generator falling behind.
    """
    limit_s = run.settings["slo_limit_ms"][run.workload] / 1000.0
    ordered = sorted(rows, key=lambda row: row[1])
    lateness = [row[2] - row[1] for row in ordered]
    quarter = max(1, len(lateness) // 4)
    growth = statistics.median(lateness[-quarter:]) - statistics.median(lateness[:quarter])
    typical = statistics.median(lateness)
    run.layers["loadgen.late_p50_ms"] = 1000.0 * typical
    run.layers["loadgen.late_p99_ms"] = 1000.0 * percentile(lateness, 0.99)
    run.layers["loadgen.backlog_growth_ms"] = 1000.0 * growth
    return typical <= limit_s / 10 and growth <= limit_s / 10


def series_total(metrics: Dict[str, Dict[str, float]], name: str) -> float:
    return sum(metrics.get(name, {}).values())


def summarize(
    run: Run,
    load: Dict[str, Any],
    trusted: Dict[int, str],
    health: Dict[str, Any],
    metrics_text: str,
) -> None:
    limit_s = run.settings["slo_limit_ms"][run.workload] / 1000.0
    open_rows, closed_rows = load["open"], load["closed"]

    def correct(row: List[Any]) -> bool:
        return row[4] == 200 and trusted.get(row[0]) == row[6]

    for loop, rows in (("open", open_rows), ("closed", closed_rows)):
        bad = sum(1 for row in rows if not correct(row))
        run.attempted += len(rows)
        run.failed += bad
        if bad:
            run.notes.append(f"FAILED: {bad} of {len(rows)} {loop}-loop requests")

    # Each row's last field is its segment; each segment is read against the
    # generator's reference runs around it, taken on every core at once.
    host = HostSpeed(run.settings["reference_nominal_all_cores_s"], run.host.window_s)
    host.references = [tuple(pair) for pair in load["references"]]
    run.extra["all_core_references"] = host.references
    segments = load["segments"]
    factors = {
        loop: [host.factor(segment["start"], segment["end"]) for segment in segments[loop]]
        for loop in segments
    }
    latencies = [
        (row[3] - row[1]) * factors["open"][row[-1]] for row in open_rows if correct(row)
    ]
    run.metrics["query_p50_ms"] = 1000.0 * percentile(latencies, 0.50)
    run.metrics["query_p99_ms"] = 1000.0 * percentile(latencies, 0.99)
    run.metrics["slo_ratio"] = sum(
        1 for row in open_rows if correct(row) and row[3] - row[1] <= limit_s
    ) / len(open_rows)
    answered = sum(1 for row in closed_rows if correct(row))
    closed = segments["closed"]
    run.metrics["query_qps"] = answered / sum(
        host.normalise(segment["start"], segment["end"]) for segment in closed
    )
    run.walls["query_qps"] = answered / sum(
        segment["end"] - segment["start"] for segment in closed
    )
    run.timings["load_segments"] = [
        [(segment["start"], segment["end"])] for loop in segments for segment in segments[loop]
    ]
    run.check(open_loop_valid(run, open_rows), "open loop fell behind its schedule")

    metrics = parse_prometheus(metrics_text)

    def mean_ms(histogram: str) -> float:
        count = series_total(metrics, histogram + "_count")
        return 1000.0 * series_total(metrics, histogram + "_sum") / count if count else 0.0

    cache = health["cache"]
    lookups = cache["hits"] + cache["misses"]
    rows = open_rows + closed_rows
    misses = [row[3] - row[2] for row in rows if row[4] == 200 and not row[5]]
    hold_ms = mean_ms("repro_session_lock_hold_seconds")
    run.layers.update(
        {
            "serve.worker.hold_ms": hold_ms,
            "serve.worker.wait_ms": mean_ms("repro_session_lock_wait_seconds"),
            "serve.front.overhead_ms": (
                1000.0 * statistics.mean(misses) - hold_ms if misses else 0.0
            ),
            "serve.wire.decode_ms": 1000.0 * statistics.mean(row[8] for row in rows),
            "serve.wire.answer_bytes": statistics.mean(
                row[7] for row in rows if row[4] == 200
            ),
            "serve.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            # The cache is an LRU admitting every answered miss, so all but
            # the entries still held were evicted.
            "serve.cache.evictions": max(0, cache["misses"] - cache["size"]),
            "serve.supervisor.shed": health["shed_total"],
            "serve.supervisor.deadline_exceeded": series_total(
                metrics, "repro_supervisor_deadline_total"
            ),
            "serve.supervisor.retries": health["retries_total"],
            "serve.supervisor.restarts": health["restarts_total"],
        }
    )


def overhead_probe(run: Run, store: str, originators: List[str], required: int) -> float:
    """Traced / untraced time of the same kind of work the fleet does: blocks
    of local query + encode + decode round trips.

    Uses its own tracer so the probe's spans stay out of the layer metrics.
    """
    session = restore_session(store, name=FINAL)
    rng = random.Random(run.seed + 2)
    block = run.scales["trace_block"]

    def work(traced: bool) -> None:
        for _ in range(block):
            answer = session.query(rng.choice(originators), required_results=required)
            wire.decode_answer(json.loads(json.dumps(wire.encode_answer(answer))))

    return overhead_ratio(Tracer(), run.scales["trace_query_calls"] // block, work)


def run_fleet(run: Run) -> None:
    build, _ = table3_factory(run)
    if run.traced:
        run.tracer.install()
    session, restored, store = pipeline(run, build, None, 0)
    if run.traced:
        run.tracer.remove()
    run.metrics["checkpoint_bytes"] = store_bytes(store)
    gate(run, session, restored, None)
    originators = restored.partner_ids()
    required = max(1, round(0.1 * restored.overlay.size))
    del session, restored

    workers = os.cpu_count() or 1
    repeats = 1 if run.traced else run.scales["setup_repeats"]
    supervisor: Optional[Supervisor] = None
    try:
        for attempt in range(repeats):
            supervisor = Supervisor(store, name=FINAL, workers=workers)
            phase(run, "fleet_start_s", supervisor.start)
            if attempt < repeats - 1:
                supervisor.stop()
        fleet_gate(run, supervisor.url, store, originators, required)
        load = drive(run, supervisor.url, originators, required)
        client = ServeClient(supervisor.url)
        health = client.health()
        metrics_text = client.metrics()
        trusted = verify(
            run, supervisor.url, store, load["open"] + load["closed"], originators, required
        )
        summarize(run, load, trusted, health, metrics_text)
    finally:
        if supervisor is not None:
            supervisor.stop()

    # Every child (workers, generator) has been waited for by now.
    child_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    run.metrics["peak_rss_mb"] = peak_rss_mb() + workers * child_mb
    run.layers["serve.worker.rss_mb"] = child_mb
    if run.traced:
        run.layers.update(layer_metrics(run.tracer))
        encode = run.tracer.totals().get("serve.wire.encode", (0, 0.0))
        run.layers["serve.wire.encode_ms"] = 1000.0 * encode[1] / encode[0] if encode[0] else 0.0
        run.layers["trace.overhead_ratio"] = overhead_probe(run, store, originators, required)

    repeat_pipeline(run, build, None)
    report_phases(run, PHASES + ("fleet_start_s",))
    run.metrics["setup_s"] += run.metrics.pop("fleet_start_s")
