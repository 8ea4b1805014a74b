"""The phases every workload shares, and the two in-process workloads.

Every workload runs the same pipeline through the public API:

1. **set-up** -- build the session;
2. **simulate** -- ``run_until(horizon / 2)``, full save into fresh SQLite
   stores, ``run_until(horizon)``, delta save against the half-horizon
   checkpoint in each store;
3. **restore** -- ``restore_session`` through the delta chain of each store.

The saves and the restore are short, so each is repeated ``phase_repeats``
times per pipeline (one fresh store per repeat).  Then, on this first
replica:

4. **gate** -- the same queries posed on the live session and on the restored
   one must give equal ``QueryAnswer`` values;
5. **queries** -- ``table3-planned`` and ``medical-real`` run a closed loop of
   single ``query()`` calls from one caller on the restored session;
   ``serve-fleet`` (``fleet.py``) serves the checkpoint instead.

Steps 1-3 are then repeated until there are ``replicas`` pipelines and
``setup_repeats`` builds, and each phase metric is the median over all its
samples: the host's speed drifts over seconds, so one short phase is not a
steady figure.  For the same reason every timed phase is bracketed by a fixed
reference workload and reported normalised to it (``hostspeed.py``); the
wall times go to the diagnostics.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import SystemBuilder, medical_background_knowledge
from repro.core.session import NetworkSession
from repro.fuzzy.background import BackgroundKnowledge
from repro.network.overlay import Overlay
from repro.store.backend import open_store
from repro.store.checkpoint import restore_session
from repro.workloads.patients import MedicalWorkload, build_peer_databases
from repro.workloads.queries import QueryWorkload
from repro.workloads.registry import default_registry
from repro.workloads.scenarios import SimulationScenario

from hostspeed import HostSpeed
from tracer import Tracer, layer_metrics

#: Checkpoint names: the half-horizon full save and the horizon delta.
HALF, FINAL = "half", "session"

#: Prefixes of the per-layer metrics of the fleet and its load generator,
#: which are idle in process.
FLEET_LAYER_PREFIXES = ("serve.", "loadgen.")


@dataclass
class Run:
    """What one benchmark invocation measured and checked."""

    settings: Dict[str, Any]
    workload: str
    seed: int
    seconds: float
    workdir: str
    host: HostSpeed
    tracer: Optional[Tracer] = None
    #: The per-layer metric names ``BENCHMARK.json`` declares.
    per_layer: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: Each timed phase's samples, a sample being the (start, end) intervals
    #: it spans on the ``time.perf_counter`` clock.
    timings: Dict[str, List[List[Tuple[float, float]]]] = field(default_factory=dict)
    #: Normalised samples of each timed phase, and their wall-time medians.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    walls: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific records for the diagnostics line.
    extra: Dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    @property
    def scales(self) -> Dict[str, Any]:
        return self.settings["scales"]

    def check(self, ok: bool, what: str) -> bool:
        """Count one correctness operation; a mismatch fails the run."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")
        return ok


def percentile(values: List[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- session factories -------------------------------------------------------------


def table3_factory(run: Run) -> Tuple[Callable[[], NetworkSession], None]:
    """The ROADMAP anchor: ``table3-default`` with churn and modifications."""
    scenario = default_registry().scenario(
        "table3-default", peer_count=run.scales["table3_peers"], seed=run.seed
    )
    return (lambda: scenario.apply_dynamics(scenario.builder()).build()), None


def medical_factory(
    run: Run,
) -> Tuple[Callable[[], NetworkSession], BackgroundKnowledge]:
    """Real patient databases, with modifications frequent enough that
    reconciliation runs many cycles within the horizon."""
    scales = run.scales
    background = medical_background_knowledge()
    # SimulationScenario supplies the Table-3 churn model; content is real.
    scenario = SimulationScenario(
        peer_count=scales["medical_peers"],
        duration_seconds=scales["medical_horizon_s"],
        seed=run.seed,
    )

    def build() -> NetworkSession:
        overlay = Overlay.generate(scenario.topology_config())
        databases = build_peer_databases(
            overlay.peer_ids,
            MedicalWorkload(
                records_per_peer=scales["medical_records_per_peer"],
                seed=run.seed,
                background=background,
            ),
        )
        builder = (
            SystemBuilder()
            .topology(overlay)
            .background(background)
            .protocol(superpeer_fraction=scenario.superpeer_fraction)
            .real_content(databases)
            .seed(run.seed)
        )
        return scenario.apply_dynamics(
            builder,
            modification_rate_per_peer=scales["medical_modification_rate_per_peer_per_s"],
        ).build()

    return build, background


# -- phases ------------------------------------------------------------------------


def store_bytes(path: str) -> int:
    """Logical bytes of every object in the store (an exact count)."""
    backend = open_store(path, exclusive=False)
    try:
        return sum(
            backend.size_bytes(kind, key)
            for kind in backend.kinds()
            for key in backend.keys(kind)
        )
    finally:
        backend.close()


#: The phases every replica times; each metric is the median of all its samples.
PHASES = ("setup_s", "simulate_s", "save_s", "delta_save_s", "restore_s")


#: A reference run this recent (seconds, from its middle) stands before a phase.
RECENT_S = 0.3


def timed(run: Run, action: Callable[[], Any]) -> Tuple[Any, Tuple[float, float]]:
    """Run ``action`` after a full collection, between two reference runs
    (the one before may be the previous phase's one after); returns its
    result and its (start, end) interval.

    Collecting first keeps an earlier phase's garbage out of this phase's time.
    """
    gc.collect()
    run.host.sample_unless_recent(RECENT_S)
    start = time.perf_counter()
    result = action()
    end = time.perf_counter()
    run.host.sample()
    return result, (start, end)


def phase(run: Run, name: str, action: Callable[[], Any]) -> Any:
    """Time ``action`` as one sample of ``name`` and return its result."""
    result, interval = timed(run, action)
    run.timings.setdefault(name, []).append([interval])
    return result


def pipeline(
    run: Run,
    build: Callable[[], NetworkSession],
    background: Optional[BackgroundKnowledge],
    index: int,
) -> Tuple[NetworkSession, NetworkSession, str]:
    """One replica: build, simulate with full and delta saves, restore.

    The saves and the restore run once per fresh store, ``phase_repeats``
    stores (one in a traced run, so span counts are those of one pipeline).
    Returns the live session, the session restored through the first store's
    delta chain and that store's path.
    """
    repeats = 1 if run.traced else run.scales["phase_repeats"]
    stores = [
        os.path.join(run.workdir, f"store-{index}-{repeat}.sqlite")
        for repeat in range(repeats)
    ]
    session = phase(run, "setup_s", build)
    horizon = session.horizon
    assert horizon is not None
    events, first_leg = timed(run, lambda: session.run_until(horizon / 2))
    for store in stores:
        phase(run, "save_s", lambda: session.checkpoint(store, name=HALF))
    more, second_leg = timed(run, lambda: session.run_until(horizon))
    events += more
    run.timings.setdefault("simulate_s", []).append([first_leg, second_leg])
    for store in stores:
        phase(run, "delta_save_s", lambda: session.checkpoint(store, name=FINAL, base=HALF))
    restored: Optional[NetworkSession] = None
    for store in stores:
        copy = phase(
            run, "restore_s", lambda: restore_session(store, name=FINAL, background=background)
        )
        if restored is None:
            restored = copy
        del copy

    run.layers["network.simulator.events"] = events
    run.layers["core.maintenance.update_messages"] = (
        session.maintenance_report().update_messages
    )
    return session, restored, stores[0]


def repeat_pipeline(
    run: Run, build: Callable[[], NetworkSession], background: Optional[BackgroundKnowledge]
) -> None:
    """Time ``replicas - 1`` more pipelines and extra builds up to
    ``setup_repeats``, after the first replica's measurements are done.

    A traced run makes no repeats: its span counts are those of one pipeline.
    """
    if run.traced:
        return
    replicas = run.settings["replicas"][run.workload]
    for index in range(1, max(replicas, run.scales["setup_repeats"])):
        if index < replicas:
            pipeline(run, build, background, index)
        else:
            phase(run, "setup_s", build)


def report_phases(run: Run, names: Tuple[str, ...] = PHASES) -> None:
    """Each timed phase's metric: the median of its normalised samples."""
    for name in names:
        samples = run.timings[name]
        run.samples[name] = [
            sum(run.host.normalise(start, end) for start, end in sample) for sample in samples
        ]
        run.walls[name] = statistics.median(
            sum(end - start for start, end in sample) for sample in samples
        )
        run.metrics[name] = statistics.median(run.samples[name])


def overhead_ratio(tracer: Tracer, blocks: int, work: Callable[[bool], None]) -> float:
    """Traced time / untraced time of ``blocks`` calls of ``work``.

    The tracer is installed for every other block (``work`` is told which),
    so both kinds of block see the same drift in the host's speed.
    """
    times = {True: 0.0, False: 0.0}
    for index in range(blocks):
        traced = index % 2 == 0
        if traced:
            tracer.install()
        started = time.perf_counter()
        try:
            work(traced)
        finally:
            times[traced] += time.perf_counter() - started
            if traced:
                tracer.remove()
    return times[True] / times[False]


# -- the in-process query loop -----------------------------------------------------


def query_stream(
    run: Run, session: NetworkSession, background: Optional[BackgroundKnowledge]
) -> Callable[[NetworkSession], Any]:
    """A seeded endless stream of query calls; each call poses the next query.

    Planned content poses plan-matched queries; real content poses
    ``QueryWorkload`` queries with their approximate answers.  The stream is
    a pure function of the seed, so two sessions fed from two streams with
    the same seed see the same queries.
    """
    rng = random.Random(run.seed)
    originators = session.partner_ids()
    required = max(1, round(0.1 * session.overlay.size))
    if background is None:
        return lambda target: target.query(
            rng.choice(originators), required_results=required
        )
    queries = QueryWorkload(
        query_count=10**9, seed=run.seed, background=background
    ).iter_queries()
    return lambda target: target.query(
        rng.choice(originators),
        query=next(queries),
        required_results=required,
        include_answer=True,
    )


def gate(
    run: Run,
    live: NetworkSession,
    restored: NetworkSession,
    background: Optional[BackgroundKnowledge],
) -> None:
    """Live and restored sessions must answer the same queries identically."""
    live_stream = query_stream(run, live, background)
    restored_stream = query_stream(run, restored, background)
    for index in range(run.scales["gate_samples"]):
        run.check(
            live_stream(live) == restored_stream(restored),
            f"query {index} differs between the live and the restored session",
        )


def query_loop(
    run: Run, session: NetworkSession, background: Optional[BackgroundKnowledge]
) -> None:
    """Closed loop of single ``query()`` calls on the restored session.

    Untraced: runs ``seconds`` and at least ``min_query_calls`` calls, in
    blocks of ``query_block_s`` between reference runs; each call's latency
    and each block's time are read against the references around its block
    (``hostspeed.py``).  Peak memory is read after exactly
    ``min_query_calls`` calls, so it covers the query phase (the engine keeps
    every query's routing result) without following the host's speed.
    ``slo_ratio`` holds the wall latencies to the limit.  Traced: a fixed
    ``trace_query_calls`` calls in blocks that alternate tracer on / off, so
    span counts are exact and the blocks give ``trace.overhead_ratio``.
    """
    stream = query_stream(run, session, background)
    limit_s = run.settings["slo_limit_ms"][run.workload] / 1000.0
    if run.traced:
        messages: List[int] = []
        block = run.scales["trace_block"]

        def work(traced: bool) -> None:
            answers = [stream(session) for _ in range(block)]
            if traced:
                messages.extend(answer.total_messages for answer in answers)

        run.layers["trace.overhead_ratio"] = overhead_ratio(
            run.tracer, run.scales["trace_query_calls"] // block, work
        )
        run.layers["core.protocol.messages_per_query"] = statistics.mean(messages)
        return

    blocks: List[Tuple[float, float, List[float]]] = []
    calls = within = 0
    minimum = run.scales["min_query_calls"]
    deadline = time.perf_counter() + run.seconds
    run.host.sample()
    while time.perf_counter() < deadline or calls < minimum:
        block: List[float] = []
        started = time.perf_counter()
        block_end = started + run.scales["query_block_s"]
        while time.perf_counter() < block_end:
            calls += 1
            call_started = time.perf_counter()
            try:
                stream(session)
            except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
                run.check(False, f"query raised {type(exc).__name__}: {exc}")
            else:
                latency = time.perf_counter() - call_started
                block.append(latency)
                within += latency <= limit_s
                run.attempted += 1
            if calls == minimum:
                run.metrics["peak_rss_mb"] = peak_rss_mb()
        blocks.append((started, time.perf_counter(), block))
        run.host.sample()
    # Read each block against the references around it once all are taken.
    factors = [run.host.factor(start, end) for start, end, _ in blocks]
    answered = sum(len(block) for _, _, block in blocks)
    latencies = [
        value * factor for factor, (_, _, block) in zip(factors, blocks) for value in block
    ]
    run.metrics["query_qps"] = answered / sum(
        (end - start) * factor for factor, (start, end, _) in zip(factors, blocks)
    )
    run.metrics["query_p50_ms"] = 1000.0 * percentile(latencies, 0.50)
    run.metrics["query_p99_ms"] = 1000.0 * percentile(latencies, 0.99)
    run.metrics["slo_ratio"] = within / calls
    run.walls["query_qps"] = answered / sum(end - start for start, end, _ in blocks)
    run.timings["query_blocks"] = [[(start, end)] for start, end, _ in blocks]


def run_in_process(run: Run) -> None:
    """``table3-planned`` and ``medical-real``."""
    factory = table3_factory if run.workload == "table3-planned" else medical_factory
    build, background = factory(run)
    if run.traced:
        run.tracer.install()
    session, restored, store = pipeline(run, build, background, 0)
    if run.traced:
        run.tracer.remove()
    run.metrics["checkpoint_bytes"] = store_bytes(store)
    gate(run, session, restored, background)
    del session
    query_loop(run, restored, background)
    del restored
    repeat_pipeline(run, build, background)
    report_phases(run)
    if run.traced:
        run.layers.update(layer_metrics(run.tracer))
        run.layers.update(
            {name: 0 for name in run.per_layer if name.startswith(FLEET_LAYER_PREFIXES)}
        )
