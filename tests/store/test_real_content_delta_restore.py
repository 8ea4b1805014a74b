"""A real-content session restored through a delta chain answers like the live one.

Restoring a hierarchy re-absorbs its cells in the order the encoding lists
them, and every node's statistics are floating-point sums.  If the encoding
listed cells in any order other than insertion order, a restored node would
sum in a different order, drift from the live one in the last bits, and a
query's approximate answer would differ.  This pins the full pipeline on a
network large enough for that drift to show: build, checkpoint at half the
horizon, run on, delta-checkpoint at the horizon, restore.
"""

import random

from repro.core.session import SystemBuilder
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.overlay import Overlay
from repro.store import SqliteBackend
from repro.store.checkpoint import restore_session
from repro.workloads.patients import MedicalWorkload, build_peer_databases
from repro.workloads.queries import QueryWorkload
from repro.workloads.scenarios import SimulationScenario

SEED = 11
PEERS = 128
HORIZON = 3600.0
QUERIES = 10


def _live_session(background):
    scenario = SimulationScenario(
        peer_count=PEERS, duration_seconds=HORIZON, seed=SEED
    )
    overlay = Overlay.generate(scenario.topology_config())
    databases = build_peer_databases(
        overlay.peer_ids,
        MedicalWorkload(records_per_peer=20, seed=SEED, background=background),
    )
    builder = (
        SystemBuilder()
        .topology(overlay)
        .background(background)
        .protocol(superpeer_fraction=scenario.superpeer_fraction)
        .real_content(databases)
        .seed(SEED)
    )
    # A modification every 20 minutes per peer: reconciliation runs many
    # cycles within the horizon, so restored hierarchies are merged ones.
    return scenario.apply_dynamics(
        builder, modification_rate_per_peer=1.0 / 1200.0
    ).build()


def _answers(session, background):
    rng = random.Random(SEED)
    originators = session.partner_ids()
    queries = QueryWorkload(
        query_count=QUERIES, seed=SEED, background=background
    ).iter_queries()
    return [
        session.query(
            rng.choice(originators),
            query=query,
            required_results=round(0.1 * PEERS),
            include_answer=True,
        )
        for query in queries
    ]


def test_delta_restored_real_session_answers_like_the_live_one(tmp_path):
    background = medical_background_knowledge()
    live = _live_session(background)
    with SqliteBackend(tmp_path / "store.sqlite") as backend:
        live.run_until(HORIZON / 2)
        live.checkpoint(backend, name="half")
        live.run_until(HORIZON)
        live.checkpoint(backend, name="final", base="half")
        restored = restore_session(backend, name="final", background=background)

    live_answers = _answers(live, background)
    restored_answers = _answers(restored, background)
    assert len(live_answers) == QUERIES
    assert any(answer.answer is not None for answer in live_answers)
    for index, (expected, actual) in enumerate(zip(live_answers, restored_answers)):
        assert actual == expected, f"query {index} differs after restore"
