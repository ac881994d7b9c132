"""Serving queries against a live, mutating database.

The engine_service example ends where this one begins: what happens when
the database keeps changing underneath a warm engine?  Before PR 3, every
``add``/``discard`` invalidated the whole materialization and the next
request paid a full chase + reduction rebuild.  The incremental-maintenance
subsystem (``repro.incremental``) instead reconstructs the *net delta* from
the database's mutation log and patches the chased instance (provenance-
tracking delta chase: semi-naive insertions, DRed-style over-delete +
re-derive for deletions) and the per-query reduced relations (only the
blocks whose join-tree nodes a delta touched) in place.

This walkthrough shows

1. ``Database.batch()`` coalescing a mutation burst into one delta,
2. ``Database.add_facts`` bulk loading with a single version bump,
3. a warm engine absorbing update rounds without ever re-chasing,
4. the ~1% delta SLO: incremental rounds vs forced full rebuilds, and
5. the fallback threshold: a huge delta triggers a rebuild on purpose.

Run with:  python examples/live_updates.py
"""

import random
import time

from repro.config import ExecutionOptions
from repro.data.facts import Fact
from repro.engine import QueryEngine
from repro.workloads import generate_university_database, university_omq

ROUNDS = 25


def mutation_round(database, rng, size, tag):
    """One burst of live traffic: new students arrive, some records retire."""
    facts = sorted(database.facts(), key=repr)
    with database.batch():  # one version bump, one coalesced delta
        for index in range(size):
            if rng.random() < 0.5:
                database.discard(facts[rng.randrange(len(facts))])
            else:
                database.add(Fact("HasAdvisor", (f"s_{tag}_{index}", "prof1")))
    return database.version


def replay(engine, database, query, batch_size, seed):
    rng = random.Random(seed)
    started = time.perf_counter()
    for round_index in range(ROUNDS):
        mutation_round(database, rng, batch_size, round_index)
        engine.execute(query)  # warm engine absorbs the delta
    return time.perf_counter() - started


def main() -> None:
    omq = university_omq()
    database = generate_university_database(1000, seed=7)
    print(f"university database: {len(database)} facts")

    # -- bulk loading: one version bump for the whole load ------------------
    version_before = database.version
    loaded = database.add_facts(
        Fact("GradStudent", (f"bulk{i}",)) for i in range(500)
    )
    print(
        f"add_facts loaded {loaded} facts with "
        f"{database.version - version_before} version bump(s)\n"
    )

    engine = QueryEngine(omq.ontology, database)
    engine.execute(omq.query)  # warm: chase + reduction built once
    batch_size = max(1, len(database) // 100)  # ~1% deltas

    incremental_seconds = replay(engine, database, omq.query, batch_size, seed=1)
    stats = engine.stats
    assert stats.chase_builds == 1, "warm engine must never re-chase"

    # Same traffic against an engine with maintenance disabled: every round
    # drops the materialization and rebuilds it from scratch.
    rebuild_db = generate_university_database(1000, seed=7)
    rebuild_db.add_facts(Fact("GradStudent", (f"bulk{i}",)) for i in range(500))
    rebuild_engine = QueryEngine(
        omq.ontology, rebuild_db, options=ExecutionOptions(incremental=False)
    )
    rebuild_engine.execute(omq.query)
    rebuild_seconds = replay(rebuild_engine, rebuild_db, omq.query, batch_size, seed=1)

    print(
        f"{ROUNDS} update rounds of {batch_size} delta facts (~1% of the "
        f"database) + re-query: incremental {incremental_seconds * 1000:.1f} ms, "
        f"rebuild {rebuild_seconds * 1000:.1f} ms "
        f"({rebuild_seconds / incremental_seconds:.1f}x speedup)"
    )
    print(
        f"incremental engine: {stats.chase_builds} chase build, "
        f"{stats.chase_increments} in-place increments, "
        f"{stats.incremental_fallbacks} fallbacks"
    )

    # -- the fallback threshold --------------------------------------------
    with database.batch():
        for index in range(len(database) // 2):
            database.add(Fact("GradStudent", (f"wave{index}",)))
    engine.execute(omq.query)
    stats = engine.stats
    print(
        f"after a 50% delta: fallbacks={stats.incremental_fallbacks}, "
        f"chase builds={stats.chase_builds} "
        "(delta exceeded fallback_ratio, so the engine chose a rebuild)"
    )


if __name__ == "__main__":
    main()
