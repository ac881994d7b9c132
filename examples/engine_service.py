"""A query-serving walkthrough of the prepared-query engine.

Simulates the shape of a production deployment: one long-lived
:class:`repro.engine.QueryEngine` per ontology, a handful of query templates
prepared once, then a stream of incoming requests served from the cached
plans and the shared per-database materialization.  Along the way it shows

1. plan compilation and the LRU plan cache,
2. repeated execution (preprocessing amortized away),
3. mixed batches through ``execute_batch``,
4. cursors for paged, constant-delay streaming, and
5. automatic re-sync when the database is updated in place (see
   ``examples/live_updates.py`` for the incremental-maintenance story).

Run with:  python examples/engine_service.py
"""

import time

from repro.core import CompleteAnswerEnumerator
from repro.data.facts import Fact
from repro.engine import QueryEngine
from repro.workloads import generate_university_database, university_omq

REQUESTS = 200

QUERY_TEMPLATES = {
    "advisor-dept": "q(s, a, d) :- HasAdvisor(s, a), WorksFor(a, d)",
    "advisors": "q(s, a) :- HasAdvisor(s, a)",
    "departments": "q(a, d) :- WorksFor(a, d)",
}


def main() -> None:
    omq = university_omq()
    database = generate_university_database(1000, seed=42)
    print(f"university database: {len(database)} facts\n")

    # One engine per ontology; plans compile on first use and stay cached.
    engine = QueryEngine(omq.ontology, database)
    engine.warm(QUERY_TEMPLATES.values())

    # -- repeated requests: engine vs building everything from scratch -----
    started = time.perf_counter()
    for index in range(REQUESTS):
        name = list(QUERY_TEMPLATES)[index % len(QUERY_TEMPLATES)]
        engine.execute(QUERY_TEMPLATES[name])
    engine_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(10):  # 10 is plenty to see the gap; 200 would take a while
        set(CompleteAnswerEnumerator(omq, database))
    fresh_seconds = (time.perf_counter() - started) * (REQUESTS / 10)

    print(
        f"{REQUESTS} repeated requests: engine {engine_seconds * 1000:.1f} ms, "
        f"fresh est. {fresh_seconds * 1000:.1f} ms "
        f"({fresh_seconds / engine_seconds:.1f}x speedup)"
    )

    # -- batched requests ---------------------------------------------------
    batch = list(QUERY_TEMPLATES.values()) * 20
    started = time.perf_counter()
    answer_sets = engine.execute_batch(batch)
    batch_seconds = time.perf_counter() - started
    print(
        f"\nbatch of {len(batch)} queries in {batch_seconds * 1000:.1f} ms "
        f"({len(batch) / batch_seconds:.0f} q/s); "
        f"answer counts {sorted({len(a) for a in answer_sets})}"
    )

    # -- cursors: paged streaming ------------------------------------------
    with engine.open(QUERY_TEMPLATES["advisor-dept"]) as cursor:
        page = cursor.fetchmany(5)
        print(f"\nfirst page of {len(page)} answers:")
        for answer in page:
            print(f"  {answer}")
        remaining = len(cursor.fetchall())
        cursor.restart()
        print(f"{remaining} more; restart re-yields {len(cursor.fetchall())} in total")

    # -- live updates -------------------------------------------------------
    count_before = len(engine.execute(QUERY_TEMPLATES["advisor-dept"]))
    database.add(Fact("HasAdvisor", ("transfer_student", "prof0")))
    database.add(Fact("WorksFor", ("prof0", "dept0")))
    count_after = len(engine.execute(QUERY_TEMPLATES["advisor-dept"]))
    print(
        f"\nafter adding a student: {count_before} -> {count_after} answers "
        "(materialization maintained in place by the delta chase)"
    )

    stats = engine.stats
    print(
        f"\nengine stats: {stats.plans_cached} plans "
        f"({stats.plan_hits} hits / {stats.plan_misses} misses), "
        f"{stats.chase_builds} chase builds, "
        f"{stats.chase_increments} incremental update(s), "
        f"{stats.state_builds} state builds, "
        f"{stats.invalidations} invalidation(s)"
    )


if __name__ == "__main__":
    main()
