"""Tests for the prepared-query engine (repro.engine).

Covers plan-cache correctness (hits on repeated (ontology, query), LRU
eviction, fingerprint stability under re-parsing), invalidation of
materialized state after ``Instance.add``/``discard``, batch results being
identical to sequential per-query results, cursors, and the CLI; also the
``ExecutionOptions`` validation, the fallback-ratio semantics (``0.0`` =
always rebuild) and the ``LatencyHistogram`` boundary semantics.
"""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import Database, Fact, parse_ontology, parse_query
from repro.baselines.naive import naive_certain_answers
from repro.cli import main as cli_main
from repro.config import ExecutionOptions
from repro.core import OMQ, CompleteAnswerEnumerator
from repro.cq.query import QueryError
from repro.engine import (
    LatencyHistogram,
    LRUCache,
    QueryEngine,
    ontology_fingerprint,
    prepare_query,
    query_fingerprint,
)
from repro.engine.engine import MATERIALIZATION_CACHE_SIZE
from repro.tgds.ontology import Ontology
from repro.workloads import generate_university_database, university_omq

QUERY_TEXT = "q(s, a, d) :- HasAdvisor(s, a), WorksFor(a, d)"
PROJECTION_TEXT = "q(s, a) :- HasAdvisor(s, a)"


@pytest.fixture
def univ_omq() -> OMQ:
    return university_omq()


@pytest.fixture
def univ_db() -> Database:
    return generate_university_database(80, seed=3)


@pytest.fixture
def engine(univ_omq, univ_db) -> QueryEngine:
    return QueryEngine(univ_omq.ontology, univ_db)


class TestFingerprints:
    def test_query_fingerprint_stable_under_reparsing(self):
        first = parse_query(QUERY_TEXT)
        second = parse_query(QUERY_TEXT)
        assert first is not second
        assert query_fingerprint(first) == query_fingerprint(second)

    def test_query_fingerprint_ignores_name(self):
        named = parse_query(QUERY_TEXT, name="other")
        assert query_fingerprint(named) == query_fingerprint(parse_query(QUERY_TEXT))

    def test_query_fingerprint_distinguishes_structure(self):
        assert query_fingerprint(parse_query(QUERY_TEXT)) != query_fingerprint(
            parse_query(PROJECTION_TEXT)
        )

    def test_ontology_fingerprint_ignores_tgd_order(self):
        forward = parse_ontology("A(x) -> B(x)\nB(x) -> C(x)")
        backward = parse_ontology("B(x) -> C(x)\nA(x) -> B(x)")
        assert ontology_fingerprint(forward) == ontology_fingerprint(backward)

    def test_ontology_fingerprint_distinguishes_tgds(self):
        assert ontology_fingerprint(parse_ontology("A(x) -> B(x)")) != (
            ontology_fingerprint(parse_ontology("A(x) -> C(x)"))
        )


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestPlanCache:
    def test_repeated_query_hits_cache(self, engine):
        first = engine.prepare(QUERY_TEXT)
        second = engine.prepare(QUERY_TEXT)
        assert first is second
        stats = engine.stats
        assert stats.plan_hits == 1
        assert stats.plan_misses == 1
        assert stats.plans_cached == 1

    def test_reparsed_and_object_queries_share_a_plan(self, engine):
        via_text = engine.prepare(QUERY_TEXT)
        via_object = engine.prepare(parse_query(QUERY_TEXT))
        assert via_text is via_object

    def test_lru_eviction_recompiles(self, univ_omq, univ_db):
        engine = QueryEngine(
            univ_omq.ontology, univ_db, options=ExecutionOptions(plan_cache_size=1)
        )
        first = engine.prepare(QUERY_TEXT)
        engine.prepare(PROJECTION_TEXT)  # evicts the first plan
        again = engine.prepare(QUERY_TEXT)
        assert again is not first
        assert engine.stats.plan_evictions >= 1

    def test_prepared_plan_contents(self, univ_omq):
        plan = prepare_query(univ_omq.ontology, parse_query(QUERY_TEXT))
        assert plan.is_acyclic
        assert plan.is_free_connex_acyclic
        assert plan.supports_enumeration
        assert plan.decomposition is not None
        assert plan.null_depth > 0
        assert plan.cache_key == (
            ontology_fingerprint(univ_omq.ontology),
            query_fingerprint(parse_query(QUERY_TEXT)),
        )

    def test_strict_rejects_cyclic_query(self, engine):
        cyclic = "q(x, y, z) :- R(x, y), S(y, z), T(z, x)"
        with pytest.raises(QueryError):
            engine.prepare(cyclic)

    def test_non_strict_falls_back_to_certain_answers(self, univ_omq, univ_db):
        # Acyclic but not free-connex: CD∘Lin does not apply, so the engine
        # serves materialized certain answers instead of crashing.
        projection = parse_query("q(s, d) :- HasAdvisor(s, a), WorksFor(a, d)")
        reference = OMQ.from_parts(univ_omq.ontology, projection)
        assert reference.is_acyclic() and not reference.is_free_connex_acyclic()
        engine = QueryEngine(
            univ_omq.ontology, univ_db, options=ExecutionOptions(strict=False)
        )
        plan = engine.prepare(projection)
        assert not plan.supports_enumeration
        assert engine.execute(projection) == naive_certain_answers(reference, univ_db)
        with engine.open(projection) as cursor:
            assert set(cursor) == naive_certain_answers(reference, univ_db)

    def test_omq_with_foreign_ontology_rejected(self, engine):
        other = OMQ.from_parts(parse_ontology("A(x) -> B(x)"), parse_query("q(x) :- A(x)"))
        with pytest.raises(QueryError):
            engine.prepare(other)


class TestExecution:
    def test_execute_matches_fresh_enumerator(self, univ_omq, univ_db, engine):
        expected = set(CompleteAnswerEnumerator(univ_omq, univ_db))
        assert engine.execute(univ_omq.query) == expected

    def test_materialization_shared_across_queries(self, engine):
        engine.execute(QUERY_TEXT)
        engine.execute(PROJECTION_TEXT)
        stats = engine.stats
        assert stats.chase_builds == 1
        assert stats.state_builds == 2

    def test_repeated_execution_reuses_state(self, engine):
        first = engine.execute(QUERY_TEXT)
        second = engine.execute(QUERY_TEXT)
        assert first == second
        stats = engine.stats
        assert stats.chase_builds == 1
        assert stats.state_builds == 1

    def test_execute_requires_a_database(self, univ_omq):
        engine = QueryEngine(univ_omq.ontology)
        with pytest.raises(ValueError):
            engine.execute(QUERY_TEXT)

    def test_per_call_database_override(self, univ_omq, engine):
        other = generate_university_database(40, seed=9)
        expected = set(CompleteAnswerEnumerator(univ_omq, other))
        assert engine.execute(univ_omq.query, database=other) == expected
        assert engine.stats.chase_builds == 1  # only the override database chased

    def test_materialization_cache_is_bounded(self, univ_omq):
        engine = QueryEngine(univ_omq.ontology)
        databases = [
            generate_university_database(20, seed=s)
            for s in range(MATERIALIZATION_CACHE_SIZE + 2)
        ]
        for database in databases:
            engine.execute(univ_omq.query, database=database)
        assert len(engine._materializations) == MATERIALIZATION_CACHE_SIZE
        # An evicted database is transparently re-materialized on next use.
        expected = set(CompleteAnswerEnumerator(univ_omq, databases[0]))
        assert engine.execute(univ_omq.query, database=databases[0]) == expected


class TestInvalidation:
    def test_add_maintains_materialized_state_incrementally(
        self, univ_omq, univ_db, engine
    ):
        before = engine.execute(univ_omq.query)
        univ_db.add(Fact("HasAdvisor", ("newstudent", "prof0")))
        univ_db.add(Fact("WorksFor", ("prof0", "dept0")))
        after = engine.execute(univ_omq.query)
        assert after == set(CompleteAnswerEnumerator(univ_omq, univ_db))
        assert ("newstudent", "prof0", "dept0") in after
        assert after != before
        # A small delta is maintained in place: no rebuild, no invalidation.
        stats = engine.stats
        assert stats.chase_builds == 1
        assert stats.chase_increments >= 1
        assert stats.invalidations == 0

    def test_add_invalidates_without_incremental(self, univ_omq, univ_db):
        engine = QueryEngine(
            univ_omq.ontology, univ_db, options=ExecutionOptions(incremental=False)
        )
        before = engine.execute(univ_omq.query)
        univ_db.add(Fact("HasAdvisor", ("newstudent", "prof0")))
        univ_db.add(Fact("WorksFor", ("prof0", "dept0")))
        after = engine.execute(univ_omq.query)
        assert after == set(CompleteAnswerEnumerator(univ_omq, univ_db))
        assert after != before
        assert engine.stats.invalidations >= 1
        assert engine.stats.chase_builds == 2

    def test_discard_maintains_materialized_state(self, univ_omq, univ_db, engine):
        fact = next(iter(univ_db.relation("HasAdvisor")))
        before = engine.execute(univ_omq.query)
        assert univ_db.discard(fact)
        after = engine.execute(univ_omq.query)
        assert after == set(CompleteAnswerEnumerator(univ_omq, univ_db))
        assert after <= before
        assert engine.stats.chase_builds == 1
        assert engine.stats.chase_increments == 1

    def test_large_delta_falls_back_to_rebuild(self, univ_omq, univ_db, engine):
        engine.execute(univ_omq.query)
        with univ_db.batch():
            for index in range(len(univ_db)):
                univ_db.add(Fact("GradStudent", (f"bulk{index}",)))
        after = engine.execute(univ_omq.query)
        assert after == set(CompleteAnswerEnumerator(univ_omq, univ_db))
        stats = engine.stats
        assert stats.incremental_fallbacks == 1
        assert stats.chase_builds == 2
        assert stats.chase_increments == 0

    def test_noop_mutation_keeps_state(self, univ_omq, univ_db, engine):
        engine.execute(univ_omq.query)
        existing = next(iter(univ_db.relation("HasAdvisor")))
        assert not univ_db.add(existing)  # already present: no version bump
        engine.execute(univ_omq.query)
        assert engine.stats.chase_builds == 1
        assert engine.stats.invalidations == 0

    def test_explicit_invalidate(self, univ_omq, engine):
        engine.execute(univ_omq.query)
        engine.invalidate()
        engine.execute(univ_omq.query)
        assert engine.stats.chase_builds == 2

    def test_instance_version_counter(self):
        database = Database()
        assert database.version == 0
        fact = Fact("R", ("a", "b"))
        assert database.add(fact)
        assert database.version == 1
        assert not database.add(fact)
        assert database.version == 1
        assert database.discard(fact)
        assert database.version == 2
        assert not database.discard(fact)
        assert database.version == 2


class TestBatch:
    QUERIES = (QUERY_TEXT, PROJECTION_TEXT, "q(a, d) :- WorksFor(a, d)")

    def test_batch_identical_to_sequential(self, univ_omq, univ_db, engine):
        batch = list(self.QUERIES) * 4
        batched = engine.execute_batch(batch)
        sequential = [engine.execute(query) for query in batch]
        assert batched == sequential
        fresh = [
            set(
                CompleteAnswerEnumerator(
                    OMQ.from_parts(univ_omq.ontology, parse_query(text)), univ_db
                )
            )
            for text in batch
        ]
        assert batched == fresh

    def test_batch_empty(self, engine):
        assert engine.execute_batch([]) == []

    def test_batch_preprocesses_once(self, engine):
        engine.execute_batch(list(self.QUERIES) * 3)
        stats = engine.stats
        assert stats.chase_builds == 1
        assert stats.state_builds == len(self.QUERIES)


class TestCursor:
    def test_cursor_enumerates_all_answers(self, univ_omq, engine):
        expected = engine.execute(univ_omq.query)
        with engine.open(univ_omq.query) as cursor:
            assert set(cursor) == expected

    def test_cursor_restart(self, univ_omq, engine):
        cursor = engine.open(univ_omq.query)
        first_pass = set(cursor.fetchall())
        cursor.restart()
        assert set(cursor.fetchall()) == first_pass
        cursor.close()

    def test_fetchmany_pages_through(self, univ_omq, engine):
        expected = engine.execute(univ_omq.query)
        cursor = engine.open(univ_omq.query)
        seen: set[tuple] = set()
        while True:
            page = cursor.fetchmany(7)
            if not page:
                break
            assert len(page) <= 7
            seen.update(page)
        assert seen == expected

    def test_cursor_sees_mutations_after_restart(self, univ_omq, univ_db, engine):
        cursor = engine.open(univ_omq.query)
        before = set(cursor.fetchall())
        univ_db.add(Fact("HasAdvisor", ("xs", "prof0")))
        univ_db.add(Fact("WorksFor", ("prof0", "dept1")))
        cursor.restart()
        after = set(cursor.fetchall())
        assert ("xs", "prof0", "dept1") in after
        assert after >= {a for a in before if a[0] != "xs"}

    def test_closed_cursor_refuses_restart(self, univ_omq, engine):
        cursor = engine.open(univ_omq.query)
        cursor.close()
        with pytest.raises(RuntimeError):
            cursor.restart()


class TestCLI:
    def test_run_json_report(self, capsys, tmp_path):
        query_file = tmp_path / "advisors.cq"
        query_file.write_text(PROJECTION_TEXT, encoding="utf-8")
        exit_code = cli_main(
            [
                "run",
                "--workload",
                "university",
                "--size",
                "50",
                "--queries",
                str(query_file),
                "--repeat",
                "3",
                "--json",
            ]
        )
        assert exit_code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["workload"] == "university"
        assert report["executed"] == 3
        assert report["results"][0]["query"] == "advisors.cq"
        assert report["results"][0]["answers"] > 0
        assert report["engine"]["plan_misses"] == 1

    def test_run_batch_matches_default_query(self, capsys):
        exit_code = cli_main(
            ["run", "--workload", "office", "--size", "40", "--batch", "--json"]
        )
        assert exit_code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "batch"
        assert report["queries"] == 1

    def test_run_updates_replay(self, capsys):
        exit_code = cli_main(
            [
                "run",
                "--workload",
                "university",
                "--size",
                "60",
                "--updates",
                "4",
                "--update-size",
                "2",
                "--json",
            ]
        )
        assert exit_code == 0
        report = json.loads(capsys.readouterr().out)
        updates = report["updates"]
        assert updates["rounds"] == 4
        assert updates["batch_size"] == 2
        assert updates["chase_increments"] == 4
        assert updates["chase_builds"] == 1
        assert report["engine"]["invalidations"] == 0

    def test_run_updates_no_incremental_rebuilds(self, capsys):
        exit_code = cli_main(
            [
                "run",
                "--workload",
                "university",
                "--size",
                "60",
                "--updates",
                "3",
                "--update-size",
                "2",
                "--no-incremental",
                "--json",
            ]
        )
        assert exit_code == 0
        report = json.loads(capsys.readouterr().out)
        updates = report["updates"]
        assert updates["chase_increments"] == 0
        assert updates["chase_builds"] == 4  # warm build + one per round

    def test_workloads_listing(self, capsys):
        assert cli_main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "university" in out
        assert "office" in out

    def test_bad_query_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cq"
        bad.write_text("not a query", encoding="utf-8")
        exit_code = cli_main(
            ["run", "--workload", "university", "--queries", str(bad), "--json"]
        )
        assert exit_code == 2
        assert "error" in capsys.readouterr().err


class TestStatsConcurrency:
    """Regression tests for the stats race: counters bumped from worker
    threads (the HTTP service runs executions in threads) must never lose
    increments, and ``snapshot()`` must be one consistent cut."""

    def test_counters_survive_a_thread_hammer(self):
        from repro.engine import EngineCounters

        counters = EngineCounters()
        threads_n, rounds = 8, 2_000

        def hammer():
            for _ in range(rounds):
                counters.bump("executions")
                counters.bump("pages", 3)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = counters.snapshot()
        assert snapshot["executions"] == threads_n * rounds
        assert snapshot["pages"] == 3 * threads_n * rounds

    def test_histogram_counts_every_observation(self):
        from repro.engine import LatencyHistogram

        histogram = LatencyHistogram()
        threads_n, rounds = 8, 500

        def hammer(seed):
            for index in range(rounds):
                histogram.observe(0.0001 * ((seed + index) % 50 + 1))

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = histogram.snapshot()
        assert snapshot["count"] == threads_n * rounds
        assert 0 < snapshot["p50_ms"] <= snapshot["p99_ms"] <= snapshot["max_ms"]

    def test_engine_counts_are_exact_under_concurrency(self, univ_omq, univ_db):
        engine = QueryEngine(univ_omq.ontology, univ_db)
        queries = [QUERY_TEXT, PROJECTION_TEXT]
        threads_n, rounds = 6, 10

        def hammer(seed):
            for index in range(rounds):
                query = queries[(seed + index) % len(queries)]
                if index % 2:
                    engine.execute(query)
                else:
                    engine.execute_batch(queries)
                with engine.open(query) as cursor:
                    cursor.fetchmany(4)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = engine.snapshot()
        execute_calls = threads_n * (rounds // 2)
        batch_calls = threads_n * (rounds - rounds // 2)
        assert stats.executions == execute_calls + batch_calls * len(queries)
        assert stats.cursors_opened == threads_n * rounds
        assert stats.cursors_open == 0  # every cursor closed by its context

    def test_snapshot_equals_stats_property(self, univ_omq, engine):
        engine.execute(univ_omq.query)
        assert engine.snapshot() == engine.stats
        assert engine.stats.as_dict()["executions"] == 1


class TestCursorLifecycleHooks:
    def test_close_hooks_fire_once_in_lifo_order(self, univ_omq, engine):
        fired = []
        cursor = engine.open(univ_omq.query, on_close=lambda c: fired.append("init"))
        cursor.add_close_hook(lambda c: fired.append("later"))
        assert not cursor.closed
        cursor.close()
        cursor.close()  # idempotent: hooks must not fire twice
        assert cursor.closed
        assert fired == ["later", "init"]

    def test_hook_added_after_close_runs_immediately(self, univ_omq, engine):
        cursor = engine.open(univ_omq.query)
        cursor.close()
        fired = []
        cursor.add_close_hook(lambda c: fired.append(True))
        assert fired == [True]

    def test_open_gauge_tracks_cursors(self, univ_omq, engine):
        first = engine.open(univ_omq.query)
        second = engine.open(univ_omq.query)
        assert engine.snapshot().cursors_open == 2
        first.close()
        second.close()
        assert engine.snapshot().cursors_open == 0


def _run_probe(probe: str, **env: str) -> str:
    """Run ``probe`` in a fresh interpreter over ``src/``; its stdout."""
    root = Path(__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(root / "src"), **env),
        cwd=root,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


def test_engine_and_server_import_no_multiprocessing():
    """One sequential engine: a cold process serving queries never loads
    ``multiprocessing`` (its import cost and exit hooks stay out), and one
    plan per query: it never loads ``repro.planner`` either."""
    probe = (
        "import sys, repro.engine, repro.server; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('multiprocessing', 'repro.planner'))))"
    )
    assert _run_probe(probe) == "[]"


def test_environment_never_starts_a_trace():
    """No environment variable turns tracing on: with ``REPRO_TRACE=1`` set,
    an engine left at the default ``tracing=False`` and run with no ambient
    trace records nothing into the ring buffer.  ``tracing=True`` still
    does."""
    probe = (
        "from repro.config import ExecutionOptions; "
        "from repro.engine import QueryEngine; "
        "from repro.obs.trace import TRACES; "
        "from repro.workloads import generate_university_database, university_omq; "
        "omq = university_omq(); "
        "database = generate_university_database(20, seed=1); "
        "answers = QueryEngine(omq.ontology, database).execute(omq.query); "
        "untraced = len(TRACES); "
        "QueryEngine(omq.ontology, database, options=ExecutionOptions(tracing=True))"
        ".execute(omq.query); "
        "print(bool(answers), untraced, len(TRACES))"
    )
    assert _run_probe(probe, REPRO_TRACE="1") == "True 0 1"


# -- ExecutionOptions, fallback ratio and LatencyHistogram contracts --------

EMPTY = Ontology([], name="empty")
TIE_QUERY = "q(x, y) :- R(x, z), S(x, y), T(y, w)"


def _tie_facts(n: int = 40) -> list[Fact]:
    return [
        fact
        for i in range(n)
        for fact in (
            Fact("R", (f"a{i % 5}", f"b{i}")),
            Fact("S", (f"a{i % 5}", f"c{i % 3}")),
            Fact("T", (f"c{i % 3}", f"d{i}")),
        )
    ]


def test_execution_options_validation():
    ExecutionOptions()  # defaults are valid
    ExecutionOptions(incremental_fallback_ratio=0.0, plan_cache_size=1)
    ExecutionOptions(incremental_fallback_ratio=1.0)
    with pytest.raises(ValueError):
        ExecutionOptions(plan_cache_size=0)
    with pytest.raises(ValueError):
        ExecutionOptions(plan_cache_size=16.0)
    for ratio in (float("nan"), float("inf"), -0.1, 1.5, 5.0, True):
        with pytest.raises(ValueError):
            ExecutionOptions(incremental_fallback_ratio=ratio)


def test_fallback_ratio_zero_always_rebuilds():
    database = Database(_tie_facts())
    query = parse_query(TIE_QUERY)
    engine = QueryEngine(
        EMPTY, database, options=ExecutionOptions(incremental_fallback_ratio=0.0)
    )
    before = engine.execute(query)
    database.add(Fact("R", ("a0", "zz")))
    after = engine.execute(query)
    assert before <= after
    stats = engine.snapshot()
    # Honouring 0.0 means no delta is ever maintained: the mutation forced
    # a full rebuild instead of a 1-row increment.
    assert stats.chase_increments == 0
    assert stats.incremental_fallbacks >= 1
    assert stats.chase_builds == 2


def test_histogram_exact_bound_lands_in_le_bucket():
    histogram = LatencyHistogram(bounds=(0.001, 0.01, 0.1))
    histogram.observe(0.01)  # exactly on a bound: le-inclusive
    snapshot = histogram.snapshot()
    by_bound = {bucket["le"]: bucket["count"] for bucket in snapshot["buckets"]}
    assert by_bound[0.001] == 0
    assert by_bound[0.01] == 1
    assert by_bound[0.1] == 1


def test_histogram_single_observation_p50():
    histogram = LatencyHistogram(bounds=(0.001, 0.01, 0.1))
    histogram.observe(0.004)
    # rank = max(1, round(0.5 * 1)) = 1, capped by the exact max: the single
    # observation is reported exactly, not as its bucket's upper bound.
    assert histogram.percentile(0.5) == pytest.approx(0.004)


def test_histogram_overflow_reports_exact_max():
    histogram = LatencyHistogram(bounds=(0.001, 0.01))
    histogram.observe(5.0)
    histogram.observe(7.5)
    assert histogram.percentile(0.99) == 7.5
    assert histogram.percentile(1.0) == 7.5
    snapshot = histogram.snapshot()
    assert snapshot["max_ms"] == 7500.0


def test_histogram_snapshot_buckets_are_cumulative_to_count():
    histogram = LatencyHistogram(bounds=(0.001, 0.01, 0.1))
    for value in (0.0005, 0.005, 0.05, 0.5, 5.0):
        histogram.observe(value)
    snapshot = histogram.snapshot()
    buckets = snapshot["buckets"]
    assert buckets[-1]["le"] == "+Inf"
    assert buckets[-1]["count"] == snapshot["count"] == 5
    counts = [bucket["count"] for bucket in buckets]
    assert counts == sorted(counts), "bucket counts must be cumulative"


def test_histogram_empty_and_invalid_fraction():
    histogram = LatencyHistogram(bounds=(0.001,))
    assert histogram.percentile(0.5) == 0.0
    with pytest.raises(ValueError):
        histogram.percentile(1.5)
    with pytest.raises(ValueError):
        LatencyHistogram(bounds=())


def test_nan_never_reaches_budget_math():
    # The options reject NaN before any engine exists, so no budget
    # computation can silently swallow it (NaN comparisons are all False).
    assert math.isnan(float("nan"))
    with pytest.raises(ValueError):
        QueryEngine(EMPTY, options=ExecutionOptions(incremental_fallback_ratio=float("nan")))
