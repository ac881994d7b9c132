"""Unit and fault-injection tests for the sharded multi-process backend.

Covers, in isolation and end to end:

* deterministic hash partitioning (:mod:`repro.parallel.shards`) — every
  row owned by exactly one shard, stable across processes and runs;
* shared-memory segment lifecycle (:mod:`repro.parallel.shm`) — creation,
  zero-copy attach, close/unlink discipline, the ``/dev/shm`` leak class;
* the persistent forked worker pool (:mod:`repro.parallel.pool`) — task
  round-trips, crash detection (a SIGKILLed worker raises
  :class:`WorkerCrashed`, never hangs), pool teardown;
* the parallel chase, reduce projections and sharded semi-joins against
  their sequential twins (byte-identical results);
* engine integration — ``workers=N`` execution, batch fan-out, stats,
  sequential fallback after a crash, pool re-fork across mutations;
* the interrupt/leak regression: an aborted ``execute_batch`` leaves zero
  orphaned segments (per-operation ``finally`` + the ``atexit`` registry).

Everything here is fork-only and skipped where ``fork`` is unavailable.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.chase.standard import chase
from repro.config import ExecutionOptions, default_workers, use_workers
from repro.data.columns import ColumnarRelation
from repro.data.facts import Fact
from repro.data.instance import Database, Instance
from repro.engine import QueryEngine
from repro.parallel import (
    DEFAULT_TASK_TIMEOUT,
    PARALLEL_STATS,
    SEGMENTS,
    ParallelExecutionError,
    SharedColumns,
    SharedFactBlock,
    WorkerBootstrap,
    WorkerCrashed,
    WorkerPool,
    active_segments,
    hash_partition,
    maybe_parallel_filter,
    mix64,
    parallel_chase,
    parallel_filter_by_keys,
    parallel_projections,
    shard_of,
    sharded_semijoins,
    supported,
)
from repro.parallel.shards import shard_rows
from repro.parallel.shm import decode_value, encode_null
from repro.data.terms import Null, is_null
from repro.tgds.parser import parse_ontology
from repro.workloads.university import (
    generate_university_database,
    university_omq,
    university_ontology,
)

pytestmark = pytest.mark.skipif(
    not supported(), reason="fork start method unavailable on this platform"
)


def _null_free(instance: Instance) -> set[Fact]:
    return {
        fact
        for fact in instance
        if not any(is_null(arg) for arg in fact.args)
    }


def _shm_names() -> set[str]:
    """Segment names visible in /dev/shm (best effort, empty if unreadable)."""
    try:
        return {entry for entry in os.listdir("/dev/shm") if entry.startswith("psm_")}
    except OSError:  # pragma: no cover - /dev/shm not mounted
        return set()


@pytest.fixture(autouse=True)
def _no_segment_leaks():
    """Every test must exit with the registry empty and /dev/shm unchanged."""
    before = _shm_names()
    yield
    assert active_segments() == set()
    leaked = _shm_names() - before
    assert leaked == set(), f"leaked /dev/shm segments: {leaked}"


@pytest.fixture
def pool():
    ontology = parse_ontology("edge(x, y) -> reach(x, y)", name="pool-test")
    instance = Instance(Database([Fact("edge", ("a", "b"))]))
    pool = WorkerPool(2, WorkerBootstrap(ontology, instance, codegen=False))
    yield pool
    pool.close()


# -- sharding --------------------------------------------------------------


class TestSharding:
    def test_mix64_is_deterministic_and_avalanching(self):
        assert mix64(0) == mix64(0)
        assert mix64(1) != mix64(2)
        # Avalanche sanity: single-bit input flips move many output bits.
        diff = mix64(7) ^ mix64(6)
        assert bin(diff).count("1") > 8

    def test_shard_of_stable_and_in_range(self):
        for count in (1, 2, 3, 7):
            for key in ((), (1,), (1, 2), (2, 1), (10**12,)):
                shard = shard_of(key, count)
                assert 0 <= shard < count
                assert shard == shard_of(tuple(key), count)

    def test_shard_of_distinguishes_order(self):
        hits = sum(shard_of((a, b), 8) != shard_of((b, a), 8) for a, b in [(1, 2), (3, 9), (5, 11), (2, 7)])
        assert hits >= 2  # hash of a tuple is order-sensitive

    def test_shard_rows_partitions_exactly(self):
        rows = [(i, i % 5) for i in range(100)]
        shards = shard_rows(rows, (1,), 4)
        assert sum(len(shard) for shard in shards) == len(rows)
        assert sorted(row for shard in shards for row in shard) == sorted(rows)
        # Same key column => same shard, always.
        owner = {}
        for index, shard in enumerate(shards):
            for row in shard:
                assert owner.setdefault(row[1], index) == index

    def test_shard_rows_empty_positions_round_robins(self):
        rows = [(i,) for i in range(10)]
        shards = shard_rows(rows, (), 3)
        assert sorted(row for shard in shards for row in shard) == rows

    def test_hash_partition_union_is_exact(self):
        store = ColumnarRelation(2, [(i, i * 3 % 7) for i in range(50)])
        shards = hash_partition(store, (1,), 3)
        try:
            rows = [tuple(row) for shard in shards for row in shard.rows()]
            assert sorted(rows) == sorted(tuple(row) for row in store)
        finally:
            for shard in shards:
                shard.unlink()


# -- shared memory ---------------------------------------------------------


class TestSharedMemory:
    def test_columns_roundtrip_zero_copy(self):
        rows = [(1, 2), (3, 4), (5, 6)]
        block = SharedColumns.create(2, rows)
        try:
            attached = SharedColumns.attach(block.name)
            assert attached.arity == 2 and attached.row_count == 3
            assert [tuple(row) for row in attached.rows()] == rows
            columns = attached.columns()
            assert list(columns[0]) == [1, 3, 5]
            del columns
            attached.close()
        finally:
            block.unlink()

    def test_columns_empty_and_zero_arity(self):
        empty = SharedColumns.create(2, [])
        wide = SharedColumns.create(0, [(), ()])
        try:
            assert list(empty.rows()) == []
            assert list(wide.rows()) == [(), ()]
        finally:
            empty.unlink()
            wide.unlink()

    def test_fact_block_roundtrip_with_nulls(self):
        records = [(0, (5, encode_null(Null(7)))), (1, ()), (0, (2, 3))]
        block = SharedFactBlock.create(records)
        try:
            attached = SharedFactBlock.attach(block.name)
            assert list(attached.records()) == records
            attached.close()
        finally:
            block.unlink()
        decoded = decode_value(encode_null(Null(7)), lambda _: None)
        assert decoded == Null(7)
        assert decode_value(3, {3: "c"}.__getitem__) == "c"

    def test_unlink_is_idempotent_and_attachers_cannot_unlink(self):
        block = SharedColumns.create(1, [(1,)])
        attached = SharedColumns.attach(block.name)
        attached.unlink()  # non-owner: must be a no-op
        reattached = SharedColumns.attach(block.name)
        assert reattached.row_count == 1
        reattached.close()
        attached.close()
        block.unlink()
        block.unlink()  # second unlink: no error

    def test_registry_backstop_unlinks_strays(self):
        before = len(SEGMENTS)
        block = SharedColumns.create(1, [(9,)])
        assert len(SEGMENTS) == before + 1
        assert block.name in active_segments()
        # Simulate a crashed operation that never reached its finally.
        count = SEGMENTS.unlink_all()
        assert count >= 1
        assert active_segments() == set()
        block.close()  # release the mapping the stray handle still holds


# -- the worker pool -------------------------------------------------------


class TestWorkerPool:
    def test_ping_broadcast_and_scatter(self, pool):
        responses = pool.broadcast("ping", {"value": 21}, timeout=30.0)
        assert responses == [{"value": 21}, {"value": 21}]
        scattered = pool.scatter("ping", [{"value": 1}, {"value": 2}], timeout=30.0)
        assert scattered == [{"value": 1}, {"value": 2}]

    def test_scatter_requires_one_payload_per_worker(self, pool):
        with pytest.raises(ValueError):
            pool.scatter("ping", [{"value": 1}])

    def test_task_error_is_reported_not_fatal(self, pool):
        with pytest.raises(ParallelExecutionError, match="no-such-task"):
            pool.broadcast("no-such-task", {}, timeout=30.0)

    def test_task_error_drains_replies_pool_stays_synchronized(self, pool):
        """The stale-reply regression: one worker's task error must not
        leave the other workers' replies stuck in their pipes, or the next
        operation would consume them as its own results."""
        # Worker 0 fails (non-numeric sleep payload), worker 1 succeeds.
        with pytest.raises(ParallelExecutionError, match="ValueError"):
            pool.scatter("sleep", ["not-a-number", 0.0], timeout=30.0)
        assert pool.alive  # a task error is not a crash
        # Replies of the next operations align with their own payloads.
        assert pool.scatter("ping", [{"value": 1}, {"value": 2}], timeout=30.0) == [
            {"value": 1},
            {"value": 2},
        ]
        with pytest.raises(ParallelExecutionError, match="no-such-task"):
            pool.broadcast("no-such-task", {}, timeout=30.0)
        assert pool.broadcast("ping", {"value": 7}, timeout=30.0) == [
            {"value": 7},
            {"value": 7},
        ]

    def test_wedged_worker_hits_deadline_never_hangs(self, pool):
        """A worker that is alive but stalled must surface as a crash once
        the per-operation deadline passes, not block the master forever."""
        assert DEFAULT_TASK_TIMEOUT is not None and DEFAULT_TASK_TIMEOUT > 0
        started = time.monotonic()
        with pytest.raises(WorkerCrashed, match="timed out"):
            pool.broadcast("sleep", 60.0, timeout=0.5)
        assert time.monotonic() - started < 30.0
        assert not pool.alive  # deadline breach breaks the pool → re-fork

    def test_sigkill_raises_worker_crashed_and_never_hangs(self, pool):
        victim = pool.processes[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        started = time.monotonic()
        with pytest.raises(WorkerCrashed):
            pool.broadcast("ping", {"value": 1}, timeout=30.0)
        assert time.monotonic() - started < 20.0
        assert not pool.alive
        # A broken pool refuses further work instead of deadlocking.
        with pytest.raises(ParallelExecutionError):
            pool.broadcast("ping", {"value": 1}, timeout=5.0)

    def test_env_timeout_parsing(self, monkeypatch):
        from repro.parallel.pool import _env_timeout

        monkeypatch.delenv("X_REPRO_TIMEOUT", raising=False)
        assert _env_timeout("X_REPRO_TIMEOUT", 300.0) == 300.0
        monkeypatch.setenv("X_REPRO_TIMEOUT", "12.5")
        assert _env_timeout("X_REPRO_TIMEOUT", 300.0) == 12.5
        monkeypatch.setenv("X_REPRO_TIMEOUT", "0")  # <= 0 disables
        assert _env_timeout("X_REPRO_TIMEOUT", 300.0) is None
        monkeypatch.setenv("X_REPRO_TIMEOUT", "garbage")
        assert _env_timeout("X_REPRO_TIMEOUT", 300.0) == 300.0

    def test_partial_fork_failure_reaps_started_workers(self):
        """If the Nth fork fails with OSError, the workers already started
        must be shut down before the error propagates (the finalizer is
        not registered yet at that point)."""
        import multiprocessing

        ontology = parse_ontology("edge(x, y) -> reach(x, y)", name="pool-test")
        instance = Instance(Database([Fact("edge", ("a", "b"))]))
        fork_process = multiprocessing.get_context("fork").Process
        original_start = fork_process.start
        started: list = []

        def flaky_start(process):
            if started:
                raise OSError("Resource temporarily unavailable")
            started.append(process)
            return original_start(process)

        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(fork_process, "start", flaky_start)
            with pytest.raises(OSError):
                WorkerPool(2, WorkerBootstrap(ontology, instance, codegen=False))
        (survivor,) = started
        survivor.join(timeout=10.0)
        assert not survivor.is_alive()

    def test_close_terminates_workers(self, pool):
        processes = list(pool.processes)
        pool.close()
        for process in processes:
            process.join(timeout=10.0)
            assert not process.is_alive()
        assert not pool.alive


# -- parallel chase == sequential chase ------------------------------------


class TestParallelChase:
    def test_delta_encoding_needs_pre_fork_ids(self):
        """Nulls travel by label, constants by their pre-fork id; a constant
        nobody interned before the fork breaks the invariant loudly."""
        from repro.data.interning import TERMS
        from repro.parallel.chase import _encode_delta

        null = Null(7)
        term_id = TERMS.intern("seen-before-fork")
        records, names = _encode_delta([Fact("R", ("seen-before-fork", null))], {})
        assert names == ["R"]
        assert records == [(0, (term_id, encode_null(null)))]
        with pytest.raises(KeyError):
            _encode_delta([Fact("R", ("never-interned-constant", null))], {})

    def test_university_chase_matches_sequential(self):
        database = Database(generate_university_database(40, seed=7))
        ontology = university_ontology()
        sequential = chase(Instance(database), ontology, max_null_depth=3)
        run = parallel_chase(Database(database.facts()), ontology, 2, max_null_depth=3)
        try:
            assert _null_free(run.result.instance) == _null_free(sequential.instance)
            assert run.result.fired_triggers == sequential.fired_triggers
            assert run.boundary_facts > 0  # multi-round boundary exchange
        finally:
            run.pool.close()

    def test_worker_crash_mid_chase_raises_and_cleans_up(self):
        database = Database(generate_university_database(60, seed=3))
        ontology = university_ontology()
        crashes_before = PARALLEL_STATS.snapshot().get("worker_crashes", 0)

        original_broadcast = WorkerPool.broadcast

        def sabotage(self, task, payload, timeout=None):
            if task == "chase_round":
                os.kill(self.processes[0].pid, signal.SIGKILL)
            return original_broadcast(self, task, payload, timeout=timeout)

        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(WorkerPool, "broadcast", sabotage)
            with pytest.raises(ParallelExecutionError):
                parallel_chase(database, ontology, 2, max_null_depth=3)
        assert PARALLEL_STATS.snapshot().get("worker_crashes", 0) > crashes_before
        assert active_segments() == set()


# -- reduce projections and sharded semi-joins -----------------------------


class TestParallelReduce:
    def test_projections_match_sequential(self):
        from repro.enumeration.reduction import component_projection

        database = Database(generate_university_database(40, seed=7))
        omq = university_omq()
        engine = QueryEngine(university_ontology(), database, workers=2, incremental=False)
        try:
            prepared = engine.prepare(omq)
            materialization = engine._materialization(database)
            materialization.chase_for(prepared)
            worker_pool = materialization.ensure_pool()
            assert worker_pool is not None
            projections = parallel_projections(
                worker_pool, prepared.decomposition, keep_nulls=False
            )
            assert projections is not None
            instance = materialization.chase.instance
            for index, component in enumerate(prepared.decomposition.components):
                expected = component_projection(component, instance, keep_nulls=False)
                assert projections[index] == expected
        finally:
            engine.shutdown()

    def test_filter_by_keys_matches_sequential(self, pool):
        store = ColumnarRelation(2, [(i, i % 11) for i in range(200)])
        keys = {(value,) for value in range(0, 11, 2)}
        parallel = parallel_filter_by_keys(pool, store, (1,), keys)
        assert parallel is not None
        assert sorted(parallel) == sorted(store.filter_by_keys((1,), keys))

    def test_filter_requires_key_positions(self, pool):
        store = ColumnarRelation(1, [(1,)])
        assert parallel_filter_by_keys(pool, store, (), set()) is None

    def test_maybe_parallel_filter_respects_threshold_and_ambient_pool(self, pool):
        store = ColumnarRelation(2, [(i, i % 3) for i in range(100)])
        keys = {(0,), (1,)}
        # Small store: below the threshold, always sequential.
        assert maybe_parallel_filter(store, (1,), keys) is None
        from repro.parallel import runtime

        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(runtime, "PARALLEL_SEMIJOIN_THRESHOLD", 10)
            # Above threshold but no ambient pool: still sequential.
            assert maybe_parallel_filter(store, (1,), keys) is None
            with sharded_semijoins(pool):
                surviving = maybe_parallel_filter(store, (1,), keys)
            assert surviving is not None
            assert sorted(surviving) == sorted(store.filter_by_keys((1,), keys))


# -- engine integration ----------------------------------------------------


class TestEngineIntegration:
    def test_execute_matches_sequential_engine(self):
        database = Database(generate_university_database(40, seed=7))
        omq = university_omq()
        parallel_engine = QueryEngine(
            university_ontology(), database, workers=2, incremental=False
        )
        sequential_engine = QueryEngine(
            university_ontology(), database, workers=1, incremental=False
        )
        try:
            assert parallel_engine.execute(omq) == sequential_engine.execute(omq)
            assert parallel_engine.snapshot().parallel_chases == 1
        finally:
            parallel_engine.shutdown()

    def test_execute_batch_fans_out_and_matches(self):
        database = Database(generate_university_database(40, seed=7))
        omq = university_omq()
        engine = QueryEngine(university_ontology(), database, workers=2, incremental=False)
        reference = QueryEngine(university_ontology(), database, workers=1)
        try:
            batch = [omq, omq, omq]
            expected = reference.execute(omq)
            assert engine.execute_batch(batch) == [expected] * 3
            stats = engine.snapshot()
            assert stats.parallel_chases == 1
            assert stats.parallel_tasks > 0
        finally:
            engine.shutdown()

    def test_explicit_single_worker_skips_process_path(self):
        """``execute_batch(..., max_workers=1)`` is a contract for the
        sequential worker loop even when the engine's ``workers`` option
        would fan the batch out across processes."""
        database = Database(generate_university_database(40, seed=7))
        omq = university_omq()
        engine = QueryEngine(university_ontology(), database, workers=2, incremental=False)
        reference = QueryEngine(university_ontology(), database, workers=1)
        try:
            expected = reference.execute(omq)
            calls: list = []

            def record(plans, resolved):
                calls.append(plans)
                return None

            with pytest.MonkeyPatch.context() as patcher:
                patcher.setattr(engine, "_execute_batch_processes", record)
                assert engine.execute_batch([omq, omq], max_workers=1) == [expected] * 2
                assert calls == []  # never consulted
                assert engine.execute_batch([omq, omq], max_workers=0) == [expected] * 2
                assert calls == []
                assert engine.execute_batch([omq, omq]) == [expected] * 2
                assert len(calls) == 1  # default still fans out
        finally:
            engine.shutdown()

    def test_fork_oserror_falls_back_to_sequential(self):
        """A fork that fails with OSError (process/fd/memory exhaustion)
        degrades to the sequential path instead of crashing the query."""
        database = Database(generate_university_database(40, seed=7))
        omq = university_omq()
        expected = QueryEngine(university_ontology(), database, workers=1).execute(omq)

        def exhausted(self, *args, **kwargs):
            raise OSError("Resource temporarily unavailable")

        engine = QueryEngine(university_ontology(), database, workers=2, incremental=False)
        try:
            with pytest.MonkeyPatch.context() as patcher:
                patcher.setattr(WorkerPool, "__init__", exhausted)
                assert engine.execute(omq) == expected
                assert engine.execute_batch([omq, omq]) == [expected] * 2
            assert engine.snapshot().parallel_chases == 0
        finally:
            engine.shutdown()

    def test_mutation_reforks_pool_and_stays_correct(self):
        database = Database(generate_university_database(40, seed=7))
        omq = university_omq()
        engine = QueryEngine(university_ontology(), database, workers=2, incremental=False)
        reference = QueryEngine(university_ontology(), database, workers=1, incremental=False)
        try:
            assert engine.execute(omq) == reference.execute(omq)
            database.add(Fact("enrolled", ("s_new", "c_1")))
            assert engine.execute(omq) == reference.execute(omq)
            assert engine.snapshot().parallel_chases == 2  # pool re-forked
        finally:
            engine.shutdown()

    def test_crash_falls_back_to_sequential_answers(self):
        database = Database(generate_university_database(40, seed=7))
        omq = university_omq()
        expected = QueryEngine(university_ontology(), database, workers=1).execute(omq)

        original_broadcast = WorkerPool.broadcast

        def sabotage(self, task, payload, timeout=None):
            if task == "chase_round":
                for process in self.processes:
                    os.kill(process.pid, signal.SIGKILL)
            return original_broadcast(self, task, payload, timeout=timeout)

        engine = QueryEngine(university_ontology(), database, workers=2, incremental=False)
        try:
            with pytest.MonkeyPatch.context() as patcher:
                patcher.setattr(WorkerPool, "broadcast", sabotage)
                assert engine.execute(omq) == expected  # sequential fallback
            stats = engine.snapshot()
            assert stats.parallel_chases == 0
            assert stats.worker_crashes > 0
        finally:
            engine.shutdown()

    def test_interrupted_batch_leaves_no_segments(self):
        """The KeyboardInterrupt/timeout regression: an aborted batch must
        not strand shared-memory segments (the /dev/shm leak class)."""
        database = Database(generate_university_database(40, seed=7))
        omq = university_omq()
        engine = QueryEngine(university_ontology(), database, workers=2, incremental=False)

        original_scatter = WorkerPool.scatter

        def interrupt(self, task, payloads, timeout=None):
            if task == "execute":
                raise KeyboardInterrupt
            return original_scatter(self, task, payloads, timeout=timeout)

        try:
            with pytest.MonkeyPatch.context() as patcher:
                patcher.setattr(WorkerPool, "scatter", interrupt)
                with pytest.raises(KeyboardInterrupt):
                    engine.execute_batch([omq, omq])
        finally:
            engine.shutdown()
        SEGMENTS.unlink_all()  # the atexit backstop, invoked eagerly here
        assert active_segments() == set()


# -- configuration plumbing ------------------------------------------------


class TestConfiguration:
    def test_workers_default_and_scope(self):
        base = default_workers()
        with use_workers(4):
            assert default_workers() == 4
            assert ExecutionOptions().resolved_workers() == 4
            assert ExecutionOptions(workers=2).resolved_workers() == 2
        assert default_workers() == base

    def test_engine_workers_resolution(self):
        database = Database([Fact("edge", ("a", "b"))])
        ontology = parse_ontology("edge(x, y) -> reach(x, y)", name="t")
        assert QueryEngine(ontology, database).workers is None or isinstance(
            QueryEngine(ontology, database).workers, int
        )
        assert QueryEngine(ontology, database, workers=3).workers == 3
        with use_workers(2):
            engine = QueryEngine(ontology, database)
            assert engine._effective_workers() == 2

    def test_service_config_threads_workers_through(self):
        from repro.server.service import ServiceConfig

        options = ServiceConfig(workers=3).execution_options()
        assert options.workers == 3
        assert ServiceConfig().execution_options().workers is None

    def test_cli_exposes_workers_flag(self):
        from repro.cli import build_parser

        parser = build_parser()
        run_args = parser.parse_args(["run", "--workers", "4"])
        assert run_args.workers == 4
        serve_args = parser.parse_args(["serve", "--workers", "2"])
        assert serve_args.workers == 2

    def test_single_worker_engine_never_forks(self):
        database = Database(generate_university_database(20, seed=1))
        omq = university_omq()
        engine = QueryEngine(university_ontology(), database, workers=1, incremental=False)
        engine.execute(omq)
        stats = engine.snapshot()
        assert stats.parallel_chases == 0
