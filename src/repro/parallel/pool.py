"""The persistent fork-based worker pool behind the parallel subsystem.

A :class:`WorkerPool` forks ``worker_count`` processes that inherit, via
copy-on-write, the bootstrap state the master prepared *before* the fork:
the ontology, a replica :class:`~repro.data.instance.Instance`, and —
crucially — the process-wide term dictionary
(:data:`repro.data.interning.TERMS`), so dense term ids minted before the
fork mean the same thing in every process and shared-memory rows need no
translation.  This is why the pool requires the ``fork`` start method
(:func:`supported`); on platforms without it every caller degrades to the
sequential paths.

Workers run a simple request/response loop over a pipe.  The master's
receive path polls the pipe *and* the worker's liveness, so a worker that
is killed mid-task surfaces as :class:`WorkerCrashed` (never a hang), at
which point the pool tears itself down; a worker that is alive but wedged
is bounded by the per-operation deadline (:data:`DEFAULT_TASK_TIMEOUT`,
tunable via ``REPRO_WORKER_TIMEOUT``) and surfaces the same way.  Segment
cleanup stays with the operation that created the segments (``finally`` +
the ``atexit`` registry in :mod:`repro.parallel.shm`).

Fork safety: the worker's first action is to re-initialize the locks of
the process-wide structures it uses (another master thread may have held
one at the fork instant) and to ignore ``SIGINT`` — shutdown is the
master's job, via the pipe or, if the master dies, via ``EOFError``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import weakref
from dataclasses import dataclass, field

from repro.data.instance import Instance
from repro.data.interning import TERMS
from repro.parallel.runtime import PARALLEL_STATS
from repro.parallel.shm import SharedColumns, SharedFactBlock, decode_value
from repro.tgds.ontology import Ontology

__all__ = [
    "DEFAULT_TASK_TIMEOUT",
    "ParallelExecutionError",
    "WorkerBootstrap",
    "WorkerCrashed",
    "WorkerPool",
    "supported",
]

#: Upper bound on cached per-query enumerators inside one worker.
_WORKER_ENUMERATOR_CACHE = 32


def _env_timeout(name: str, default: float) -> float | None:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value > 0 else None


#: Default deadline (seconds) for one broadcast/scatter operation.  A worker
#: that is alive but wedged past this surfaces as :class:`WorkerCrashed`
#: (closing the pool) instead of blocking the master forever under the
#: engine lock.  ``REPRO_WORKER_TIMEOUT`` overrides; ``<= 0`` disables the
#: deadline.  Passing ``timeout=None`` explicitly also means "no deadline".
DEFAULT_TASK_TIMEOUT: float | None = _env_timeout("REPRO_WORKER_TIMEOUT", 300.0)


class ParallelExecutionError(RuntimeError):
    """A parallel operation failed and the caller should fall back."""


class WorkerCrashed(ParallelExecutionError):
    """A worker process died (or its pipe broke) mid-operation."""


def supported() -> bool:
    """Whether this platform can run the pool (needs ``fork``)."""
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass
class WorkerBootstrap:
    """State the workers inherit through the fork (never pickled)."""

    ontology: Ontology
    instance: Instance
    codegen: bool | None = None


# -- worker-side task handlers ---------------------------------------------
#
# Everything below the next comment block executes in the forked children
# only, which is why the bodies are excluded from (master-process) coverage
# measurement; the behaviour is exercised end-to-end by tests/test_parallel.py.


def _worker_state(bootstrap: WorkerBootstrap, index: int, count: int) -> dict:
    return {
        "instance": bootstrap.instance,
        "ontology": bootstrap.ontology,
        "codegen": bootstrap.codegen,
        "compiled": None,
        "index": index,
        "count": count,
        "relations": [],
        "fired": set(),
        "enumerators": {},
    }


def _task_ping(state: dict, payload):  # pragma: no cover - worker process
    return payload


def _task_sleep(state: dict, payload):  # pragma: no cover - worker process
    time.sleep(float(payload))
    return payload


def _decode_block(name, table, shard):  # pragma: no cover - worker process
    """Decode a fact block; also select this worker's hash-partition slice."""
    from repro.data.facts import Fact
    from repro.parallel.shards import shard_of

    decode = TERMS.decode
    facts: list = []
    mine: list = []
    index, count = shard
    block = SharedFactBlock.attach(name)
    try:
        for relation_id, args in block.records():
            fact = Fact(
                table[relation_id],
                tuple(decode_value(value, decode) for value in args),
            )
            facts.append(fact)
            if shard_of(args, count) == index:
                mine.append(fact)
    finally:
        block.close()
    return facts, mine


def _task_chase_round(state: dict, payload: dict):  # pragma: no cover - worker process
    from repro.chase.standard import (
        _delta_body_maps,
        _head_witness,
        compile_ontology,
    )

    state["relations"].extend(payload["relations"])
    state["fired"].update(payload["fired"])
    instance = state["instance"]
    index, count = state["index"], state["count"]

    mine: list = []
    if payload["facts"] is not None:
        facts, mine = _decode_block(
            payload["facts"], state["relations"], (index, count)
        )
        instance.add_facts(facts)
    if payload.get("initial"):
        everything = list(instance)
        mine = [fact for j, fact in enumerate(everything) if j % count == index]

    compiled = state["compiled"]
    if compiled is None:
        compiled = state["compiled"] = compile_ontology(state["ontology"])
    fired = state["fired"]
    proposals: list[tuple[int, tuple]] = []
    suppressed = 0
    for tgd_index, tgd in enumerate(compiled.tgds):
        body_query = compiled.body_queries[tgd_index]
        if body_query is None:
            continue  # empty bodies fire once, master-side
        frontier = compiled.frontiers[tgd_index]
        order = compiled.frontier_orders[tgd_index]
        head_query = compiled.head_queries[tgd_index]
        seen_keys: set[tuple] = set()
        for body_map in _delta_body_maps(tgd, body_query, instance, mine):
            frontier_map = {v: body_map[v] for v in frontier}
            key = (tgd_index, tuple(frontier_map[v] for v in order))
            if key in fired or key in seen_keys:
                continue
            if _head_witness(head_query, frontier_map, instance) is not None:
                suppressed += 1
                continue
            seen_keys.add(key)
            proposals.append(key)
    return {"proposals": proposals, "suppressed": suppressed}


def _task_project(state: dict, payload):  # pragma: no cover - worker process
    from repro.enumeration.reduction import component_projection

    instance = state["instance"]
    out = []
    for index, component, keep_nulls in payload:
        rows = component_projection(
            component, instance, keep_nulls, codegen=state["codegen"]
        )
        out.append((index, None if rows is None else list(rows)))
    return out


def _task_execute(state: dict, payload):  # pragma: no cover - worker process
    from repro.engine.fingerprint import query_fingerprint
    from repro.enumeration.cdlin import CDLinEnumerator

    cache = state["enumerators"]
    out = []
    for slot, query in payload:
        fingerprint = query_fingerprint(query)
        enumerator = cache.get(fingerprint)
        if enumerator is None:
            if len(cache) >= _WORKER_ENUMERATOR_CACHE:
                cache.pop(next(iter(cache)))
            enumerator = CDLinEnumerator(
                query,
                state["instance"],
                keep_nulls=False,
                codegen=state["codegen"],
            )
            cache[fingerprint] = enumerator
        out.append((slot, set(enumerator.enumerate())))
    return out


def _task_filter(state: dict, payload: dict):  # pragma: no cover - worker process
    block = SharedColumns.attach(payload["name"])
    try:
        keys = payload["keys"]
        if not keys:
            return []
        columns = block.columns()
        key_columns = [columns[p] for p in payload["positions"]]
        out = [
            tuple(row)
            for key, row in zip(zip(*key_columns), zip(*columns))
            if key in keys
        ]
        # Release the exported column views before closing the mapping,
        # otherwise the close raises BufferError.
        del key_columns
        for view in columns:
            view.release()
        return out
    finally:
        block.close()


_TASKS = {
    "ping": _task_ping,
    "sleep": _task_sleep,
    "chase_round": _task_chase_round,
    "project": _task_project,
    "execute": _task_execute,
    "filter": _task_filter,
}


def _worker_main(conn, bootstrap, index, count):  # pragma: no cover - worker process
    # Locks inherited from a (possibly multi-threaded) master may be held
    # by a thread that does not exist in this child: re-initialize the ones
    # worker code paths can touch.
    import repro.config as config

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    TERMS._lock = threading.Lock()
    config._STATE_LOCK = threading.Lock()
    state = _worker_state(bootstrap, index, count)
    import traceback

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        task, payload = message
        try:
            result = _TASKS[task](state, payload)
            reply = ("ok", result)
        except BaseException as exc:
            reply = ("error", f"{type(exc).__name__}: {exc}", traceback.format_exc())
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# -- master-side pool -------------------------------------------------------


def _shutdown(processes, connections) -> None:
    """Tear down workers: polite pipe shutdown, then terminate stragglers."""
    for conn in connections:
        try:
            conn.send(None)
        except (BrokenPipeError, OSError):
            pass
    deadline = time.monotonic() + 2.0
    for process in processes:
        process.join(timeout=max(0.0, deadline - time.monotonic()))
    for process in processes:
        if process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
    for conn in connections:
        try:
            conn.close()
        except OSError:
            pass


@dataclass
class _PoolEpoch:
    """What the forked replicas snapshot; a mismatch means re-fork."""

    database_version: int
    chase_id: int | None
    instance_size: int = field(default=0)


class WorkerPool:
    """A fixed set of forked worker processes plus their pipes.

    The pool is *persistent*: the same workers serve chase rounds, reduce
    projections, semi-join shards and batch enumerations, so replica state
    (and per-worker enumerator caches) amortize across calls.  It is not
    thread-safe; the owning materialization serializes access under the
    engine lock.
    """

    def __init__(self, worker_count: int, bootstrap: WorkerBootstrap) -> None:
        if not supported():
            raise ParallelExecutionError("worker pool requires the fork start method")
        context = multiprocessing.get_context("fork")
        self.worker_count = max(2, int(worker_count))
        self.master_pid = os.getpid()
        self.epoch: _PoolEpoch | None = None
        self._connections = []
        self._processes = []
        self._broken = False
        try:
            for index in range(self.worker_count):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(child_conn, bootstrap, index, self.worker_count),
                    daemon=True,
                    name=f"repro-worker-{index}",
                )
                process.start()
                child_conn.close()
                self._connections.append(parent_conn)
                self._processes.append(process)
        except OSError:
            # Pipe()/start() can fail under fd/process/memory pressure
            # mid-loop; reap the workers already forked before re-raising
            # (the finalizer is not registered yet at this point).
            _shutdown(list(self._processes), list(self._connections))
            raise
        self._finalizer = weakref.finalize(
            self, _shutdown, list(self._processes), list(self._connections)
        )
        PARALLEL_STATS.bump("pools_forked")

    @property
    def alive(self) -> bool:
        return not self._broken and self._finalizer.alive

    @property
    def processes(self) -> list:
        """The worker processes (read-only; tests kill these)."""
        return list(self._processes)

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._finalizer.alive:
            self._finalizer()

    def _fail(self, reason: str) -> WorkerCrashed:
        self._broken = True
        PARALLEL_STATS.bump("worker_crashes")
        self.close()
        return WorkerCrashed(reason)

    def _receive(self, index: int, timeout: float | None):
        connection = self._connections[index]
        process = self._processes[index]
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if connection.poll(0.05):
                try:
                    message = connection.recv()
                except (EOFError, OSError):
                    raise self._fail(f"worker {index} closed its pipe mid-task")
                if message[0] == "error":
                    raise ParallelExecutionError(
                        f"worker {index} task failed: {message[1]}\n{message[2]}"
                    )
                return message[1]
            if not process.is_alive():
                # One final poll: the reply may have been written just
                # before the process exited.
                if connection.poll(0):
                    continue
                raise self._fail(
                    f"worker {index} died (exit code {process.exitcode})"
                )
            if deadline is not None and time.monotonic() > deadline:
                raise self._fail(f"worker {index} timed out")

    def _send(self, index: int, task: str, payload) -> None:
        if not self.alive:
            raise WorkerCrashed("worker pool is closed")
        try:
            self._connections[index].send((task, payload))
        except (BrokenPipeError, OSError):
            raise self._fail(f"worker {index} pipe is broken")
        PARALLEL_STATS.bump("tasks")

    def _collect(self, timeout: float | None) -> list:
        """Receive one reply per worker, in worker order.

        A task-error reply from one worker must not desynchronize the
        pipes: the remaining workers' replies are drained before the
        error propagates, so a caller that catches it and reuses the
        (still healthy) pool never reads a stale reply as the next
        operation's result.  A crash closes the whole pool via
        :meth:`_fail`, so draining stops there.
        """
        results: list = []
        error: ParallelExecutionError | None = None
        for index in range(self.worker_count):
            try:
                results.append(self._receive(index, timeout))
            except WorkerCrashed:
                raise
            except ParallelExecutionError as exc:
                if error is None:
                    error = exc
                results.append(None)
        if error is not None:
            raise error
        return results

    def broadcast(
        self, task: str, payload, timeout: float | None = DEFAULT_TASK_TIMEOUT
    ) -> list:
        """Send one payload to every worker; collect all replies in order."""
        for index in range(self.worker_count):
            self._send(index, task, payload)
        return self._collect(timeout)

    def scatter(
        self, task: str, payloads: list, timeout: float | None = DEFAULT_TASK_TIMEOUT
    ) -> list:
        """Send ``payloads[i]`` to worker ``i``; collect replies in order."""
        if len(payloads) != self.worker_count:
            raise ValueError("scatter needs exactly one payload per worker")
        for index, payload in enumerate(payloads):
            self._send(index, task, payload)
        return self._collect(timeout)
