"""The multi-tenant query service: tenants, admission, timeouts, metrics.

This is the long-lived system the paper's cost model argues for: the
linear-time preprocessing half (chase + reduction) is paid once per
(ontology, database) and once per query plan, and the constant-delay
enumeration half is what every HTTP request actually buys.  The service
wires the :class:`repro.engine.QueryEngine` into that shape:

* **Tenants** are named databases.  Tenants whose workloads share an
  ontology share one engine — and *every* engine shares one global plan
  cache keyed by the SHA-256 ``(ontology, query)`` fingerprints, so a query
  compiled for one tenant is a plan-cache hit for all of them.
* **Admission control** bounds in-flight requests per tenant; overflow is
  rejected immediately with 429 + ``Retry-After`` instead of queueing
  without bound.
* **Timeouts** cancel cleanly: enumeration runs in a worker thread that
  checks a cancellation event between pages (constant delay means pages
  are cheap, so cancellation latency is one page), closes its cursor, and
  exits — no detached thread keeps burning CPU after the 504.
* **Cursors** are server-side sessions over :meth:`QueryEngine.open`.  The
  enumerator publishes copy-on-write snapshots, so a cursor opened before
  a mutation batch finishes over the pre-batch answers even while the
  maintenance pass installs the new state.
* **Mutations** coalesce through ``Database.batch()`` (one atomic version
  step) and then eagerly refresh the materialization while still holding
  the tenant's write gate, so maintenance never races a later batch.
* **Answer cache.**  A query's sorted answers are JSON-encoded once per
  database version and kept per tenant, keyed by the query text; a repeat
  ``POST .../query`` at the same version is answered from those bytes.
* **Graceful shutdown** stops admitting, waits for in-flight work to
  drain, then closes every remaining cursor through its lifecycle hooks.

Handlers never block the event loop for long: parsing, routing and answer
cache hits run on the loop and cost a dictionary lookup plus a small
``json.dumps``; enumeration and maintenance run in threads.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from dataclasses import dataclass

from repro.config import ExecutionOptions
from repro.cq.query import QueryError
from repro.data.instance import Database
from repro.engine import LRUCache, QueryEngine
from repro.engine.engine import AnswerCursor, EngineStats
from repro.engine.stats import EngineCounters, LatencyHistogram
from repro.incremental.delta import Delta, apply_delta
from repro.obs.explain import explain_report
from repro.obs.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from repro.obs.prometheus import render_prometheus
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import TRACES, span, start_trace
from repro.server.http import BadRequest, Request, Response
from repro.workloads import get_workload


def _answers_body(answers: bytes, payload: dict) -> bytes:
    """``Response.json({"answers": ..., **payload}).body`` with the answers
    already encoded.

    Every other key of a query payload sorts after ``"answers"``, so under
    ``sort_keys=True`` the answers are the first member and the rest of the
    object follows them unchanged.
    """
    rest = json.dumps(payload, sort_keys=True)
    return b'{"answers": ' + answers + b", " + rest[1:].encode("utf-8") + b"\n"


class QueryTimeout(Exception):
    """An enumeration exceeded the per-query timeout and was cancelled."""


class _Cancelled(Exception):
    """Internal: the worker thread observed the cancellation event."""


@dataclass
class ServiceConfig:
    """Operational knobs of the query service (see ``docs/server.md``)."""

    host: str = "127.0.0.1"
    port: int = 8080
    max_inflight: int = 8
    query_timeout: float = 10.0
    page_size: int = 100
    max_page_size: int = 10_000
    max_cursors: int = 64
    drain_timeout: float = 5.0
    #: The engine knobs of every tenant.  ``plan_cache_size`` sizes the one
    #: plan cache all engines share; ``tracing=True`` traces every request,
    #: and a request with an ``X-Repro-Trace`` header or ``?explain=1`` is
    #: traced either way.
    execution: ExecutionOptions = ExecutionOptions(plan_cache_size=256)
    #: Queries/pages slower than this (milliseconds) are written to the
    #: slow-query log as JSON lines on stderr; ``None`` disables the log.
    slow_query_ms: float | None = None


@dataclass(frozen=True)
class CachedAnswers:
    """One query's answers at one database version, encoded once.

    ``answers`` is the JSON text (UTF-8 bytes) of the sorted answer rows,
    exactly as :meth:`Response.json` would render the ``"answers"`` member.
    """

    version: int
    answers: bytes
    count: int


@dataclass
class CursorSession:
    """One server-side cursor: id, the engine cursor, and pagination state."""

    id: str
    query: str
    cursor: AnswerCursor
    busy: bool = False


class Tenant:
    """One named database plus its serving state."""

    def __init__(
        self,
        name: str,
        database: Database,
        engine: QueryEngine,
        spec: dict,
        answer_cache_size: int,
    ):
        self.name = name
        self.database = database
        self.engine = engine
        self.spec = spec
        self.inflight = 0
        self.cursors: dict[str, CursorSession] = {}
        self.cursor_seq = 0
        self.counters = EngineCounters()
        # Seeded so /metrics shows the hit count (as 0) before the first hit.
        self.counters.bump("answer_cache_hits", 0)
        # Encoded answers by query text, all of one database version
        # (``_answers_version``): touched only on the event loop.
        self.answers: LRUCache[CachedAnswers] = LRUCache(answer_cache_size)
        self._answers_version = -1
        self.latency = LatencyHistogram()
        # Write gate: held (in a worker thread) across a mutation batch and
        # the eager refresh that follows, and around engine state
        # acquisition for reads — so maintenance never races a batch on the
        # database's internal structures.  Enumeration itself runs outside
        # the gate, over the enumerator's published snapshots.
        self.state_lock = threading.Lock()

    def cached_answers(self, query: str) -> CachedAnswers | None:
        """The cached encoding of ``query``'s answers, if it is current."""
        entry = self.answers.get(query)
        if entry is not None and entry.version == self.database.version:
            return entry
        return None

    def store_answers(self, query: str, entry: CachedAnswers) -> None:
        """Keep ``entry``; the first entry of a newer version drops the rest."""
        if entry.version != self._answers_version:
            self.answers.clear()
            self._answers_version = entry.version
        self.answers.put(query, entry)

    def info(self) -> dict:
        return {
            "name": self.name,
            "workload": self.spec,
            "db_facts": len(self.database),
            "db_version": self.database.version,
            "inflight": self.inflight,
            "open_cursors": len(self.cursors),
        }

    def metrics(self) -> dict:
        payload = self.info()
        payload["counters"] = self.counters.snapshot()
        payload["latency"] = self.latency.snapshot()
        return payload


class QueryService:
    """Routing and tenant management over the prepared-query engine."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.draining = False
        self._started = time.time()
        # One plan cache for the whole process: engines add their ontology
        # fingerprint to every key, so tenants over different ontologies
        # coexist and tenants over the same ontology share compiled plans.
        self._plan_cache: LRUCache = LRUCache(self.config.execution.plan_cache_size)
        self._engines: dict[str, QueryEngine] = {}
        self._tenants: dict[str, Tenant] = {}
        self._counters = EngineCounters()
        self.slow_log = SlowQueryLog(self.config.slow_query_ms)

    # -- tenant management -------------------------------------------------

    def create_tenant(
        self, name: str, workload: str, size: int = 300, seed: int = 0
    ) -> Tenant:
        """Provision a named database from a workload (registry name or path)."""
        if not name or "/" in name:
            raise BadRequest(f"invalid tenant name {name!r}")
        if name in self._tenants:
            raise BadRequest(f"tenant {name!r} already exists", status=409)
        try:
            scenario = get_workload(workload).scenario(size=size, seed=seed)
        except ValueError as exc:
            raise BadRequest(str(exc)) from exc
        engine = self._engine_for(scenario.ontology)
        tenant = Tenant(
            name,
            scenario.database,
            engine,
            {"workload": workload, "size": size, "seed": seed},
            answer_cache_size=self.config.execution.plan_cache_size,
        )
        self._tenants[name] = tenant
        return tenant

    def _engine_for(self, ontology) -> QueryEngine:
        """The shared engine for an ontology (one per distinct fingerprint)."""
        probe = QueryEngine(
            ontology,
            options=self.config.execution,
            plan_cache=self._plan_cache,
        )
        return self._engines.setdefault(probe.ontology_fingerprint, probe)

    def drop_tenant(self, name: str) -> None:
        tenant = self._tenant(name)
        for session in list(tenant.cursors.values()):
            session.cursor.close()
        tenant.cursors.clear()
        del self._tenants[name]

    def _tenant(self, name: str) -> Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise BadRequest(f"unknown tenant {name!r}", status=404)
        return tenant

    @property
    def tenants(self) -> dict[str, Tenant]:
        return dict(self._tenants)

    # -- request routing ---------------------------------------------------

    async def handle(self, request: Request) -> Response:
        self._counters.bump("requests")
        parts = [part for part in request.path.split("/") if part]
        try:
            return await self._route(request, parts)
        except QueryTimeout as exc:
            return Response.error(504, str(exc))
        except BadRequest as exc:
            # Also mapped by the transport; handled here too so the handler
            # layer is self-contained for tests and embedders.
            return Response.error(exc.status, str(exc))
        except QueryError as exc:
            return Response.error(400, str(exc))

    async def _route(self, request: Request, parts: list[str]) -> Response:
        method = request.method
        if parts == ["healthz"]:
            return Response.json(
                {"status": "draining" if self.draining else "ok", "tenants": len(self._tenants)}
            )
        if parts == ["metrics"] and method == "GET":
            if request.params.get("format") == "prometheus":
                return Response(
                    body=render_prometheus(self.metrics()).encode("utf-8"),
                    content_type=PROMETHEUS_CONTENT_TYPE,
                )
            return Response.json(self.metrics())
        if parts == ["traces"] and method == "GET":
            count = request.param_int("count", 20)
            return Response.json(
                {
                    "traces": [
                        {
                            "trace_id": trace.trace_id,
                            "name": trace.name,
                            "started_at": trace.started_at,
                            "duration_ms": round(trace.duration_ms, 3),
                            "spans": len(trace.spans),
                        }
                        for trace in TRACES.recent(count)
                    ]
                }
            )
        if len(parts) == 2 and parts[0] == "traces" and method == "GET":
            trace = TRACES.get(parts[1])
            if trace is None:
                raise BadRequest(f"unknown trace {parts[1]!r}", status=404)
            return Response.json(explain_report(trace))
        if parts == ["tenants"] and method == "GET":
            return Response.json(
                {"tenants": [t.info() for _, t in sorted(self._tenants.items())]}
            )
        if len(parts) == 2 and parts[0] == "tenants":
            return await self._route_tenant(request, parts[1])
        if len(parts) >= 3 and parts[0] == "tenants":
            return await self._route_tenant_sub(request, parts[1], parts[2:])
        raise BadRequest(f"no route for {request.path!r}", status=404)

    async def _route_tenant(self, request: Request, name: str) -> Response:
        if request.method == "GET":
            return Response.json(self._tenant(name).info())
        if request.method == "PUT":
            if self.draining:
                return self._unavailable()
            payload = request.json()
            tenant = self.create_tenant(
                name,
                str(payload.get("workload", "university")),
                size=int(payload.get("size", 300)),
                seed=int(payload.get("seed", 0)),
            )
            return Response.json(tenant.info(), status=201)
        if request.method == "DELETE":
            self.drop_tenant(name)
            return Response.json({"dropped": name})
        raise BadRequest("use GET, PUT or DELETE", status=405)

    async def _route_tenant_sub(
        self, request: Request, name: str, rest: list[str]
    ) -> Response:
        tenant = self._tenant(name)
        if rest == ["query"] and request.method == "POST":
            return await self._query(tenant, request)
        if rest == ["facts"] and request.method == "POST":
            return await self._mutate(tenant, request)
        if rest == ["cursors"] and request.method == "POST":
            return await self._open_cursor(tenant, request)
        if len(rest) == 2 and rest[0] == "cursors":
            session = tenant.cursors.get(rest[1])
            if session is None:
                raise BadRequest(f"unknown cursor {rest[1]!r}", status=404)
            if request.method == "GET":
                return await self._fetch_page(tenant, session, request)
            if request.method == "DELETE":
                session.cursor.close()
                return Response.json({"closed": session.id})
            raise BadRequest("use GET or DELETE", status=405)
        raise BadRequest(f"no route for {request.path!r}", status=404)

    # -- admission control -------------------------------------------------

    def _unavailable(self) -> Response:
        return Response.error(503, "service is draining", **{"Retry-After": "1"})

    def _admit(self, tenant: Tenant) -> Response | None:
        """Take an in-flight slot, or produce the rejection response.

        Runs on the event loop with no await between check and increment,
        so the per-tenant bound is exact.
        """
        if self.draining:
            return self._unavailable()
        if tenant.inflight >= self.config.max_inflight:
            tenant.counters.bump("rejected")
            self._counters.bump("rejected")
            return Response.error(
                429,
                f"tenant {tenant.name!r} has {tenant.inflight} requests in flight "
                f"(limit {self.config.max_inflight})",
                **{"Retry-After": "1"},
            )
        tenant.inflight += 1
        return None

    # -- request tracing ---------------------------------------------------

    def _trace_scope(self, request: Request, name: str, force: bool = False):
        """The trace context for one request, or ``None`` when untraced.

        A request is traced when the client sent a trace id, asked for
        ``?explain=1`` (``force``), or the config says to trace everything
        (``execution.tracing``).  The client-supplied id is adopted so the
        trace can be correlated across systems; the id is echoed back in the
        ``X-Repro-Trace`` response header either way.
        """
        trace_id = request.headers.get("x-repro-trace") or None
        if force or trace_id is not None or self.config.execution.tracing:
            return start_trace(name, trace_id=trace_id)
        return None

    @staticmethod
    def _with_trace(response: Response, trace) -> Response:
        if trace is not None:
            response.headers["X-Repro-Trace"] = trace.trace_id
        return response

    # -- threaded execution with cancellation ------------------------------

    async def _in_thread(self, tenant: Tenant, fn, *args):
        """Run ``fn(cancel_event, *args)`` in a thread under the timeout.

        On timeout the cancellation event is set and the worker is awaited:
        it notices the flag at the next page boundary, closes its cursor and
        raises — so the thread is provably finished (not detached) by the
        time the 504 goes out.
        """
        cancel = threading.Event()
        task = asyncio.ensure_future(asyncio.to_thread(fn, cancel, *args))
        try:
            return await asyncio.wait_for(
                asyncio.shield(task), self.config.query_timeout
            )
        except (asyncio.TimeoutError, TimeoutError):
            cancel.set()
            with contextlib.suppress(Exception):
                await task
            tenant.counters.bump("timeouts")
            self._counters.bump("timeouts")
            raise QueryTimeout(
                f"query exceeded the {self.config.query_timeout}s timeout"
            ) from None

    @staticmethod
    def _drain_rows(
        cursor: AnswerCursor, cancel: threading.Event, limit: int | None = None
    ) -> tuple[list[tuple], bool]:
        """Fetch up to ``limit`` rows (all with ``None``), cancellable.

        Returns ``(rows, exhausted)``.  The cancellation event is checked
        once per cursor page — the ``page_size`` hint the service gave
        :meth:`QueryEngine.open`, so pagination granularity is configured in
        one place; constant delay per answer bounds the time between checks.
        """
        rows: list[tuple] = []
        chunk = cursor.page_size
        while True:
            if cancel.is_set():
                raise _Cancelled()
            want = chunk if limit is None else min(chunk, limit - len(rows))
            if want <= 0:
                return rows, False
            page = cursor.fetchmany(want)
            rows.extend(page)
            if len(page) < want:
                return rows, True

    @staticmethod
    def _encode_rows(rows: list[tuple]) -> list[list[str]]:
        return [[str(term) for term in row] for row in rows]

    # -- endpoints ---------------------------------------------------------

    @staticmethod
    def _query_text(request: Request) -> str:
        payload = request.json()
        query = payload.get("query")
        if not isinstance(query, str) or not query.strip():
            raise BadRequest('body must carry a non-empty "query" string')
        return query

    async def _query(self, tenant: Tenant, request: Request) -> Response:
        """Execute one query to completion: sorted complete answers.

        A repeat of a query at an unchanged database version is served from
        the tenant's answer cache on the event loop; anything else runs in a
        worker thread.  Tracing does not change which of the two happens.

        ``?explain=1`` forces a trace and embeds the phase-level EXPLAIN
        report (span tree, per-phase rollup, delay stats) in the response;
        an ``X-Repro-Trace`` request header adopts the caller's trace id.
        Traced responses — including 504s — echo the id back in the
        ``X-Repro-Trace`` header.
        """
        query = self._query_text(request)
        explain = request.params.get("explain", "") in ("1", "true", "yes", "on")
        rejection = self._admit(tenant)
        if rejection is not None:
            return rejection
        scope = self._trace_scope(request, f"query:{tenant.name}", force=explain)
        trace = None
        started = time.perf_counter()
        try:
            try:
                with scope if scope is not None else contextlib.nullcontext() as trace:
                    entry = await self._answers(tenant, query)
            except QueryTimeout as exc:
                self.slow_log.record(
                    query=query,
                    elapsed_ms=1000 * (time.perf_counter() - started),
                    tenant=tenant.name,
                    trace_id=trace.trace_id if trace else None,
                    outcome="timeout",
                )
                return self._with_trace(Response.error(504, str(exc)), trace)
        finally:
            tenant.inflight -= 1
        elapsed = time.perf_counter() - started
        tenant.latency.observe(elapsed)
        tenant.counters.bump("queries")
        self._counters.bump("queries")
        self.slow_log.record(
            query=query,
            elapsed_ms=1000 * elapsed,
            tenant=tenant.name,
            trace_id=trace.trace_id if trace else None,
            answers=entry.count,
        )
        payload = {
            "tenant": tenant.name,
            "count": entry.count,
            "elapsed_ms": round(1000 * elapsed, 3),
            "db_version": tenant.database.version,
        }
        if trace is not None:
            payload["trace_id"] = trace.trace_id
            if explain:
                payload["explain"] = explain_report(trace, answers=entry.count)
        return self._with_trace(
            Response(body=_answers_body(entry.answers, payload)), trace
        )

    async def _answers(self, tenant: Tenant, query: str) -> CachedAnswers:
        """``query``'s encoded answers: cached when current, else computed.

        A miss is stored only when the database version read before the
        worker ran equals the one read after: writes commit under
        ``state_lock`` and versions only grow, so the cursor saw exactly
        that version's state.
        """
        entry = tenant.cached_answers(query)
        if entry is not None:
            tenant.counters.bump("answer_cache_hits")
            with span("answers", cached=True, db_version=entry.version, answers=entry.count):
                return entry
        version = tenant.database.version
        rows = await self._in_thread(tenant, self._execute_blocking, tenant, query)
        with span("answers", cached=False, db_version=version, answers=len(rows)):
            encoded = json.dumps(self._encode_rows(sorted(rows))).encode("utf-8")
        entry = CachedAnswers(version, encoded, len(rows))
        if tenant.database.version == version:
            tenant.store_answers(query, entry)
        return entry

    def _execute_blocking(
        self, cancel: threading.Event, tenant: Tenant, query: str
    ) -> list[tuple]:
        with tenant.state_lock:
            cursor = tenant.engine.open(
                query, tenant.database, page_size=self.config.page_size
            )
        try:
            rows, _ = QueryService._drain_rows(cursor, cancel)
            return rows
        finally:
            cursor.close()

    async def _open_cursor(self, tenant: Tenant, request: Request) -> Response:
        """Open a server-side cursor; answers stream via GET pages."""
        query = self._query_text(request)
        if len(tenant.cursors) >= self.config.max_cursors:
            return Response.error(
                429,
                f"tenant {tenant.name!r} has {len(tenant.cursors)} open cursors "
                f"(limit {self.config.max_cursors})",
                **{"Retry-After": "1"},
            )
        rejection = self._admit(tenant)
        if rejection is not None:
            return rejection
        scope = self._trace_scope(request, f"cursor:{tenant.name}")
        trace = None
        try:
            if scope is None:
                cursor = await self._in_thread(
                    tenant, self._open_blocking, tenant, query
                )
            else:
                with scope as trace:
                    cursor = await self._in_thread(
                        tenant, self._open_blocking, tenant, query
                    )
        finally:
            tenant.inflight -= 1
        tenant.cursor_seq += 1
        session = CursorSession(id=f"c{tenant.cursor_seq}", query=query, cursor=cursor)
        tenant.cursors[session.id] = session
        # Lifecycle hook: however the cursor closes (explicit DELETE, page
        # exhaustion, timeout, shutdown drain), the session deregisters.
        cursor.add_close_hook(lambda _c: tenant.cursors.pop(session.id, None))
        tenant.counters.bump("cursors_opened")
        payload = {
            "tenant": tenant.name,
            "cursor": session.id,
            "db_version": tenant.database.version,
        }
        if trace is not None:
            payload["trace_id"] = trace.trace_id
        return self._with_trace(Response.json(payload, status=201), trace)

    def _open_blocking(
        self, cancel: threading.Event, tenant: Tenant, query: str
    ) -> AnswerCursor:
        del cancel  # preprocessing is not paginated; the timeout still applies
        with tenant.state_lock:
            return tenant.engine.open(
                query, tenant.database, page_size=self.config.page_size
            )

    async def _fetch_page(
        self, tenant: Tenant, session: CursorSession, request: Request
    ) -> Response:
        count = request.param_int("count", self.config.page_size)
        if count > self.config.max_page_size:
            raise BadRequest(f"count exceeds max_page_size={self.config.max_page_size}")
        if session.busy:
            return Response.error(409, f"cursor {session.id!r} has a fetch in flight")
        rejection = self._admit(tenant)
        if rejection is not None:
            return rejection
        session.busy = True
        scope = self._trace_scope(request, f"page:{tenant.name}")
        trace = None
        started = time.perf_counter()
        try:
            if scope is None:
                rows, exhausted = await self._in_thread(
                    tenant, self._page_blocking, session, count
                )
            else:
                with scope as trace:
                    rows, exhausted = await self._in_thread(
                        tenant, self._page_blocking, session, count
                    )
        except QueryTimeout:
            # Clean cancellation: the worker already stopped at a page
            # boundary; close the cursor so the session does not leak.
            session.cursor.close()
            raise
        finally:
            session.busy = False
            tenant.inflight -= 1
        elapsed = time.perf_counter() - started
        tenant.latency.observe(elapsed)
        tenant.counters.bump("pages")
        self._counters.bump("pages")
        self.slow_log.record(
            query=session.query,
            elapsed_ms=1000 * elapsed,
            tenant=tenant.name,
            trace_id=trace.trace_id if trace else None,
            answers=len(rows),
            cursor=session.id,
        )
        if exhausted:
            session.cursor.close()
        payload = {
            "tenant": tenant.name,
            "cursor": session.id,
            "answers": self._encode_rows(rows),
            "count": len(rows),
            "done": exhausted,
        }
        if trace is not None:
            payload["trace_id"] = trace.trace_id
        return self._with_trace(Response.json(payload), trace)

    @staticmethod
    def _page_blocking(
        cancel: threading.Event, session: CursorSession, count: int
    ) -> tuple[list[tuple], bool]:
        return QueryService._drain_rows(session.cursor, cancel, limit=count)

    async def _mutate(self, tenant: Tenant, request: Request) -> Response:
        """Apply one coalesced mutation batch, then refresh eagerly."""
        try:
            delta = Delta.from_wire(request.json())
        except ValueError as exc:
            raise BadRequest(str(exc)) from exc
        rejection = self._admit(tenant)
        if rejection is not None:
            return rejection
        # Traced like a query, so the eager refresh's ``revalidate`` span
        # (incremental or not, provenance rows indexed) lands in /traces.
        scope = self._trace_scope(request, f"facts:{tenant.name}")
        started = time.perf_counter()
        try:
            with scope if scope is not None else contextlib.nullcontext() as trace:
                added, removed = await self._in_thread(
                    tenant, self._mutate_blocking, tenant, delta
                )
        finally:
            tenant.inflight -= 1
        tenant.counters.bump("mutations")
        self._counters.bump("mutations")
        payload = {
            "tenant": tenant.name,
            "added": added,
            "removed": removed,
            "db_version": tenant.database.version,
            "db_facts": len(tenant.database),
            "elapsed_ms": round(1000 * (time.perf_counter() - started), 3),
        }
        return self._with_trace(Response.json(payload), trace)

    @staticmethod
    def _mutate_blocking(
        cancel: threading.Event, tenant: Tenant, delta: Delta
    ) -> tuple[int, int]:
        del cancel  # mutations are never torn by a timeout: apply + refresh
        with tenant.state_lock:
            added, removed = apply_delta(tenant.database, delta)
            # Maintain the materialization *now*, inside the write gate, so
            # readers find it current and maintenance never races a batch.
            tenant.engine.refresh(tenant.database)
            return added, removed

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        """The ``/metrics`` document: engines, tenants, service counters."""
        engines = {
            fingerprint[:12]: engine.snapshot().as_dict()
            for fingerprint, engine in sorted(self._engines.items())
        }
        # Seed the aggregate with the full schema so scrapers see every key
        # (as 0) even before the first engine exists.
        aggregate: dict[str, int] = EngineStats.zero().as_dict()
        for snapshot in engines.values():
            for key, value in snapshot.items():
                # interned_terms is process-global; summing would double count.
                if key == "interned_terms":
                    aggregate[key] = value
                else:
                    aggregate[key] = aggregate.get(key, 0) + value
        return {
            "service": {
                "draining": self.draining,
                "uptime_seconds": round(time.time() - self._started, 3),
                "tenants": len(self._tenants),
                "counters": self._counters.snapshot(),
            },
            "engine": aggregate,
            "engines": engines,
            "tenants": {
                name: tenant.metrics() for name, tenant in sorted(self._tenants.items())
            },
        }

    # -- lifecycle ---------------------------------------------------------

    def open_cursor_count(self) -> int:
        return sum(len(tenant.cursors) for tenant in self._tenants.values())

    def inflight_count(self) -> int:
        return sum(tenant.inflight for tenant in self._tenants.values())

    async def shutdown(self) -> dict:
        """Drain: refuse new work, wait for in-flight, close open cursors."""
        self.draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout
        while self.inflight_count() and loop.time() < deadline:
            await asyncio.sleep(0.02)
        drained = self.inflight_count() == 0
        closed = 0
        for tenant in self._tenants.values():
            for session in list(tenant.cursors.values()):
                session.cursor.close()
                closed += 1
            tenant.cursors.clear()
        return {"drained": drained, "cursors_closed": closed}
