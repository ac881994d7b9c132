"""The prepared-query engine: plan caching, shared materialization, batching.

``QueryEngine`` is the serving-layer façade over the paper's
preprocessing/enumeration split.  It is bound to one ontology and amortizes
both halves of the pipeline:

* the *data-independent* half (normalization, acyclicity verdicts, join
  tree, free-connex decomposition, chase program) is compiled once per query
  into a :class:`~repro.engine.plan.PreparedQuery` and kept in an LRU plan
  cache keyed by ``(ontology, query)`` fingerprints;
* the *data-dependent* half (query-directed chase, reduced block relations)
  lives in one :class:`~repro.engine.materialization.Materialization` per
  database, shared by every prepared query and invalidated automatically
  when the database mutates.

Entry points::

    engine = QueryEngine(ontology, database)
    engine.execute(query)                  # -> set of answer tuples
    engine.execute_batch([q1, q2, ...])    # -> list of answer sets
    with engine.open(query) as cursor:     # restartable constant-delay iterator
        for answer in cursor: ...

All preprocessing runs under the engine lock; the enumeration phase is
read-only and runs outside it, so open cursors finish over a consistent
snapshot while a mutation is maintained.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator

from repro.config import ExecutionOptions
from repro.obs.trace import NULL_SPAN, current_trace, span, start_trace
from repro.data.instance import Database
from repro.data.interning import TERMS
from repro.cq.parser import parse_query
from repro.cq.query import ConjunctiveQuery, QueryError
from repro.core.omq import OMQ
from repro.engine.cache import LRUCache
from repro.engine.codegen import CODEGEN_STATS
from repro.engine.fingerprint import ontology_fingerprint, query_fingerprint
from repro.engine.materialization import Materialization, QueryState
from repro.engine.plan import PreparedQuery, prepare_query
from repro.engine.stats import EngineCounters
from repro.tgds.ontology import Ontology

QueryLike = "str | ConjunctiveQuery | OMQ | PreparedQuery"


@dataclass(frozen=True)
class EngineStats:
    """A point-in-time snapshot of the engine's counters.

    ``chase_builds`` counts full chase (re)builds; ``chase_increments``
    counts in-place incremental maintenance passes (delta chase + reduction
    maintenance); ``incremental_fallbacks`` counts mutations a maintainable
    materialization could not absorb — delta over the fallback threshold,
    delta unreconstructable from the trimmed log, or a blown chase budget —
    and that forced a rebuild instead.  ``interned_terms`` is the size of
    the process-wide term dictionary backing the fact store (append-only,
    so it only grows over a process lifetime).
    ``plans_compiled`` / ``codegen_cache_hits`` read the process-wide
    :data:`~repro.engine.codegen.CODEGEN_STATS` the same way: CD∘Lin walks
    compiled, and walk lookups served from a plan's codegen cache without
    compiling (the walk is the only generated code).
    """

    plans_cached: int
    plan_hits: int
    plan_misses: int
    plan_evictions: int
    chase_builds: int
    chase_increments: int
    incremental_fallbacks: int
    state_builds: int
    invalidations: int
    executions: int
    cursors_opened: int
    interned_terms: int = 0
    cursors_open: int = 0
    plans_compiled: int = 0
    codegen_cache_hits: int = 0

    def as_dict(self) -> dict[str, int]:
        """The snapshot as a plain dict (the ``/metrics`` wire shape).

        Derived from the dataclass fields so the wire schema can never
        drift from the snapshot definition: every field is always present
        (``plans_compiled`` / ``codegen_cache_hits`` read 0 before the first
        compile rather than being absent), which is what keeps scraper
        configurations stable.
        """
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def zero(cls) -> "EngineStats":
        """An all-zero snapshot (the schema seed for metric aggregation)."""
        return cls(**{field.name: 0 for field in fields(cls)})


class AnswerCursor:
    """A restartable constant-delay iterator over one query's answers.

    The cursor holds the prepared plan and the engine reference;
    :meth:`restart` re-acquires the (cached) materialized state, so a
    restart after a database mutation transparently re-preprocesses while a
    restart on unchanged data costs only the state lookup.

    ``on_close`` hooks fire exactly once, when the cursor transitions to
    closed — the engine registers one to maintain its open-cursor gauge,
    and serving layers chain their own (deregistering the cursor from a
    session table, releasing an admission slot) via :meth:`add_close_hook`.

    ``page_size`` is the cursor's default batch size: :meth:`fetchmany`
    with no argument fetches one page, so serving layers can size pages
    once at :meth:`QueryEngine.open` time instead of threading a count
    through every fetch call.
    """

    #: The page size used when neither ``open`` nor ``fetchmany`` gave one.
    DEFAULT_PAGE_SIZE = 100

    def __init__(
        self,
        engine: "QueryEngine",
        prepared: PreparedQuery,
        database: Database,
        on_close: Callable[["AnswerCursor"], None] | None = None,
        page_size: int | None = None,
    ):
        self._engine = engine
        self._prepared = prepared
        self._database = database
        self.page_size = (
            page_size if page_size and page_size > 0 else self.DEFAULT_PAGE_SIZE
        )
        self._iterator: Iterator[tuple] | None = None
        self._closed = False
        self._close_hooks: list[Callable[["AnswerCursor"], None]] = []
        if on_close is not None:
            self._close_hooks.append(on_close)
        self.restart()

    @property
    def prepared(self) -> PreparedQuery:
        return self._prepared

    @property
    def closed(self) -> bool:
        return self._closed

    def add_close_hook(self, hook: Callable[["AnswerCursor"], None]) -> None:
        """Register ``hook`` to run when the cursor closes (once, LIFO).

        Registering on an already-closed cursor runs the hook immediately —
        the caller's cleanup must not be lost to that race.
        """
        if self._closed:
            hook(self)
        else:
            self._close_hooks.append(hook)

    def restart(self) -> "AnswerCursor":
        """Rewind to the first answer (revalidating the materialization)."""
        if self._closed:
            raise RuntimeError("cannot restart a closed cursor")
        state = self._engine._materialized_state(self._prepared, self._database)
        self._iterator = state.enumerator.enumerate()
        return self

    def __iter__(self) -> "AnswerCursor":
        return self

    def __next__(self) -> tuple:
        if self._closed or self._iterator is None:
            raise StopIteration
        return next(self._iterator)

    def fetchmany(self, size: int | None = None) -> list[tuple]:
        """Up to ``size`` further answers (constant delay per answer).

        With no ``size`` the cursor's :attr:`page_size` applies — the hint
        given to :meth:`QueryEngine.open`.
        """
        if size is None:
            size = self.page_size
        batch: list[tuple] = []
        for answer in self:
            batch.append(answer)
            if len(batch) >= size:
                break
        return batch

    def fetchall(self) -> list[tuple]:
        """Every remaining answer."""
        return list(self)

    def close(self) -> None:
        """Close the cursor (idempotent) and fire the close hooks once."""
        if self._closed:
            return
        self._closed = True
        self._iterator = None
        hooks, self._close_hooks = self._close_hooks, []
        for hook in reversed(hooks):
            hook(self)

    def __enter__(self) -> "AnswerCursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: How many databases one engine keeps materialized state for (an LRU).
MATERIALIZATION_CACHE_SIZE = 8


class QueryEngine:
    """Prepared-query execution over one ontology and its databases.

    Every tuning knob comes from one :class:`~repro.config.ExecutionOptions`
    object, ``options`` (its field defaults when omitted).  ``plan_cache``
    is not a knob but wiring: an externally owned plan cache to share.  At
    most :data:`MATERIALIZATION_CACHE_SIZE` databases keep their
    materialized state.
    """

    def __init__(
        self,
        ontology: Ontology,
        database: Database | None = None,
        *,
        options: ExecutionOptions | None = None,
        plan_cache: LRUCache[PreparedQuery] | None = None,
    ) -> None:
        self.options = options if options is not None else ExecutionOptions()
        self.ontology = ontology
        self.ontology_fingerprint = ontology_fingerprint(ontology)
        self._default_database = database
        # ``plan_cache`` may be an externally owned cache shared by several
        # engines: plan keys carry the ontology fingerprint, so engines over
        # different ontologies can pool one cache without collisions (the
        # multi-tenant server shares plans across tenants this way).
        self._plans: LRUCache[PreparedQuery] = (
            plan_cache
            if plan_cache is not None
            else LRUCache(self.options.plan_cache_size)
        )
        # Bounded LRU over databases: evicting a live database only costs a
        # rebuild on its next use, so the engine never pins state (or the
        # databases themselves) without limit.
        self._materializations: LRUCache[Materialization] = LRUCache(
            MATERIALIZATION_CACHE_SIZE
        )
        self._lock = threading.RLock()
        self._counters = EngineCounters()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryEngine({self.ontology.name}, {len(self._plans)} cached plans, "
            f"{len(self._materializations)} materializations)"
        )

    # -- construction from parsed artifacts --------------------------------

    @classmethod
    def from_scenario(cls, scenario, *, warm: bool = True, **kwargs) -> "QueryEngine":
        """An engine over a :class:`repro.io.Scenario`'s ontology and database.

        With ``warm`` (the default) every query the scenario declares is
        prepared and materialized eagerly, so the first ``execute`` pays
        nothing but the enumeration phase.
        """
        engine = cls(scenario.ontology, scenario.database, **kwargs)
        if warm and scenario.queries:
            engine.warm(scenario.queries)
        return engine

    @classmethod
    def from_files(
        cls,
        rules,
        data=(),
        queries=(),
        *,
        warm: bool = True,
        **kwargs,
    ) -> "QueryEngine":
        """An engine built straight from DLGP/CSV files on disk.

        ``rules``, ``data`` and ``queries`` follow
        :func:`repro.io.load_scenario` (paths or lists of paths); queries
        embedded in the rule files are warmed too.  Use ``load_scenario``
        directly when you also need the parsed query objects.
        """
        from repro.io import load_scenario

        return cls.from_scenario(
            load_scenario(rules=rules, data=data, queries=queries),
            warm=warm,
            **kwargs,
        )

    # -- plan compilation --------------------------------------------------

    def _coerce_query(self, query: QueryLike) -> ConjunctiveQuery:
        if isinstance(query, PreparedQuery):
            query = query.omq
        if isinstance(query, OMQ):
            if ontology_fingerprint(query.ontology) != self.ontology_fingerprint:
                raise QueryError(
                    "OMQ ontology differs from the engine's ontology; "
                    "use a separate engine per ontology"
                )
            return query.query
        if isinstance(query, str):
            with span("parse", query=query):
                return parse_query(query)
        if isinstance(query, ConjunctiveQuery):
            return query
        raise TypeError(f"cannot interpret {type(query).__name__} as a query")

    def prepare(self, query: QueryLike, name: str | None = None) -> PreparedQuery:
        """Compile (or fetch from the plan cache) the plan for ``query``."""
        cq = self._coerce_query(query)
        key = (self.ontology_fingerprint, query_fingerprint(cq))
        with span("plan", query=name or cq.name) as sp:
            with self._lock:
                plan = self._plans.get(key)
                cached = plan is not None
                if plan is None:
                    plan = prepare_query(
                        self.ontology,
                        cq,
                        strict=self.options.strict,
                        name=name or cq.name,
                    )
                    self._plans.put(key, plan)
            if sp is not None:
                sp.set("cached", cached)
                sp.set("free_connex", plan.is_free_connex_acyclic)
            return plan

    # -- materialization ---------------------------------------------------

    def _resolve_database(self, database: Database | None) -> Database:
        resolved = database if database is not None else self._default_database
        if resolved is None:
            raise ValueError(
                "no database: pass one to the call or to the engine constructor"
            )
        return resolved

    def _materialization(self, database: Database) -> Materialization:
        # Keyed by id(): safe because each entry holds a strong reference to
        # its database, so a live entry's id cannot be reused; the identity
        # check below covers id reuse after an eviction.
        materialization = self._materializations.get(id(database))
        if materialization is None or materialization.database is not database:
            materialization = Materialization(
                self.ontology,
                database,
                self.options,
                state_cache_size=self._plans.capacity,
            )
            self._materializations.put(id(database), materialization)
        return materialization

    def _materialized_state(
        self, prepared: PreparedQuery, database: Database
    ) -> QueryState:
        with self._lock:
            return self._materialization(database).state_for(prepared)

    def warm(self, queries: Iterable[QueryLike], database: Database | None = None) -> None:
        """Preprocess ``queries`` eagerly (plans + materialized states)."""
        resolved = self._resolve_database(database)
        for query in queries:
            self._materialized_state(self.prepare(query), resolved)

    def refresh(self, database: Database | None = None) -> None:
        """Eagerly re-sync materialized state with a mutated database.

        Normally staleness is discovered lazily by the next execution; a
        serving layer can instead call this right after committing a
        mutation batch (while still holding its own write gate), so the
        maintenance pass never runs concurrently with later mutations and
        read requests find the state already current.
        """
        resolved = self._resolve_database(database)
        with self._lock:
            self._materialization(resolved).revalidate()

    def invalidate(self, database: Database | None = None) -> None:
        """Drop materialized state (for one database, or all of them)."""
        with self._lock:
            if database is None:
                for materialization in self._materializations.values():
                    materialization.invalidate()
            else:
                materialization = self._materializations.get(id(database))
                if materialization is not None and materialization.database is database:
                    materialization.invalidate()

    # -- tracing -----------------------------------------------------------

    def _trace_scope(self, name: str):
        """The tracing context wrapped around one execution entry point.

        An ambient trace (the HTTP service or ``repro explain`` already
        started one) → a child span joining it; else ``tracing=True`` → a
        fresh root trace, recorded into the process ring buffer on exit;
        else the shared no-op.
        """
        if current_trace() is not None:
            return span(name)
        if self.options.tracing:
            return start_trace(name)
        return NULL_SPAN

    # -- execution ---------------------------------------------------------

    def _evaluate_state(self, state: QueryState) -> set[tuple]:
        """One counted enumeration of a materialized state.

        Server threads execute concurrently, so the counter goes through
        the :class:`EngineCounters` lock (a bare ``+=`` loses updates).
        """
        answers = state.answers()
        self._counters.bump("executions")
        return answers

    def execute(self, query: QueryLike, database: Database | None = None) -> set[tuple]:
        """All complete answers of ``query`` on the database, as a set."""
        with self._trace_scope("execute"):
            prepared = self.prepare(query)
            resolved = self._resolve_database(database)
            state = self._materialized_state(prepared, resolved)
            return self._evaluate_state(state)

    def execute_batch(
        self, queries: Iterable[QueryLike], database: Database | None = None
    ) -> list[set[tuple]]:
        """Evaluate many queries, amortizing preprocessing across the batch.

        ``queries`` may be any iterable (it is consumed once); ``results[i]``
        is the answer set of the ``i``-th query yielded.  Every plan and
        materialized state is built first, under the engine lock; the
        enumerations then run one after another.
        """
        with self._trace_scope("execute_batch"):
            resolved = self._resolve_database(database)
            plans = [self.prepare(query) for query in queries]
            states = [self._materialized_state(plan, resolved) for plan in plans]
            return [self._evaluate_state(state) for state in states]

    def open(
        self,
        query: QueryLike,
        database: Database | None = None,
        on_close: Callable[[AnswerCursor], None] | None = None,
        *,
        page_size: int | None = None,
    ) -> AnswerCursor:
        """A restartable constant-delay cursor over the query's answers.

        ``on_close`` is an optional lifecycle hook fired exactly once when
        the cursor closes; the engine always chains its own hook first to
        keep the ``cursors_open`` gauge exact.  ``page_size`` sets the
        cursor's default :meth:`~AnswerCursor.fetchmany` batch, so serving
        layers size pages here instead of at every fetch.
        """
        with self._trace_scope("open"):
            prepared = self.prepare(query)
            resolved = self._resolve_database(database)
            self._counters.bump("cursors_opened")
            self._counters.bump("cursors_open")
            cursor = AnswerCursor(
                self,
                prepared,
                resolved,
                on_close=self._cursor_closed,
                page_size=page_size,
            )
        if on_close is not None:
            cursor.add_close_hook(on_close)
        return cursor

    def _cursor_closed(self, cursor: AnswerCursor) -> None:
        del cursor
        self._counters.bump("cursors_open", -1)

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> EngineStats:
        """A consistent point-in-time snapshot of every engine counter.

        Cache and materialization counters are read under the engine lock
        (their writers hold it too); the execution/cursor counters come from
        one :class:`EngineCounters` critical section, so worker-thread
        increments can never be observed torn.  This is the reading the
        serving layer's ``/metrics`` endpoint publishes.
        """
        counters = self._counters.snapshot()
        plans_compiled, codegen_cache_hits = CODEGEN_STATS.snapshot()
        with self._lock:
            materializations = list(self._materializations.values())
            return EngineStats(
                plans_cached=len(self._plans),
                plan_hits=self._plans.hits,
                plan_misses=self._plans.misses,
                plan_evictions=self._plans.evictions,
                chase_builds=sum(m.chase_builds for m in materializations),
                chase_increments=sum(m.chase_increments for m in materializations),
                incremental_fallbacks=sum(
                    m.incremental_fallbacks for m in materializations
                ),
                state_builds=sum(m.state_builds for m in materializations),
                invalidations=sum(m.invalidations for m in materializations),
                executions=counters.get("executions", 0),
                cursors_opened=counters.get("cursors_opened", 0),
                interned_terms=len(TERMS),
                cursors_open=counters.get("cursors_open", 0),
                plans_compiled=plans_compiled,
                codegen_cache_hits=codegen_cache_hits,
            )

    @property
    def stats(self) -> EngineStats:
        """Aggregate counters across the plan cache and materializations."""
        return self.snapshot()
