"""Per-database materialization state shared across prepared queries.

A :class:`Materialization` owns every piece of data-dependent derived state
for one ``(ontology, database)`` pair:

* the *shared* query-directed chase — built once at the deepest truncation
  any prepared query has requested so far, and reused by all of them.  A
  deeper truncation lies between the one a query requires and the full
  chase, so reuse is exact only when the required depth is itself a sound
  bound (its answers already equal the certain answers).
  ``default_null_depth`` is not sound on every ELI ontology (ROADMAP
  7(v)): there a shallow query answers more after a deeper query ran on
  the same engine than on a fresh one (the expected failure
  ``test_engine_answers_do_not_depend_on_query_order`` in
  ``tests/test_chase.py``), and
* one :class:`QueryState` per prepared query: the reduced block relations
  and per-block indexes of the CD∘Lin enumerator, ready for constant-delay
  enumeration.

Staleness detection hooks into the mutation counter maintained by
:class:`repro.data.Instance`: every effective ``add``/``discard`` bumps
``Database.version`` and the materialization compares that counter against
the snapshot taken at chase time before every use.  What happens on a
mismatch is no longer all-or-nothing: with ``incremental`` enabled (the
default) the materialization asks the database's mutation log for the net
delta since the snapshot and — when the delta is small enough relative to
``incremental_fallback_ratio`` — applies it in place through the
provenance-tracking delta chase (:class:`repro.incremental.ChaseMaintainer`)
and the per-query reduction maintenance (:meth:`CDLinEnumerator.maintain`),
leaving every untouched block index alive.  Deltas that are too large,
unreconstructable (log trimmed), or that blow the chase budget fall back to
the old behaviour: drop everything and rebuild (``chase_rebuilds`` counts
those full builds, ``chase_increments`` the in-place maintenance passes).

Not thread-safe on its own: :class:`repro.engine.QueryEngine` serializes all
calls through its lock and only the read-only enumeration phase runs outside
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.config import ExecutionOptions
from repro.data.instance import Database
from repro.data.terms import is_null
from repro.chase.query_directed import QueryDirectedChase, query_directed_chase
from repro.chase.standard import ChaseNotTerminating
from repro.cq.homomorphism import evaluate
from repro.enumeration.cdlin import CDLinEnumerator
from repro.engine.cache import LRUCache
from repro.engine.plan import PreparedQuery
from repro.incremental.provenance import ChaseMaintainer
from repro.obs.trace import current_trace, span, traced_answers
from repro.tgds.ontology import Ontology


class MaterializedAnswers:
    """A pre-materialised answer set behind the enumerator protocol.

    Fallback for non-strict plans outside the acyclic ∧ free-connex class:
    no constant-delay guarantee, but cursors and batches work uniformly.
    Answers are stored *sorted* so cursor and batch output is deterministic
    across runs and processes (a plain ``frozenset`` iterates in hash order,
    which varies under ``PYTHONHASHSEED``).
    """

    __slots__ = ("_answers",)

    def __init__(self, answers: set[tuple]) -> None:
        self._answers = tuple(sorted(set(answers), key=repr))

    def is_empty(self) -> bool:
        return not self._answers

    def enumerate(self) -> Iterator[tuple]:
        if current_trace() is not None:
            return traced_answers(iter(self._answers), materialized=True)
        return iter(self._answers)


@dataclass(eq=False)
class QueryState:
    """The data-dependent state of one prepared query over one database."""

    prepared: PreparedQuery
    chase: QueryDirectedChase
    enumerator: CDLinEnumerator | MaterializedAnswers

    def answers(self) -> set[tuple]:
        """Materialise the complete answer set (enumeration, no side effects)."""
        return set(self.enumerator.enumerate())


class Materialization:
    """Shared chase plus per-query reduced state for one database.

    ``state_cache_size`` bounds the per-query states (an LRU mirroring the
    engine's plan cache) so a long-lived engine serving many distinct
    queries does not accumulate reduced relations without limit.

    ``options`` is the engine's :class:`~repro.config.ExecutionOptions`:
    ``incremental`` enables in-place maintenance under database mutations,
    and ``incremental_fallback_ratio`` is the delta-size threshold (as a
    fraction of the database) above which a full rebuild is cheaper than
    maintenance — ``0.0`` disables maintenance entirely (every mutation
    rebuilds).
    """

    def __init__(
        self,
        ontology: Ontology,
        database: Database,
        options: ExecutionOptions,
        state_cache_size: int,
    ) -> None:
        self.ontology = ontology
        self.database = database
        self.options = options
        self.chase: QueryDirectedChase | None = None
        self._maintainer: ChaseMaintainer | None = None
        self._states: LRUCache[QueryState] = LRUCache(state_cache_size)
        self.chase_builds = 0
        self.chase_increments = 0
        self.incremental_fallbacks = 0
        self.state_builds = 0
        self.invalidations = 0

    @property
    def chase_rebuilds(self) -> int:
        """Full chase (re)builds — the counter the update SLO watches."""
        return self.chase_builds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Materialization({len(self.database)} db facts, "
            f"{len(self._states)} query states, chased={self.chase is not None})"
        )

    @staticmethod
    def _fallback_answers(prepared: PreparedQuery, chase: QueryDirectedChase) -> set[tuple]:
        """Certain answers by generic homomorphism search (Lemma 3.2).

        Used for non-strict plans outside the CD∘Lin class: evaluate the
        query over the chase and keep the null-free tuples.
        """
        return {
            answer
            for answer in evaluate(prepared.omq.query, chase.instance)
            if not any(is_null(value) for value in answer)
        }

    def revalidate(self) -> None:
        """Re-sync derived state with the database if it mutated.

        Tries incremental maintenance first (delta chase + per-state
        reduction maintenance); falls back to dropping everything when the
        delta is unavailable, too large, or blows the chase budget.
        """
        if self.chase is None or self.chase.is_current():
            return
        with span("revalidate") as sp:
            maintainer = self._maintainer
            pending = maintainer.pending_rows if maintainer is not None else 0
            incremental = self._apply_incremental()
            if sp is not None:
                sp.set("incremental", incremental)
                # Non-zero exactly on the write that indexed the chase's
                # provenance log: the one-off stall behind a first delta.
                sp.set(
                    "provenance_indexed",
                    pending - maintainer.pending_rows if pending else 0,
                )
            if incremental:
                return
            self.chase = None
            self._maintainer = None
            self._states.clear()
            self.invalidations += 1

    def _apply_incremental(self) -> bool:
        """Apply the pending database delta in place; False means rebuild.

        Every False on a maintainable materialization counts as an
        ``incremental_fallbacks`` tick: the delta was unreconstructable
        (log trimmed), too large for the fallback threshold
        (``fallback_ratio == 0.0`` forces this branch unconditionally —
        the documented "always rebuild" contract), or blew the chase
        budget mid-application.
        """
        if not self.options.incremental or self._maintainer is None or self.chase is None:
            return False
        ratio = self.options.incremental_fallback_ratio
        if ratio <= 0.0:
            self.incremental_fallbacks += 1
            return False
        delta = self.database.changes_since(self.chase.database_version)
        if delta is None:
            self.incremental_fallbacks += 1
            return False
        budget = max(1, int(ratio * len(self.database)))
        if len(delta) > budget:
            self.incremental_fallbacks += 1
            return False
        try:
            chase_delta = self._maintainer.apply_delta(delta)
        except ChaseNotTerminating:
            # The instance may be half-updated: a full rebuild is mandatory.
            self.incremental_fallbacks += 1
            return False
        self.chase.database_version = self.database.version
        self.chase_increments += 1
        touched = chase_delta.relations()
        if touched:
            for state in self._states.values():
                self._refresh_state(state, touched)
        return True

    def _refresh_state(self, state: QueryState, touched: set[str]) -> None:
        """Propagate a chase-level delta into one query's enumeration state."""
        enumerator = state.enumerator
        if isinstance(enumerator, CDLinEnumerator):
            assert self.chase is not None
            enumerator.maintain(self.chase.instance, touched)
        else:
            query_relations = {
                atom.relation for atom in state.prepared.omq.query.atoms
            }
            if query_relations & touched:
                assert self.chase is not None
                state.enumerator = MaterializedAnswers(
                    self._fallback_answers(state.prepared, self.chase)
                )

    def invalidate(self) -> None:
        """Unconditionally drop the chase and every query state."""
        if self.chase is not None or self._states:
            self.invalidations += 1
        self.chase = None
        self._maintainer = None
        self._states.clear()

    def chase_for(self, prepared: PreparedQuery) -> QueryDirectedChase:
        """The shared chase, (re)built if stale or not deep enough."""
        self.revalidate()
        if self.chase is None or self.chase.null_depth_bound < prepared.null_depth:
            # Deepen monotonically so a later shallow query never re-chases.
            depth = prepared.null_depth
            if self.chase is not None:
                depth = max(depth, self.chase.null_depth_bound)
            with span("chase", null_depth=depth) as sp:
                recorder = (
                    ChaseMaintainer(self.database, self.ontology, max_null_depth=depth)
                    if self.options.incremental
                    else None
                )
                self.chase = query_directed_chase(
                    self.database,
                    self.ontology,
                    prepared.omq.query,
                    null_depth=depth,
                    reuse=self.chase,
                    recorder=recorder,
                )
                if recorder is not None:
                    recorder.attach(self.chase.result)
                self._maintainer = recorder
                self.chase_builds += 1
                if sp is not None:
                    sp.set("db_facts", len(self.database))
                    sp.set("chase_facts", len(self.chase.instance))
        return self.chase

    def state_for(self, prepared: PreparedQuery) -> QueryState:
        """The reduced enumeration state for ``prepared``, built on demand."""
        self.revalidate()
        state = self._states.get(prepared.query_fingerprint)
        if state is None:
            chase = self.chase_for(prepared)
            if prepared.supports_enumeration:
                enumerator: CDLinEnumerator | MaterializedAnswers = CDLinEnumerator(
                    prepared.omq.query,
                    chase.instance,
                    keep_nulls=False,
                    decomposition=prepared.decomposition,
                    # The plan's own closure cache: compiled walks are shared
                    # across databases and dropped on plan-cache eviction.
                    codegen_cache=prepared.codegen,
                )
            else:
                with span("reduce", materialized=True):
                    enumerator = MaterializedAnswers(
                        self._fallback_answers(prepared, chase)
                    )
            state = QueryState(prepared=prepared, chase=chase, enumerator=enumerator)
            self._states.put(prepared.query_fingerprint, state)
            self.state_builds += 1
        return state
