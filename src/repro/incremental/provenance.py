"""The provenance-tracking delta chase: maintain ``ch^q_O(D)`` under updates.

A :class:`ChaseMaintainer` doubles as the :class:`~repro.chase.standard.
ChaseRecorder` of the initial chase run and as the mutation engine that
keeps the chased instance valid afterwards.  Provenance has three stages:

1. **Log** — during the run the maintainer appends what the chase loop
   already holds: per fired trigger ``(key, body_facts, created_facts,
   created_nulls)``, per suppressed trigger (body matched, head already
   satisfied) ``(key, witness_facts)``.  No copies, no new facts, no
   indexes: a database that is only ever read pays one tuple per trigger.
2. **Index on the first delta** — the first :meth:`ChaseMaintainer.apply`
   replays the log, once, into the store (a one-off cost linear in the
   number of triggers; ``revalidate`` spans report it as
   ``provenance_indexed``).
3. **Compact store** — ``firings[key] = (body_facts, created_facts,
   created_nulls)`` and ``suppressed[key] = witness_facts`` as plain
   tuples; the tgd index is ``key[0]`` and the frontier is decoded from the
   key's term ids instead of stored; ``fact -> [key]`` buckets for support
   and witness, and a ``fact -> int`` count of live creators.  Deltas
   update the store directly, never the log.

The store supports both update directions:

* **Insertions** seed the chase's own semi-naive rounds
  (:func:`~repro.chase.standard.chase_round`) with only the new facts —
  cost proportional to the consequences of the delta.  Every trigger, in
  the delta rounds and in the re-check after a deletion, goes through the
  run's one suppress-or-fire routine
  (:func:`~repro.chase.standard.trigger_examiner`), which writes straight
  into the store.
* **Deletions** run DRed-style over-delete + re-derive: the full support
  cone of every deleted fact is removed (retracting its firings), facts
  justified by a *surviving* firing — or by database membership — are put
  back, and the retracted triggers plus every suppressed trigger whose
  witness was destroyed are re-checked against the surviving instance,
  re-firing exactly the affected cone before the delta loop closes it.

Over-deleting the whole cone (instead of stopping at facts with a
surviving alternative justification) is what makes deletion sound: a
firing that survives the cascade, by construction, never lost a body fact,
so every re-derivation is well-founded and no circularly-justified facts
can keep each other alive.

At quiescence the instance is again a fixpoint of the depth-truncated
restricted chase of the *mutated* database: every trigger with a body match
is either fired (its products are present) or suppressed by a live witness,
so complete-answer evaluation agrees with a from-scratch run (the instance
may contain extra, homomorphically redundant null trees — firings whose
heads a later insertion happened to satisfy — which cannot change null-free
answers because homomorphisms fix constants).

Paper anchors: the maintained object is the query-directed chase
``ch^q_O(D)`` of Section 3, whose null-free answers are the certain answers
(Lemma 3.2); the suppressed-trigger bookkeeping mirrors the *restricted*
chase the paper fixes in Section 2 (fire only triggers whose head is not
yet satisfied).  The deletion strategy itself is the classic DRed
over-delete/re-derive scheme from incremental Datalog view maintenance
(Gupta, Mumick & Subrahmanian, SIGMOD 1993), adapted to existential heads
via the recorded satisfaction witnesses.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterable

from repro.data.facts import Fact
from repro.data.instance import Database, Instance
from repro.data.interning import TERMS
from repro.data.terms import Null, NullFactory, shared_null_factory
from repro.chase.standard import (
    ChaseNotTerminating,
    ChaseRecorder,
    ChaseResult,
    CompiledOntology,
    chase_round,
    compile_ontology,
    trigger_examiner,
)
from repro.cq.atoms import Variable
from repro.cq.homomorphism import find_homomorphism
from repro.incremental.delta import Delta
from repro.tgds.ontology import Ontology


class ChaseMaintainer(ChaseRecorder):
    """Provenance log, maintained store and delta-application engine.

    Create it *before* the chase, pass it as the run's ``recorder``, then
    :meth:`attach` the :class:`ChaseResult`; afterwards :meth:`apply` keeps
    the chased instance in sync with database mutations.  The first
    :meth:`apply` indexes the run's log into the store (see the module
    docstring); until then the maintainer holds nothing but the log.
    """

    def __init__(
        self,
        database: Database,
        ontology: Ontology,
        max_null_depth: int | None = None,
        max_facts: int = 5_000_000,
        max_rounds: int = 10_000,
    ) -> None:
        self.database = database
        self.ontology = ontology
        self.max_null_depth = max_null_depth
        self.max_facts = max_facts
        self.max_rounds = max_rounds
        self.compiled: CompiledOntology = compile_ontology(ontology)
        self.result: ChaseResult | None = None
        # The chase run's log, rows exactly as the loop handed them over.
        self._fire_log: list[tuple] = []
        self._suppress_log: list[tuple] = []
        # The store: trigger key -> (body_facts, created_facts, created_nulls)
        # and trigger key -> witness facts; the tgd index is ``key[0]`` and
        # the frontier decodes from ``key[1]``.
        self.firings: dict[tuple, tuple] = {}
        self.suppressed: dict[tuple, tuple[Fact, ...]] = {}
        # Inverted indexes: fact -> keys of the triggers that depend on it,
        # and fact -> number of live firings that created it.
        self._by_support: defaultdict[Fact, list[tuple]] = defaultdict(list)
        self._by_witness: defaultdict[Fact, list[tuple]] = defaultdict(list)
        self._creators: defaultdict[Fact, int] = defaultdict(int)
        self._fired: set[tuple] = set()
        # Placeholder until bind() hands over the chase run's own factory;
        # drawing from the shared counter keeps labels process-unique even
        # if a delta is applied before any chase ran.
        self._fresh: NullFactory = shared_null_factory()
        self._instance: Instance | None = None

    # -- ChaseRecorder protocol -------------------------------------------

    def bind(self, instance: Instance, fired: set[tuple], fresh: NullFactory) -> None:
        self._instance = instance
        self._fired = fired
        self._fresh = fresh

    def log_fire(
        self,
        key: tuple,
        body_facts: tuple[Fact, ...],
        created_facts: list[Fact],
        created_nulls: list[Null],
    ) -> None:
        self._fire_log.append((key, body_facts, created_facts, created_nulls))

    def log_suppress(self, key: tuple, witness_facts: tuple[Fact, ...]) -> None:
        self._suppress_log.append((key, witness_facts))

    def attach(self, result: ChaseResult) -> None:
        """Adopt the finished chase run this maintainer recorded."""
        if self._instance is not result.instance:
            raise ValueError("maintainer was not the recorder of this chase run")
        self.result = result

    @property
    def pending_rows(self) -> int:
        """Log rows not yet indexed (0 once the first delta replayed them)."""
        return len(self._fire_log) + len(self._suppress_log)

    # -- bookkeeping helpers ----------------------------------------------

    def _index_log(self) -> None:
        """Replay the chase run's log into the store (first delta only).

        Suppressions first: the chase never re-examines a fired trigger, so
        a key in both logs was suppressed *before* it fired and must end up
        fired (``_record_firing`` drops the stale suppression).
        """
        fire_log, suppress_log = self._fire_log, self._suppress_log
        self._fire_log, self._suppress_log = [], []
        for key, witness_facts in suppress_log:
            self._record_suppressed(key, witness_facts)
        for row in fire_log:
            self._record_firing(*row)

    def _record_firing(
        self,
        key: tuple,
        body_facts: tuple[Fact, ...],
        created_facts: list[Fact],
        created_nulls: list[Null],
    ) -> None:
        self._drop_suppressed(key)
        self.firings[key] = (body_facts, created_facts, created_nulls)
        for fact in body_facts:
            self._by_support[fact].append(key)
        for fact in created_facts:
            self._creators[fact] += 1

    def _record_suppressed(self, key: tuple, witness_facts: tuple[Fact, ...]) -> None:
        self._drop_suppressed(key)
        self.suppressed[key] = witness_facts
        for fact in witness_facts:
            self._by_witness[fact].append(key)

    @staticmethod
    def _unlink(index: dict[Fact, list[tuple]], facts: Iterable[Fact], key: tuple) -> None:
        """Remove ``key`` from the buckets of ``facts`` (popped ones skipped)."""
        for fact in facts:
            bucket = index.get(fact)
            if bucket is not None and key in bucket:
                bucket.remove(key)
                if not bucket:
                    del index[fact]

    def _drop_suppressed(self, key: tuple) -> None:
        witness_facts = self.suppressed.pop(key, None)
        if witness_facts is not None:
            self._unlink(self._by_witness, witness_facts, key)

    def _retract_firing(self, key: tuple) -> tuple | None:
        firing = self.firings.pop(key, None)
        if firing is None:
            return None
        self._fired.discard(key)
        body_facts, created_facts, created_nulls = firing
        self._unlink(self._by_support, body_facts, key)
        for fact in created_facts:
            if self._creators[fact] == 1:
                del self._creators[fact]
            else:
                self._creators[fact] -= 1
        assert self.result is not None
        for null in created_nulls:
            self.result.null_depth.pop(null, None)
        return firing

    # -- delta application -------------------------------------------------

    def apply(self, added: Iterable[Fact], removed: Iterable[Fact]) -> Delta:
        """Apply a database delta to the chased instance, in place.

        ``added``/``removed`` are the *net* base-fact mutations (the caller
        has already applied them to the database itself).  Returns the net
        chase-level delta, which downstream reduction maintenance consumes.
        Raises :class:`ChaseNotTerminating` when the insertion phase blows
        the fact/round budget — the caller must then rebuild from scratch.
        """
        if self.result is None:
            raise RuntimeError("maintainer has no attached chase result")
        if self.pending_rows:
            self._index_log()
        instance = self.result.instance

        # Phase 1a — over-delete: remove the full support cone of every
        # deleted fact, retracting the firings along the way and collecting
        # every trigger that may need re-checking afterwards (retracted
        # firings, and suppressed triggers whose witness lost a fact).
        recheck: dict[tuple, None] = {}
        overdeleted: list[Fact] = []
        queue: deque[Fact] = deque()
        for fact in removed:
            if fact in self.database:
                continue  # also re-added; a net delta never nets to this
            if instance.discard(fact):
                overdeleted.append(fact)
                queue.append(fact)
        while queue:
            fact = queue.popleft()
            for key in self._by_support.pop(fact, ()):
                firing = self._retract_firing(key)
                if firing is None:
                    continue  # the fact occurs twice in this firing's body
                recheck[key] = None
                for product in firing[1]:
                    if product in self.database:
                        continue
                    if instance.discard(product):
                        overdeleted.append(product)
                        queue.append(product)
            for key in self._by_witness.pop(fact, ()):
                recheck[key] = None

        # Phase 1b — re-derive: a firing that survived the cascade never
        # lost a body fact, so its products are still justified; restore
        # them.  (Everything a restored fact used to imply is re-checked in
        # phase 3 / re-closed in phase 4.)
        for fact in overdeleted:
            if fact in self._creators:
                instance.add(fact)
        chase_removed = {fact for fact in overdeleted if fact not in instance}

        # Phase 2 — insert the new base facts (they seed the delta loop).
        seeds = [fact for fact in added if instance.add(fact)]

        # Phase 3 — re-check the affected cone: a retracted trigger that
        # still has a body match, or a suppressed trigger whose witness
        # died, either re-fires or records a fresh witness (straight into
        # the store).  The frontier is not stored: the key's id tuple
        # decodes back to it.
        compiled = self.compiled
        examine = trigger_examiner(
            compiled,
            self.result,
            self._fired,
            self._fresh,
            self.max_null_depth,
            self.max_facts,
            self._record_firing,
            self._record_suppressed,
        )
        for key in recheck:
            self._drop_suppressed(key)
            tgd_index, frontier_ids = key
            order = compiled.frontier_orders[tgd_index]
            frontier = dict(zip(order, TERMS.decode_tuple(frontier_ids)))
            body_query = compiled.body_queries[tgd_index]
            body_map: dict[Variable, object] | None = frontier
            if body_query is not None:
                body_map = find_homomorphism(body_query, instance, partial=frontier)
            if body_map is None:
                continue  # the trigger itself vanished with the deletions
            examine(compiled.plans[tgd_index], key, frontier_ids, body_map, seeds)
        chase_added = set(seeds)

        # Phase 4 — close under the chase's own semi-naive rounds (empty
        # bodies fired in the initial run and never match a delta).
        delta = seeds
        rounds = 0
        while delta:
            rounds += 1
            if rounds > self.max_rounds:
                raise ChaseNotTerminating(f"delta chase exceeded {self.max_rounds} rounds")
            self.result.rounds += 1
            new_facts: list[Fact] = []
            chase_round(compiled, instance, delta, examine, new_facts)
            chase_added.update(new_facts)
            delta = new_facts

        # A fact removed and re-created in the same delta nets to nothing
        # for downstream consumers.
        overlap = chase_added & chase_removed
        chase_added -= overlap
        chase_removed -= overlap
        return Delta(frozenset(chase_added), frozenset(chase_removed))

    def apply_delta(self, delta: Delta) -> Delta:
        """Convenience wrapper over :meth:`apply` for a :class:`Delta`."""
        return self.apply(delta.added, delta.removed)
