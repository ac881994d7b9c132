"""The provenance-tracking delta chase: maintain ``ch^q_O(D)`` under updates.

A :class:`ChaseMaintainer` doubles as the :class:`~repro.chase.standard.
ChaseRecorder` of the initial chase run and as the mutation engine that
keeps the chased instance valid afterwards.  During the run it captures,
per fired trigger, the supporting body facts and the created facts/nulls
(a *firing*), and, per suppressed trigger (body matched but head already
satisfied), one satisfaction witness.  These records support both update
directions:

* **Insertions** seed the existing semi-naive delta loop with only the new
  facts — cost proportional to the consequences of the delta.
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

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.data.facts import Fact
from repro.data.instance import Database, Instance
from repro.data.terms import Null, NullFactory, shared_null_factory
from repro.chase.standard import (
    ChaseNotTerminating,
    ChaseRecorder,
    ChaseResult,
    CompiledOntology,
    _delta_body_maps,
    _head_witness,
    _trigger_key,
    compile_ontology,
)
from repro.cq.atoms import Variable
from repro.cq.homomorphism import find_homomorphism
from repro.incremental.delta import Delta
from repro.tgds.ontology import Ontology


@dataclass(eq=False)
class Firing:
    """One fired trigger: its inputs (support) and outputs (products)."""

    tgd_index: int
    frontier: dict[Variable, object]
    body_facts: tuple[Fact, ...]
    created_facts: tuple[Fact, ...]
    created_nulls: tuple[Null, ...]


@dataclass(eq=False)
class Suppressed:
    """One suppressed trigger and the witness that satisfied its head."""

    tgd_index: int
    frontier: dict[Variable, object]
    witness_facts: tuple[Fact, ...]


class ChaseMaintainer(ChaseRecorder):
    """Provenance store plus delta-application engine for one chase.

    Create it *before* the chase, pass it as the run's ``recorder``, then
    :meth:`attach` the :class:`ChaseResult`; afterwards :meth:`apply` keeps
    the chased instance in sync with database mutations.
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
        self.firings: dict[tuple, Firing] = {}
        self.suppressed: dict[tuple, Suppressed] = {}
        # Inverted indexes: fact -> trigger keys that depend on it.
        self._by_support: dict[Fact, set[tuple]] = {}
        self._by_witness: dict[Fact, set[tuple]] = {}
        self._by_creation: dict[Fact, set[tuple]] = {}
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

    def on_fire(
        self,
        tgd_index: int,
        key: tuple,
        frontier_map: dict[Variable, object],
        body_facts: tuple[Fact, ...],
        created_facts: tuple[Fact, ...],
        created_nulls: tuple[Null, ...],
    ) -> None:
        self._record_firing(
            key, Firing(tgd_index, frontier_map, body_facts, created_facts, created_nulls)
        )

    def on_suppress(
        self,
        tgd_index: int,
        key: tuple,
        frontier_map: dict[Variable, object],
        witness_facts: tuple[Fact, ...],
    ) -> None:
        self._drop_suppressed(key)
        self.suppressed[key] = Suppressed(tgd_index, frontier_map, witness_facts)
        for fact in set(witness_facts):
            self._by_witness.setdefault(fact, set()).add(key)

    def attach(self, result: ChaseResult) -> None:
        """Adopt the finished chase run this maintainer recorded."""
        if self._instance is not result.instance:
            raise ValueError("maintainer was not the recorder of this chase run")
        self.result = result

    # -- bookkeeping helpers ----------------------------------------------

    def _record_firing(self, key: tuple, firing: Firing) -> None:
        self._drop_suppressed(key)
        self.firings[key] = firing
        for fact in set(firing.body_facts):
            self._by_support.setdefault(fact, set()).add(key)
        for fact in set(firing.created_facts):
            self._by_creation.setdefault(fact, set()).add(key)

    def _drop_suppressed(self, key: tuple) -> None:
        entry = self.suppressed.pop(key, None)
        if entry is None:
            return
        for fact in set(entry.witness_facts):
            bucket = self._by_witness.get(fact)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_witness[fact]

    def _retract_firing(self, key: tuple) -> Firing | None:
        firing = self.firings.pop(key, None)
        if firing is None:
            return None
        self._fired.discard(key)
        for index, facts in (
            (self._by_support, firing.body_facts),
            (self._by_creation, firing.created_facts),
        ):
            for fact in set(facts):
                bucket = index.get(fact)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del index[fact]
        assert self.result is not None
        for null in firing.created_nulls:
            self.result.null_depth.pop(null, None)
        return firing

    def _depth_of(self, element: object) -> int:
        assert self.result is not None
        depth = self.result.null_depth.get(element)
        return depth if depth is not None else 0

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
        instance = self.result.instance
        chase_added: set[Fact] = set()

        # Phase 1a — over-delete: remove the full support cone of every
        # deleted fact, retracting the firings along the way and collecting
        # every trigger that may need re-checking afterwards (retracted
        # firings, and suppressed triggers whose witness lost a fact).
        recheck: dict[tuple, tuple[int, dict[Variable, object]]] = {}
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
            for key in tuple(self._by_support.get(fact, ())):
                firing = self._retract_firing(key)
                if firing is None:
                    continue
                recheck[key] = (firing.tgd_index, firing.frontier)
                for product in firing.created_facts:
                    if product in self.database:
                        continue
                    if instance.discard(product):
                        overdeleted.append(product)
                        queue.append(product)
            for key in tuple(self._by_witness.get(fact, ())):
                entry = self.suppressed.get(key)
                if entry is not None:
                    recheck[key] = (entry.tgd_index, entry.frontier)

        # Phase 1b — re-derive: a firing that survived the cascade never
        # lost a body fact, so its products are still justified; restore
        # them.  (Everything a restored fact used to imply is re-checked in
        # phase 3 / re-closed in phase 4.)
        for fact in overdeleted:
            if self._by_creation.get(fact):
                instance.add(fact)
        chase_removed = {fact for fact in overdeleted if fact not in instance}

        # Phase 2 — insert the new base facts (they seed the delta loop).
        seeds: list[Fact] = []
        for fact in added:
            if instance.add(fact):
                chase_added.add(fact)
                seeds.append(fact)

        # Phase 3 — re-check the affected cone: a retracted trigger that
        # still has a body match, or a suppressed trigger whose witness
        # died, either re-fires or records a fresh witness.
        for key, (tgd_index, frontier) in recheck.items():
            if key in self._fired:
                continue
            self._drop_suppressed(key)
            body_query = self.compiled.body_queries[tgd_index]
            if body_query is None:
                body_map: dict[Variable, object] | None = dict(frontier)
            else:
                body_map = find_homomorphism(body_query, instance, partial=frontier)
            if body_map is None:
                continue  # the trigger itself vanished with the deletions
            self._examine(tgd_index, key, body_map, seeds, chase_added)

        # Phase 4 — close under the semi-naive delta loop, exactly as the
        # later rounds of the from-scratch chase would.
        self._saturate(seeds, chase_added)

        # A fact removed and re-created in the same delta nets to nothing
        # for downstream consumers.
        overlap = chase_added & chase_removed
        chase_added -= overlap
        chase_removed -= overlap
        if chase_added or chase_removed:
            self.result.base_constants = frozenset(self.database.constants())
        return Delta(frozenset(chase_added), frozenset(chase_removed))

    def apply_delta(self, delta: Delta) -> Delta:
        """Convenience wrapper over :meth:`apply` for a :class:`Delta`."""
        return self.apply(delta.added, delta.removed)

    # -- the delta chase loop ----------------------------------------------

    def _examine(
        self,
        tgd_index: int,
        key: tuple,
        body_map: dict[Variable, object],
        new_facts: list[Fact],
        chase_added: set[Fact],
    ) -> None:
        """Suppress or fire one trigger against the current instance."""
        assert self.result is not None
        instance = self.result.instance
        compiled = self.compiled
        tgd = compiled.tgds[tgd_index]
        frontier_map = {v: body_map[v] for v in compiled.frontiers[tgd_index]}
        witness = _head_witness(compiled.head_queries[tgd_index], frontier_map, instance)
        if witness is not None:
            self.on_suppress(
                tgd_index,
                key,
                dict(frontier_map),
                tuple(atom.to_fact(witness) for atom in tgd.head),
            )
            return
        trigger_depth = max(
            (self._depth_of(v) for v in frontier_map.values()), default=0
        )
        existentials = compiled.existentials[tgd_index]
        if self.max_null_depth is not None and existentials:
            if trigger_depth + 1 > self.max_null_depth:
                self.result.truncated = True
                return
        self._fired.add(key)
        head_map: dict[Variable, object] = dict(frontier_map)
        created_nulls: list[Null] = []
        for variable in existentials:
            null = self._fresh()
            self.result.null_depth[null] = trigger_depth + 1
            head_map[variable] = null
            created_nulls.append(null)
        created_facts: list[Fact] = []
        for atom in tgd.head:
            product = atom.to_fact(head_map)
            created_facts.append(product)
            if instance.add(product):
                new_facts.append(product)
                chase_added.add(product)
        self.result.fired_triggers += 1
        self._record_firing(
            key,
            Firing(
                tgd_index,
                dict(frontier_map),
                tuple(atom.to_fact(body_map) for atom in tgd.body),
                tuple(created_facts),
                tuple(created_nulls),
            ),
        )
        if len(instance) > self.max_facts:
            raise ChaseNotTerminating(f"chase exceeded {self.max_facts} facts")

    def _saturate(self, seeds: list[Fact], chase_added: set[Fact]) -> None:
        """Semi-naive rounds seeded with ``seeds``, mirroring the chase."""
        assert self.result is not None
        instance = self.result.instance
        compiled = self.compiled
        delta = list(seeds)
        rounds = 0
        while delta:
            rounds += 1
            if rounds > self.max_rounds:
                raise ChaseNotTerminating(
                    f"delta chase exceeded {self.max_rounds} rounds"
                )
            self.result.rounds += 1
            new_facts: list[Fact] = []
            for tgd_index, tgd in enumerate(compiled.tgds):
                body_query = compiled.body_queries[tgd_index]
                if body_query is None:
                    continue  # empty bodies fired in the initial run
                for body_map in _delta_body_maps(tgd, body_query, instance, delta):
                    frontier_map = {
                        v: body_map[v] for v in compiled.frontiers[tgd_index]
                    }
                    # Key-compatible with the original run: same precompiled
                    # variable order, same id encoding as the recorded keys.
                    key = _trigger_key(
                        tgd_index, frontier_map, compiled.frontier_orders[tgd_index]
                    )
                    if key in self._fired:
                        continue
                    self._examine(tgd_index, key, body_map, new_facts, chase_added)
            delta = new_facts
