"""The provenance-tracking delta chase: maintain ``ch^q_O(D)`` under updates.

A :class:`ChaseMaintainer` doubles as the :class:`~repro.chase.standard.
ChaseRecorder` of the initial chase run and as the mutation engine that
keeps the chased instance valid afterwards.  Provenance has three stages:

1. **Log** — during the run the maintainer appends integers to
   ``array('q')`` logs, which the collector does not track: per fired
   trigger the key, the ``(relation, ids)`` row of each body and created
   fact and the ids of the created nulls; per suppressed trigger (body
   matched, head already satisfied) the key and the witness facts' rows.
   A TGD whose body and head are both positional (every ELI rule) logs
   fixed-width rows of its own — a firing is its body fact's ids then its
   created fact's ids, a suppression its witness's ids — from which the
   key and the nulls decode; every other trigger logs a generic row.  A
   database that is only ever read keeps no object per trigger.
2. **Index on the first delta** — the first :meth:`ChaseMaintainer.apply`
   decodes the log, once, into the store (a one-off cost linear in the
   number of triggers; ``revalidate`` spans report it as
   ``provenance_indexed``).  Rows resolve to the instance's own facts, the
   run's own fired keys and the dictionary's own nulls, column by column
   at C level, so the store holds no copy.
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

from array import array
from collections import Counter, defaultdict, deque
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator

from repro.data.facts import Fact
from repro.data.instance import Database, Instance
from repro.data.interning import TERMS
from repro.data.terms import Null, NullFactory, shared_null_factory
from repro.chase.standard import (
    ChaseNotTerminating,
    ChaseRecorder,
    ChaseResult,
    CompiledOntology,
    TriggerPlan,
    chase_round,
    compile_ontology,
    trigger_examiner,
)
from repro.cq.homomorphism import find_homomorphism
from repro.incremental.delta import Delta
from repro.tgds.ontology import Ontology

_IARGS = attrgetter("iargs")


class _OwnFacts(dict):
    """``relation -> {ids: fact}`` over an instance's own facts, per relation
    on first use: how a logged id row resolves without a copy."""

    def __init__(self, instance: Instance) -> None:
        super().__init__()
        self.instance = instance

    def __missing__(self, relation: str) -> dict[tuple[int, ...], Fact]:
        facts = self.instance.relation(relation)
        table = self[relation] = dict(zip(map(_IARGS, facts), facts))
        return table


def _file(index: dict, keys: Iterable[tuple], groups: Iterable[tuple]) -> None:
    """``index[fact].append(key)`` for each fact of each key's group, at C
    level (``groups`` is iterated twice)."""
    owners = chain.from_iterable(map(repeat, keys, map(len, groups)))
    deque(map(list.append, map(index.__getitem__, chain.from_iterable(groups)), owners), 0)


def _columns(rows: array, width: int) -> list[array]:
    """The fixed-width ``rows`` as one strided column per position."""
    return [rows[position::width] for position in range(width)]


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
        # Relation ids of the generic rows.
        self._relation_ids: dict[str, int] = {}
        self._clear_log()
        # The store: trigger key -> (body_facts, created_facts, created_nulls)
        # and trigger key -> witness facts; the tgd index is ``key[0]`` and
        # the frontier decodes from ``key[1]``.
        self.firings: dict[tuple, tuple] = {}
        self.suppressed: dict[tuple, tuple[Fact, ...]] = {}
        # Inverted indexes: fact -> keys of the triggers that depend on it,
        # and fact -> number of live firings that created it.
        self._by_support: defaultdict[Fact, list[tuple]] = defaultdict(list)
        self._by_witness: defaultdict[Fact, list[tuple]] = defaultdict(list)
        self._creators: Counter[Fact] = Counter()
        self._fired: set[tuple] = set()
        # Placeholder until bind() hands over the chase run's own factory;
        # drawing from the shared counter keeps labels process-unique even
        # if a delta is applied before any chase ran.
        self._fresh: NullFactory = shared_null_factory()
        self._instance: Instance | None = None

    def _clear_log(self) -> None:
        """Empty logs: per plan whose body and head are both positional, a
        fixed-width log of firings and one of suppressions (``None`` for
        every other plan), plus one generic log per kind."""
        fixed = [
            plan.body_relation is not None and plan.head_relation is not None
            for plan in self.compiled.plans
        ]
        self._fire_rows: list[array | None] = [array("q") if f else None for f in fixed]
        self._suppress_rows: list[array | None] = [array("q") if f else None for f in fixed]
        self._fire_log = array("q")
        self._suppress_log = array("q")
        self._generic_rows = 0

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
        rows = self._fire_rows[key[0]]
        if rows is None:
            self._log_generic(self._fire_log, key, (body_facts, created_facts))
            self._fire_log.append(len(created_nulls))
            self._fire_log.extend(map(TERMS.intern, created_nulls))
        else:
            rows.extend(body_facts[0].iargs)
            rows.extend(created_facts[0].iargs)

    def log_suppress(self, key: tuple, witness_facts: tuple[Fact, ...]) -> None:
        # On a fixed-width plan the chase's witness is the head fact it
        # probed for, so its relation goes without saying.
        rows = self._suppress_rows[key[0]]
        if rows is None:
            self._log_generic(self._suppress_log, key, (witness_facts,))
        else:
            rows.extend(witness_facts[0].iargs)

    def _log_generic(self, log: array, key: tuple, groups: tuple) -> None:
        """Append ``index, len(ids), *ids`` then, per group of facts, its
        size and per fact ``relation id, arity, *ids`` (a firing then
        appends its created nulls as ``count, *ids``)."""
        self._generic_rows += 1
        relation_ids = self._relation_ids
        log.append(key[0])
        log.append(len(key[1]))
        log.extend(key[1])
        for facts in groups:
            log.append(len(facts))
            for fact in facts:
                iargs = fact.iargs
                log.append(relation_ids.setdefault(fact.relation, len(relation_ids)))
                log.append(len(iargs))
                log.extend(iargs)

    def attach(self, result: ChaseResult) -> None:
        """Adopt the finished chase run this maintainer recorded."""
        if self._instance is not result.instance:
            raise ValueError("maintainer was not the recorder of this chase run")
        self.result = result

    @property
    def pending_rows(self) -> int:
        """Log rows not yet indexed (0 once the first delta replayed them)."""
        rows = self._generic_rows
        for plan, fires, suppressions in zip(
            self.compiled.plans, self._fire_rows, self._suppress_rows
        ):
            if fires:
                rows += len(fires) // (plan.body_arity + len(plan.head_slots))
            if suppressions:
                rows += len(suppressions) // len(plan.head_slots)
        return rows

    # -- bookkeeping helpers ----------------------------------------------

    def _index_log(self) -> None:
        """Decode the chase run's log into the store (first delta only).

        Facts resolve through per-relation tables over the instance, from
        which nothing was removed yet; fired keys resolve to the run's own
        tuples in ``_fired``.  A key in both logs was suppressed *before*
        it fired (the chase never re-examines a fired trigger), so it ends
        up fired; of repeated suppressions of one key, the last one stands.
        """
        assert self._instance is not None
        facts = _OwnFacts(self._instance)
        own_keys = dict(zip(self._fired, self._fired))
        firings, suppressed = self.firings, self.suppressed
        for plan, rows in zip(self.compiled.plans, self._fire_rows):
            if rows:
                firings.update(self._decode_fires(plan, rows, facts, own_keys))
        for key, witness_facts in self._read_generic(self._suppress_log, 1, facts):
            suppressed[key] = witness_facts
        for plan, rows in zip(self.compiled.plans, self._suppress_rows):
            if rows:
                suppressed.update(self._decode_suppressions(plan, rows, facts))
        for key, body_facts, created_facts, created_nulls in self._read_generic(
            self._fire_log, 2, facts
        ):
            firings[own_keys[key]] = (body_facts, created_facts, created_nulls)
        del own_keys, facts
        self._clear_log()
        for key in suppressed.keys() & firings.keys():
            del suppressed[key]
        _file(self._by_support, firings.keys(), list(map(itemgetter(0), firings.values())))
        _file(self._by_witness, suppressed.keys(), suppressed.values())
        self._creators.update(chain.from_iterable(map(itemgetter(1), firings.values())))

    def _decode_fires(
        self, plan: TriggerPlan, rows: array, facts: _OwnFacts, own_keys: dict
    ) -> Iterator[tuple]:
        """``(key, (body_facts, created_facts, created_nulls))`` per fixed-width
        firing row of ``plan``."""
        body_arity, head_slots = plan.body_arity, plan.head_slots
        columns = _columns(rows, body_arity + len(head_slots))
        body, head = columns[:body_arity], columns[body_arity:]
        frontier = len(plan.frontier_positions)
        keys = map(
            own_keys.__getitem__,
            zip(repeat(plan.index), zip(*[columns[p] for p in plan.frontier_positions])),
        )
        # Each existential's first head position carries its null's id.
        null_columns = [
            head[head_slots.index(slot)]
            for slot in range(frontier, frontier + len(self.compiled.existentials[plan.index]))
        ]
        decode = TERMS.decoder()
        nulls = (
            zip(*[map(decode, column) for column in null_columns]) if null_columns else repeat(())
        )
        bodies = map(facts[plan.body_relation].__getitem__, zip(*body))
        created = map(facts[plan.head_relation].__getitem__, zip(*head))
        return zip(keys, zip(zip(bodies), zip(created), nulls))

    @staticmethod
    def _decode_suppressions(plan: TriggerPlan, rows: array, facts: _OwnFacts) -> Iterator[tuple]:
        """``(key, witness_facts)`` per fixed-width suppression row of ``plan``."""
        head_slots = plan.head_slots
        columns = _columns(rows, len(head_slots))
        frontier = [columns[head_slots.index(slot)] for slot in range(len(plan.frontier_positions))]
        keys = zip(repeat(plan.index), zip(*frontier))
        return zip(keys, zip(map(facts[plan.head_relation].__getitem__, zip(*columns))))

    def _read_generic(self, log: array, groups: int, facts: _OwnFacts) -> Iterator[tuple]:
        """The generic rows of ``log``: ``(key, *fact groups)``, plus the
        created nulls after the two groups of a firing."""
        relations = list(self._relation_ids)
        decode = TERMS.decoder()
        values = iter(log)

        def take() -> tuple[int, ...]:
            return tuple(islice(values, next(values)))

        for index in values:
            row: list = [(index, take())]
            for _ in range(groups):
                row.append(
                    tuple([facts[relations[next(values)]][take()] for _ in range(next(values))])
                )
            if groups == 2:
                row.append(tuple(map(decode, take())))
            yield row

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
        # gives it back.
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
            plan = compiled.plans[key[0]]
            body = self._body_match(instance, plan, key[1])
            if body is None:
                continue  # the trigger itself vanished with the deletions
            examine(plan, key, key[1], body, seeds)
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

    def _body_match(self, instance: Instance, plan: TriggerPlan, frontier_ids: tuple[int, ...]):
        """A body match of the trigger ``(plan.index, frontier_ids)`` in
        ``instance``, or ``None``.

        A positional body is one probe of the instance's index on the
        frontier positions, and the match is the instance's own fact, so the
        store keeps no copy of it.  Any other body is a homomorphism search
        from the decoded frontier.
        """
        if plan.body_relation is not None:
            bucket = instance._raw_index(plan.body_relation, plan.frontier_positions).get(
                frontier_ids, ()
            )
            return next((fact for fact in bucket if len(fact.iargs) == plan.body_arity), None)
        index = plan.index
        frontier = dict(zip(self.compiled.frontier_orders[index], TERMS.decode_tuple(frontier_ids)))
        body_query = self.compiled.body_queries[index]
        if body_query is None:
            return frontier
        return find_homomorphism(body_query, instance, partial=frontier)

    def apply_delta(self, delta: Delta) -> Delta:
        """Convenience wrapper over :meth:`apply` for a :class:`Delta`."""
        return self.apply(delta.added, delta.removed)
