"""The (restricted) chase for sets of TGDs.

The chase makes the consequences of an ontology explicit in an instance by
repeatedly firing TGDs whose body matches but whose head is not yet
satisfied, inventing fresh labelled nulls for existential variables.  We
implement the *restricted* (standard) chase with round-based fairness; the
*oblivious* chase of the paper (fire every trigger regardless of head
satisfaction) is available behind a flag and is only useful for small inputs
because it rarely terminates on ontologies with existentials.

Guarded ontologies may still have an infinite chase, so callers can bound the
run by the *null depth*: a null created by a trigger whose frontier image has
depth ``d`` gets depth ``d + 1`` (database constants have depth 0), and
triggers that would create nulls beyond ``max_null_depth`` are skipped.  The
query-directed chase of :mod:`repro.chase.query_directed` chooses this bound
from the query so that the truncation is invisible to query evaluation.

A trigger is a TGD plus the dense term ids of its frontier variables, and
its key is ``(tgd_index, frontier ids)`` everywhere — the ``fired`` set, the
recorder's log, the delta chase.  :func:`compile_ontology` resolves each TGD
into a :class:`TriggerPlan`; :func:`chase_round` finds a round's triggers
(positionally off ``Fact.iargs`` where the plan allows, through the
homomorphism search otherwise) and :func:`trigger_examiner` builds the one
routine that suppresses or fires them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

from repro.data.facts import Fact
from repro.data.instance import Instance
from repro.data.interning import TERMS
from repro.data.terms import Null, NullFactory, is_null
from repro.cq.atoms import Atom, Variable
from repro.cq.homomorphism import (
    _candidate_pool,
    all_homomorphisms,
    find_homomorphism,
    match_atom,
)
from repro.cq.query import ConjunctiveQuery
from repro.tgds.ontology import Ontology
from repro.tgds.tgd import TGD


class ChaseNotTerminating(RuntimeError):
    """Raised when a chase run exceeds its fact or round budget."""


@dataclass
class ChaseResult:
    """The outcome of a chase run."""

    instance: Instance
    null_depth: dict[Null, int] = field(default_factory=dict)
    rounds: int = 0
    fired_triggers: int = 0
    truncated: bool = False

    def nulls(self) -> set[Null]:
        return set(self.null_depth)

    def database_part(self) -> Instance:
        """The facts that mention only original database constants."""
        return Instance(
            fact for fact in self.instance if not fact.has_null()
        )

    def null_blocks(self) -> list[tuple[set[Null], set]]:
        """Group the nulls into connected blocks.

        Two nulls belong to the same block when they co-occur in a fact
        (directly or transitively).  Each block is returned together with the
        set of database constants adjacent to it; block plus adjacent
        constants is one "witness" of the chase-like structure (Lemma C.3).
        """
        parent: dict[Null, Null] = {}

        def find(node: Null) -> Null:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        def union(a: Null, b: Null) -> None:
            parent[find(a)] = find(b)

        for null in self.null_depth:
            parent.setdefault(null, null)
        adjacency: dict[Null, set] = {null: set() for null in parent}
        for fact in self.instance:
            fact_nulls = [a for a in fact.args if is_null(a)]
            if not fact_nulls:
                continue
            for null in fact_nulls:
                parent.setdefault(null, null)
                adjacency.setdefault(null, set())
            first = fact_nulls[0]
            for other in fact_nulls[1:]:
                union(first, other)
            fact_constants = {a for a in fact.args if not is_null(a)}
            for null in fact_nulls:
                adjacency[null] |= fact_constants

        blocks: dict[Null, tuple[set[Null], set]] = {}
        for null in parent:
            root = find(null)
            block = blocks.setdefault(root, (set(), set()))
            block[0].add(null)
            block[1].update(adjacency[null])
        return list(blocks.values())


class ChaseRecorder:
    """Append-only log protocol for provenance-aware chase runs.

    The chase hands a recorder what its loop already holds — the trigger
    key (``(tgd_index, frontier ids)``), the matched body facts, the lists
    of created facts and nulls, the facts witnessing a satisfied head —
    without copying any of it.  The lists and tuples are the loop's own
    and are not read again, so a recorder keeps what it needs of them:
    :class:`repro.incremental.provenance.ChaseMaintainer`, the recorder
    every incremental materialization attaches, keeps their integer ids
    only.  A run with ``recorder=None`` pays nothing.  ``compiled``, when
    set, is reused by the run instead of compiling the ontology again.
    """

    compiled: CompiledOntology | None = None

    def bind(self, instance: Instance, fired: set[tuple], fresh: NullFactory) -> None:
        """Called once at the start of the run with the live structures."""

    def log_fire(
        self,
        key: tuple,
        body_facts: tuple[Fact, ...],
        created_facts: list[Fact],
        created_nulls: list[Null],
    ) -> None:
        """A trigger fired: ``created_facts`` lists every head fact (new or
        pre-existing — both are justified by this firing)."""

    def log_suppress(self, key: tuple, witness_facts: tuple[Fact, ...]) -> None:
        """A trigger was skipped because ``witness_facts`` satisfy its head."""


@dataclass(frozen=True)
class TriggerPlan:
    """One TGD's trigger pipeline on dense term ids, resolved once.

    A trigger is its TGD plus the ids of the frontier variables in
    ``frontier_orders[index]`` order; the plan says how to read those ids
    off a matched fact and how to test and build the head from them, with
    no variable dictionary in between.  Each half is positional only for
    the shape every ELI rule has — one atom whose arguments are distinct
    variables — and ``None`` otherwise, which routes that half through the
    term-level homomorphism search:

    * body: ``frontier_positions[k]`` is where the matched
      ``body_relation`` fact (of ``body_arity``) carries frontier id ``k``;
    * head (non-empty frontier only): the ``head_relation`` index on
      ``probe_positions`` holds the witnesses under the frontier ids
      (reordered by ``probe_slots`` unless ``None`` = already in order), and
      ``head_slots[p]`` picks argument ``p`` of the head fact out of
      ``frontier ids + ids of the fresh nulls``.
    """

    index: int
    body_relation: str | None = None
    body_arity: int = 0
    frontier_positions: tuple[int, ...] = ()
    head_relation: str | None = None
    probe_positions: tuple[int, ...] = ()
    probe_slots: tuple[int, ...] | None = None
    head_slots: tuple[int, ...] = ()


def _plain_atom(atoms: frozenset[Atom]) -> Atom | None:
    """The single atom of ``atoms`` if its arguments are distinct variables."""
    if len(atoms) != 1:
        return None
    (atom,) = atoms
    if len(atom.variables()) != atom.arity:
        return None  # a constant or a repeated variable
    return atom


def _trigger_plan(
    index: int, tgd: TGD, order: tuple[Variable, ...], existentials: tuple[Variable, ...]
) -> TriggerPlan:
    fields: dict[str, object] = {}
    body = _plain_atom(tgd.body)
    if body is not None:
        fields.update(
            body_relation=body.relation,
            body_arity=body.arity,
            frontier_positions=tuple(body.args.index(v) for v in order),
        )
    head = _plain_atom(tgd.head)
    if head is not None and order:
        slot_of = {v: slot for slot, v in enumerate(order + existentials)}
        probe = sorted((head.args.index(v), slot_of[v]) for v in order)
        probe_slots = tuple(slot for _, slot in probe)
        fields.update(
            head_relation=head.relation,
            probe_positions=tuple(position for position, _ in probe),
            probe_slots=None if probe_slots == tuple(range(len(order))) else probe_slots,
            head_slots=tuple(slot_of[v] for v in head.args),
        )
    return TriggerPlan(index, **fields)


@dataclass(frozen=True)
class CompiledOntology:
    """The per-TGD structures every chase round reuses.

    ``frontier_orders`` / ``body_orders`` fix, once per TGD, the
    sorted-by-name variable order that trigger keys are built in, so the
    per-trigger key is a plain value tuple in that order instead of a
    freshly sorted item list.  ``plans`` holds each TGD's
    :class:`TriggerPlan`.
    """

    tgds: tuple[TGD, ...]
    body_queries: tuple[ConjunctiveQuery | None, ...]
    head_queries: tuple[ConjunctiveQuery, ...]
    frontiers: tuple[tuple[Variable, ...], ...]
    existentials: tuple[tuple[Variable, ...], ...]
    frontier_orders: tuple[tuple[Variable, ...], ...]
    body_orders: tuple[tuple[Variable, ...], ...]
    plans: tuple[TriggerPlan, ...]


def compile_ontology(ontology: Ontology) -> CompiledOntology:
    """Precompile the body/head queries and variable partitions of ``ontology``."""
    tgds = tuple(ontology)
    existentials = tuple(tuple(tgd.existential_variables()) for tgd in tgds)
    frontier_orders = tuple(
        tuple(sorted(tgd.frontier_variables(), key=lambda v: v.name)) for tgd in tgds
    )
    return CompiledOntology(
        tgds=tgds,
        body_queries=tuple(
            ConjunctiveQuery([], tgd.body) if tgd.body else None for tgd in tgds
        ),
        head_queries=tuple(
            ConjunctiveQuery(order, tgd.head) for tgd, order in zip(tgds, frontier_orders)
        ),
        frontiers=tuple(tuple(tgd.frontier_variables()) for tgd in tgds),
        existentials=existentials,
        frontier_orders=frontier_orders,
        body_orders=tuple(
            tuple(sorted(tgd.body_variables(), key=lambda v: v.name))
            for tgd in tgds
        ),
        plans=tuple(
            _trigger_plan(index, tgd, frontier_orders[index], existentials[index])
            for index, tgd in enumerate(tgds)
        ),
    )


def _head_witness(
    head_query: ConjunctiveQuery,
    frontier_map: dict[Variable, object],
    instance: Instance,
) -> tuple[Fact, ...] | None:
    """The facts satisfying the TGD head at this trigger, or ``None``.

    The term-level route, for the heads a :class:`TriggerPlan` does not
    cover.  Single-atom heads are answered with one index probe plus a
    match per candidate — the matched fact *is* the witness — instead of
    spinning up the full backtracking search; multi-atom heads fall back to
    the generic homomorphism finder and instantiate the head under it.
    """
    atoms = head_query.atoms
    if len(atoms) == 1:
        atom = next(iter(atoms))
        arity = atom.arity
        for fact in _candidate_pool(atom, frontier_map, instance):
            if fact.arity == arity and match_atom(atom, fact, frontier_map) is not None:
                return (fact,)
        return None
    witness = find_homomorphism(head_query, instance, partial=frontier_map)
    if witness is None:
        return None
    return tuple(atom.to_fact(witness) for atom in atoms)


def _trigger_key(
    tgd_index: int,
    mapping: dict[Variable, object],
    order: Sequence[Variable],
) -> tuple:
    """The dedup key of a trigger: the mapped values in a fixed variable order.

    ``order`` is the precompiled sorted variable order of the TGD's frontier
    (restricted chase) or body (oblivious chase) from
    :class:`CompiledOntology`.  The values are dictionary-encoded, so the
    ``fired`` set hashes machine ints instead of term objects; a positional
    :class:`TriggerPlan` builds the same ``(tgd_index, ids)`` straight from
    ``Fact.iargs``, so keys compare across both routes, across rounds and
    across the provenance-maintained delta chase.
    """
    return (tgd_index, TERMS.intern_tuple(mapping[v] for v in order))


def _delta_body_maps(
    tgd: TGD,
    body_query: ConjunctiveQuery,
    instance: Instance,
    delta: Sequence[Fact],
) -> list[dict[Variable, object]]:
    """Body homomorphisms of ``tgd`` that use at least one fact of ``delta``.

    The semi-naive evaluation step: any body match that is new since the
    previous round must send some body atom to a fact added in that round, so
    it suffices to seed the search with each (atom, delta-fact) pair and let
    the index-driven homomorphism search complete the rest against the full
    instance.  The result is materialised (and de-duplicated, since one match
    can touch the delta through several atoms) so the caller is free to
    mutate ``instance`` while firing triggers.  Single-atom bodies skip the
    search entirely: the atom-fact match *is* the body homomorphism.
    """
    body = tuple(tgd.body)
    if len(body) == 1:
        atom = body[0]
        maps: list[dict[Variable, object]] = []
        for fact in delta:
            if fact.relation == atom.relation:
                partial = match_atom(atom, fact, {})
                if partial is not None:
                    maps.append(partial)
        return maps
    maps = []
    seen: set[frozenset] = set()
    for atom in body:
        for fact in delta:
            if fact.relation != atom.relation or fact.arity != atom.arity:
                continue
            partial = match_atom(atom, fact, {})
            if partial is None:
                continue
            for body_map in all_homomorphisms(body_query, instance, partial):
                key = frozenset(body_map.items())
                if key not in seen:
                    seen.add(key)
                    maps.append(body_map)
    return maps


def trigger_examiner(
    compiled: CompiledOntology,
    result: ChaseResult,
    fired: set[tuple],
    fresh: NullFactory,
    max_null_depth: int | None,
    max_facts: int,
    on_fire=None,
    on_suppress=None,
    oblivious: bool = False,
):
    """The routine that suppresses or fires one trigger, bound to one run.

    Returns ``examine(plan, key, ids, body, new_facts)``: ``ids`` are the
    frontier ids, ``key`` the dedup key (``(plan.index, ids)`` unless
    ``oblivious``), ``body`` the matched fact — or, off the positional
    route, the body homomorphism — which is only read to hand ``on_fire``
    the body facts, and ``new_facts`` receives the head facts that were not
    in the instance yet.  It is the one place the restricted chase decides:
    already fired → nothing; head satisfied → ``on_suppress(key,
    witness_facts)``; too deep → ``result.truncated``; otherwise fresh
    nulls, head facts and ``on_fire(key, body_facts, created_facts,
    created_nulls)``.  Both :func:`chase` and the delta chase of
    :class:`repro.incremental.provenance.ChaseMaintainer` drive it.
    """
    instance = result.instance
    null_depth = result.null_depth
    tgds = compiled.tgds
    decode = TERMS.decoder()
    null_flags = TERMS.null_flags()
    intern = TERMS.intern
    from_ids = Fact.from_ids
    add = instance.add
    # The raw id-keyed head indexes, fetched on a TGD's first trigger: the
    # instance keeps one dict per index and maintains it in place.
    head_indexes: list[dict | None] = [None] * len(tgds)

    def examine(plan: TriggerPlan, key: tuple, ids: tuple, body, new_facts: list) -> None:
        if key in fired:
            return
        index = plan.index
        head_relation = plan.head_relation
        witness = frontier_map = None
        if head_relation is None:
            frontier_map = dict(zip(compiled.frontier_orders[index], TERMS.decode_tuple(ids)))
            if not oblivious:
                witness = _head_witness(compiled.head_queries[index], frontier_map, instance)
        elif not oblivious:
            head_index = head_indexes[index]
            if head_index is None:
                head_index = head_indexes[index] = instance._raw_index(
                    head_relation, plan.probe_positions
                )
            slots = plan.probe_slots
            bucket = head_index.get(ids if slots is None else tuple([ids[s] for s in slots]))
            if bucket is not None:
                # Every fact filed here agrees on the frontier positions and
                # the other arguments are distinct existentials, so only a
                # fact of another arity can fail to be a witness.
                arity = len(plan.head_slots)
                for fact in bucket:
                    if len(fact.args) == arity:
                        witness = (fact,)
                        break
        if witness is not None:
            if on_suppress is not None:
                on_suppress(key, witness)
            return
        depth = 0
        for term_id in ids:
            if null_flags[term_id]:
                depth = max(depth, null_depth.get(decode(term_id), 0))
        existentials = compiled.existentials[index]
        if existentials and max_null_depth is not None and depth >= max_null_depth:
            result.truncated = True
            return
        fired.add(key)
        created_nulls = [fresh() for _ in existentials]
        for null in created_nulls:
            null_depth[null] = depth + 1
        if head_relation is None:
            frontier_map.update(zip(existentials, created_nulls))
            created_facts = [atom.to_fact(frontier_map) for atom in tgds[index].head]
        else:
            slots = ids + tuple([intern(null) for null in created_nulls])
            created_facts = [
                from_ids(head_relation, tuple([slots[slot] for slot in plan.head_slots]))
            ]
        for fact in created_facts:
            if add(fact):
                new_facts.append(fact)
        result.fired_triggers += 1
        if on_fire is not None:
            if body.__class__ is Fact:
                body_facts = (body,)
            else:
                body_facts = tuple([atom.to_fact(body) for atom in tgds[index].body])
            on_fire(key, body_facts, created_facts, created_nulls)
        if len(instance) > max_facts:
            raise ChaseNotTerminating(f"chase exceeded {max_facts} facts")

    return examine


def chase_round(
    compiled: CompiledOntology,
    instance: Instance,
    delta: Sequence[Fact] | None,
    examine,
    new_facts: list[Fact],
    oblivious: bool = False,
) -> None:
    """Feed ``examine`` every trigger of one semi-naive round.

    ``delta=None`` is the first round: bodies are matched against the whole
    instance.  Every later round only matches bodies that use a fact of
    ``delta`` (the facts added in the previous round), grouped by relation
    once so that a TGD reads its own relation's share instead of scanning
    the delta.  The matches of a TGD are materialised before its triggers
    fire, so the indexes stay consistent while new facts are added.
    """
    by_relation: dict[str, list[Fact]] = defaultdict(list)
    for fact in delta or ():
        by_relation[fact.relation].append(fact)
    for plan in compiled.plans:
        index = plan.index
        if plan.body_relation is not None and not oblivious:
            if delta is None:
                matched: Sequence[Fact] = list(instance.relation(plan.body_relation))
            else:
                matched = by_relation.get(plan.body_relation, ())
            arity, positions = plan.body_arity, plan.frontier_positions
            for fact in matched:
                iargs = fact.iargs
                if len(iargs) == arity:
                    ids = tuple([iargs[p] for p in positions])
                    examine(plan, (index, ids), ids, fact, new_facts)
            continue
        body_query = compiled.body_queries[index]
        if body_query is None:
            # An empty body can only trigger once, in the first round.
            if delta is not None:
                continue
            body_maps: list[dict[Variable, object]] = [{}]
        elif delta is None:
            body_maps = list(all_homomorphisms(body_query, instance))
        else:
            body_maps = _delta_body_maps(compiled.tgds[index], body_query, instance, delta)
        order = compiled.frontier_orders[index]
        for body_map in body_maps:
            key = frontier_key = _trigger_key(index, body_map, order)
            if oblivious:
                key = _trigger_key(index, body_map, compiled.body_orders[index])
            examine(plan, key, frontier_key[1], body_map, new_facts)


def chase(
    database: Instance,
    ontology: Ontology,
    max_null_depth: int | None = None,
    max_facts: int = 1_000_000,
    max_rounds: int = 10_000,
    oblivious: bool = False,
    recorder: ChaseRecorder | None = None,
) -> ChaseResult:
    """Run the chase of ``database`` with ``ontology``.

    Returns a :class:`ChaseResult` whose instance contains the original
    facts.  ``max_null_depth`` truncates the run as described in the module
    docstring (``truncated`` is set when at least one trigger was skipped for
    this reason); ``max_facts`` / ``max_rounds`` are hard safety budgets that
    raise :class:`ChaseNotTerminating` when exhausted.  ``recorder``, when
    given, is handed every fired and suppressed trigger (see
    :class:`ChaseRecorder`); it is how the incremental-maintenance subsystem
    captures provenance, as integer rows.
    """
    instance = Instance(database)
    result = ChaseResult(instance)
    # Draw labels from the instance's factory (process-globally unique), so
    # two independent chase runs can never hand out aliasing null labels.
    fresh = instance.null_factory
    fired: set[tuple] = set()
    compiled = None
    on_fire = on_suppress = None
    if recorder is not None:
        recorder.bind(instance, fired, fresh)
        compiled = recorder.compiled
        on_fire, on_suppress = recorder.log_fire, recorder.log_suppress
    if compiled is None:
        compiled = compile_ontology(ontology)
    examine = trigger_examiner(
        compiled,
        result,
        fired,
        fresh,
        max_null_depth,
        max_facts,
        on_fire,
        on_suppress,
        oblivious,
    )
    # Semi-naive (delta-driven) rounds: the first matches bodies against the
    # whole database, every later one only against the facts the previous
    # round added.
    delta: list[Fact] | None = None
    while True:
        result.rounds += 1
        if result.rounds > max_rounds:
            raise ChaseNotTerminating(f"chase exceeded {max_rounds} rounds")
        new_facts: list[Fact] = []
        chase_round(compiled, instance, delta, examine, new_facts, oblivious)
        if not new_facts:
            break
        delta = new_facts
    return result


def certain_facts(result: ChaseResult) -> set[Fact]:
    """The facts of the chase that use only original database constants."""
    return {fact for fact in result.instance if not fact.has_null()}
