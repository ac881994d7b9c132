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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.config import codegen_enabled
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
    key (``(tgd_index, frontier ids)``), the body map, the lists of created
    facts and nulls, the facts witnessing a satisfied head — without
    copying or rebuilding any of it; a recorder that keeps those references
    pays one append per trigger.  :class:`repro.incremental.provenance.
    ChaseMaintainer` is the recorder every incremental materialization
    attaches; a run with ``recorder=None`` pays nothing.  ``compiled``, when
    set, is reused by the run instead of compiling the ontology again.
    """

    compiled: CompiledOntology | None = None

    def bind(self, instance: Instance, fired: set[tuple], fresh: NullFactory) -> None:
        """Called once at the start of the run with the live structures."""

    def log_fire(
        self,
        key: tuple,
        body_map: dict[Variable, object],
        created_facts: list[Fact],
        created_nulls: list[Null],
    ) -> None:
        """A trigger fired: ``created_facts`` lists every head fact (new or
        pre-existing — both are justified by this firing)."""

    def log_suppress(self, key: tuple, witness_facts: tuple[Fact, ...]) -> None:
        """A trigger was skipped because ``witness_facts`` satisfy its head."""


@dataclass(frozen=True)
class CompiledOntology:
    """The per-TGD structures every chase round reuses.

    ``frontier_orders`` / ``body_orders`` fix, once per TGD, the
    sorted-by-name variable order that trigger keys are built in, so the
    per-trigger key is a plain value tuple in that order instead of a
    freshly sorted item list.
    """

    tgds: tuple[TGD, ...]
    body_queries: tuple[ConjunctiveQuery | None, ...]
    head_queries: tuple[ConjunctiveQuery, ...]
    frontiers: tuple[tuple[Variable, ...], ...]
    existentials: tuple[tuple[Variable, ...], ...]
    frontier_orders: tuple[tuple[Variable, ...], ...]
    body_orders: tuple[tuple[Variable, ...], ...]
    single_bodies: tuple["Atom | None", ...]


def compile_ontology(ontology: Ontology) -> CompiledOntology:
    """Precompile the body/head queries and variable partitions of ``ontology``."""
    tgds = tuple(ontology)
    return CompiledOntology(
        tgds=tgds,
        body_queries=tuple(
            ConjunctiveQuery([], tgd.body) if tgd.body else None for tgd in tgds
        ),
        head_queries=tuple(
            ConjunctiveQuery(
                sorted(tgd.frontier_variables(), key=lambda v: v.name), tgd.head
            )
            for tgd in tgds
        ),
        frontiers=tuple(tuple(tgd.frontier_variables()) for tgd in tgds),
        existentials=tuple(tuple(tgd.existential_variables()) for tgd in tgds),
        frontier_orders=tuple(
            tuple(sorted(tgd.frontier_variables(), key=lambda v: v.name))
            for tgd in tgds
        ),
        body_orders=tuple(
            tuple(sorted(tgd.body_variables(), key=lambda v: v.name))
            for tgd in tgds
        ),
        single_bodies=tuple(
            next(iter(tgd.body)) if len(tgd.body) == 1 else None for tgd in tgds
        ),
    )


def _head_witness(
    head_query: ConjunctiveQuery,
    frontier_map: dict[Variable, object],
    instance: Instance,
) -> tuple[Fact, ...] | None:
    """The facts satisfying the TGD head at this trigger, or ``None``.

    Single-atom heads (the overwhelmingly common case in the guarded/ELI
    workloads) are answered with one index probe plus a match per candidate
    — the matched fact *is* the witness — instead of spinning up the full
    backtracking search; multi-atom heads fall back to the generic
    homomorphism finder and instantiate the head under it.
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
    :class:`CompiledOntology` — callers must pass the same order for keys to
    compare across rounds and across the provenance-maintained delta chase.
    The values are dictionary-encoded, so the ``fired`` set hashes machine
    ints instead of term objects — the id-matching half of the chase loop.
    """
    return (tgd_index, TERMS.intern_tuple(mapping[v] for v in order))


def _single_body_matcher(atom: Atom, codegen: bool | None = None):
    """The generated per-fact matcher of ``atom``, or ``None`` (generic path).

    Lazy import: :mod:`repro.engine.codegen` sits in a higher layer.  The
    generated function is exactly ``match_atom(atom, fact, {})`` with the
    arity check, constant comparisons and repeated-variable checks unrolled.
    """
    from repro.engine.codegen import maybe_single_body_matcher

    return maybe_single_body_matcher(atom, codegen)


def _delta_body_maps(
    tgd: TGD,
    body_query: ConjunctiveQuery,
    instance: Instance,
    delta: Sequence[Fact],
    codegen: bool | None = None,
) -> list[dict[Variable, object]]:
    """Body homomorphisms of ``tgd`` that use at least one fact of ``delta``.

    The semi-naive evaluation step: any body match that is new since the
    previous round must send some body atom to a fact added in that round, so
    it suffices to seed the search with each (atom, delta-fact) pair and let
    the index-driven homomorphism search complete the rest against the full
    instance.  The result is materialised (and de-duplicated, since one match
    can touch the delta through several atoms) so the caller is free to
    mutate ``instance`` while firing triggers.  Single-atom bodies (the
    common case in guarded/ELI ontologies) skip the search entirely: the
    atom-fact match *is* the body homomorphism.
    """
    body = tuple(tgd.body)
    if len(body) == 1:
        atom = body[0]
        matcher = _single_body_matcher(atom, codegen)
        maps: list[dict[Variable, object]] = []
        seen_single: set[Fact] = set()
        for fact in delta:
            if (
                fact.relation != atom.relation
                or fact in seen_single
            ):
                continue
            seen_single.add(fact)
            partial = (
                matcher(fact) if matcher is not None else match_atom(atom, fact, {})
            )
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


def chase(
    database: Instance,
    ontology: Ontology,
    max_null_depth: int | None = None,
    max_facts: int = 1_000_000,
    max_rounds: int = 10_000,
    oblivious: bool = False,
    recorder: ChaseRecorder | None = None,
    codegen: bool | None = None,
) -> ChaseResult:
    """Run the chase of ``database`` with ``ontology``.

    Returns a :class:`ChaseResult` whose instance contains the original
    facts.  ``max_null_depth`` truncates the run as described in the module
    docstring (``truncated`` is set when at least one trigger was skipped for
    this reason); ``max_facts`` / ``max_rounds`` are hard safety budgets that
    raise :class:`ChaseNotTerminating` when exhausted.  ``recorder``, when
    given, is handed every fired and suppressed trigger (see
    :class:`ChaseRecorder`); it is how the incremental-maintenance subsystem
    captures provenance for one append per trigger.  ``codegen``
    selects the generated single-atom-body matchers (``None`` → process
    default, see :mod:`repro.config`).
    """
    if codegen is None:
        codegen = codegen_enabled()
    instance = Instance(database)
    null_depth: dict[Null, int] = {}
    # Draw labels from the instance's factory (process-globally unique), so
    # two independent chase runs can never hand out aliasing null labels.
    fresh = instance.null_factory
    result = ChaseResult(instance, null_depth)
    fired: set[tuple] = set()
    if recorder is not None:
        recorder.bind(instance, fired, fresh)

    def depth_of(element: object) -> int:
        if is_null(element):
            return null_depth.get(element, 0)
        return 0

    compiled = recorder.compiled if recorder is not None else None
    if compiled is None:
        compiled = compile_ontology(ontology)
    tgds = compiled.tgds
    body_queries = compiled.body_queries
    head_queries = compiled.head_queries
    frontiers = compiled.frontiers
    existentials = compiled.existentials
    # Semi-naive (delta-driven) rounds: the first round matches bodies against
    # the whole database; every later round only seeds the body search with
    # facts added in the previous round.  Trigger lists are materialised
    # before firing, so the positional indexes stay consistent while new
    # facts are added.
    delta: list[Fact] | None = None
    while True:
        result.rounds += 1
        if result.rounds > max_rounds:
            raise ChaseNotTerminating(f"chase exceeded {max_rounds} rounds")
        new_facts: list[Fact] = []
        for tgd_index, tgd in enumerate(tgds):
            body_query = body_queries[tgd_index]
            if body_query is None:
                # An empty body can only trigger once, in the first round.
                if delta is not None:
                    continue
                body_maps: list[dict[Variable, object]] = [{}]
            elif delta is None:
                single = compiled.single_bodies[tgd_index]
                if single is not None:
                    # Single-atom body: every matching fact is a body map,
                    # no search machinery needed (the dominant TGD shape).
                    matcher = _single_body_matcher(single, codegen)
                    body_maps = []
                    if matcher is not None:
                        for fact in instance.relation(single.relation):
                            body_map = matcher(fact)
                            if body_map is not None:
                                body_maps.append(body_map)
                    else:
                        for fact in instance.relation(single.relation):
                            body_map = match_atom(single, fact, {})
                            if body_map is not None:
                                body_maps.append(body_map)
                else:
                    body_maps = list(all_homomorphisms(body_query, instance))
            else:
                body_maps = _delta_body_maps(
                    tgd, body_query, instance, delta, codegen
                )
            for body_map in body_maps:
                frontier_map = {v: body_map[v] for v in frontiers[tgd_index]}
                if oblivious:
                    key = _trigger_key(
                        tgd_index, body_map, compiled.body_orders[tgd_index]
                    )
                    if key in fired:
                        continue
                else:
                    key = _trigger_key(
                        tgd_index, frontier_map, compiled.frontier_orders[tgd_index]
                    )
                    if key in fired:
                        continue
                    witness = _head_witness(
                        head_queries[tgd_index], frontier_map, instance
                    )
                    if witness is not None:
                        if recorder is not None:
                            recorder.log_suppress(key, witness)
                        continue
                trigger_depth = max(
                    (depth_of(v) for v in frontier_map.values()), default=0
                )
                if max_null_depth is not None and existentials[tgd_index]:
                    if trigger_depth + 1 > max_null_depth:
                        result.truncated = True
                        continue
                fired.add(key)
                head_map = dict(frontier_map)
                created_nulls: list[Null] = []
                for variable in existentials[tgd_index]:
                    null = fresh()
                    null_depth[null] = trigger_depth + 1
                    head_map[variable] = null
                    created_nulls.append(null)
                created_facts: list[Fact] = []
                for atom in tgd.head:
                    new_fact = atom.to_fact(head_map)
                    created_facts.append(new_fact)
                    if instance.add(new_fact):
                        new_facts.append(new_fact)
                result.fired_triggers += 1
                if recorder is not None:
                    recorder.log_fire(key, body_map, created_facts, created_nulls)
                if len(instance) > max_facts:
                    raise ChaseNotTerminating(
                        f"chase exceeded {max_facts} facts"
                    )
        if not new_facts:
            break
        delta = new_facts
    return result


def certain_facts(result: ChaseResult) -> set[Fact]:
    """The facts of the chase that use only original database constants."""
    return {fact for fact in result.instance if not fact.has_null()}
