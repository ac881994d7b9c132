"""The process-parallel restricted chase: replicated instances, master firing.

Design: partition the *matching*, centralize the *firing*.

Every worker forks with (a copy-on-write replica of) the un-chased
instance and the ontology.  Each round the master broadcasts the previous
round's delta — encoded as a :class:`~repro.parallel.shm.SharedFactBlock`
of pre-fork term ids and ``-(label+1)`` null codes — plus the trigger keys
it fired; workers apply the delta to their replica, select the slice of it
they own (a deterministic :func:`~repro.parallel.shards.shard_of` over the
encoded rows, so each delta fact has exactly one owner in every process),
run the semi-naive body match + head-witness check locally, and send back
the surviving trigger proposals.  The master deduplicates proposals
against the global fired set, re-checks the head witness against *its*
instance (catching same-round satisfaction, exactly like the sequential
round loop), applies the null-depth truncation, and fires — with the one
process-wide null factory, so null labels never alias.

Soundness of the answer-set guarantee: a worker's witness view lags the
master's by at most the same round, so workers can only *over*-propose,
never under-propose (semi-naive completeness is per-delta-fact, and every
delta fact has an owner); the master's re-check restores restricted-chase
suppression.  The result is a chase interleaving between the restricted
and oblivious extremes at the same truncation depth — a universal model —
so null-free answer sets are byte-identical to the sequential run's (the
differential suite pins this).

Failure discipline: any worker crash or task error raises
:class:`~repro.parallel.pool.ParallelExecutionError` out of
:func:`parallel_chase` with the pool closed and all segments unlinked;
callers fall back to the sequential chase.  Never a hang, never a partial
result.

Incremental maintenance is *not* supported here: provenance recording
needs the suppression witnesses that stay worker-side.  The engine only
routes a chase this way when ``incremental`` is off.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chase.standard import (
    ChaseNotTerminating,
    ChaseResult,
    _head_witness,
    compile_ontology,
)
from repro.config import codegen_enabled
from repro.cq.atoms import constants_of
from repro.data.facts import Fact
from repro.data.instance import Instance
from repro.data.interning import TERMS
from repro.data.terms import is_null
from repro.parallel.pool import WorkerBootstrap, WorkerPool
from repro.parallel.runtime import PARALLEL_STATS
from repro.parallel.shm import SharedFactBlock, encode_null
from repro.tgds.ontology import Ontology

__all__ = ["ParallelChaseRun", "parallel_chase"]


@dataclass
class ParallelChaseRun:
    """A finished parallel chase plus the still-warm pool that ran it.

    After the final round every replica has received every delta, so the
    workers' instances equal the master's chased instance — the pool can
    keep serving reduce projections, sharded semi-joins and batch
    enumeration for this materialization epoch.  The owner must ``close``
    the pool when the epoch ends.
    """

    result: ChaseResult
    pool: WorkerPool
    boundary_facts: int = 0


def _pre_intern(ontology: Ontology) -> None:
    """Intern every ontology constant *before* the fork.

    Head constants are the only constants a fired fact can introduce that
    did not come from the database, so after this call every constant the
    chase can ever place in a fact has a pre-fork (worker-valid) term id —
    the invariant the shm fact encoding relies on.
    """
    for tgd in ontology:
        for constant in constants_of(tgd.body):
            TERMS.intern(constant)
        for constant in constants_of(tgd.head):
            TERMS.intern(constant)


def _pre_intern_instance(instance: Instance) -> None:
    """Intern every database constant *before* the fork.

    Interning is lazy (ids are minted at the first index probe), so without
    this pass the master and each worker would mint ids for the same
    constants independently post-fork, in different orders — and the shm
    encoding would ship ids that decode to different terms (or nothing) in
    the workers.  After this pass every constant of the instance has one
    process-agreed id; only nulls are minted post-fork, and those always
    travel by label, never by id.
    """
    intern = TERMS.intern
    for fact in instance:
        for arg in fact.args:
            if not is_null(arg):
                intern(arg)


def _encode_delta(
    delta: list[Fact], relation_ids: dict[str, int]
) -> tuple[list[tuple[int, tuple[int, ...]]], list[str]]:
    """Encode a round's new facts for the shm exchange.

    Returns ``(records, new_relation_names)``.  Every constant of a fired
    fact has a pre-fork term id: it is either a frontier value, i.e. a
    database constant (:func:`_pre_intern_instance`), or a head constant
    of the ontology (:func:`_pre_intern`).  A constant without one is a
    broken invariant, not a case to serve — minting its id here would ship
    an id the workers cannot decode — so it raises ``KeyError``.
    """
    new_names: list[str] = []
    records: list[tuple[int, tuple[int, ...]]] = []
    for fact in delta:
        relation_id = relation_ids.get(fact.relation)
        if relation_id is None:
            relation_id = len(relation_ids)
            relation_ids[fact.relation] = relation_id
            new_names.append(fact.relation)
        encoded = []
        for arg in fact.args:
            if is_null(arg):
                encoded.append(encode_null(arg))
            else:
                term_id = TERMS.try_intern(arg)
                if term_id is None:
                    raise KeyError(f"constant {arg!r} was not interned before the fork")
                encoded.append(term_id)
        records.append((relation_id, tuple(encoded)))
    return records, new_names


def parallel_chase(
    database: Instance,
    ontology: Ontology,
    workers: int,
    max_null_depth: int | None = None,
    max_facts: int = 1_000_000,
    max_rounds: int = 10_000,
    codegen: bool | None = None,
) -> ParallelChaseRun:
    """Run the restricted chase across ``workers`` forked processes.

    Semantics match :func:`repro.chase.standard.chase` up to firing order
    and extra same-round firings (see the module docstring); budgets and
    truncation behave identically.  Raises
    :class:`~repro.parallel.pool.ParallelExecutionError` (pool already
    closed) when a worker dies — callers fall back to the sequential
    chase — and :class:`ChaseNotTerminating` on exhausted budgets.
    """
    if codegen is None:
        codegen = codegen_enabled()
    _pre_intern(ontology)
    instance = Instance(database)
    _pre_intern_instance(instance)
    null_depth: dict = {}
    result = ChaseResult(instance, null_depth)
    fresh = instance.null_factory
    compiled = compile_ontology(ontology)
    fired: set[tuple] = set()
    relation_ids: dict[str, int] = {}
    boundary_total = 0

    pool = WorkerPool(workers, WorkerBootstrap(ontology, instance, codegen))
    try:
        delta: list[Fact] | None = None
        fired_last_round: list[tuple] = []
        while True:
            result.rounds += 1
            if result.rounds > max_rounds:
                raise ChaseNotTerminating(f"chase exceeded {max_rounds} rounds")
            payload = {
                "relations": [],
                "fired": fired_last_round,
                "initial": delta is None,
                "facts": None,
            }
            block = None
            if delta:
                records, new_names = _encode_delta(delta, relation_ids)
                payload["relations"] = new_names
                block = SharedFactBlock.create(records)
                payload["facts"] = block.name
                boundary_total += len(delta)
                PARALLEL_STATS.bump("boundary_facts", len(delta))
            try:
                responses = pool.broadcast("chase_round", payload)
            finally:
                if block is not None:
                    block.unlink()
            PARALLEL_STATS.bump("chase_rounds")

            new_facts: list[Fact] = []
            fired_last_round = []

            def fire(tgd_index: int, values: tuple) -> None:
                key = (tgd_index, values)
                if key in fired:
                    return
                frontier_map = dict(
                    zip(compiled.frontier_orders[tgd_index], values)
                )
                # Re-check against the *master* instance: facts fired
                # earlier in this same collection can satisfy the head,
                # exactly as in the sequential round loop.
                if (
                    _head_witness(
                        compiled.head_queries[tgd_index], frontier_map, instance
                    )
                    is not None
                ):
                    return
                trigger_depth = max(
                    (
                        null_depth.get(value, 0) if is_null(value) else 0
                        for value in values
                    ),
                    default=0,
                )
                if max_null_depth is not None and compiled.existentials[tgd_index]:
                    if trigger_depth + 1 > max_null_depth:
                        result.truncated = True
                        return
                fired.add(key)
                fired_last_round.append(key)
                head_map = dict(frontier_map)
                for variable in compiled.existentials[tgd_index]:
                    null = fresh()
                    null_depth[null] = trigger_depth + 1
                    head_map[variable] = null
                for atom in compiled.tgds[tgd_index].head:
                    new_fact = atom.to_fact(head_map)
                    if instance.add(new_fact):
                        new_facts.append(new_fact)
                result.fired_triggers += 1
                if len(instance) > max_facts:
                    raise ChaseNotTerminating(f"chase exceeded {max_facts} facts")

            if delta is None:
                # Empty-body TGDs fire once, in the first round, master-side.
                for tgd_index, body_query in enumerate(compiled.body_queries):
                    if body_query is None:
                        fire(tgd_index, ())
            for response in responses:
                for tgd_index, values in response["proposals"]:
                    fire(tgd_index, tuple(values))
            if not new_facts:
                break
            delta = new_facts
    except BaseException:
        pool.close()
        raise
    return ParallelChaseRun(result=result, pool=pool, boundary_facts=boundary_total)
