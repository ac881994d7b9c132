"""The query-directed chase ``ch^q_O(D)`` (Section 3, Proposition 3.3).

For a guarded ontology the full chase may be infinite, but evaluating a fixed
CQ ``q`` only ever inspects a bounded-radius neighbourhood of the database
part: every homomorphic "excursion" of ``q`` into the null part uses at most
``|var(q)|`` variables and therefore stays within distance ``|var(q)|`` of
the guarded set at which it crosses the boundary.  The query-directed chase
is the restricted chase truncated at a null depth that covers every such
excursion plus the ontology's own head growth; by Lemma 3.2 it supports
complete answers, minimal partial answers and minimal partial answers with
multi-wildcards of the OMQ.

The resulting instance is *chase-like* (Lemma C.3): the database part plus
constant-size trees of nulls grafted onto guarded sets.  The
:class:`QueryDirectedChase` wrapper exposes that decomposition because the
enumeration algorithms of Sections 5 and 6 rely on it.

The underlying run delegates to :func:`repro.chase.standard.chase` and is
therefore semi-naive (delta-driven) over the instance's positional indexes:
after the first round, trigger candidates are only matched against facts
added in the previous round.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.instance import Database, Instance
from repro.data.terms import Null
from repro.chase.standard import ChaseRecorder, ChaseResult, chase
from repro.cq.query import ConjunctiveQuery
from repro.tgds.ontology import Ontology


def default_null_depth(ontology: Ontology, query: ConjunctiveQuery) -> int:
    """The default truncation depth for the query-directed chase.

    ``|var(q)|`` levels cover every excursion of the query into the null
    part; the additive ontology term covers chains of TGD firings that are
    needed to *derive* facts over database constants or to complete a tree
    pattern that a query excursion inspects.
    """
    query_radius = max(1, len(query.variables()))
    ontology_radius = len(ontology) * max(1, ontology.max_head_radius())
    return query_radius + ontology_radius + 1


@dataclass
class QueryDirectedChase:
    """The query-directed chase together with its decomposition.

    ``database_version`` snapshots ``database.version`` at chase time, so
    callers that cache a chase (notably :class:`repro.engine.QueryEngine`)
    can detect later database mutations and invalidate.
    """

    database: Database
    ontology: Ontology
    query: ConjunctiveQuery
    result: ChaseResult
    null_depth_bound: int
    database_version: int = -1

    @property
    def instance(self) -> Instance:
        return self.result.instance

    def is_current(self) -> bool:
        """True while the underlying database has not mutated since the run."""
        return self.database_version == self.database.version

    def database_constants(self) -> frozenset:
        """The constants of the live database (computed on demand)."""
        return frozenset(self.database.constants())

    def nulls(self) -> set[Null]:
        return self.result.nulls()

    def blocks(self) -> list[tuple[set[Null], set]]:
        """The witnesses of the chase-like decomposition (Lemma C.3)."""
        return self.result.null_blocks()

    def size(self) -> int:
        return self.instance.size()


def query_directed_chase(
    database: Database,
    ontology: Ontology,
    query: ConjunctiveQuery,
    null_depth: int | None = None,
    max_facts: int = 5_000_000,
    reuse: QueryDirectedChase | None = None,
    recorder: ChaseRecorder | None = None,
) -> QueryDirectedChase:
    """Compute ``ch^q_O(D)`` for the given database, ontology and query.

    When ``reuse`` holds a previous run over the *same* database and ontology
    that is still current and at least as deep as ``query`` requires, the
    chased instance is shared instead of recomputed — this is the
    preprocessing/enumeration split the engine relies on.  The returned
    wrapper still carries the new query.  ``recorder`` observes the
    underlying run for provenance capture (ignored on the reuse path, where
    no run happens).
    """
    depth = null_depth if null_depth is not None else default_null_depth(ontology, query)
    if (
        reuse is not None
        and reuse.database is database
        and reuse.ontology == ontology
        and reuse.is_current()
        and reuse.null_depth_bound >= depth
    ):
        return QueryDirectedChase(
            database=database,
            ontology=ontology,
            query=query,
            result=reuse.result,
            null_depth_bound=reuse.null_depth_bound,
            database_version=reuse.database_version,
        )
    snapshot = database.version
    result = chase(
        database,
        ontology,
        max_null_depth=depth,
        max_facts=max_facts,
        recorder=recorder,
    )
    return QueryDirectedChase(
        database=database,
        ontology=ontology,
        query=query,
        result=result,
        null_depth_bound=depth,
        database_version=snapshot,
    )
