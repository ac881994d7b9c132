"""Ontology-mediated queries ``Q = (O, S, q)`` and their evaluation modes.

An OMQ pairs an ontology with a data schema and a conjunctive query.  The
structural properties (acyclic, weakly acyclic, free-connex acyclic,
self-join free, ...) are those of the CQ, lifted to the OMQ as in the paper.
Evaluation always goes through the query-directed chase: ``Q(D)`` is the set
of answers of ``q`` on ``ch^q_O(D)`` that use only database constants
(Lemma 3.2).  The OMQ itself only builds that chase; the enumerators of
:mod:`repro.core` evaluate it, and
:func:`repro.baselines.naive.naive_certain_answers` is the reference.

That chase depends on D, O and the null depth, not on the answer notion, so
the :mod:`repro.core` constructors take it from :func:`shared_chase`: every
object built over one database version while another holds its chase reads
the same run.  :meth:`OMQ.chase` always runs afresh.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.instance import Database
from repro.data.schema import Schema
from repro.chase.query_directed import (
    QueryDirectedChase,
    default_null_depth,
    query_directed_chase,
)
from repro.cq.acyclicity import (
    is_acyclic,
    is_free_connex_acyclic,
    is_weakly_acyclic,
)
from repro.cq.query import ConjunctiveQuery
from repro.tgds.ontology import Ontology


@dataclass(frozen=True)
class OMQ:
    """An ontology-mediated query ``(O, S, q)``."""

    ontology: Ontology
    data_schema: Schema
    query: ConjunctiveQuery
    name: str = "Q"

    @classmethod
    def from_parts(
        cls,
        ontology: Ontology,
        query: ConjunctiveQuery,
        data_schema: Schema | None = None,
        name: str = "Q",
    ) -> "OMQ":
        """Build an OMQ; the data schema defaults to every symbol of O and q."""
        if data_schema is None:
            data_schema = ontology.schema().union(query.schema())
        return cls(ontology=ontology, data_schema=data_schema, query=query, name=name)

    # -- lifted structural properties -------------------------------------

    @property
    def arity(self) -> int:
        return self.query.arity

    def is_acyclic(self) -> bool:
        return is_acyclic(self.query)

    def is_weakly_acyclic(self) -> bool:
        return is_weakly_acyclic(self.query)

    def is_free_connex_acyclic(self) -> bool:
        return is_free_connex_acyclic(self.query)

    def is_self_join_free(self) -> bool:
        return self.query.is_self_join_free()

    def is_guarded(self) -> bool:
        return self.ontology.is_guarded()

    def is_eli(self) -> bool:
        return self.ontology.is_eli()

    def validate_database(self, database: Database) -> None:
        """Check that every fact of the database conforms to the data schema."""
        for fact in database:
            self.data_schema.validate_fact(fact)

    # -- evaluation ---------------------------------------------------------

    def chase(self, database: Database, null_depth: int | None = None) -> QueryDirectedChase:
        """A fresh run of the query-directed chase ``ch^q_O(D)``."""
        return query_directed_chase(database, self.ontology, self.query, null_depth=null_depth)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OMQ({self.name}: {len(self.ontology)} TGDs, "
            f"query {self.query.name}/{self.arity})"
        )


def shared_chase(omq: OMQ, database: Database) -> QueryDirectedChase:
    """``ch^q_O(D)`` at the OMQ's default depth, shared while someone holds it.

    The run is memoised weakly on the database (``Database.chase_memo``),
    keyed by the ontology, the null depth and ``database.version``: a second
    object built over the same version while the first is alive reads the
    same :class:`~repro.chase.standard.ChaseResult`, and the memo keeps
    nothing alive by itself.  Each caller gets its own wrapper carrying its
    own query.  The depth must match exactly: ``default_null_depth`` is not
    sound on every ELI ontology, so a deeper run may hold answers that this
    OMQ's own bound misses, and reusing it would make the answers depend on
    which object was built first.  Holders must not mutate the instance.
    Two threads that miss at once both chase; either run is correct.
    """
    ontology, version = omq.ontology, database.version
    depth = default_null_depth(ontology, omq.query)
    key = (ontology, depth, version)
    memo = database.chase_memo
    result = memo.get(key)
    if result is None:
        chased = query_directed_chase(database, ontology, omq.query, null_depth=depth)
        memo[key] = chased.result
        return chased
    return QueryDirectedChase(
        database=database,
        ontology=ontology,
        query=omq.query,
        result=result,
        null_depth_bound=depth,
        database_version=version,
    )
