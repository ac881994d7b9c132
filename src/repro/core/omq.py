"""Ontology-mediated queries ``Q = (O, S, q)`` and their evaluation modes.

An OMQ pairs an ontology with a data schema and a conjunctive query.  The
structural properties (acyclic, weakly acyclic, free-connex acyclic,
self-join free, ...) are those of the CQ, lifted to the OMQ as in the paper.
Evaluation always goes through the query-directed chase: ``Q(D)`` is the set
of answers of ``q`` on ``ch^q_O(D)`` that use only database constants
(Lemma 3.2).  The OMQ itself only builds that chase; the enumerators of
:mod:`repro.core` evaluate it, and
:func:`repro.baselines.naive.naive_certain_answers` is the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.instance import Database
from repro.data.schema import Schema
from repro.chase.query_directed import QueryDirectedChase, query_directed_chase
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

    def chase(
        self,
        database: Database,
        null_depth: int | None = None,
        reuse: QueryDirectedChase | None = None,
    ) -> QueryDirectedChase:
        """The query-directed chase ``ch^q_O(D)``.

        ``reuse`` may hold a current, at-least-as-deep chase of the same
        database and ontology to share instead of recomputing.
        """
        return query_directed_chase(
            database, self.ontology, self.query, null_depth=null_depth, reuse=reuse
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OMQ({self.name}: {len(self.ontology)} TGDs, "
            f"query {self.query.name}/{self.arity})"
        )
