"""Prepared queries: the data-independent compilation of an OMQ.

``prepare_query`` runs everything that depends only on the ontology and the
query — parsing/normalization (head deduplication), the acyclicity and
free-connex verdicts, the free-connex decomposition, and the
ontology-specific chase program (the truncation depth of the query-directed
chase).  A :class:`PreparedQuery` can then be executed against any number of
databases with only the data-dependent work (chase + reduction) left to do;
the engine caches these plans in an LRU keyed by fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chase.query_directed import default_null_depth
from repro.cq.acyclicity import is_weakly_acyclic
from repro.cq.query import ConjunctiveQuery, QueryError
from repro.core.omq import OMQ
from repro.engine.codegen import PlanCodegen
from repro.engine.fingerprint import ontology_fingerprint, query_fingerprint
from repro.tgds.ontology import Ontology
from repro.yannakakis.decomposition import FreeConnexDecomposition, decompose_free_connex


@dataclass(eq=False)
class PreparedQuery:
    """A reusable compiled plan for one ``(ontology, query)`` pair."""

    omq: OMQ
    ontology_fingerprint: str
    query_fingerprint: str
    is_acyclic: bool
    is_weakly_acyclic: bool
    is_free_connex_acyclic: bool
    decomposition: FreeConnexDecomposition | None
    null_depth: int
    strict: bool = True
    # The plan's compiled closures live *on the plan*, next to the
    # decomposition: evicting the plan-cache entry drops the last strong
    # reference and the generated code objects with it, so the codegen
    # cache can never outlive its PreparedQuery (no growth under
    # fingerprint churn).
    codegen: PlanCodegen = field(default_factory=PlanCodegen, repr=False)

    @property
    def cache_key(self) -> tuple[str, str]:
        """The plan-cache key: (ontology fingerprint, query fingerprint)."""
        return (self.ontology_fingerprint, self.query_fingerprint)

    @property
    def supports_enumeration(self) -> bool:
        """True if CD∘Lin constant-delay enumeration is guaranteed."""
        return self.is_acyclic and self.is_free_connex_acyclic

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PreparedQuery({self.omq.query.name}/{self.omq.arity}, "
            f"acyclic={self.is_acyclic}, "
            f"free_connex={self.is_free_connex_acyclic}, "
            f"null_depth={self.null_depth})"
        )


def prepare_query(
    ontology: Ontology,
    query: ConjunctiveQuery,
    strict: bool = True,
    name: str = "Q",
) -> PreparedQuery:
    """Compile ``(ontology, query)`` into a :class:`PreparedQuery`.

    With ``strict`` (the default), queries outside the acyclic ∧ free-connex
    class — where constant-delay enumeration is not guaranteed (Theorems 4.3
    and 4.4) — are rejected with :class:`QueryError`.
    """
    omq = OMQ.from_parts(ontology, query, name=name)
    acyclic = omq.is_acyclic()
    free_connex = omq.is_free_connex_acyclic()
    if strict and not (acyclic and free_connex):
        raise QueryError(
            f"{omq.name} is not acyclic and free-connex acyclic: CD∘Lin "
            "enumeration is not guaranteed (Theorems 4.3 and 4.4)"
        )
    decomposition = (
        decompose_free_connex(query.deduplicated_head()[0])
        if acyclic and free_connex
        else None
    )
    return PreparedQuery(
        omq=omq,
        ontology_fingerprint=ontology_fingerprint(ontology),
        query_fingerprint=query_fingerprint(query),
        is_acyclic=acyclic,
        is_weakly_acyclic=is_weakly_acyclic(query),
        is_free_connex_acyclic=free_connex,
        decomposition=decomposition,
        null_depth=default_null_depth(ontology, query),
        strict=strict,
    )
