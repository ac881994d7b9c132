"""CD∘Lin enumeration of complete answers to OMQs (Theorem 4.1(1)).

The preprocessing phase computes the query-directed chase and the reduced
full query of :mod:`repro.enumeration.reduction` (both linear in the data);
the enumeration phase is the constant-delay walk of
:class:`repro.enumeration.cdlin.CDLinEnumerator`, restricted to answers over
database constants.

The chase comes from :func:`repro.core.omq.shared_chase`, so it is shared
with every other live :mod:`repro.core` object over the same database
version.  :class:`repro.engine.QueryEngine` amortizes both phases across
evaluations on its own path.
"""

from __future__ import annotations

from typing import Iterator

from repro.data.instance import Database
from repro.cq.query import QueryError
from repro.core.omq import OMQ, shared_chase
from repro.enumeration.cdlin import CDLinEnumerator


class CompleteAnswerEnumerator:
    """Two-phase enumerator for the complete answers of an OMQ.

    The constructor runs the preprocessing; its chase is shared with every
    other live :mod:`repro.core` object over the same database version.
    """

    def __init__(self, omq: OMQ, database: Database, strict: bool = True) -> None:
        if strict and not (omq.is_acyclic() and omq.is_free_connex_acyclic()):
            raise QueryError(
                f"{omq.name} is not acyclic and free-connex acyclic: CD∘Lin "
                "enumeration is not guaranteed (Theorems 4.3 and 4.4)"
            )
        self.omq = omq
        self.database = database
        self.chase = shared_chase(omq, database)
        self._enumerator = CDLinEnumerator(omq.query, self.chase.instance, keep_nulls=False)

    def is_empty(self) -> bool:
        return self._enumerator.is_empty()

    def enumerate(self) -> Iterator[tuple]:
        """Yield every complete answer exactly once."""
        yield from self._enumerator.enumerate()

    def __iter__(self) -> Iterator[tuple]:
        return self.enumerate()

    def count(self) -> int:
        return sum(1 for _ in self.enumerate())


def enumerate_complete_answers(
    omq: OMQ, database: Database, strict: bool = True
) -> Iterator[tuple]:
    """One-shot helper: preprocess and enumerate ``Q(D)``."""
    yield from CompleteAnswerEnumerator(omq, database, strict=strict)
