"""Algorithm 2: enumeration of minimal partial answers with multi-wildcards.

Theorem 6.1 lifts the single-wildcard enumeration of Section 5 to
multi-wildcards by combining

* the single-wildcard enumerator ``A1`` (:class:`PartialAnswerEnumerator`),
* an all-tester ``A2`` for (not necessarily minimal) partial answers with
  multi-wildcards, and
* the ball / cone machinery of Section 6 with a pruning table that makes
  sure dominated tuples are never emitted.

Our ``A2`` is a substitute, not the paper's: :class:`MultiWildcardOracle`
answers each distinct test by a homomorphism search over the chase with the
wildcard pattern's equality constraints and memoises the result, where the
paper's appendix algorithm achieves O(1) per test after linear
preprocessing.  The produced answer set is exactly ``Q(D)^W``, but the delay
of this implementation is O(||D||) per answer in the worst case, not the
``DelayC_lin`` of Theorem 6.1.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.data.instance import Database, Instance
from repro.data.terms import is_null
from repro.cq.atoms import Variable
from repro.cq.homomorphism import all_homomorphisms
from repro.cq.query import ConjunctiveQuery, QueryError
from repro.core.omq import OMQ
from repro.core.progress import PartialAnswerEnumerator
from repro.core.wildcards import (
    Wildcard,
    ball,
    cone,
    minimal_multi_tuples,
    strictly_less_informative_multi,
)


class MultiWildcardOracle:
    """Membership tests for (not necessarily minimal) multi-wildcard answers.

    A tuple ``āW`` belongs to ``q(I)^{W,⪯}_N`` iff some homomorphism of the
    query into the chase maps the constant positions to the given constants
    and the wildcard positions to labelled nulls whose equality pattern is
    exactly the wildcard pattern.  Results are memoised so repeated tests of
    the same tuple are O(1).
    """

    def __init__(self, query: ConjunctiveQuery, instance: Instance) -> None:
        self.query = query
        self.instance = instance
        self._cache: dict[tuple, bool] = {}

    def _check(self, candidate: tuple) -> bool:
        partial: dict[Variable, object] = {}
        groups: dict[Wildcard, list[int]] = {}
        for position, value in enumerate(candidate):
            variable = self.query.answer_variables[position]
            if isinstance(value, Wildcard):
                groups.setdefault(value, []).append(position)
            else:
                if variable in partial and partial[variable] != value:
                    return False
                partial[variable] = value
        group_variables: dict[Wildcard, list[Variable]] = {
            wildcard: [self.query.answer_variables[p] for p in positions]
            for wildcard, positions in groups.items()
        }
        for homomorphism in all_homomorphisms(self.query, self.instance, partial):
            values = {}
            consistent = True
            for wildcard, variables in group_variables.items():
                group_values = {homomorphism[v] for v in variables}
                if len(group_values) != 1:
                    consistent = False
                    break
                value = group_values.pop()
                if not is_null(value):
                    consistent = False
                    break
                values[wildcard] = value
            if not consistent:
                continue
            if len(set(values.values())) != len(values):
                continue  # distinct wildcards must denote distinct nulls
            return True
        return False

    def test(self, candidate: Sequence) -> bool:
        candidate = tuple(candidate)
        if candidate not in self._cache:
            self._cache[candidate] = self._check(candidate)
        return self._cache[candidate]


class MultiWildcardEnumerator:
    """Enumerate ``Q(D)^W`` for an acyclic, free-connex acyclic OMQ."""

    def __init__(self, omq: OMQ, database: Database, strict: bool = True) -> None:
        if strict and not (omq.is_acyclic() and omq.is_free_connex_acyclic()):
            raise QueryError(
                f"{omq.name} is not acyclic and free-connex acyclic: DelayClin "
                "enumeration of multi-wildcard answers is not guaranteed"
            )
        self.omq = omq
        self.database = database
        self.chase = omq.chase(database)
        self._single = PartialAnswerEnumerator(omq.query, self.chase.instance)
        self._oracle = MultiWildcardOracle(omq.query, self.chase.instance)

    def is_empty(self) -> bool:
        return self._single.is_empty()

    def enumerate(self) -> Iterator[tuple]:
        """Yield exactly the minimal partial answers with multi-wildcards."""
        marked: set[tuple] = set()
        pending: dict[tuple, None] = {}

        for single_answer in self._single.enumerate():
            cone_members = cone(single_answer)
            admitted = []
            for candidate in sorted(cone_members, key=repr):
                if candidate in marked:
                    continue
                if not self._oracle.test(candidate):
                    marked.add(candidate)
                    continue
                marked.add(candidate)
                pending[candidate] = None
                admitted.append(candidate)
                for dominated in strictly_less_informative_multi(candidate):
                    marked.add(dominated)
                    pending.pop(dominated, None)

            ball_members = [
                candidate
                for candidate in ball(single_answer)
                if self._oracle.test(candidate)
            ]
            chosen = None
            for candidate in sorted(minimal_multi_tuples(ball_members), key=repr):
                chosen = candidate
                break
            if chosen is not None:
                yield chosen
                pending.pop(chosen, None)

        yield from pending

    def __iter__(self) -> Iterator[tuple]:
        return self.enumerate()


def enumerate_multiwildcard_answers(
    omq: OMQ, database: Database, strict: bool = True
) -> Iterator[tuple]:
    """One-shot helper for ``Q(D)^W``."""
    yield from MultiWildcardEnumerator(omq, database, strict=strict)
