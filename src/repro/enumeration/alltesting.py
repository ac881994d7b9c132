"""CD∘Lin all-testing for free-connex acyclic CQs (Proposition 4.2).

The query need not be acyclic: only ``q⁺`` must have a join tree.  The
preprocessing phase decomposes the query into components, materialises each
component's projection onto its answer variables (linear time via semi-join
reduction towards the component root) and stores it as a hash set of dense
term-id rows.  A test then dictionary-encodes the candidate once and checks,
in time independent of the data, that its projection belongs to every
component set.
"""

from __future__ import annotations

from typing import Sequence

from repro.data.instance import Instance
from repro.data.interning import TERMS
from repro.cq.query import ConjunctiveQuery, QueryError
from repro.yannakakis.decomposition import decompose_free_connex
from repro.enumeration.reduction import component_projection


class FreeConnexAllTester:
    """All-testing of complete answers after linear-time preprocessing."""

    def __init__(self, query: ConjunctiveQuery, instance: Instance) -> None:
        self.original_query = query
        self.deduplicated, self._head_positions = query.deduplicated_head()
        self._dedup_index = {
            variable: position
            for position, variable in enumerate(self.deduplicated.answer_variables)
        }
        decomposition = decompose_free_connex(self.deduplicated)
        self._empty = False
        self._component_sets: list[tuple[tuple[int, ...], set[tuple]]] = []
        for component in decomposition.components:
            projection = component_projection(component, instance, keep_nulls=False)
            if projection is None:
                self._empty = True
                self._component_sets = []
                return
            if not component.answer_variables:
                continue
            positions = tuple(
                self._dedup_index[v] for v in component.answer_variables
            )
            self._component_sets.append((positions, projection))

    def is_empty(self) -> bool:
        """True when the query has no answers at all on this instance."""
        return self._empty

    def test(self, answer: Sequence) -> bool:
        """Decide ``answer ∈ q(D)`` in time independent of the data."""
        if len(answer) != self.original_query.arity:
            raise QueryError(
                f"answer has length {len(answer)}, query arity is "
                f"{self.original_query.arity}"
            )
        if self._empty:
            return False
        # Consistency of repeated head variables.
        reduced: list[object] = [None] * len(self.deduplicated.answer_variables)
        filled = [False] * len(reduced)
        for original_position, value in enumerate(answer):
            target = self._head_positions[original_position]
            if filled[target] and reduced[target] != value:
                return False
            reduced[target] = value
            filled[target] = True
        # A term no fact ever mentioned has no id and cannot be an answer;
        # a null has one, but the component sets hold null-free rows only
        # and every head position lies in some component.
        ids = TERMS.try_intern_tuple(reduced)
        if ids is None:
            return False
        for positions, component_set in self._component_sets:
            if tuple(ids[p] for p in positions) not in component_set:
                return False
        return True

    def __call__(self, answer: Sequence) -> bool:
        return self.test(answer)
