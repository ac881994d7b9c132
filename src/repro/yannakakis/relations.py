"""Materialised atom relations used by the acyclic-query algorithms.

An :class:`AtomRelation` stores, for one query atom, the set of variable
assignments induced by the matching facts of an instance.  Assignments are
stored as tuples of dense term ids (:data:`repro.data.interning.TERMS`)
aligned with a fixed variable order; consumers decode ids exactly once, when
an answer is emitted.

The row set is the relation's only representation.  Key projections
(:meth:`AtomRelation.project`), row indexes (:meth:`AtomRelation.index_on`)
and the semi-join filter (:meth:`AtomRelation.filter_by_keys`) read it
directly: key tuples come from ``zip`` over one ``itemgetter`` map per key
position, and the filter is an ``itertools.compress`` over key membership,
so every kernel is a C-level pass that hands back the stored row tuples
rather than copies.  Projections and indexes are cached per variable tuple
and invalidated only when the row set is replaced through
:meth:`AtomRelation.replace_tuples` / :meth:`AtomRelation.clear`, so the full
reducer and the enumeration phase build each hash map once per edge instead
of once per probe.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import compress
from operator import attrgetter, eq, itemgetter
from typing import Iterable, Iterator

from repro.data.instance import Instance
from repro.cq.atoms import Atom, Variable, is_variable

_iargs = attrgetter("iargs")


def _keys(rows: Iterable[tuple], positions: tuple[int, ...]) -> Iterator[tuple]:
    """The key tuples of ``rows`` at (non-empty) ``positions``, in row order."""
    return zip(*[map(itemgetter(p), rows) for p in positions])


class AtomRelation:
    """The assignments of one atom's variables over an instance.

    ``tuples`` exposes the live row set (dense term-id tuples) for reading
    and iteration; mutate it only through :meth:`replace_tuples` /
    :meth:`clear` so the cached projections and indexes stay consistent.
    """

    __slots__ = (
        "atom",
        "variables",
        "_tuples",
        "_var_index",
        "_projections",
        "_indexes",
    )

    def __init__(
        self,
        atom: Atom,
        variables: Iterable[Variable],
        tuples: Iterable[tuple] | None = None,
    ):
        self.atom = atom
        self.variables: tuple[Variable, ...] = tuple(variables)
        self._tuples: set[tuple] = set(tuples) if tuples is not None else set()
        self._var_index = {v: i for i, v in enumerate(self.variables)}
        self._projections: dict[tuple[Variable, ...], set[tuple]] = {}
        self._indexes: dict[tuple[Variable, ...], dict[tuple, list[tuple]]] = {}

    @property
    def tuples(self) -> set[tuple]:
        return self._tuples

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._tuples)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AtomRelation({self.atom!r}, {len(self._tuples)} rows)"

    def is_empty(self) -> bool:
        return not self._tuples

    # -- mutation (invalidates caches) ------------------------------------

    def replace_tuples(self, tuples: Iterable[tuple]) -> None:
        """Swap in a new row set, dropping the cached projections/indexes."""
        self._tuples = set(tuples)
        self._invalidate()

    def clear(self) -> None:
        """Remove every row (and the now-stale caches)."""
        self._tuples.clear()
        self._invalidate()

    def _invalidate(self) -> None:
        self._projections.clear()
        self._indexes.clear()

    # -- cached lookups ----------------------------------------------------

    def positions(self, variables: Iterable[Variable]) -> tuple[int, ...]:
        """Index positions of ``variables`` within this relation's order."""
        return tuple(self._var_index[v] for v in variables)

    def project(self, variables: Iterable[Variable]) -> set[tuple]:
        """The projection of the relation onto ``variables`` (set semantics).

        Built once per variable tuple and cached until the rows change; treat
        the result as read-only.
        """
        variables = tuple(variables)
        cached = self._projections.get(variables)
        if cached is None:
            rows = self._tuples
            if variables:
                cached = set(_keys(rows, self.positions(variables)))
            else:
                cached = {()} if rows else set()
            self._projections[variables] = cached
        return cached

    def index_on(self, variables: Iterable[Variable]) -> dict[tuple, list[tuple]]:
        """A hash index grouping rows by their values on ``variables``.

        Cached per variable tuple until the rows change; treat the result as
        read-only.
        """
        variables = tuple(variables)
        cached = self._indexes.get(variables)
        if cached is None:
            rows = self._tuples
            cached = {}
            if not variables:
                if rows:
                    cached[()] = list(rows)
            else:
                get = cached.get
                for key, row in zip(_keys(rows, self.positions(variables)), rows):
                    bucket = get(key)
                    if bucket is None:
                        cached[key] = [row]
                    else:
                        bucket.append(row)
            self._indexes[variables] = cached
        return cached

    def filter_by_keys(
        self, variables: Iterable[Variable], keys: set[tuple]
    ) -> list[tuple]:
        """The hash semi-join: the rows whose ``variables`` values are in ``keys``."""
        variables = tuple(variables)
        rows = self._tuples
        if not variables:
            return list(rows) if keys else []
        hits = map(keys.__contains__, _keys(rows, self.positions(variables)))
        return list(compress(rows, hits))

    def assignment(self, row: tuple) -> dict[Variable, int]:
        """Turn a stored row back into a variable assignment (over ids)."""
        return dict(zip(self.variables, row))


def atom_relation(atom: Atom, instance: Instance) -> AtomRelation:
    """Materialise the assignments of ``atom`` over ``instance`` as id rows.

    Constants in the atom act as selections and repeated variables as
    equality filters, exactly as in homomorphism matching.  The candidate
    facts are the whole relation for a constant-free atom, and otherwise one
    positional-index probe on the atom's constant positions.  Their
    ``Fact.iargs`` are the rows: a repeated variable filters them, and they
    are projected onto the atom's variables only when the variable order is
    not already the positional one.
    """
    variables = tuple(sorted(atom.variables(), key=lambda v: v.name))
    var_positions: dict[Variable, list[int]] = defaultdict(list)
    constant_positions: list[tuple[int, object]] = []
    for position, term in enumerate(atom.args):
        if is_variable(term):
            var_positions[term].append(position)
        else:
            constant_positions.append((position, term))

    if constant_positions:
        facts = instance.probe(
            atom.relation,
            tuple(p for p, _ in constant_positions),
            tuple(value for _, value in constant_positions),
        )
    else:
        facts = instance.relation(atom.relation)
    arity = atom.arity
    rows = [row for row in map(_iargs, facts) if len(row) == arity]
    for first, *others in var_positions.values():
        for other in others:
            same = map(eq, map(itemgetter(first), rows), map(itemgetter(other), rows))
            rows = list(compress(rows, same))
    projection = tuple(var_positions[v][0] for v in variables)
    if not projection:
        rows = [()] if rows else []
    elif projection != tuple(range(arity)):
        rows = _keys(rows, projection)
    return AtomRelation(atom, variables, rows)
