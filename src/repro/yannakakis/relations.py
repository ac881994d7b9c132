"""Materialised atom relations used by the acyclic-query algorithms.

An :class:`AtomRelation` stores, for one query atom, the set of variable
assignments induced by the matching facts of an instance.  Assignments are
stored as tuples of dense term ids (:data:`repro.data.interning.TERMS`)
aligned with a fixed variable order; consumers decode ids exactly once, when
an answer is emitted.

Key-projection hash maps (:meth:`AtomRelation.project`) and row indexes
(:meth:`AtomRelation.index_on`) are cached per variable tuple and invalidated
only when the tuple set is replaced through :meth:`AtomRelation.replace_tuples`
/ :meth:`AtomRelation.clear`, so the full reducer and the enumeration phase
build each hash map once per edge instead of once per probe.

Every relation keeps a lazily built columnar backing
(:class:`~repro.data.columns.ColumnarRelation`); projections, row indexes
and semi-join filters run as columnar kernels over ``array('q')`` columns.
:func:`atom_relation` builds the rows straight from the instance's columnar
store when the atom is constant-free, skipping the per-``Fact`` object walk
entirely.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from repro.data.columns import ColumnarRelation
from repro.data.instance import Instance
from repro.cq.atoms import Atom, Variable, is_variable


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
        "_columns",
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
        self._columns: ColumnarRelation | None = None

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

    def copy(self) -> "AtomRelation":
        return AtomRelation(self.atom, self.variables, set(self._tuples))

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
        self._columns = None

    # -- columnar backing --------------------------------------------------

    def columns(self) -> ColumnarRelation:
        """The rows as parallel ``array('q')`` columns.

        Built lazily from the current row set and cached until the rows are
        replaced; the projection/index kernels below run over it.
        """
        store = self._columns
        if store is None:
            store = ColumnarRelation(len(self.variables), self._tuples)
            self._columns = store
        return store

    # -- cached lookups ----------------------------------------------------

    def positions(self, variables: Iterable[Variable]) -> tuple[int, ...]:
        """Index positions of ``variables`` within this relation's order."""
        return tuple(self._var_index[v] for v in variables)

    def project(self, variables: Iterable[Variable]) -> set[tuple]:
        """The projection of the relation onto ``variables`` (set semantics).

        Built once per variable tuple and cached until the rows change; treat
        the result as read-only.  Projects by zipping the backing key columns
        (one C-level pass, no row objects).
        """
        variables = tuple(variables)
        cached = self._projections.get(variables)
        if cached is None:
            cached = self.columns().project(self.positions(variables))
            self._projections[variables] = cached
        return cached

    def index_on(self, variables: Iterable[Variable]) -> dict[tuple, list[tuple]]:
        """A hash index grouping rows by their values on ``variables``.

        Cached per variable tuple until the rows change; treat the result as
        read-only.  Groups over the backing columns.
        """
        variables = tuple(variables)
        cached = self._indexes.get(variables)
        if cached is None:
            cached = self.columns().index_on(self.positions(variables))
            self._indexes[variables] = cached
        return cached

    def assignment(self, row: tuple) -> dict[Variable, int]:
        """Turn a stored row back into a variable assignment (over ids)."""
        return dict(zip(self.variables, row))


def atom_relation(atom: Atom, instance: Instance) -> AtomRelation:
    """Materialise the assignments of ``atom`` over ``instance`` as id rows.

    Constants in the atom act as selections and repeated variables as
    equality filters, exactly as in homomorphism matching.  The matching
    A constant-free atom is materialised by a single projection kernel over
    the instance's columnar store; an atom with constants fetches the
    matching facts with one positional-index probe on its constant positions
    and walks the bucket reading ``Fact.iargs``.
    """
    variables = tuple(sorted(atom.variables(), key=lambda v: v.name))
    var_positions: dict[Variable, list[int]] = defaultdict(list)
    constant_positions: list[tuple[int, object]] = []
    for position, term in enumerate(atom.args):
        if is_variable(term):
            var_positions[term].append(position)
        else:
            constant_positions.append((position, term))

    if not constant_positions:
        # Constant-free atom: one columnar kernel.
        store = instance.columnar(atom.relation, atom.arity)
        projection = tuple(var_positions[v][0] for v in variables)
        equal_groups = tuple(
            tuple(positions)
            for positions in var_positions.values()
            if len(positions) > 1
        )
        rows = store.project_with_equalities(projection, equal_groups)
        return AtomRelation(atom, variables, rows)

    probe_positions = tuple(p for p, _ in constant_positions)
    probe_key = tuple(value for _, value in constant_positions)
    rows: set[tuple] = set()
    for fact in instance.probe(atom.relation, probe_positions, probe_key):
        if fact.arity != atom.arity:
            continue
        args = fact.iargs
        row = []
        consistent = True
        for variable in variables:
            positions = var_positions[variable]
            value = args[positions[0]]
            if any(args[p] != value for p in positions[1:]):
                consistent = False
                break
            row.append(value)
        if consistent:
            rows.add(tuple(row))
    return AtomRelation(atom, variables, rows)
