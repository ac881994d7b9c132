"""Columnar storage and kernels for interned (dense-int) relations.

A :class:`ColumnarRelation` stores one relation as parallel ``array('q')``
columns of term ids — the layout the litmus-style engines use to make the
paper's O(1) tuple operations cheap in practice.  The kernels below are the
building blocks of the hot paths:

* :meth:`ColumnarRelation.project` / :meth:`ColumnarRelation.index_on` —
  the key-projection sets and positional row indexes the full reducer and
  the enumeration phase consume;
* :meth:`ColumnarRelation.filter_by_keys` — the hash semi-join kernel
  (keep the rows whose key projection hits a key set), the one semi-join
  kernel of the reducer.

``index_on`` and ``filter_by_keys`` run the key-arity-specialised kernels of
:func:`repro.engine.codegen.key_kernels`; keys wider than
:data:`repro.engine.codegen.MAX_KERNEL_ARITY` take the generic loops below.

Rows are plain ``tuple``\\ s of ids at the API boundary (they interoperate
with the set-based :class:`~repro.yannakakis.relations.AtomRelation`
machinery).  A relation keeps the row tuples it was filled from next to the
columns: the columns give the kernels their keys at ``zip``'s C-level speed,
and the kept rows are what the kernels hand back — the caller's own tuples
and ``int`` objects, not fresh copies materialised from the columns, so each
id object is paid for once however many projections and indexes follow.
"""

from __future__ import annotations

from array import array
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

__all__ = ["ColumnarRelation"]

#: Resolved lazily: :mod:`repro.engine.codegen` sits in a higher layer, so
#: importing it at module load would invert the package layering.
_key_kernels = None


def _kernels(arity: int):
    """The arity-specialised kernel family, or ``None`` (generic path)."""
    global _key_kernels
    if _key_kernels is None:
        from repro.engine.codegen import key_kernels

        _key_kernels = key_kernels
    return _key_kernels(arity)


class ColumnarRelation:
    """A relation of ``arity`` columns of interned ids (``array('q')``)."""

    __slots__ = ("arity", "columns", "_rows")

    def __init__(self, arity: int, rows: Iterable[Sequence[int]] | None = None):
        self.arity = arity
        self.columns: list[array] = [array("q") for _ in range(arity)]
        self._rows: list[Sequence[int]] = []
        if rows is not None:
            self.extend(rows)

    # -- construction ------------------------------------------------------

    def append(self, row: Sequence[int]) -> None:
        self.extend((row,))

    def extend(self, rows: Iterable[Sequence[int]]) -> None:
        start = len(self._rows)
        self._rows.extend(rows)
        for position, column in enumerate(self.columns):
            column.extend(map(itemgetter(position), islice(self._rows, start, None)))

    # -- row access --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def row(self, index: int) -> tuple:
        return tuple(column[index] for column in self.columns)

    def column(self, position: int) -> array:
        return self.columns[position]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnarRelation(arity={self.arity}, {len(self)} rows)"

    # -- kernels -----------------------------------------------------------

    def _key_iter(self, positions: tuple[int, ...]) -> Iterator[tuple]:
        """Iterate the key tuples at ``positions`` (sharing the rows' ids)."""
        return zip(*(map(itemgetter(p), self._rows) for p in positions))

    def project(self, positions: Sequence[int]) -> set[tuple]:
        """The set of key tuples at ``positions`` (set semantics)."""
        positions = tuple(positions)
        if not positions:
            return {()} if self._rows else set()
        return set(self._key_iter(positions))

    def project_with_equalities(
        self,
        positions: Sequence[int],
        equal_groups: Sequence[Sequence[int]] = (),
    ) -> set[tuple]:
        """Project onto ``positions`` keeping only rows whose ``equal_groups``
        positions carry pairwise equal values (repeated-variable filters)."""
        groups = [tuple(group) for group in equal_groups if len(group) > 1]
        if not groups:
            return self.project(positions)
        positions = tuple(positions)
        columns = self.columns
        out: set[tuple] = set()
        group_columns = [[columns[p] for p in group] for group in groups]
        key_columns = [columns[p] for p in positions]
        for index in range(len(self)):
            consistent = True
            for cols in group_columns:
                first = cols[0][index]
                if any(col[index] != first for col in cols[1:]):
                    consistent = False
                    break
            if consistent:
                out.add(tuple(col[index] for col in key_columns))
        return out

    def index_on(self, positions: Sequence[int]) -> dict[tuple, list[tuple]]:
        """Group full rows by their key tuple at ``positions``."""
        positions = tuple(positions)
        index: dict[tuple, list[tuple]] = {}
        if not positions:
            if self._rows:
                index[()] = list(self)
            return index
        kernels = _kernels(len(positions))
        if kernels is not None:
            columns = self.columns
            return kernels.index_rows([columns[p] for p in positions], self)
        for key, row in zip(self._key_iter(positions), self):
            bucket = index.get(key)
            if bucket is None:
                index[key] = [row]
            else:
                bucket.append(row)
        return index

    def filter_by_keys(
        self, positions: Sequence[int], keys: set[tuple]
    ) -> list[tuple]:
        """Hash semi-join kernel: the rows whose key projection is in ``keys``."""
        positions = tuple(positions)
        if not positions:
            return list(self) if keys else []
        kernels = _kernels(len(positions))
        if kernels is not None:
            columns = self.columns
            return kernels.filter_rows([columns[p] for p in positions], self, keys)
        return [
            row
            for key, row in zip(self._key_iter(positions), self)
            if key in keys
        ]
