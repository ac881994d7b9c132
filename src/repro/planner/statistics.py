"""Per-relation statistics collected on the columnar stores.

The cost model of :mod:`repro.planner.cost` consumes three numbers per
``(relation, arity)`` pair: the cardinality, and per position the number of
distinct values (whose inverse is the classical key selectivity).  They come
from one pass over the cached :class:`~repro.data.columns.ColumnarRelation`
columns (a ``set`` over an ``array('q')`` — C-speed).

Collection is lazy and cached *on the instance* keyed by its mutation
version (:func:`statistics_for`): the first plan decision after a version
bump re-collects, every later decision on the same version is a dict hit.
This deliberately piggybacks on the existing invalidation machinery — the
version counter that already drives materialization staleness — instead of
adding a second one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.data.instance import Instance

__all__ = [
    "InstanceStatistics",
    "RelationStatistics",
    "collect_statistics",
    "statistics_for",
]

#: The attribute statistics are cached under on the instance (keyed by
#: version inside the snapshot, so staleness is one integer comparison).
_CACHE_ATTRIBUTE = "_planner_statistics"


@dataclass(frozen=True)
class RelationStatistics:
    """Cardinality and per-position distinct counts of one stored relation."""

    relation: str
    arity: int
    cardinality: int
    #: Distinct values per position, aligned with the columns.
    distinct: tuple[int, ...]

    def distinct_at(self, position: int) -> int:
        """Distinct values at ``position`` (at least 1 on a non-empty relation)."""
        if position >= len(self.distinct):
            return max(1, self.cardinality)
        return max(1, self.distinct[position])

    def selectivity(self, position: int) -> float:
        """The textbook equality selectivity ``1 / distinct`` at ``position``."""
        return 1.0 / self.distinct_at(position)


@dataclass(frozen=True)
class InstanceStatistics:
    """One consistent statistics snapshot of an instance at a version."""

    version: int
    total_facts: int
    relations: Mapping[tuple[str, int], RelationStatistics]

    def get(self, relation: str, arity: int) -> RelationStatistics | None:
        """The statistics of ``relation``/``arity``, or ``None`` if absent."""
        return self.relations.get((relation, arity))

    def cardinality(self, relation: str, arity: int) -> int:
        """The stored cardinality of ``relation``/``arity`` (0 if absent)."""
        stats = self.relations.get((relation, arity))
        return stats.cardinality if stats is not None else 0


def collect_statistics(instance: Instance) -> InstanceStatistics:
    """One statistics pass over every stored relation of ``instance``."""
    per_relation: dict[tuple[str, int], RelationStatistics] = {}
    for name in sorted(instance.relations()):
        facts = instance.relation(name)
        counts: dict[int, int] = {}
        for fact in facts:
            counts[fact.arity] = counts.get(fact.arity, 0) + 1
        for arity, cardinality in sorted(counts.items()):
            store = instance.columnar(name, arity)
            distinct = tuple(len(set(column)) for column in store.columns)
            per_relation[(name, arity)] = RelationStatistics(
                relation=name,
                arity=arity,
                cardinality=cardinality,
                distinct=distinct,
            )
    return InstanceStatistics(
        version=instance.version,
        total_facts=len(instance),
        relations=per_relation,
    )


def statistics_for(instance: Instance) -> InstanceStatistics:
    """The statistics of ``instance``, collected once per mutation version.

    The snapshot is stashed on the instance itself and compared against the
    live version counter on every read, so a mutated instance transparently
    re-collects on its next plan decision and an unchanged one pays a
    single attribute load plus an integer comparison.
    """
    cached: InstanceStatistics | None = getattr(instance, _CACHE_ATTRIBUTE, None)
    if cached is not None and cached.version == instance.version:
        return cached
    statistics = collect_statistics(instance)
    setattr(instance, _CACHE_ATTRIBUTE, statistics)
    return statistics
