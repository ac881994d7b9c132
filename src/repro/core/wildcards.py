"""Wildcard tuples, multi-wildcard tuples and their information orders.

Partial answers (Section 2) use the single wildcard ``*`` for "a value that
must exist but whose identity is unknown"; partial answers with
multi-wildcards use ``*1, *2, ...`` where equal wildcards denote the same
null and distinct wildcards may or may not.  This module provides

* the wildcard value types,
* the preference orders ``⪯`` / ``≺`` on wildcard and multi-wildcard tuples,
* conversion of answer tuples over the chase (which contain labelled nulls)
  into (multi-)wildcard tuples, and
* the *balls* and *cones* of Section 6 used by the multi-wildcard
  enumeration algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from repro.data.terms import is_null


class _SingleWildcard:
    """The single wildcard symbol ``*`` (a process-wide singleton)."""

    _instance: "_SingleWildcard | None" = None

    def __new__(cls) -> "_SingleWildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "*"

    def __reduce__(self):  # keep the singleton under pickling
        return (_SingleWildcard, ())


WILDCARD = _SingleWildcard()


@dataclass(frozen=True, slots=True, order=True)
class Wildcard:
    """A numbered wildcard ``*k`` for multi-wildcard tuples (k >= 1)."""

    index: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"*{self.index}"


def is_wildcard(value: object) -> bool:
    return value is WILDCARD or isinstance(value, Wildcard)


# ---------------------------------------------------------------------------
# Single-wildcard tuples
# ---------------------------------------------------------------------------


def collapse_nulls(answer: Sequence) -> tuple:
    """``ā*_N``: replace every labelled null of an answer tuple by ``*``."""
    return tuple(WILDCARD if is_null(value) else value for value in answer)


def leq_partial(left: Sequence, right: Sequence) -> bool:
    """``left ⪯ right``: ``right`` is obtained by replacing values with ``*``."""
    if len(left) != len(right):
        return False
    return all(r == l or r is WILDCARD for l, r in zip(left, right))


def lt_partial(left: Sequence, right: Sequence) -> bool:
    """``left ≺ right`` (strictly more informative)."""
    return tuple(left) != tuple(right) and leq_partial(left, right)


def minimal_partial_tuples(tuples: Iterable[Sequence]) -> set[tuple]:
    """The ``≺``-minimal elements of a set of wildcard tuples."""
    pool = {tuple(t) for t in tuples}
    return {
        candidate
        for candidate in pool
        if not any(lt_partial(other, candidate) for other in pool if other != candidate)
    }


def wildcard_positions(candidate: Sequence) -> tuple[int, ...]:
    return tuple(i for i, value in enumerate(candidate) if is_wildcard(value))


# ---------------------------------------------------------------------------
# Multi-wildcard tuples
# ---------------------------------------------------------------------------


def collapse_nulls_multi(answer: Sequence) -> tuple:
    """``ā^W_N``: consistently replace nulls by ``*1, *2, ...``.

    Equal nulls receive the same wildcard; wildcards are numbered in order of
    first occurrence, which is the normal form required of multi-wildcard
    tuples.
    """
    mapping: dict[object, Wildcard] = {}
    result = []
    for value in answer:
        if is_null(value):
            if value not in mapping:
                mapping[value] = Wildcard(len(mapping) + 1)
            result.append(mapping[value])
        else:
            result.append(value)
    return tuple(result)


def is_normalized_multi(candidate: Sequence) -> bool:
    """True if wildcard indices appear in first-occurrence order 1, 2, ..."""
    next_expected = 1
    seen: set[int] = set()
    for value in candidate:
        if isinstance(value, Wildcard):
            if value.index in seen:
                continue
            if value.index != next_expected:
                return False
            seen.add(value.index)
            next_expected += 1
    return True


def normalize_multi(candidate: Sequence) -> tuple:
    """Renumber wildcards into first-occurrence order."""
    mapping: dict[int, Wildcard] = {}
    result = []
    for value in candidate:
        if isinstance(value, Wildcard):
            if value.index not in mapping:
                mapping[value.index] = Wildcard(len(mapping) + 1)
            result.append(mapping[value.index])
        else:
            result.append(value)
    return tuple(result)


def leq_multi(left: Sequence, right: Sequence) -> bool:
    """``left ⪯ right`` for multi-wildcard tuples.

    Position-wise, ``right`` either equals ``left`` or carries a wildcard;
    moreover equal wildcards in ``right`` must correspond to equal values in
    ``left`` (wildcard merging only loses information).
    """
    if len(left) != len(right):
        return False
    for l, r in zip(left, right):
        if r == l:
            continue
        if not isinstance(r, Wildcard):
            return False
    groups: dict[Wildcard, object] = {}
    for l, r in zip(left, right):
        if isinstance(r, Wildcard):
            if r in groups and groups[r] != l:
                return False
            groups[r] = l
    return True


def lt_multi(left: Sequence, right: Sequence) -> bool:
    return tuple(left) != tuple(right) and leq_multi(left, right)


def minimal_multi_tuples(tuples: Iterable[Sequence]) -> set[tuple]:
    """The ``≺``-minimal elements of a set of multi-wildcard tuples."""
    pool = {tuple(t) for t in tuples}
    return {
        candidate
        for candidate in pool
        if not any(lt_multi(other, candidate) for other in pool if other != candidate)
    }


def multi_to_single(candidate: Sequence) -> tuple:
    """Collapse every numbered wildcard to the single wildcard ``*``."""
    return tuple(
        WILDCARD if isinstance(value, Wildcard) else value for value in candidate
    )


# ---------------------------------------------------------------------------
# Balls and cones (Section 6)
# ---------------------------------------------------------------------------


def set_partitions(items: Sequence) -> Iterator[list[list]]:
    """All set partitions of ``items`` (the restricted-growth enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for index in range(len(partition)):
            yield partition[:index] + [[first] + partition[index]] + partition[index + 1 :]
        yield [[first]] + partition


def shape_of(candidate: Sequence) -> tuple[tuple, list]:
    """The *shape* of a tuple — constants replaced by the placeholders
    ``0, 1, ...`` in order of first occurrence, wildcards kept — and the
    constants: ``constants[k]`` is the value behind placeholder ``k``."""
    slots: dict[object, int] = {}
    constants: list = []
    shape = []
    for value in candidate:
        if value is WILDCARD or value.__class__ is Wildcard:
            shape.append(value)
            continue
        slot = slots.get(value)
        if slot is None:
            slot = slots[value] = len(constants)
            constants.append(value)
        shape.append(slot)
    return tuple(shape), constants


def _per_shape(definition):
    """Evaluate ``definition`` once per shape (memo: ``.templates``) and
    substitute the constants for the placeholders.  Exact: the definitions
    compare constants only for equality and the renaming is a bijection."""
    templates: dict[tuple, tuple] = {}

    @wraps(definition)
    def per_shape(candidate: Sequence) -> set[tuple]:
        shape, constants = shape_of(candidate)
        found = templates.get(shape)
        if found is None:
            found = templates[shape] = tuple(definition(shape))
        return {tuple([constants[v] if v.__class__ is int else v for v in t]) for t in found}

    per_shape.templates = templates
    return per_shape


@_per_shape
def ball(candidate: Sequence) -> set[tuple]:
    """``B^W(ā*)``: multi-wildcard tuples that collapse to the given
    single-wildcard tuple.

    Each element keeps the constants of ``candidate`` and distributes its
    ``*`` positions over numbered wildcards according to some set partition.
    """
    candidate = tuple(candidate)
    positions = [i for i, value in enumerate(candidate) if value is WILDCARD]
    result: set[tuple] = set()
    for partition in set_partitions(positions):
        draft = list(candidate)
        for group_number, group in enumerate(partition, start=1):
            for position in group:
                draft[position] = Wildcard(group_number)
        result.add(normalize_multi(draft))
    return result


@_per_shape
def cone(candidate: Sequence) -> set[tuple]:
    """``cone^W(ā*)``: the union of the balls of all ``b̄* ⪰ ā*``."""
    candidate = tuple(candidate)
    constant_positions = [
        i for i, value in enumerate(candidate) if value is not WILDCARD
    ]
    result: set[tuple] = set()
    for promote_count in range(len(constant_positions) + 1):
        for promoted in combinations(constant_positions, promote_count):
            weakened = list(candidate)
            for position in promoted:
                weakened[position] = WILDCARD
            result |= ball(weakened)
    return result


@_per_shape
def strictly_less_informative_multi(candidate: Sequence) -> set[tuple]:
    """All normalized multi-wildcard tuples ``b̄`` with ``candidate ≺ b̄``.

    Used by the pruning step of Algorithm 2; the count depends only on the
    tuple length, not on the data.
    """
    candidate = tuple(candidate)
    result: set[tuple] = set()
    single = multi_to_single(candidate)
    for weaker in cone(single):
        if lt_multi(candidate, weaker):
            result.add(weaker)
    return result
