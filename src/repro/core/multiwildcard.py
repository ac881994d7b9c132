"""Algorithm 2: enumeration of minimal partial answers with multi-wildcards.

Theorem 6.1 lifts the single-wildcard enumeration of Section 5 to
multi-wildcards by combining

* the single-wildcard enumerator ``A1`` (:class:`PartialAnswerEnumerator`),
* an all-tester ``A2`` for (not necessarily minimal) partial answers with
  multi-wildcards (:class:`MultiWildcardTester`), and
* the ball / cone machinery of Section 6 with a pruning table that makes
  sure dominated tuples are never emitted.

``A2`` runs on the block relations ``A1`` already reduced (id rows, nulls
kept).  Its constructor reads every row once, groups each block's rows by
*row code* (null positions and their equalities, one int; a row without a
null is code 0) and builds, per block and code, an index on every position
set a plan can bind: the code's non-null positions plus any subset of its
null groups.  Its buckets are tuples of id rows, so the collector untracks
the tables.  A candidate's pattern — constants, repeated head variables
agreeing, wildcard groups — is compiled once into a block order starting at
a bound constant and, per block, the index of its bound positions and row
code.  A test is then a pure probe loop that picks one row per block; equal
wildcards get equal nulls and distinct ones distinct nulls.  A bucket holds
the rows whose other positions are nulls attached to the bound values —
constantly many in a chase-like instance, whose nulls sit in constant-size
trees; the tester records the most rows one test visited.  Memoised state is
data-independent: one plan per pattern, the verdicts of constant-free
patterns (at most Bell(n + 1)), per-shape ball / cone templates.  The walk
runs on id tuples and decodes only what it yields.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Sequence

from repro.data.instance import Database
from repro.data.interning import TERMS
from repro.cq.query import QueryError
from repro.core.omq import OMQ, shared_chase
from repro.core.progress import PartialAnswerEnumerator
from repro.core.wildcards import Wildcard, ball, cone, lt_multi, shape_of


def _row_code(row: tuple, null_flags: bytearray) -> int:
    """Which positions of an id row hold nulls and which of those are equal,
    as one int: digit ``0`` for a non-null, ``k`` for the k-th distinct null."""
    local: dict[int, int] = {}
    code = 0
    for value in row:
        digit = local.setdefault(value, len(local) + 1) if null_flags[value] else 0
        code = code * (len(row) + 1) + digit
    return code


def _bound_positions(code: int, arity: int) -> Iterator[tuple[int, ...]]:
    """The position sets a plan can bind in a row of code ``code``: its
    non-null positions plus any subset of its null groups."""
    digits = [code // (arity + 1) ** (arity - 1 - p) % (arity + 1) for p in range(arity)]
    for chosen in range(1 << max(digits)):
        yield tuple(p for p, d in enumerate(digits) if not d or chosen >> d - 1 & 1)


#: The one index of every (positions, code) pair without rows.
_NO_ROWS: dict[tuple, tuple] = {}


class MultiWildcardTester:
    """``A2``: is a multi-wildcard tuple in ``q(ch)^{W,⪯}_N``?

    True iff some answer over the chase has the given constants at the
    constant positions and nulls at the wildcard positions whose equality
    pattern is exactly the wildcard pattern.
    """

    def __init__(self, single: PartialAnswerEnumerator) -> None:
        self._single = single
        self._head_positions = single.original_query.deduplicated_head()[1]
        self._plans: dict[tuple, list | None] = {}
        # Per block atom, its rows by row code; per (block atom, bound
        # positions, row code) with rows, those rows by their ids there.
        self._codes: dict[object, dict[int, list[tuple]]] = {}
        self._indexes: dict[tuple, dict[tuple, tuple]] = {}
        self._rows = 0
        self.max_rows_per_test = 0
        null_flags = TERMS.null_flags()
        for block in single.reduced.blocks:
            codes = self._codes[block.atom] = {}
            for row in block.relation.tuples:
                code = _row_code(row, null_flags) if any(map(null_flags.__getitem__, row)) else 0
                codes.setdefault(code, []).append(row)
            for code in codes:
                for positions in _bound_positions(code, len(block.variables)):
                    self._index(block.atom, positions, code)

    def test(self, candidate: Sequence) -> bool:
        """Decide a candidate over terms (numbered wildcards and constants)."""
        shape, constants = shape_of(candidate)
        ids = TERMS.try_intern_tuple(constants)
        return ids is not None and self.check(self.plan(shape), ids)

    def plan(self, shape: tuple) -> list | None:
        """The compiled pattern of a shape over the original head."""
        if shape not in self._plans:
            self._plans[shape] = self._compile(shape)
        return self._plans[shape]

    def check(self, plan: list | None, ids: Sequence[int]) -> bool:
        """Decide the candidate given by a plan and its placeholders' ids."""
        if plan is None:
            return False
        steps, constant_count, width, verdict = plan
        if verdict is not None:
            return verdict
        self._rows = 0
        values = [*ids[:constant_count]] + [None] * (width - constant_count)
        verdict = self._search(steps, values, 0)
        self.max_rows_per_test = max(self.max_rows_per_test, self._rows)
        if not constant_count:
            plan[3] = verdict  # at most Bell(n + 1) such patterns
        return verdict

    def _search(self, steps: tuple, values: list, depth: int) -> bool:
        if depth == len(steps):
            return True
        index, slots, used, new = steps[depth]
        bound = values[used]
        for row in index.get(tuple([values[s] for s in slots]), ()):
            self._rows += 1
            if new and any(row[p] in bound for p, _ in new):
                continue  # distinct wildcards denote distinct nulls
            for position, slot in new:
                values[slot] = row[position]
            if self._search(steps, values, depth + 1):
                return True
        return False

    def _compile(self, shape: tuple) -> list | None:
        """``[steps, constant count, width, verdict if constant-free and
        known]``, or ``None`` when repeated head variables disagree."""
        reduced = self._single.reduced
        if reduced.is_empty:
            return None
        value_of: dict = {}
        for position, value in enumerate(shape):
            variable = reduced.head[self._head_positions[position]]
            if value_of.setdefault(variable, value) != value:
                return None
        # The slot in ``values`` of each bound value: placeholder k at k, the
        # null of each wildcard group after the constants, in binding order.
        slot_of: dict = {v: v for v in shape if v.__class__ is int}
        constant_count = width = 1 + max(slot_of, default=-1)
        steps = []
        remaining = list(reduced.blocks)
        while remaining:
            block = max(remaining, key=lambda b: sum(value_of[v] in slot_of for v in b.variables))
            remaining.remove(block)
            variables = block.relation.variables
            before = width
            positions, slots, new, local, code = [], [], [], {}, 0
            for position, variable in enumerate(variables):
                value = value_of[variable]
                if slot_of.get(value, before) < before:
                    positions.append(position)
                    slots.append(slot_of[value])
                elif value not in slot_of:
                    slot_of[value], width = width, width + 1
                    new.append((position, slot_of[value]))
                if value.__class__ is not int:
                    local.setdefault(value, len(local) + 1)
                code = code * (len(variables) + 1) + local.get(value, 0)
            index = self._index(block.atom, tuple(positions), code)
            steps.append((index, tuple(slots), slice(constant_count, before), tuple(new)))
        return [tuple(steps), constant_count, width, None]

    def _index(self, atom, positions: tuple, code: int) -> dict[tuple, tuple]:
        """The rows of ``atom``'s block with row code ``code`` by their ids at
        ``positions``; the constructor builds every one that has rows."""
        index = self._indexes.get((atom, positions, code))
        if index is None:
            rows = self._codes[atom].get(code)
            if not rows:
                return _NO_ROWS
            if not positions:
                keys = [()] * len(rows)
            elif len(positions) == len(rows[0]):
                keys = rows  # distinct rows, each its own key
            else:
                keys = list(zip(*[map(itemgetter(p), rows) for p in positions]))
            # Buckets are tuples of untracked rows, which the collector
            # untracks too: the tables add no work to later collections.
            index = dict(zip(keys, zip(rows)))
            if len(index) < len(rows):  # some rows share a key
                shared: dict[tuple, list[tuple]] = {}
                for key, row in zip(keys, rows):
                    shared.setdefault(key, []).append(row)
                index = {key: tuple(bucket) for key, bucket in shared.items()}
            self._indexes[atom, positions, code] = index
        return index


class MultiWildcardEnumerator:
    """Enumerate ``Q(D)^W`` for an acyclic, free-connex acyclic OMQ.

    The constructor runs the preprocessing; its chase is shared with every
    other live :mod:`repro.core` object over the same database version.
    """

    def __init__(self, omq: OMQ, database: Database, strict: bool = True) -> None:
        if strict and not (omq.is_acyclic() and omq.is_free_connex_acyclic()):
            raise QueryError(
                f"{omq.name} is not acyclic and free-connex acyclic: DelayClin "
                "enumeration of multi-wildcard answers is not guaranteed"
            )
        self.omq = omq
        self.database = database
        self.chase = shared_chase(omq, database)
        self._single = PartialAnswerEnumerator(omq.query, self.chase.instance)
        self.tester = MultiWildcardTester(self._single)
        self._cones: dict[tuple, tuple] = {}

    def is_empty(self) -> bool:
        return self._single.is_empty()

    def _cone_plan(self, shape: tuple) -> tuple:
        """Per single-wildcard shape: the cone members, the same over ints
        (wildcard ``*k`` as ``-k``), their ``A2`` plans, per member the
        strictly less informative members (filled the first time the member
        passes a test), and the ball members fewest wildcards first (a
        linear extension of ``≺``, so the first that passes is minimal)."""
        if shape not in self._cones:
            members = tuple(cone(shape))
            in_ball = ball(shape)
            self._cones[shape] = (
                members,
                [tuple([-v.index if v.__class__ is Wildcard else v for v in m]) for m in members],
                [self.tester.plan(member) for member in members],
                [None] * len(members),
                sorted(
                    (i for i, member in enumerate(members) if member in in_ball),
                    key=lambda i: len(set(members[i]) - set(shape)),
                ),
            )
        return self._cones[shape]

    def enumerate(self) -> Iterator[tuple]:
        """Yield exactly the minimal partial answers with multi-wildcards."""
        decode = TERMS.decoder()
        check = self.tester.check
        marked: set[tuple] = set()
        pending: dict[tuple, None] = {}

        def decoded(candidate: tuple) -> tuple:
            return tuple([decode(v) if v >= 0 else Wildcard(-v) for v in candidate])

        for single_answer in self._single.id_answers():
            shape, ids = shape_of(single_answer)
            patterns, templates, plans, weaker, ball_order = self._cone_plan(shape)
            members = [tuple([ids[v] if v >= 0 else v for v in t]) for t in templates]
            for i, candidate in enumerate(members):
                if candidate in marked:
                    continue
                marked.add(candidate)
                if not check(plans[i], ids):
                    continue
                pending[candidate] = None
                if weaker[i] is None:
                    weaker[i] = [j for j, other in enumerate(patterns) if lt_multi(patterns[i], other)]
                for j in weaker[i]:
                    marked.add(members[j])
                    pending.pop(members[j], None)

            for i in ball_order:
                if check(plans[i], ids):
                    yield decoded(members[i])
                    pending.pop(members[i], None)
                    break

        for candidate in pending:
            yield decoded(candidate)

    def __iter__(self) -> Iterator[tuple]:
        return self.enumerate()


def enumerate_multiwildcard_answers(
    omq: OMQ, database: Database, strict: bool = True
) -> Iterator[tuple]:
    """One-shot helper for ``Q(D)^W``."""
    yield from MultiWildcardEnumerator(omq, database, strict=strict)
