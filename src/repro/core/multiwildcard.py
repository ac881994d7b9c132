"""Algorithm 2: enumeration of minimal partial answers with multi-wildcards.

Theorem 6.1 lifts the single-wildcard enumeration of Section 5 to
multi-wildcards by combining

* the single-wildcard enumerator ``A1`` (:class:`PartialAnswerEnumerator`),
* an all-tester ``A2`` for (not necessarily minimal) partial answers with
  multi-wildcards (:class:`MultiWildcardTester`), and
* the ball / cone machinery of Section 6 with a pruning table that makes
  sure dominated tuples are never emitted.

``A2`` runs on the block relations ``A1`` already reduced (id rows, nulls
kept).  A candidate's pattern — constants, repeated head variables agreeing,
wildcard groups — is compiled once into a block order starting at a bound
constant and, per block, its bound positions and the *row code* (null
positions and their equalities) a row must have.  A test picks one row per
block from its rows with that code, indexed by the bound ids; equal
wildcards get equal nulls and distinct ones distinct nulls.  A bucket holds
the rows whose other positions are nulls attached to the bound values —
constantly many in a chase-like instance, whose nulls sit in constant-size
trees; the tester records the most rows one test visited.  Where the bound
variables are ``A1``'s predecessor variables, ``A1``'s index (which also
holds the rows with constants there) is reused and filtered by row code.
Memoised state is data-independent: one plan per pattern, the verdicts of
constant-free patterns (at most Bell(n + 1)), per-shape ball / cone
templates.  The walk runs on id tuples and decodes only what it yields.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.data.instance import Database
from repro.data.interning import TERMS
from repro.cq.query import QueryError
from repro.core.omq import OMQ
from repro.core.progress import PartialAnswerEnumerator
from repro.core.wildcards import Wildcard, ball, cone, lt_multi, shape_of


def _row_code(row: tuple, null_flags: bytearray) -> int:
    """Which positions of an id row hold nulls and which of those are equal,
    as one int: digit ``0`` for a non-null, ``k`` for the k-th distinct null."""
    nulls = list(dict.fromkeys(value for value in row if null_flags[value]))
    code = 0
    for value in row:
        code = code * (len(row) + 1) + (nulls.index(value) + 1 if value in nulls else 0)
    return code


class MultiWildcardTester:
    """``A2``: is a multi-wildcard tuple in ``q(ch)^{W,⪯}_N``?

    True iff some answer over the chase has the given constants at the
    constant positions and nulls at the wildcard positions whose equality
    pattern is exactly the wildcard pattern.
    """

    def __init__(self, single: PartialAnswerEnumerator) -> None:
        self._single = single
        self._head_positions = single.original_query.deduplicated_head()[1]
        self._null_flags = TERMS.null_flags()
        self._plans: dict[tuple, list | None] = {}
        self._indexes: dict[tuple, dict[tuple, list[tuple]]] = {}
        self._rows = 0
        self.max_rows_per_test = 0

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
        index, slots, code, filtered, used, new = steps[depth]
        bound = values[used]
        for row in index.get(tuple([values[s] for s in slots]), ()):
            self._rows += 1
            if filtered and _row_code(row, self._null_flags) != code:
                continue
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
            pred = tuple(variables[p] for p in positions)
            filtered = bool(pred) and self._single._pred_vars.get(block.atom) == pred
            if filtered:
                index = self._single._indexes[block.atom]
            else:
                index = self._index(block, tuple(positions), code)
            used = slice(constant_count, before)
            steps.append((index, tuple(slots), code, filtered, used, tuple(new)))
        return [tuple(steps), constant_count, width, None]

    def _index(self, block, positions: tuple, code: int) -> dict[tuple, list[tuple]]:
        """The rows of ``block`` with row code ``code`` by their ids at
        ``positions``, built on first use."""
        key = (block.atom, positions, code)
        if key not in self._indexes:
            index = self._indexes[key] = {}
            for row in block.relation.tuples:
                if _row_code(row, self._null_flags) == code:
                    index.setdefault(tuple([row[p] for p in positions]), []).append(row)
        return self._indexes[key]


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
        self.tester = MultiWildcardTester(self._single)
        self._cones: dict[tuple, tuple] = {}

    def is_empty(self) -> bool:
        return self._single.is_empty()

    def _cone_plan(self, shape: tuple) -> tuple:
        """Per single-wildcard shape: the cone members over ints (wildcard
        ``*k`` as ``-k``), their ``A2`` plans, the strictly less informative
        members of each, and the ball members fewest wildcards first (a
        linear extension of ``≺``, so the first that passes is minimal)."""
        if shape not in self._cones:
            members = tuple(cone(shape))
            in_ball = ball(shape)
            self._cones[shape] = (
                [tuple([-v.index if v.__class__ is Wildcard else v for v in m]) for m in members],
                [self.tester.plan(member) for member in members],
                [[j for j, other in enumerate(members) if lt_multi(m, other)] for m in members],
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
            templates, plans, weaker, ball_order = self._cone_plan(shape)
            members = [tuple([ids[v] if v >= 0 else v for v in t]) for t in templates]
            for i, candidate in enumerate(members):
                if candidate in marked:
                    continue
                marked.add(candidate)
                if not check(plans[i], ids):
                    continue
                pending[candidate] = None
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
