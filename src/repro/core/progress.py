"""Algorithm 1: DelayClin enumeration of minimal partial answers (Thm 5.2).

The enumerator works on the reduced full query ``q1`` / database ``D1`` of
:mod:`repro.enumeration.reduction` built over the query-directed chase with
labelled nulls retained.  Its preprocessing phase computes, for every block
atom ``v`` and every assignment ``h`` of ``v``'s predecessor variables to
non-null constants, the list ``trees(v, h)`` of *progress trees*: subtrees of
the join tree together with partial assignments that describe an "excursion"
of the query into the null part of the chase.  The lists are kept in
*database-preferring order* (fewer covered atoms, then fewer wildcards).

Everything is flat integer data.  The block atoms are numbered in preorder,
so a set of atoms is an int bitmask, and the block variables are numbered
once, in name order, as *slots*.  A progress tree is ``(mask, values)``:
``values`` assigns the slots of the mask's atoms, in slot order, dense term
ids (:data:`repro.data.interning.TERMS`) or :data:`STAR`, the wildcard as a
reserved negative int.  Such tuples hold only ints, so the collector
untracks them.  All lists share one arena: the node ``n`` holds the locator
key ``(atom, h, mask, values)`` in ``_trees[n]`` and its neighbours in
``_next[n]`` / ``_prev[n]``; ``_removed`` flags the unlinked nodes.  A list
is a head sentinel ``_heads[(atom, h)]`` and its tail sentinel, the next
node.  The locator maps each key to its node.  The null test of the
progress-tree conditions is one load from the dictionary's null-flag table,
and ids are decoded only when an answer is emitted.

The enumeration phase is the recursive procedure of Figure "Algorithm 1":
walk the join tree in preorder on a slot-indexed assignment, at each
not-yet-assigned atom pick the next progress tree from the appropriate list,
and after emitting an answer prune every progress tree that is strictly more
wildcarded than the one just used — which is exactly what makes later
answers that would be dominated by the current one unreachable, so that only
minimal partial answers are produced.  Pruning is compiled per join-tree
subtree, so after an answer it is locator lookups and O(1) unlinking; an
unlinked node keeps its ``_next``, so a walk paused on it continues.
"""

from __future__ import annotations

from typing import Iterator

from repro.data.instance import Database, Instance
from repro.data.interning import TERMS
from repro.cq.atoms import Atom, Variable
from repro.cq.query import ConjunctiveQuery, QueryError
from repro.core.omq import OMQ, shared_chase
from repro.core.wildcards import WILDCARD
from repro.enumeration.reduction import ReducedQuery, build_reduced_query

#: The wildcard inside progress trees and the walk's assignment (ids are >= 0).
STAR = -1


# ---------------------------------------------------------------------------
# The CQ-level enumerator (Proposition E.1)
# ---------------------------------------------------------------------------


class PartialAnswerEnumerator:
    """Enumerate the minimal partial answers of a CQ over an instance.

    The instance is expected to be chase-like (a database part plus
    constant-size null blocks); nulls in the instance become wildcards in
    the output.  The query must be acyclic and free-connex acyclic.
    """

    def __init__(self, query: ConjunctiveQuery, instance: Instance) -> None:
        self.original_query = query
        self.deduplicated, _ = query.deduplicated_head()
        self.reduced: ReducedQuery = build_reduced_query(
            self.deduplicated, instance, keep_nulls=True
        )
        # Both tables are append-only and never replaced, so holding them
        # is safe: the flag of / term behind an id never changes.
        self._null_flags = TERMS.null_flags()
        self._decode = TERMS.decoder()
        self._preorder: list[Atom] = []
        # Keyed by block atom: its rows by their predecessor values.
        self._indexes: dict[Atom, dict[tuple, list[tuple]]] = {}
        # Per atom number: its row's slots, its predecessors' slots, their
        # positions in its row and in its parent's, its children, and the
        # positions of its row in slot order.
        self._row_slots: list[tuple[int, ...]] = []
        self._pred_slots: list[tuple[int, ...]] = []
        self._pred_positions: list[tuple[int, ...]] = []
        self._in_parent: list[tuple[int, ...]] = []
        self._children: list[list[int]] = []
        self._slot_order: list[tuple[int, ...]] = []
        self._width = 0
        self._head_slots: tuple[int, ...] = ()
        # The arena of all ``trees(v, h)`` lists.
        self._trees: list[tuple | None] = []
        self._next: list[int] = []
        self._prev: list[int] = []
        self._removed = bytearray()
        self._heads: dict[tuple, int] = {}
        self._locator: dict[tuple, int] = {}
        # Per connected subtree (root, pred slots, mask, slots), the slots of
        # each such mask, the walk's next atom; then, from the build, the
        # wildcard patterns (bitmasks over a mask's slots) its wildcarded
        # trees have.
        self._subtrees: list[tuple] = []
        self._mask_slots: dict[int, tuple[int, ...]] = {}
        self._after: dict[tuple[int, int], int] = {}
        self._patterns: dict[int, set[int]] = {}
        self._weaker: dict[tuple[int, int], tuple] = {}
        if not self.reduced.is_empty and self.reduced.join_tree is not None:
            self._prepare_structure()
            self._compile_subtrees()
            self._build_progress_trees()
            # Only subtrees with wildcarded trees can lose one to pruning.
            self._subtrees = [t for t in self._subtrees if any(self._patterns.get(t[2], ()))]

    # -- preprocessing ------------------------------------------------------

    def _prepare_structure(self) -> None:
        tree = self.reduced.join_tree
        self._preorder = tree.preorder()
        number = {atom: i for i, atom in enumerate(self._preorder)}
        relations = [self.reduced.relations[atom] for atom in self._preorder]
        names = sorted({v for r in relations for v in r.variables}, key=lambda v: v.name)
        slot = {variable: s for s, variable in enumerate(names)}
        self._width = len(names)
        self._head_slots = tuple(slot[v] for v in self.original_query.answer_variables)
        for atom, relation in zip(self._preorder, relations):
            parent = tree.parent(atom)
            if parent is None:
                pred: tuple[Variable, ...] = ()
            else:
                pred = tuple(v for v in relation.variables if v in parent.variables())
            self._indexes[atom] = relation.index_on(pred)
            row_slots = tuple(slot[v] for v in relation.variables)
            self._row_slots.append(row_slots)
            self._pred_slots.append(tuple(slot[v] for v in pred))
            self._pred_positions.append(relation.positions(pred))
            self._in_parent.append(
                () if parent is None else self.reduced.relations[parent].positions(pred)
            )
            self._children.append([number[child] for child in tree.children(atom)])
            self._slot_order.append(
                tuple(sorted(range(len(row_slots)), key=row_slots.__getitem__))
            )

    def _compile_subtrees(self) -> None:
        """All connected subtrees of the block join tree (data independent)."""

        def rooted_at(i: int) -> list[int]:
            masks = [1 << i]
            for child in self._children[i]:
                options = [0, *rooted_at(child)]
                masks = [mask | option for mask in masks for option in options]
            return masks

        for i in range(len(self._preorder)):
            for mask in rooted_at(i):
                slots = self._slots_of(mask)
                self._mask_slots[mask] = slots
                self._subtrees.append((i, self._pred_slots[i], mask, slots))

    def _slots_of(self, mask: int) -> tuple[int, ...]:
        """The slots of the atoms in ``mask``, in slot (variable name) order."""
        atoms = [j for j in range(len(self._preorder)) if mask >> j & 1]
        return tuple(sorted({s for j in atoms for s in self._row_slots[j]}))

    def _required(self, i: int, row: tuple) -> list[int]:
        """The children of atom ``i`` whose predecessor variables ``row`` maps
        to a null: a progress tree must include them (condition (2))."""
        flag = self._null_flags.__getitem__
        in_parent = self._in_parent
        return [c for c in self._children[i] if any(flag(row[p]) for p in in_parent[c])]

    def _extend(self, assignment: list[int], pending: list[int], mask: int) -> Iterator[int]:
        """Cover the ``pending`` atoms with rows compatible with
        ``assignment``, writing each row into it; yield every covered mask.
        The nulls living in constant-size chase blocks, a root row has
        constantly many extensions."""
        if not pending:
            yield mask
            return
        child = pending[-1]
        key = tuple([assignment[s] for s in self._pred_slots[child]])
        slots = self._row_slots[child]
        for row in self._indexes[self._preorder[child]].get(key, ()):
            for s, value in zip(slots, row):
                assignment[s] = value
            more = self._required(child, row)
            yield from self._extend(assignment, pending[:-1] + more, mask | 1 << child)

    def _build_progress_trees(self) -> None:
        """Fill the arena.  Per atom, trees are bucketed by their rank in
        ``≺db`` (covered atoms, then wildcards) and appended rank by rank, so
        every list is in database-preferring order without a sort."""
        flag = self._null_flags.__getitem__
        assignment = [STAR] * self._width
        stride = self._width + 1
        trees, following, preceding = self._trees, self._next, self._prev
        heads, locator, patterns = self._heads, self._locator, self._patterns
        for i, atom in enumerate(self._preorder):
            buckets: list[list[tuple]] = [[] for _ in range(stride * (len(self._preorder) + 1))]
            plain = buckets[stride]  # one atom, no wildcard
            positions, order = self._pred_positions[i], self._slot_order[i]
            in_order = order == tuple(range(len(order)))

            def place(key: tuple, mask: int, values: tuple) -> None:
                pattern = sum([1 << p for p, v in enumerate(values) if v == STAR])
                patterns.setdefault(mask, set()).add(pattern)
                buckets[mask.bit_count() * stride + pattern.bit_count()].append(
                    (i, key, mask, values)
                )

            for row in self.reduced.relations[atom].tuples:
                key = tuple([row[p] for p in positions])
                if any(map(flag, key)):
                    continue  # condition (1): roots need constant predecessors
                if not any(map(flag, row)):
                    # Most rows: no wildcard to map or record, and a row
                    # already in slot order is its values tuple as is.
                    values = row if in_order else tuple([row[p] for p in order])
                    plain.append((i, key, 1 << i, values))
                    continue
                required = self._required(i, row)
                if not required:
                    place(key, 1 << i, tuple([STAR if flag(row[p]) else row[p] for p in order]))
                    continue
                for s, value in zip(self._row_slots[i], row):
                    assignment[s] = value
                for mask in self._extend(assignment, required, 1 << i):
                    values = [assignment[s] for s in self._mask_slots[mask]]
                    place(key, mask, tuple([STAR if flag(v) else v for v in values]))
            for bucket in buckets:
                for located in bucket:
                    if located in locator:
                        continue  # the same tree from another row
                    head = heads.get(located[:2])
                    if head is None:
                        head = heads[located[:2]] = len(trees)
                        trees += (None, None)
                        following += (head + 1, head + 1)
                        preceding += (head, head)
                        self._removed += b"\0\0"
                    node, last = len(trees), preceding[head + 1]
                    following[last] = preceding[head + 1] = locator[located] = node
                    trees.append(located)
                    following.append(head + 1)
                    preceding.append(last)
                    self._removed.append(0)

    # -- the arena --------------------------------------------------------------

    def _live(self, head: int) -> Iterator[int]:
        """The live nodes of the list at ``head``, read one ``_next`` at a
        time, so nodes unlinked while the iteration is paused are skipped."""
        following, removed = self._next, self._removed
        tail, node = head + 1, following[head]
        while node != tail:
            if not removed[node]:
                yield node
            node = following[node]

    def _remove(self, node: int) -> None:
        """Unlink ``node`` in O(1), leaving its own ``_next`` intact."""
        if self._removed[node]:
            return
        self._removed[node] = 1
        before, after = self._prev[node], self._next[node]
        self._next[before] = after
        self._prev[after] = before

    # -- enumeration ----------------------------------------------------------

    def is_empty(self) -> bool:
        return self.reduced.is_empty

    def _next_atom(self, start: int, covered: int) -> int:
        """The first atom from ``start`` on with a slot that the trees over
        ``covered`` leave unassigned, or ``-1``; memoised per pair."""
        found = self._after.get((start, covered))
        if found is None:
            assigned = set(self._slots_of(covered)).issuperset
            atoms = range(start, len(self._preorder))
            found = next((j for j in atoms if not assigned(self._row_slots[j])), -1)
            self._after[(start, covered)] = found
        return found

    def _weakenings(self, mask: int, wild: int) -> tuple[tuple[int, ...], ...]:
        """Per wildcard pattern strictly above ``wild`` that some tree over
        ``mask`` has, the positions it adds; memoised per pair."""
        found = self._weaker.get((mask, wild))
        if found is None:
            positions = range(len(self._mask_slots[mask]))
            self._weaker[(mask, wild)] = found = tuple(
                tuple(p for p in positions if (pattern & ~wild) >> p & 1)
                for pattern in self._patterns.get(mask, ())
                if pattern & wild == wild and pattern != wild
            )
        return found

    def _prune(self, assignment: list[int]) -> None:
        """Remove the trees strictly more wildcarded than the answer just
        emitted: locator ``get``s only."""
        heads, get = self._heads, self._locator.get
        for i, pred_slots, mask, slots in self._subtrees:
            key = tuple([assignment[s] for s in pred_slots])
            if STAR in key or (i, key) not in heads:
                continue  # roots need constant predecessors
            values = [assignment[s] for s in slots]
            wild = sum([1 << p for p, v in enumerate(values) if v == STAR])
            for chosen in self._weakenings(mask, wild):
                candidate = values.copy()
                for position in chosen:
                    candidate[position] = STAR
                node = get((i, key, mask, tuple(candidate)))
                if node is not None:
                    self._remove(node)

    def _walk(self) -> Iterator[tuple]:
        """Each answer over the original head as ids and :data:`STAR`."""
        if self.reduced.is_empty:
            return
        if not self._preorder:
            yield ()
            return
        assignment, head_slots, trees = [STAR] * self._width, self._head_slots, self._trees

        def walk(i: int, covered: int) -> Iterator[tuple]:
            key = tuple([assignment[s] for s in self._pred_slots[i]])
            head = self._heads.get((i, key))
            if head is None:
                return
            for node in self._live(head):
                _, _, mask, values = trees[node]
                for s, value in zip(self._mask_slots[mask], values):
                    assignment[s] = value
                following = self._next_atom(i + 1, covered | mask)
                if following < 0:
                    yield tuple([assignment[s] for s in head_slots])
                    self._prune(assignment)
                else:
                    yield from walk(following, covered | mask)

        yield from walk(self._next_atom(0, 0), 0)

    def enumerate(self) -> Iterator[tuple]:
        """Yield exactly the minimal partial answers, without repetition."""
        decode = self._decode
        for answer in self._walk():
            yield tuple([WILDCARD if v == STAR else decode(v) for v in answer])

    def id_answers(self) -> Iterator[tuple]:
        """The walk: each answer over the original head as ids and ``*``."""
        for answer in self._walk():
            if STAR in answer:
                answer = tuple([WILDCARD if v == STAR else v for v in answer])
            yield answer

    def __iter__(self) -> Iterator[tuple]:
        return self.enumerate()


# ---------------------------------------------------------------------------
# The OMQ-level enumerator (Theorem 5.2) and Proposition 2.1
# ---------------------------------------------------------------------------


class MinimalPartialAnswerEnumerator:
    """Enumerate ``Q(D)*`` for an acyclic, free-connex acyclic OMQ.

    The constructor runs the preprocessing; its chase is shared with every
    other live :mod:`repro.core` object over the same database version.
    """

    def __init__(self, omq: OMQ, database: Database, strict: bool = True) -> None:
        if strict and not (omq.is_acyclic() and omq.is_free_connex_acyclic()):
            raise QueryError(
                f"{omq.name} is not acyclic and free-connex acyclic: DelayClin "
                "enumeration of minimal partial answers is not guaranteed"
            )
        self.omq = omq
        self.database = database
        self.chase = shared_chase(omq, database)
        self._inner = PartialAnswerEnumerator(omq.query, self.chase.instance)

    def is_empty(self) -> bool:
        return self._inner.is_empty()

    def enumerate(self) -> Iterator[tuple]:
        yield from self._inner.enumerate()

    def __iter__(self) -> Iterator[tuple]:
        return self.enumerate()

    def enumerate_complete_first(self) -> Iterator[tuple]:
        """Enumerate ``Q(D)*`` with all complete answers first (Prop. 2.1).

        Runs the complete-answer enumerator and this enumerator in parallel:
        while the former still produces answers they are forwarded, wildcard
        answers of the latter are buffered, and once the complete enumerator
        is exhausted the buffer and the remaining wildcard answers follow.
        Both sides read the same chase.
        """
        from repro.core.enumeration import CompleteAnswerEnumerator

        complete = CompleteAnswerEnumerator(self.omq, self.database)
        partial = self.enumerate()
        buffered: list[tuple] = []

        for complete_answer in complete.enumerate():
            yield complete_answer
            try:
                candidate = next(partial)
            except StopIteration:
                continue
            if any(value is WILDCARD for value in candidate):
                buffered.append(candidate)
        for candidate in partial:
            if any(value is WILDCARD for value in candidate):
                yield candidate
            elif buffered:
                yield buffered.pop()
        yield from buffered


def enumerate_minimal_partial_answers(
    omq: OMQ, database: Database, strict: bool = True
) -> Iterator[tuple]:
    """One-shot helper for ``Q(D)*``."""
    yield from MinimalPartialAnswerEnumerator(omq, database, strict=strict)
