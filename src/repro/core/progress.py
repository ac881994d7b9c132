"""Algorithm 1: DelayClin enumeration of minimal partial answers (Thm 5.2).

The enumerator works on the reduced full query ``q1`` / database ``D1`` of
:mod:`repro.enumeration.reduction` built over the query-directed chase with
labelled nulls retained.  Its preprocessing phase computes, for every block
atom ``v`` and every assignment ``h`` of ``v``'s predecessor variables to
non-null constants, the list ``trees(v, h)`` of *progress trees*: subtrees of
the join tree together with partial assignments that describe an "excursion"
of the query into the null part of the chase.  The lists are kept in
*database-preferring order* (fewer covered atoms, then fewer wildcards).

Like every consumer of the reduced query, the enumerator works on rows of
dense term ids (:data:`repro.data.interning.TERMS`): the null test of the
progress-tree conditions is one load from the dictionary's null-flag table,
a progress tree's assignment holds constant ids plus the wildcard, and ids
are decoded to terms only when an assignment is emitted as an answer.

The enumeration phase is the recursive procedure of Figure "Algorithm 1":
walk the join tree in preorder, at each not-yet-covered atom pick the next
progress tree from the appropriate list, and after emitting an answer prune
every progress tree that is strictly more wildcarded than the one just used
— which is exactly what makes later answers that would be dominated by the
current one unreachable, so that only minimal partial answers are produced.
Pruning is compiled per subtree, so after an answer it is locator lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from typing import Iterator

from repro.data.instance import Database, Instance
from repro.data.interning import TERMS
from repro.cq.atoms import Atom, Variable
from repro.cq.query import ConjunctiveQuery, QueryError
from repro.core.omq import OMQ
from repro.core.wildcards import WILDCARD
from repro.enumeration.reduction import ReducedQuery, build_reduced_query


# ---------------------------------------------------------------------------
# Progress trees and their bookkeeping structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProgressTree:
    """A progress tree ``(p, g)``: a subtree of ``T1`` plus an assignment.

    ``atoms`` is the (frozen) set of covered block atoms, ``root`` its root;
    ``values`` assigns to ``variables`` (the atoms' variables in name order,
    shared by all trees over the same atoms) constant ids or the wildcard.
    """

    root: Atom
    atoms: frozenset[Atom]
    variables: tuple[Variable, ...]
    values: tuple

    def mapping(self) -> dict[Variable, object]:
        return dict(zip(self.variables, self.values))

    def star_count(self) -> int:
        return sum(1 for value in self.values if value is WILDCARD)

    def sort_key(self) -> tuple[int, int]:
        """A linear extension of the database-preferring order ``≺db``."""
        return (len(self.atoms), self.star_count())


class _TreeNode:
    """A node of the doubly-linked ``trees(v, h)`` list."""

    __slots__ = ("tree", "prev", "next", "removed")

    def __init__(self, tree: ProgressTree | None = None) -> None:
        self.tree = tree
        self.prev: "_TreeNode | None" = None
        self.next: "_TreeNode | None" = None
        self.removed = False


class _TreeList:
    """A doubly-linked list supporting O(1) removal of known nodes.

    Removal keeps the removed node's ``next`` pointer intact so that an
    iteration that is currently paused on the node can continue; this mirrors
    the lookup-table/linked-list combination described in Section 5.
    """

    def __init__(self) -> None:
        self.head = _TreeNode()
        self.tail = _TreeNode()
        self.head.next = self.tail
        self.tail.prev = self.head

    def append(self, tree: ProgressTree) -> _TreeNode:
        node = _TreeNode(tree)
        last = self.tail.prev
        last.next = node
        node.prev = last
        node.next = self.tail
        self.tail.prev = node
        return node

    def remove(self, node: _TreeNode) -> None:
        if node.removed:
            return
        node.removed = True
        node.prev.next = node.next
        node.next.prev = node.prev
        # node.next is intentionally left untouched.


@dataclass(frozen=True)
class _Subtree:
    """A connected subtree of the block join tree, compiled for pruning:
    ``variables`` in name order, the order of the locator keys."""

    root: Atom
    atoms: frozenset[Atom]
    pred: tuple[Variable, ...]
    variables: tuple[Variable, ...]


@cache
def _wildcard_subsets(width: int, mask: int) -> tuple[tuple[int, ...], ...]:
    """Every non-empty set of positions below ``width`` outside the bit mask
    ``mask`` (the positions already holding the wildcard)."""
    free = [p for p in range(width) if not mask >> p & 1]
    return tuple(c for size in range(1, len(free) + 1) for c in combinations(free, size))


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
        self._pred_vars: dict[Atom, tuple[Variable, ...]] = {}
        self._children: dict[Atom, list[Atom]] = {}
        self._indexes: dict[Atom, dict[tuple, list[tuple]]] = {}
        self._trees: dict[tuple, _TreeList] = {}
        self._locator: dict[tuple, _TreeNode] = {}
        self._subtrees: list[_Subtree] = []
        if not self.reduced.is_empty and self.reduced.join_tree is not None:
            self._prepare_structure()
            self._build_progress_trees()
            self._enumerate_subtrees()

    # -- preprocessing ------------------------------------------------------

    def _prepare_structure(self) -> None:
        tree = self.reduced.join_tree
        self._preorder = tree.preorder()
        for atom in self._preorder:
            relation = self.reduced.relations[atom]
            parent = tree.parent(atom)
            if parent is None:
                pred: tuple[Variable, ...] = ()
            else:
                pred = tuple(v for v in relation.variables if v in parent.variables())
            self._pred_vars[atom] = pred
            self._children[atom] = tree.children(atom)
            self._indexes[atom] = relation.index_on(pred)

    def _extend_tree(
        self, atom: Atom, assignment: dict[Variable, object]
    ) -> list[tuple[frozenset[Atom], dict[Variable, object]]]:
        """All ways of extending ``atom``'s fact into a full excursion.

        ``assignment`` covers the variables of ``atom``.  A child of ``atom``
        must be included exactly when one of its predecessor variables is
        mapped to a null (progress-tree condition (2)); included children are
        matched against compatible rows of their block relation, which — the
        nulls living in constant-size chase blocks — yields constantly many
        combinations per root fact.
        """
        null_flags = self._null_flags
        required_children = []
        for child in self._children[atom]:
            shared = self._pred_vars[child]
            if any(null_flags[assignment[x]] for x in shared):
                required_children.append(child)
        if not required_children:
            return [(frozenset([atom]), dict(assignment))]

        per_child_options: list[list[tuple[frozenset[Atom], dict[Variable, object]]]] = []
        for child in required_children:
            relation = self.reduced.relations[child]
            shared = self._pred_vars[child]
            key = tuple(assignment[x] for x in shared)
            options: list[tuple[frozenset[Atom], dict[Variable, object]]] = []
            for row in self._indexes[child].get(key, ()):
                child_assignment = dict(zip(relation.variables, row))
                options.extend(self._extend_tree(child, child_assignment))
            if not options:
                return []
            per_child_options.append(options)

        results: list[tuple[frozenset[Atom], dict[Variable, object]]] = []
        for combination in product(*per_child_options):
            atoms: set[Atom] = {atom}
            merged = dict(assignment)
            for child_atoms, child_map in combination:
                atoms |= child_atoms
                merged.update(child_map)
            results.append((frozenset(atoms), merged))
        return results

    def _build_progress_trees(self) -> None:
        null_flags = self._null_flags
        name_order: dict[frozenset[Atom], tuple[Variable, ...]] = {}
        for atom in self._preorder:
            relation = self.reduced.relations[atom]
            pred = self._pred_vars[atom]
            pending: dict[tuple, dict[tuple, ProgressTree]] = {}
            for row in relation.tuples:
                assignment = dict(zip(relation.variables, row))
                if any(null_flags[assignment[x]] for x in pred):
                    continue  # condition (1): roots need constant predecessors
                key = (atom, tuple(assignment[x] for x in pred))
                for atoms, mapping in self._extend_tree(atom, assignment):
                    variables = name_order.setdefault(
                        atoms, tuple(sorted(mapping, key=lambda v: v.name))
                    )
                    values = tuple(
                        WILDCARD if null_flags[value] else value
                        for value in map(mapping.__getitem__, variables)
                    )
                    tree = ProgressTree(atom, atoms, variables, values)
                    pending.setdefault(key, {})[(atoms, values)] = tree
            for key, candidates in pending.items():
                ordered = sorted(candidates.values(), key=ProgressTree.sort_key)
                tree_list = self._trees.setdefault(key, _TreeList())
                for tree in ordered:
                    node = tree_list.append(tree)
                    self._locator[(key, tree.atoms, tree.values)] = node

    def _enumerate_subtrees(self) -> None:
        """All connected subtrees of the block join tree (data independent)."""

        def rooted_at(atom: Atom) -> list[frozenset[Atom]]:
            options_per_child: list[list[frozenset[Atom] | None]] = []
            for child in self._children[atom]:
                child_subtrees: list[frozenset[Atom] | None] = [None]
                child_subtrees.extend(rooted_at(child))
                options_per_child.append(child_subtrees)
            results: list[frozenset[Atom]] = []
            for combination in product(*options_per_child) if options_per_child else [()]:
                atoms: set[Atom] = {atom}
                for chosen in combination:
                    if chosen is not None:
                        atoms |= chosen
                results.append(frozenset(atoms))
            return results

        for atom in self._preorder:
            for atoms in rooted_at(atom):
                variables = sorted(
                    {v for a in atoms for v in self.reduced.relations[a].variables},
                    key=lambda v: v.name,
                )
                self._subtrees.append(
                    _Subtree(atom, atoms, self._pred_vars[atom], tuple(variables))
                )

    # -- enumeration ----------------------------------------------------------

    def is_empty(self) -> bool:
        return self.reduced.is_empty

    def _next_atom(self, start: int, assignment: dict[Variable, object]) -> int | None:
        for index in range(start, len(self._preorder)):
            atom = self._preorder[index]
            relation = self.reduced.relations[atom]
            if any(variable not in assignment for variable in relation.variables):
                return index
        return None

    def _prune(self, assignment: dict[Variable, object]) -> None:
        """Remove the trees strictly more wildcarded than the answer just
        emitted: locator ``get``s only."""
        get = assignment.__getitem__
        locator = self._locator
        for subtree in self._subtrees:
            pred_key = tuple(map(get, subtree.pred))
            if WILDCARD in pred_key:
                continue  # roots need constant predecessors
            list_key = (subtree.root, pred_key)
            if list_key not in self._trees:
                continue
            values = list(map(get, subtree.variables))
            mask = sum(1 << p for p, value in enumerate(values) if value is WILDCARD)
            for chosen in _wildcard_subsets(len(values), mask):
                candidate = values.copy()
                for position in chosen:
                    candidate[position] = WILDCARD
                node = locator.get((list_key, subtree.atoms, tuple(candidate)))
                if node is not None and not node.removed:
                    self._trees[list_key].remove(node)

    def enumerate(self) -> Iterator[tuple]:
        """Yield exactly the minimal partial answers, without repetition."""
        decode = self._decode
        for answer in self.id_answers():
            yield tuple([v if v is WILDCARD else decode(v) for v in answer])

    def id_answers(self) -> Iterator[tuple]:
        """The walk: each answer over the original head as ids and ``*``."""
        if self.reduced.is_empty:
            return
        if not self._preorder:
            yield ()
            return

        assignment: dict[Variable, object] = {}
        head = self.original_query.answer_variables

        def walk(index: int | None) -> Iterator[tuple]:
            if index is None:
                yield tuple(map(assignment.__getitem__, head))
                self._prune(assignment)
                return
            atom = self._preorder[index]
            pred = self._pred_vars[atom]
            pred_key = tuple(assignment[x] for x in pred)
            tree_list = self._trees.get((atom, pred_key))
            if tree_list is None:
                return
            node = tree_list.head.next
            while node is not tree_list.tail:
                if node.removed:
                    node = node.next
                    continue
                mapping = node.tree.mapping()
                added = [v for v in mapping if v not in assignment]
                assignment.update(mapping)
                yield from walk(self._next_atom(index + 1, assignment))
                for variable in added:
                    del assignment[variable]
                node = node.next

        yield from walk(self._next_atom(0, assignment))

    def __iter__(self) -> Iterator[tuple]:
        return self.enumerate()


# ---------------------------------------------------------------------------
# The OMQ-level enumerator (Theorem 5.2) and Proposition 2.1
# ---------------------------------------------------------------------------


class MinimalPartialAnswerEnumerator:
    """Enumerate ``Q(D)*`` for an acyclic, free-connex acyclic OMQ."""

    def __init__(self, omq: OMQ, database: Database, strict: bool = True) -> None:
        if strict and not (omq.is_acyclic() and omq.is_free_connex_acyclic()):
            raise QueryError(
                f"{omq.name} is not acyclic and free-connex acyclic: DelayClin "
                "enumeration of minimal partial answers is not guaranteed"
            )
        self.omq = omq
        self.database = database
        self.chase = omq.chase(database)
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
        """
        from repro.core.enumeration import CompleteAnswerEnumerator

        complete = CompleteAnswerEnumerator(self.omq, self.database).enumerate()
        partial = self.enumerate()
        buffered: list[tuple] = []

        for complete_answer in complete:
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
