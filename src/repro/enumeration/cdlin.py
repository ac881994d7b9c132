"""CD∘Lin enumeration of complete answers to acyclic, free-connex CQs.

This is the CQ half of Theorem 4.1(1): for acyclic, free-connex acyclic
queries, answers are enumerable with constant delay after linear-time
preprocessing (the class the paper writes ``CD∘Lin``).  The enumerator has
the two phases of that model: a *preprocessing* phase (building the reduced
query of :mod:`repro.enumeration.reduction` — the Section 5 conditions
(i)–(iv) — and per-block indexes, in time linear in the data) and an
*enumeration* phase that walks the block join tree in preorder.  Global
consistency of the block relations (condition (iv)) guarantees that the
walk never backtracks past an atom without producing an answer, so the
delay between consecutive answers depends only on the query.

Two engineering layers keep the constants close to the paper's RAM model:

* the block relations hold dense term-id rows (see
  :mod:`repro.data.interning`) built by C-level row passes of the
  reducer, and ids are decoded back to terms only when an answer tuple is
  emitted;
* the walk binds rows into slots computed at preprocessing time (one
  slot per variable, per-atom write plans) and runs as code generated
  once per plan (:mod:`repro.engine.codegen`): one nested ``for`` per
  block with the row reads unrolled into local variables, so the
  per-answer work is a few local writes instead of a dictionary copy per
  visited row.

:meth:`CDLinEnumerator.maintain` additionally keeps the reduced state valid
under fact deltas — the engineering extension described in
:mod:`repro.incremental`, not a construction from the paper.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.obs.trace import current_trace, span, traced_answers
from repro.data.instance import Instance
from repro.data.interning import TERMS
from repro.cq.atoms import Atom, Variable
from repro.cq.query import ConjunctiveQuery
from repro.enumeration.reduction import (
    ReducedQuery,
    build_reduced_query,
    component_projection,
)
from repro.yannakakis.decomposition import (
    FreeConnexDecomposition,
    decompose_free_connex,
)
from repro.yannakakis.relations import AtomRelation
from repro.yannakakis.semijoin import reduce_and_diff


class CDLinEnumerator:
    """Linear preprocessing / constant delay enumerator for plain CQs.

    ``decomposition``, when given, must be the free-connex decomposition of
    the query *after head deduplication* (``query.deduplicated_head()[0]``);
    prepared-query plans precompute it once so only the data-dependent part
    of preprocessing runs per database.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        instance: Instance,
        keep_nulls: bool = False,
        decomposition: "FreeConnexDecomposition | None" = None,
        codegen_cache: "object | None" = None,
    ) -> None:
        self.original_query = query
        self.deduplicated, self._head_positions = query.deduplicated_head()
        self._keep_nulls = keep_nulls
        self._decomposition = decomposition
        # ``codegen_cache`` is the per-plan closure cache (prepared queries
        # pass theirs so closures die with the plan-cache entry; standalone
        # enumerators lazily create their own).
        self._codegen_cache = codegen_cache
        with span("reduce", query=query.name) as sp:
            self.reduced: ReducedQuery = build_reduced_query(
                self.deduplicated,
                instance,
                keep_nulls=keep_nulls,
                decomposition=decomposition,
            )
            self._order: list[Atom] = []
            self._indexes: dict[Atom, dict[tuple, list[tuple]]] = {}
            self._shared: dict[Atom, tuple[Variable, ...]] = {}
            self._plan: tuple | None = None
            if not self.reduced.is_empty and self.reduced.join_tree is not None:
                self._prepare_indexes()
            if sp is not None:
                sp.set("blocks", len(self._order))
                sp.set("rows", self.reduced.size())
                sp.set("empty", self.reduced.is_empty)
        self._publish()

    def _publish(self) -> None:
        """Expose the enumerable state as one atomically swapped snapshot.

        :meth:`enumerate` reads this single attribute once, so an in-flight
        enumeration keeps a fully consistent view even when :meth:`maintain`
        replaces several fields (maintenance always builds new containers
        and publishes them last, never mutating published ones).
        """
        self._snapshot = (self.reduced, self._order, self._indexes, self._plan)

    # -- preprocessing ------------------------------------------------------

    def _prepare_indexes(self) -> None:
        tree = self.reduced.join_tree
        self._order = tree.preorder()
        for atom in self._order:
            parent = tree.parent(atom)
            relation = self.reduced.relations[atom]
            if parent is None:
                shared: tuple[Variable, ...] = ()
            else:
                shared = tuple(
                    v for v in relation.variables if v in parent.variables()
                )
            self._shared[atom] = shared
            self._indexes[atom] = relation.index_on(shared)
        self._plan = self._build_plan()

    def _build_plan(self) -> tuple:
        """Precompute the slot layout of the enumeration walk.

        Every variable of the block join tree gets one slot in a flat value
        array; each atom gets the slot tuple of its parent-shared key and a
        ``(row position, slot)`` write plan for its own variables.  The walk
        then extends an assignment by a handful of list writes instead of
        copying a dictionary per row, and the emit step reads the answer
        slots directly (decoding ids exactly there).
        """
        slot_of: dict[Variable, int] = {}
        for atom in self._order:
            for variable in self.reduced.relations[atom].variables:
                if variable not in slot_of:
                    slot_of[variable] = len(slot_of)
        key_slots: list[tuple[int, ...]] = []
        stores: list[tuple[tuple[int, int], ...]] = []
        for atom in self._order:
            key_slots.append(tuple(slot_of[v] for v in self._shared[atom]))
            stores.append(
                tuple(
                    (position, slot_of[v])
                    for position, v in enumerate(
                        self.reduced.relations[atom].variables
                    )
                )
            )
        dedup_head = self.deduplicated.answer_variables
        final_slots = tuple(
            slot_of[dedup_head[p]] for p in self._head_positions
        )
        return (tuple(key_slots), tuple(stores), final_slots, len(slot_of))

    # -- incremental maintenance --------------------------------------------

    def _rebuild(self, instance: Instance) -> bool:
        """Recompute the whole reduced state (reduction only, no chase)."""
        self.reduced = build_reduced_query(
            self.deduplicated,
            instance,
            keep_nulls=self._keep_nulls,
            decomposition=self._decomposition,
        )
        self._order, self._indexes, self._shared = [], {}, {}
        self._plan = None
        if not self.reduced.is_empty and self.reduced.join_tree is not None:
            self._prepare_indexes()
        self._publish()
        return True

    def _make_empty(self) -> bool:
        """Collapse to the empty result (some component became unsatisfiable)."""
        self.reduced = ReducedQuery(
            self.reduced.query, self.reduced.head, [], None, {}, True, self._keep_nulls
        )
        self._order, self._indexes, self._shared = [], {}, {}
        self._plan = None
        self._publish()
        return True

    def maintain(self, instance: Instance, touched_relations: Iterable[str]) -> bool:
        """Refresh the reduced state in place after ``instance`` mutated.

        ``touched_relations`` names the relation symbols of the facts that
        changed.  Only the components whose atoms mention a touched relation
        recompute their projection; every other block keeps its rows *and*
        its cached per-block indexes, and the cross-block full reducer is
        replayed over the cached unreduced projections so global consistency
        (the constant-delay progress condition) is restored exactly.
        Returns True when the enumerable state may have changed.
        """
        touched = set(touched_relations)
        if self._decomposition is None:
            self._decomposition = decompose_free_connex(self.deduplicated)
        if self.reduced.is_empty:
            # No per-block state survives emptiness; rebuild the reduction.
            return self._rebuild(instance)
        # Boolean components left no block behind: re-check satisfiability.
        for component in self._decomposition.components:
            if component.answer_variables:
                continue
            if not ({atom.relation for atom in component.atoms} & touched):
                continue
            if component_projection(component, instance, self._keep_nulls) is None:
                return self._make_empty()
        pending: dict[Atom, set] = {}
        for block in self.reduced.blocks:
            if not ({atom.relation for atom in block.component.atoms} & touched):
                continue
            projection = component_projection(
                block.component, instance, self._keep_nulls
            )
            if projection is None:
                return self._make_empty()
            if projection != block.projection:
                block.projection = projection
                pending[block.atom] = projection
        if not pending:
            return False
        fresh = {
            block.atom: AtomRelation(block.atom, block.variables, block.projection)
            for block in self.reduced.blocks
        }
        assert self.reduced.join_tree is not None
        changed = reduce_and_diff(self.reduced.join_tree, fresh, self.reduced.relations)
        if any(relation.is_empty() for relation in fresh.values()):
            # The full reducer clears everything when the join is empty.
            return self._make_empty()
        # Copy-on-write: never mutate the dicts a running enumeration may
        # have captured — build updated copies and swap the references, so
        # in-flight cursors finish over the consistent pre-delta snapshot.
        relations = dict(self.reduced.relations)
        indexes = dict(self._indexes)
        for atom in changed:
            relation = fresh[atom]
            relations[atom] = relation
            self.reduced.block_for(atom).relation = relation
            if self._order:
                indexes[atom] = relation.index_on(self._shared[atom])
        self.reduced.relations = relations
        self._indexes = indexes
        self._publish()
        return bool(changed)

    # -- enumeration ---------------------------------------------------------

    def _compiled_walk(self, plan: tuple):
        """The generated walk for ``plan`` (:mod:`repro.engine.codegen`).

        The compiled function is a pure function of the (data-independent)
        slot plan, so it is looked up in the plan-level closure cache and
        shared across databases and maintenance epochs; per-enumeration
        state (the index list, the decoder) stays a call argument.
        """
        cache = self._codegen_cache
        if cache is None:
            # Standalone enumerator: own one cache object (the engine path
            # hands in the PreparedQuery's, so eviction drops the closures).
            from repro.engine.codegen import PlanCodegen

            cache = self._codegen_cache = PlanCodegen()
        return cache.walk_for(plan)

    def is_empty(self) -> bool:
        return self.reduced.is_empty

    def __iter__(self) -> Iterator[tuple]:
        return self.enumerate()

    def enumerate(self) -> Iterator[tuple]:
        """Enumerate ``q(D)`` without repetition.

        The whole enumerable state is read through one snapshot attribute
        (a single atomic reference), so an in-flight enumeration keeps a
        consistent view even if :meth:`maintain` publishes updated state
        concurrently (maintenance replaces containers instead of mutating
        them).  Ids are decoded to terms here — and only here.

        This is a plain dispatcher, not a generator: when a trace is
        ambient the walk is wrapped in an ``enumerate`` span that samples
        per-answer delay; otherwise the walk generator is returned as-is,
        so the untraced path adds no frame to the per-answer hot loop.
        """
        if current_trace() is not None:
            return traced_answers(
                self._enumerate_impl(), query=self.original_query.name
            )
        return self._enumerate_impl()

    def _enumerate_impl(self) -> Iterator[tuple]:
        reduced, order, indexes, plan = self._snapshot
        if reduced.is_empty:
            return
        if not order:
            yield ()
            return

        walk = self._compiled_walk(plan)
        yield from walk([indexes[atom] for atom in order], TERMS.decoder())

    def count(self) -> int:
        """The number of answers (materialises the enumeration)."""
        return sum(1 for _ in self.enumerate())


def enumerate_answers(
    query: ConjunctiveQuery, instance: Instance, keep_nulls: bool = False
) -> Iterator[tuple]:
    """One-shot enumeration helper: preprocess then yield all answers."""
    enumerator = CDLinEnumerator(query, instance, keep_nulls=keep_nulls)
    yield from enumerator.enumerate()


def answers_as_set(
    query: ConjunctiveQuery, instance: Instance, keep_nulls: bool = False
) -> set[tuple]:
    """All answers as a set (convenience wrapper for tests)."""
    return set(enumerate_answers(query, instance, keep_nulls=keep_nulls))
