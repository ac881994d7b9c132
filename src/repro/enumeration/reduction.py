"""The reduction of an acyclic, free-connex acyclic CQ to a full join.

Following the preprocessing phase of Section 5 (conditions (i)–(iv)), a CQ
``q0(x̄)`` that is acyclic and free-connex acyclic is turned, in time linear
in the data, into

* a *full*, self-join free, acyclic query ``q1(x̄)`` — one fresh "block" atom
  per component of the free-connex decomposition, over exactly that
  component's answer variables — together with a join tree ``T1``, and
* a database ``D1`` of block relations that is *globally consistent*
  (the progress condition (iv)): every row of every block relation extends
  to a full answer,

such that ``q1(D1) = q0(D0)`` projected to the answer variables.  Both the
CD∘Lin enumeration of complete answers (Theorem 4.1) and the minimal partial
answer enumeration (Algorithm 1 / Theorem 5.2) run on this reduced form; the
only difference is whether block rows containing labelled nulls are kept.
Block rows are tuples of dense term ids (:data:`repro.data.interning.TERMS`);
the enumerators decode them when an answer is emitted.

Why ``q1`` is acyclic: distinct components share only answer variables and
every component's answer variables are contained in its root atom.  A clique
of block variables is therefore a clique of ``q0``'s Gaifman graph, which by
conformality of the acyclic ``q0`` is covered by an atom and hence by that
atom's block; similarly a chordless cycle of block variables would be a
chordless cycle of ``q0``.  By the Beeri–Fagin–Maier–Yannakakis
characterisation (conformal + chordal) the block hypergraph is acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import codegen_enabled
from repro.data.instance import Instance
from repro.data.interning import TERMS
from repro.cq.acyclicity import is_acyclic
from repro.cq.atoms import Atom, Variable
from repro.cq.jointree import JoinTree, build_join_tree
from repro.cq.query import ConjunctiveQuery, QueryError
from repro.yannakakis.decomposition import (
    Component,
    FreeConnexDecomposition,
    decompose_free_connex,
)
from repro.yannakakis.evaluation import NotAcyclicError
from repro.yannakakis.relations import AtomRelation, atom_relation
from repro.yannakakis.semijoin import bottom_up_pass, full_reducer


@dataclass
class Block:
    """One block atom ``B_i(ȳ_i)`` of the reduced query.

    ``projection`` caches the component's *unreduced* projection (before the
    cross-block full reducer ran); the incremental enumeration-state
    maintenance recomputes it only for components whose relations a delta
    touched and replays the reducer over the cached rest.
    """

    atom: Atom
    variables: tuple[Variable, ...]
    component: Component
    relation: AtomRelation = field(repr=False, default=None)
    projection: set = field(repr=False, default_factory=set)


@dataclass
class ReducedQuery:
    """The reduced full query ``q1`` with its consistent database ``D1``."""

    query: ConjunctiveQuery
    head: tuple[Variable, ...]
    blocks: list[Block]
    join_tree: JoinTree | None
    relations: dict[Atom, AtomRelation]
    is_empty: bool
    keeps_nulls: bool

    def block_for(self, atom: Atom) -> Block:
        for block in self.blocks:
            if block.atom == atom:
                return block
        raise KeyError(atom)

    def size(self) -> int:
        return sum(len(rel) for rel in self.relations.values())


def _nullfree_kernel(arity: int):
    """Arity-specialised null filter (lazy import, see ``data/columns.py``)."""
    from repro.engine.codegen import nullfree_kernel

    return nullfree_kernel(arity)


def component_projection(
    component: Component,
    instance: Instance,
    keep_nulls: bool,
    codegen: bool | None = None,
) -> set[tuple] | None:
    """Project a component's satisfying assignments onto its answer variables.

    Returns ``None`` when the component is unsatisfiable.  The projection
    (a set of id rows) is computed by a bottom-up semi-join pass towards
    the component root (all answer variables live in the root, so
    projecting the reduced root relation is exact).  The null filter tests
    the dictionary's id flags — through a per-arity generated kernel when
    ``codegen`` resolves on (``None`` means the process default).
    """
    relations = {atom: atom_relation(atom, instance) for atom in component.atoms}
    if any(relation.is_empty() for relation in relations.values()):
        return None
    bottom_up_pass(component.tree, relations)
    root_relation = relations[component.root]
    if root_relation.is_empty():
        return None
    projection = root_relation.project(component.answer_variables)
    if not keep_nulls:
        if codegen is None:
            codegen = codegen_enabled()
        kernel = (
            _nullfree_kernel(len(component.answer_variables)) if codegen else None
        )
        if kernel is not None:
            projection = kernel(projection, TERMS.null_flags())
        else:
            null_id = TERMS.is_null_id
            projection = {
                row for row in projection if not any(null_id(value) for value in row)
            }
        if not projection and component.answer_variables:
            return None
    return projection


def build_reduced_query(
    query: ConjunctiveQuery,
    instance: Instance,
    keep_nulls: bool = False,
    require_acyclic: bool = True,
    decomposition: "FreeConnexDecomposition | None" = None,
    codegen: bool | None = None,
) -> ReducedQuery:
    """Build ``q1`` and ``D1`` from ``q0`` and ``D0``.

    ``keep_nulls`` selects between complete-answer mode (drop block rows with
    nulls in answer positions) and partial-answer mode (keep them).  The
    query head must not repeat variables; callers deduplicate first.

    ``decomposition`` may carry the free-connex decomposition of ``query``
    computed ahead of time (it is data-independent), in which case the
    structural preprocessing — including the acyclicity check it implies —
    is skipped and only the data-dependent reduction runs.

    The block relations hold dense term ids (columnar kernels in the
    reducer, id-hashing in the per-block indexes); callers decode at answer
    emission.
    """
    if len(set(query.answer_variables)) != len(query.answer_variables):
        raise QueryError("reduce requires a head without repeated variables")
    if decomposition is None:
        if require_acyclic and not is_acyclic(query):
            raise NotAcyclicError(f"{query.name} is not acyclic")
        decomposition = decompose_free_connex(query)
    head = tuple(query.answer_variables)

    blocks: list[Block] = []
    relations: dict[Atom, AtomRelation] = {}
    is_empty = False
    for index, component in enumerate(decomposition.components):
        projection = component_projection(
            component, instance, keep_nulls, codegen=codegen
        )
        if projection is None:
            is_empty = True
            break
        if not component.answer_variables:
            # A purely Boolean component: satisfiable, so it adds no
            # constraint and no block.
            continue
        block_atom = Atom(f"__block{index}__", component.answer_variables)
        relation = AtomRelation(
            block_atom, tuple(component.answer_variables), set(projection)
        )
        block = Block(
            atom=block_atom,
            variables=tuple(component.answer_variables),
            component=component,
            relation=relation,
            projection=projection,
        )
        blocks.append(block)
        relations[block_atom] = relation

    if is_empty:
        return ReducedQuery(query, head, [], None, {}, True, keep_nulls)

    if not blocks:
        # Boolean query (or all components Boolean): a single empty answer.
        return ReducedQuery(query, head, [], None, {}, False, keep_nulls)

    join_tree = build_join_tree([block.atom for block in blocks])
    if join_tree is None:
        raise NotAcyclicError(
            "internal error: block hypergraph of an acyclic free-connex "
            "query is not acyclic"
        )
    full_reducer(join_tree, relations)
    if any(relation.is_empty() for relation in relations.values()):
        return ReducedQuery(query, head, blocks, join_tree, relations, True, keep_nulls)
    return ReducedQuery(query, head, blocks, join_tree, relations, False, keep_nulls)
