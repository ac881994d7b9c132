"""Semi-joins and the full reducer over a join tree.

The bottom-up semi-join pass of Yannakakis' algorithm removes from every
relation the rows that cannot be extended towards the leaves; the additional
top-down pass yields *global consistency*: every remaining row of every
relation participates in at least one full join result.  Global consistency
is exactly the "progress condition" the constant-delay enumeration
algorithms of the paper rely on.
"""

from __future__ import annotations

from repro.cq.atoms import Atom
from repro.cq.jointree import JoinTree
from repro.yannakakis.relations import AtomRelation


def semijoin(left: AtomRelation, right: AtomRelation) -> bool:
    """Reduce ``left`` to the rows joinable with ``right`` (``left ⋉ right``).

    Returns True if any row was removed.  The join condition is equality on
    the shared variables; with no shared variables the semi-join only checks
    that ``right`` is non-empty.  The filter is the columnar hash
    semi-join kernel over the left side's key columns against the right
    side's cached key projection.
    """
    shared = tuple(v for v in left.variables if v in right.variables)
    if not shared:
        if right.is_empty() and not left.is_empty():
            left.clear()
            return True
        return False
    right_keys = right.project(shared)
    positions = left.positions(shared)
    store = left.columns()
    # Inside a planner scope, single-column edges pick hash vs sorted-merge
    # from the build/probe sizes; outside one, ``planned_kernel`` always
    # answers "hash" (the historical kernel).  Both kernels return the same
    # row set.
    from repro.planner.kernels import planned_kernel

    if (
        len(positions) == 1
        and planned_kernel(len(left.tuples), len(right_keys)) == "sorted"
    ):
        surviving = store.filter_by_keys_sorted(positions[0], right_keys)
    else:
        surviving = store.filter_by_keys(positions, right_keys)
    if len(surviving) != len(left.tuples):
        left.replace_tuples(surviving)
        return True
    return False


def bottom_up_pass(tree: JoinTree, relations: dict[Atom, AtomRelation]) -> None:
    """Semi-join every parent with each of its children, leaves first."""
    for atom in tree.postorder():
        parent = tree.parent(atom)
        if parent is not None:
            semijoin(relations[parent], relations[atom])


def top_down_pass(tree: JoinTree, relations: dict[Atom, AtomRelation]) -> None:
    """Semi-join every child with its parent, root first."""
    for atom in tree.preorder():
        parent = tree.parent(atom)
        if parent is not None:
            semijoin(relations[atom], relations[parent])


def full_reducer(tree: JoinTree, relations: dict[Atom, AtomRelation]) -> None:
    """Make ``relations`` globally consistent with respect to ``tree``.

    After the call, every row of every relation extends to a full solution of
    the join (or every relation is empty when the join is empty).
    """
    bottom_up_pass(tree, relations)
    top_down_pass(tree, relations)
    if any(relation.is_empty() for relation in relations.values()):
        for relation in relations.values():
            relation.clear()


def reduce_and_diff(
    tree: JoinTree,
    relations: dict[Atom, AtomRelation],
    previous: dict[Atom, AtomRelation],
) -> set[Atom]:
    """Run the full reducer on ``relations`` and diff against ``previous``.

    Returns the atoms whose globally consistent row sets differ from the
    (already reduced) relations in ``previous``.  The incremental
    enumeration-state maintenance uses this to rebuild per-block indexes
    only where the join-tree node actually changed, keeping every untouched
    block's cached indexes alive.
    """
    full_reducer(tree, relations)
    return {
        atom
        for atom, relation in relations.items()
        if relation.tuples != previous[atom].tuples
    }
