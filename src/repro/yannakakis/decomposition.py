"""The free-connex decomposition of a CQ (proof of Proposition 4.2).

For a free-connex acyclic query ``q(x̄)``, the extended query ``q⁺`` (with a
fresh atom guarding the answer variables) has a join tree.  Removing the
guard node splits the atoms of ``q`` into components ``q_1, ..., q_k`` such
that

* each component is acyclic (its part of the join tree is a join tree),
* distinct components share only answer variables, and
* all answer variables of a component occur in the component's *root* atom
  (the neighbour of the guard node).

These facts drive both the CD∘Lin all-tester (Proposition 4.2) and — when
``q`` itself is acyclic too — the CD∘Lin enumeration of Theorem 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cq.atoms import Atom, Variable
from repro.cq.jointree import JoinTree, build_join_tree, guard_atom
from repro.cq.query import ConjunctiveQuery
from repro.yannakakis.evaluation import NotAcyclicError


class NotFreeConnexError(ValueError):
    """Raised when a query is not free-connex acyclic."""


@dataclass
class Component:
    """One component of the free-connex decomposition."""

    atoms: list[Atom]
    tree: JoinTree
    root: Atom
    answer_variables: tuple[Variable, ...]

    def query(self, name: str = "component") -> ConjunctiveQuery:
        return ConjunctiveQuery(self.answer_variables, self.atoms, name=name)


@dataclass
class FreeConnexDecomposition:
    """The decomposition of ``q`` induced by a join tree of ``q⁺``."""

    query: ConjunctiveQuery
    guard: Atom
    components: list[Component]

    def answer_variables(self) -> tuple[Variable, ...]:
        return self.query.answer_variables


def decompose_free_connex(query: ConjunctiveQuery) -> FreeConnexDecomposition:
    """Decompose a free-connex acyclic query into its components.

    Raises :class:`NotFreeConnexError` when ``q⁺`` has no join tree.  The
    head is expected to contain each answer variable once (callers
    deduplicate with :meth:`ConjunctiveQuery.deduplicated_head`).
    """
    guard = guard_atom(query.answer_variables)
    atoms = list(query.atoms) + [guard]
    tree_plus = build_join_tree(atoms, root=guard)
    if tree_plus is None:
        raise NotFreeConnexError(f"{query.name} is not free-connex acyclic")
    components: list[Component] = []
    for child in tree_plus.children(guard):
        component_atoms = tree_plus.subtree_atoms(child)
        adjacency = {
            atom: {
                neighbor
                for neighbor in tree_plus.neighbors(atom)
                if neighbor in set(component_atoms)
            }
            for atom in component_atoms
        }
        component_tree = JoinTree(component_atoms, adjacency, root=child)
        component_vars: set[Variable] = set()
        for atom in component_atoms:
            component_vars |= atom.variables()
        answer_vars = tuple(
            v for v in query.answer_variables if v in component_vars
        )
        if not set(answer_vars) <= child.variables():
            raise NotAcyclicError(
                "internal error: component root does not cover its answer "
                "variables; the join tree of q+ is invalid"
            )
        components.append(
            Component(
                atoms=component_atoms,
                tree=component_tree,
                root=child,
                answer_variables=answer_vars,
            )
        )
    return FreeConnexDecomposition(query=query, guard=guard, components=components)
