"""Join trees of acyclic conjunctive queries.

A join tree of a CQ is a tree over its atoms such that, for every variable,
the atoms containing that variable induce a connected subtree.  Join trees
are built with the classical maximal-weight spanning tree construction
(Bernstein & Goodman): take the intersection graph of the atoms weighted by
the number of shared variables, compute a maximum spanning tree, and verify
the running-intersection property.  The verification succeeds exactly when
the query is acyclic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.cq.atoms import Atom, Variable


@dataclass
class JoinTree:
    """A (rooted) join tree over a sequence of atoms.

    The tree is stored as an adjacency map between atoms.  Rooting the tree
    fixes parent/child relations, the preorder traversal and the predecessor
    variables used by the enumeration algorithms.
    """

    nodes: list[Atom]
    adjacency: dict[Atom, set[Atom]]
    root: Atom | None = None
    _parent: dict[Atom, Atom | None] = field(default_factory=dict, repr=False)
    _children: dict[Atom, list[Atom]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.root is None and self.nodes:
            self.root_at(self.nodes[0])
        elif self.root is not None:
            self.root_at(self.root)

    # -- structure ---------------------------------------------------------

    def neighbors(self, atom: Atom) -> set[Atom]:
        return set(self.adjacency.get(atom, ()))

    def root_at(self, root: Atom) -> None:
        """Root the tree at ``root`` and recompute parents/children."""
        if root not in self.adjacency:
            raise ValueError(f"{root} is not a node of the join tree")
        self.root = root
        self._parent = {root: None}
        self._children = {node: [] for node in self.nodes}
        queue = deque([root])
        visited = {root}
        while queue:
            node = queue.popleft()
            for neighbor in sorted(self.adjacency[node], key=repr):
                if neighbor not in visited:
                    visited.add(neighbor)
                    self._parent[neighbor] = node
                    self._children[node].append(neighbor)
                    queue.append(neighbor)
        if len(visited) != len(self.nodes):
            raise ValueError("join tree is not connected")

    def parent(self, atom: Atom) -> Atom | None:
        return self._parent[atom]

    def children(self, atom: Atom) -> list[Atom]:
        return list(self._children[atom])

    def preorder(self) -> list[Atom]:
        """The atoms in a preorder traversal from the root."""
        order: list[Atom] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(self._children[node]))
        return order

    def postorder(self) -> list[Atom]:
        return list(reversed(self.preorder()))

    def predecessor_variables(self, atom: Atom) -> set[Variable]:
        """The variables ``atom`` shares with its parent (empty at the root)."""
        parent = self._parent[atom]
        if parent is None:
            return set()
        return atom.variables() & parent.variables()

    def subtree_atoms(self, atom: Atom) -> list[Atom]:
        """All atoms in the subtree rooted at ``atom`` (preorder)."""
        order: list[Atom] = []
        stack = [atom]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(self._children[node]))
        return order

    def edges(self) -> Iterator[tuple[Atom, Atom]]:
        for node in self.nodes:
            parent = self._parent.get(node)
            if parent is not None:
                yield parent, node

    # -- validity ------------------------------------------------------------

    def is_valid(self) -> bool:
        """Check the running-intersection (connected subtree) property."""
        variables: set[Variable] = set()
        for atom in self.nodes:
            variables |= atom.variables()
        for variable in variables:
            holders = [a for a in self.nodes if variable in a.variables()]
            if len(holders) <= 1:
                continue
            # BFS restricted to holders must reach all of them.
            holder_set = set(holders)
            queue = deque([holders[0]])
            seen = {holders[0]}
            while queue:
                node = queue.popleft()
                for neighbor in self.adjacency[node]:
                    if neighbor in holder_set and neighbor not in seen:
                        seen.add(neighbor)
                        queue.append(neighbor)
            if seen != holder_set:
                return False
        return True


def build_join_tree(atoms: Iterable[Atom], root: Atom | None = None) -> JoinTree | None:
    """Build a join tree for ``atoms``, or return ``None`` if none exists.

    Uses the maximum-weight spanning tree of the intersection graph; the
    result is a join tree exactly when the atom set is acyclic.  When the
    atoms are disconnected, the components are linked by weight-zero edges so
    that a single tree is returned (constants are not required to satisfy the
    connectedness condition).
    """
    atom_list = list(dict.fromkeys(atoms))
    if not atom_list:
        return None
    if len(atom_list) == 1:
        tree = JoinTree(atom_list, {atom_list[0]: set()}, root=atom_list[0])
        return tree

    # Kruskal on pairwise shared-variable counts (including zero weights so
    # the result always spans all atoms).
    candidate_edges: list[tuple[int, int, int]] = []
    for i in range(len(atom_list)):
        vars_i = atom_list[i].variables()
        for j in range(i + 1, len(atom_list)):
            weight = len(vars_i & atom_list[j].variables())
            candidate_edges.append((weight, i, j))
    candidate_edges.sort(key=lambda item: -item[0])

    parent = list(range(len(atom_list)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    adjacency: dict[Atom, set[Atom]] = {atom: set() for atom in atom_list}
    accepted = 0
    for weight, i, j in candidate_edges:
        if find(i) != find(j):
            parent[find(i)] = find(j)
            adjacency[atom_list[i]].add(atom_list[j])
            adjacency[atom_list[j]].add(atom_list[i])
            accepted += 1
            if accepted == len(atom_list) - 1:
                break

    tree = JoinTree(atom_list, adjacency, root=root or atom_list[0])
    if not tree.is_valid():
        return None
    return tree


def guard_atom(answer_variables: Sequence[Variable], name: str = "__guard__") -> Atom:
    """The fresh atom that guards the answer variables in ``q⁺``."""
    return Atom(name, tuple(answer_variables))
