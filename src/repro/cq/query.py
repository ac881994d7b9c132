"""The conjunctive query data structure.

A CQ ``q(x̄) ← φ(x̄, ȳ)`` consists of a tuple of answer variables ``x̄`` and a
set of relational atoms.  This module provides the structural accessors the
rest of the library needs (Gaifman graph, canonical database, connected
components, variable classification) but delegates acyclicity tests to
:mod:`repro.cq.acyclicity` and evaluation to :mod:`repro.cq.homomorphism`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.data.facts import Fact
from repro.data.instance import Database
from repro.data.schema import Schema
from repro.cq.atoms import Atom, Variable, is_variable


class QueryError(ValueError):
    """Raised when a conjunctive query is malformed."""


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query with answer variables and a body of atoms."""

    answer_variables: tuple[Variable, ...]
    atoms: frozenset[Atom]
    name: str = "q"

    def __init__(
        self,
        answer_variables: Sequence[Variable],
        atoms: Iterable[Atom],
        name: str = "q",
    ) -> None:
        answer_variables = tuple(answer_variables)
        atoms = frozenset(atoms)
        body_vars = set()
        for atom in atoms:
            body_vars |= atom.variables()
        for var in answer_variables:
            if not isinstance(var, Variable):
                raise QueryError(f"answer position {var!r} is not a variable")
            if var not in body_vars:
                raise QueryError(f"answer variable {var} does not occur in the body")
        object.__setattr__(self, "answer_variables", answer_variables)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "name", name)

    # -- basic accessors --------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.answer_variables)

    def is_boolean(self) -> bool:
        return self.arity == 0

    def variables(self) -> set[Variable]:
        """``var(q)``: all variables occurring in the query."""
        result: set[Variable] = set()
        for atom in self.atoms:
            result |= atom.variables()
        return result

    def quantified_variables(self) -> set[Variable]:
        """The variables that are not answer variables."""
        return self.variables() - set(self.answer_variables)

    def constants(self) -> set:
        """``con(q)``: all constants occurring in the query."""
        result: set = set()
        for atom in self.atoms:
            result |= atom.constants()
        return result

    def relations(self) -> set[str]:
        return {atom.relation for atom in self.atoms}

    def schema(self) -> Schema:
        return Schema({atom.relation: atom.arity for atom in self.atoms})

    def size(self) -> int:
        """``||q||``: number of symbols needed to write the query."""
        return self.arity + sum(1 + atom.arity for atom in self.atoms)

    def is_full(self) -> bool:
        """True if the query has no quantified variables."""
        return not self.quantified_variables()

    def is_self_join_free(self) -> bool:
        """True if no relation symbol occurs in more than one atom."""
        seen: set[str] = set()
        for atom in self.atoms:
            if atom.relation in seen:
                return False
            seen.add(atom.relation)
        return True

    def atoms_with(self, variable: Variable) -> set[Atom]:
        return {atom for atom in self.atoms if variable in atom.variables()}

    # -- graphs -----------------------------------------------------------

    def gaifman_graph(self) -> dict[Variable, set[Variable]]:
        """The Gaifman graph restricted to variables (``G^var_q``).

        Constants do not serve as nodes, mirroring the definition used for
        ELI in the paper's appendix.
        """
        graph: dict[Variable, set[Variable]] = {v: set() for v in self.variables()}
        for atom in self.atoms:
            atom_vars = atom.variables()
            for v in atom_vars:
                graph[v].update(atom_vars - {v})
        return graph

    def is_connected(self) -> bool:
        """True if the query is connected.

        Two atoms are connected when they share a variable or a constant; a
        query with at most one atom is connected.
        """
        return len(self.connected_components()) <= 1

    def connected_components(self) -> list["ConjunctiveQuery"]:
        """The maximal connected components, each as a CQ.

        Atoms sharing a variable *or a constant* belong to the same
        component (connectivity "via a constant" in the paper).  Answer
        variables are distributed to the component in which they occur.
        """
        if not self.atoms:
            return []
        atoms = list(self.atoms)
        parent = list(range(len(atoms)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            parent[find(i)] = find(j)

        by_term: dict[object, list[int]] = defaultdict(list)
        for index, atom in enumerate(atoms):
            for term in set(atom.args):
                by_term[term].append(index)
        for indices in by_term.values():
            for other in indices[1:]:
                union(indices[0], other)

        groups: dict[int, list[Atom]] = defaultdict(list)
        for index, atom in enumerate(atoms):
            groups[find(index)].append(atom)

        components = []
        for number, group in enumerate(groups.values()):
            group_vars = set()
            for atom in group:
                group_vars |= atom.variables()
            head = tuple(v for v in self.answer_variables if v in group_vars)
            components.append(
                ConjunctiveQuery(head, group, name=f"{self.name}_c{number}")
            )
        return components

    # -- transformations ---------------------------------------------------

    def canonical_database(self) -> Database:
        """``D_q``: the canonical database obtained by freezing variables."""
        facts = []
        for atom in self.atoms:
            args = [
                ("var", t.name) if is_variable(t) else t for t in atom.args
            ]
            facts.append(Fact(atom.relation, args))
        return Database(facts)

    def substitute(self, mapping: Mapping[Variable, object]) -> "ConjunctiveQuery":
        """Replace variables by terms/constants; substituted answer
        variables are dropped from the head."""
        new_atoms = [atom.substitute(mapping) for atom in self.atoms]
        new_head = [
            mapping.get(v, v)
            for v in self.answer_variables
            if is_variable(mapping.get(v, v))
        ]
        return ConjunctiveQuery(new_head, new_atoms, name=self.name)

    def with_answer_variables(
        self, answer_variables: Sequence[Variable]
    ) -> "ConjunctiveQuery":
        """The same body with a different tuple of answer variables."""
        return ConjunctiveQuery(answer_variables, self.atoms, name=self.name)

    def boolean_version(self) -> "ConjunctiveQuery":
        """The Boolean query obtained by quantifying all answer variables."""
        return self.with_answer_variables(())

    def drop_atoms(self, atoms: Iterable[Atom]) -> "ConjunctiveQuery":
        """The subquery obtained by dropping ``atoms`` from the body."""
        dropped = set(atoms)
        remaining = [a for a in self.atoms if a not in dropped]
        remaining_vars = set()
        for atom in remaining:
            remaining_vars |= atom.variables()
        head = tuple(v for v in self.answer_variables if v in remaining_vars)
        return ConjunctiveQuery(head, remaining, name=self.name)

    def deduplicated_head(self) -> tuple["ConjunctiveQuery", list[int]]:
        """Remove repeated answer variables.

        Returns the query whose head lists each answer variable once (first
        occurrence order) together with, for every original head position,
        the index into the reduced head it should be read from.
        """
        seen: dict[Variable, int] = {}
        positions: list[int] = []
        reduced: list[Variable] = []
        for var in self.answer_variables:
            if var not in seen:
                seen[var] = len(reduced)
                reduced.append(var)
            positions.append(seen[var])
        return self.with_answer_variables(reduced), positions

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head = ", ".join(v.name for v in self.answer_variables)
        body = " ∧ ".join(sorted(repr(a) for a in self.atoms))
        return f"{self.name}({head}) ← {body}"
