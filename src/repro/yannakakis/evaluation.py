"""Boolean evaluation and single-testing of acyclic CQs (Yannakakis 1981).

Single-testing of a candidate answer first substitutes the answer constants
into the query (turning a weakly acyclic query into an acyclic one, as in the
proof of Theorem 3.1) and then decides the grounded Boolean query.  Each
connected component is read *from its constants outward*: its join tree is
rooted at the atom with the most constants, the root is read with
:func:`~repro.yannakakis.relations.atom_relation`, and every other atom is
read, in preorder, by probing the instance's id-keyed positional index with
its parent's keys and its own constants — a top-down semi-join pass folded
into the reads.  The bottom-up pass then decides emptiness.  A grounded test
therefore touches only the facts its constants reach; a component without
constants scans its root relation, so the bound stays linear in the data
(Theorem 3.1).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import Iterable, Sequence

from repro.data.instance import Instance
from repro.data.interning import TERMS
from repro.cq.acyclicity import is_acyclic
from repro.cq.atoms import Atom, Variable, is_variable
from repro.cq.jointree import JoinTree, build_join_tree
from repro.cq.query import ConjunctiveQuery, QueryError
from repro.yannakakis.relations import AtomRelation, atom_relation, facts_relation
from repro.yannakakis.semijoin import bottom_up_pass


class NotAcyclicError(ValueError):
    """Raised when an algorithm requiring acyclicity gets a cyclic query."""


class _Read:
    """How :meth:`BooleanQueryPlan.evaluate` reads one non-root atom.

    The index positions are the atom's positions of the variables it
    shares with its parent (``shared``, in the parent's variable order)
    followed by its constant positions; a probe key is a parent key
    projection extended by the constants' ids.
    """

    __slots__ = ("atom", "parent", "shared", "positions", "constants", "variables", "var_positions")

    def __init__(self, atom: Atom, parent: Atom) -> None:
        self.atom = atom
        self.parent = parent
        var_positions: dict[Variable, list[int]] = defaultdict(list)
        constant_positions: list[int] = []
        for position, term in enumerate(atom.args):
            if is_variable(term):
                var_positions[term].append(position)
            else:
                constant_positions.append(position)
        self.variables = tuple(sorted(var_positions, key=lambda v: v.name))
        self.var_positions = dict(var_positions)
        parent_variables = sorted(parent.variables(), key=lambda v: v.name)
        self.shared = tuple(v for v in parent_variables if v in var_positions)
        self.positions = tuple(var_positions[v][0] for v in self.shared) + tuple(constant_positions)
        self.constants = tuple(atom.args[p] for p in constant_positions)

    def read(self, instance: Instance, parent_relation: AtomRelation) -> AtomRelation:
        """``atom ⋉ parent_relation``, probed rather than scanned."""
        if not self.positions:
            facts = instance.relation(self.atom.relation)
        else:
            # Index first: building it is what interns the relation's terms,
            # so a constant first seen in this relation gets its id here.
            index = instance._raw_index(self.atom.relation, self.positions)
            constants = TERMS.try_intern_tuple(self.constants)
            if constants is None:
                facts = ()
            elif self.shared:
                get = index.get
                keys = parent_relation.project(self.shared)
                facts = chain.from_iterable(get(key + constants, ()) for key in keys)
            else:
                facts = index.get(constants, ())
        return facts_relation(self.atom, self.variables, self.var_positions, facts)


def _root_rank(atom: Atom) -> tuple:
    """Most constants first; ties broken by the atom itself, not by the
    iteration order of the query's atom set, so the root is the same in
    every process."""
    constants = sum(1 for term in atom.args if not is_variable(term))
    return (-constants, atom.relation, repr(atom))


class BooleanQueryPlan:
    """The data-independent half of Boolean acyclic-query evaluation.

    The constructor decomposes the (Boolean version of the) query into
    connected components, roots one join tree per component at its atom
    with the most constants and fixes, per non-root atom, the index
    positions and key layout of its seeded read — everything that depends
    only on the query.  :meth:`evaluate` then runs the data-dependent reads
    and the bottom-up semi-join pass; a plan can be evaluated against many
    instances.

    ``database_variables`` are variables that must bind database constants
    rather than labelled nulls: every relation holding one drops the rows
    whose value there is a null (one null-flag load per row).  Over a chase
    of a constant-free ontology the non-null terms are exactly the
    database's active domain, so this is "the variable binds an element of
    adom(D)".

    ``rows_read`` is the number of rows the most recent :meth:`evaluate`
    materialised, over all atoms it read.
    """

    __slots__ = ("query", "database_variables", "_components", "rows_read")

    def __init__(
        self, query: ConjunctiveQuery, database_variables: Iterable[Variable] = ()
    ) -> None:
        self.query = query
        self.database_variables = frozenset(database_variables)
        self.rows_read = 0
        boolean_query = query.boolean_version()
        self._components: list[tuple[JoinTree, list[tuple[Atom, _Read | None, tuple]]]] = []
        for component in boolean_query.connected_components():
            atoms = list(component.atoms)
            root = min(atoms, key=_root_rank)
            tree = build_join_tree(atoms, root=root)
            if tree is None:
                raise NotAcyclicError(f"query component {component} is not acyclic")
            steps = []
            for atom in tree.preorder():
                parent = tree.parent(atom)
                read = None if parent is None else _Read(atom, parent)
                steps.append((atom, read, self._null_columns(atom)))
            self._components.append((tree, steps))

    def _null_columns(self, atom: Atom) -> tuple[int, ...]:
        """Row columns of ``atom`` holding a database variable."""
        variables = sorted(atom.variables(), key=lambda v: v.name)
        return tuple(
            column
            for column, variable in enumerate(variables)
            if variable in self.database_variables
        )

    def evaluate(self, instance: Instance) -> bool:
        """Evaluate the plan on ``instance`` (the data-dependent phase).

        Per component: read the root, then every other atom in preorder
        through its parent's keys, stopping at the first empty relation;
        then run the bottom-up pass and test the root.  Only emptiness of
        the (dense-id) relations is observed, so nothing is decoded.
        """
        flags = TERMS.null_flags()
        self.rows_read = 0
        for tree, steps in self._components:
            relations: dict[Atom, AtomRelation] = {}
            for atom, seeded, null_columns in steps:
                if seeded is None:
                    relation = atom_relation(atom, instance)
                else:
                    relation = seeded.read(instance, relations[seeded.parent])
                self.rows_read += len(relation)
                if null_columns:
                    relation.replace_tuples(
                        row
                        for row in relation.tuples
                        if not any(flags[row[c]] for c in null_columns)
                    )
                if relation.is_empty():
                    return False
                relations[atom] = relation
            bottom_up_pass(tree, relations)
            if relations[tree.root].is_empty():
                return False
        return True


def boolean_eval(query: ConjunctiveQuery, instance: Instance) -> bool:
    """Evaluate the Boolean version of an acyclic query on ``instance``.

    One-shot convenience over :class:`BooleanQueryPlan`: the query's
    connected components are evaluated independently, each read from its
    constants outward and semi-join reduced bottom-up along its join tree,
    and the query holds iff every component's root relation stays
    non-empty.
    """
    return BooleanQueryPlan(query).evaluate(instance)


def single_test(
    query: ConjunctiveQuery, instance: Instance, answer: Sequence
) -> bool:
    """Decide ``answer ∈ q(instance)`` for a weakly acyclic query.

    The answer variables are replaced by the candidate constants, which turns
    a weakly acyclic query into an acyclic one; the resulting Boolean query is
    then evaluated with :func:`boolean_eval`.
    """
    if len(answer) != query.arity:
        raise QueryError(
            f"answer has length {len(answer)}, query arity is {query.arity}"
        )
    substitution = {}
    for variable, value in zip(query.answer_variables, answer):
        if variable in substitution and substitution[variable] != value:
            return False
        substitution[variable] = value
    grounded = query.substitute(substitution)
    if not is_acyclic(grounded):
        raise NotAcyclicError(
            "query is not weakly acyclic: grounding the answer variables "
            "did not produce an acyclic query"
        )
    return boolean_eval(grounded, instance)
