"""Boolean evaluation and single-testing of acyclic CQs (Yannakakis 1981).

Single-testing of a candidate answer first substitutes the answer constants
into the query (turning a weakly acyclic query into an acyclic one, as in the
proof of Theorem 3.1) and then runs the Boolean bottom-up pass.
"""

from __future__ import annotations

from typing import Sequence

from repro.data.instance import Instance
from repro.cq.acyclicity import is_acyclic
from repro.cq.jointree import build_join_tree
from repro.cq.query import ConjunctiveQuery, QueryError
from repro.yannakakis.relations import atom_relation
from repro.yannakakis.semijoin import bottom_up_pass


class NotAcyclicError(ValueError):
    """Raised when an algorithm requiring acyclicity gets a cyclic query."""


class BooleanQueryPlan:
    """The data-independent half of Boolean acyclic-query evaluation.

    The constructor decomposes the (Boolean version of the) query into
    connected components and builds one join tree per component — everything
    that depends only on the query.  :meth:`evaluate` then runs the
    data-dependent semi-join passes; a plan can be evaluated against many
    instances, which is how the prepared-query engine amortizes the
    structural work across calls.
    """

    __slots__ = ("query", "_components")

    def __init__(self, query: ConjunctiveQuery) -> None:
        self.query = query
        boolean_query = query.boolean_version()
        self._components: list[tuple[list, object]] = []
        for component in boolean_query.connected_components():
            tree = build_join_tree(component.atoms)
            if tree is None:
                raise NotAcyclicError(f"query component {component} is not acyclic")
            self._components.append((list(component.atoms), tree))

    def evaluate(self, instance: Instance) -> bool:
        """Evaluate the plan on ``instance`` (the data-dependent phase).

        Only emptiness of the (dense-id) atom relations is observed, so no
        decoding is ever needed on this path.
        """
        for atoms, tree in self._components:
            relations = {atom: atom_relation(atom, instance) for atom in atoms}
            if any(relation.is_empty() for relation in relations.values()):
                return False
            bottom_up_pass(tree, relations)
            if relations[tree.root].is_empty():
                return False
        return True


def boolean_eval(query: ConjunctiveQuery, instance: Instance) -> bool:
    """Evaluate the Boolean version of an acyclic query on ``instance``.

    One-shot convenience over :class:`BooleanQueryPlan`: the query's
    connected components are evaluated independently, each semi-join reduced
    bottom-up along its join tree, and the query holds iff every component's
    root relation stays non-empty.
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
