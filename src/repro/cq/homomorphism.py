"""Homomorphisms from conjunctive queries into instances.

A homomorphism maps the query's variables to domain elements of the instance
(constants in the query map to themselves) such that every atom becomes a
fact of the instance.  The functions here implement backtracking search over
the instance's positional indexes: at every step the *most constrained*
remaining atom (the one with the smallest candidate bucket under the current
partial assignment) is matched next, and its candidates are fetched with one
``(relation, bound-positions)`` index probe instead of scanning and filtering
whole relation or adjacency buckets.  Those probes are id-keyed:
:meth:`~repro.data.instance.Instance.probe` translates the term key to
dense ids once and the bucket lookup hashes machine ints, which is what
makes the per-probe constant match the paper's RAM-model accounting.  They
are the reference evaluator the optimised algorithms are tested against, and
the workhorse for the small fixed-size subproblems (progress trees,
excursions) where data complexity is not a concern.

The candidate buckets returned by ``Instance.probe`` are live views; the
search never mutates the instance, but callers that interleave consumption of
:func:`all_homomorphisms` with instance mutation must materialise the results
first (the chase does exactly this).
"""

from __future__ import annotations

from typing import Collection, Iterator, Mapping

from repro.data.facts import Fact
from repro.data.instance import Instance
from repro.cq.atoms import Atom, Variable, is_variable
from repro.cq.query import ConjunctiveQuery


def is_homomorphism(
    mapping: Mapping[Variable, object],
    query: ConjunctiveQuery,
    instance: Instance,
) -> bool:
    """Check whether ``mapping`` is a homomorphism from ``query`` to ``instance``."""
    for atom in query.atoms:
        try:
            fact = atom.to_fact(mapping)
        except KeyError:
            return False
        if fact not in instance:
            return False
    return True


_MISSING = object()


def _candidate_pool(
    atom: Atom, assignment: Mapping[Variable, object], instance: Instance
) -> Collection[Fact]:
    """The facts that could match ``atom`` under the current ``assignment``.

    Probes the instance's positional index on every position that is bound —
    by a constant of the atom or an already-assigned variable — so the pool
    already agrees with the assignment on all bound positions.  Arity and
    repeated-variable consistency are checked later by :func:`match_atom`.
    """
    positions: list[int] = []
    key: list[object] = []
    get = assignment.get
    for position, term, is_var in atom.term_plan:
        if is_var:
            value = get(term, _MISSING)
            if value is not _MISSING:
                positions.append(position)
                key.append(value)
        else:
            positions.append(position)
            key.append(term)
    if positions:
        return instance.probe(atom.relation, tuple(positions), tuple(key))
    return instance.relation(atom.relation)


def match_atom(
    atom: Atom, fact: Fact, assignment: dict[Variable, object]
) -> dict[Variable, object] | None:
    """Try to extend ``assignment`` so that ``atom`` maps onto ``fact``."""
    extension: dict[Variable, object] = {}
    args = fact.args
    if len(args) != len(atom.term_plan):
        return None
    for position, term, is_var in atom.term_plan:
        value = args[position]
        if is_var:
            bound = assignment.get(term, extension.get(term))
            if bound is None:
                extension[term] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return extension


def all_homomorphisms(
    query: ConjunctiveQuery,
    instance: Instance,
    partial: Mapping[Variable, object] | None = None,
) -> Iterator[dict[Variable, object]]:
    """Generate every homomorphism from ``query`` to ``instance``.

    ``partial`` optionally pre-binds some variables (used for single-testing
    where the answer variables are fixed).  Each yielded dictionary maps all
    of ``var(q)`` to domain elements.

    The backtracking search picks, at every depth, the remaining atom with
    the fewest index candidates under the current assignment (dynamic
    most-constrained-atom ordering), which both fails fast on dead branches
    and keeps the branching factor minimal.
    """
    assignment: dict[Variable, object] = dict(partial or {})

    def search(remaining: list[Atom]) -> Iterator[dict[Variable, object]]:
        if not remaining:
            yield dict(assignment)
            return
        if len(remaining) == 1:
            # One atom left: no ordering decision to make, probe directly.
            atom = remaining[0]
            best_pool: Collection[Fact] | None = _candidate_pool(
                atom, assignment, instance
            )
            rest: list[Atom] = []
        else:
            best_index = 0
            best_pool = None
            for i, atom in enumerate(remaining):
                pool = _candidate_pool(atom, assignment, instance)
                if best_pool is None or len(pool) < len(best_pool):
                    best_index, best_pool = i, pool
                    if not pool:
                        return
            atom = remaining[best_index]
            rest = remaining[:best_index] + remaining[best_index + 1 :]
        assert best_pool is not None
        for fact in best_pool:
            if fact.arity != atom.arity:
                continue
            extension = match_atom(atom, fact, assignment)
            if extension is None:
                continue
            assignment.update(extension)
            yield from search(rest)
            for variable in extension:
                del assignment[variable]

    # Variables of the query that occur in no atom cannot happen (queries are
    # safe), so the search covers every variable.
    yield from search(list(query.atoms))


def find_homomorphism(
    query: ConjunctiveQuery,
    instance: Instance,
    partial: Mapping[Variable, object] | None = None,
) -> dict[Variable, object] | None:
    """Return one homomorphism, or ``None`` if there is none."""
    for homomorphism in all_homomorphisms(query, instance, partial):
        return homomorphism
    return None


def evaluate(query: ConjunctiveQuery, instance: Instance) -> set[tuple]:
    """``q(I)``: the set of answers of the query on the instance.

    Answers are tuples over the active domain of ``instance`` (they may
    contain labelled nulls when the instance does); the answer for a Boolean
    query is the empty tuple.
    """
    answers: set[tuple] = set()
    for homomorphism in all_homomorphisms(query, instance):
        answers.add(tuple(homomorphism[v] for v in query.answer_variables))
    return answers


def satisfies(query: ConjunctiveQuery, instance: Instance) -> bool:
    """True if the Boolean version of ``query`` holds in ``instance``."""
    return find_homomorphism(query.boolean_version(), instance) is not None
