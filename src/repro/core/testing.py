"""Single-testing and all-testing of OMQ answers (Sections 3 and 4).

The testers precompute the query-directed chase once (the linear-time
preprocessing of Theorem 3.1 / 4.1) and then answer membership questions.
The chase comes from :func:`repro.core.omq.shared_chase`: it is shared
while any :mod:`repro.core` object over the same database version holds
it, so a single tester and an all-tester built side by side chase once.
The testers decide

* complete answers for weakly acyclic OMQs (Theorem 3.1(1)),
* minimal partial answers with a single wildcard for acyclic OMQs
  (Theorem 3.1(2)),
* minimal partial answers with multi-wildcards (Theorem 3.1(3)), and
* all-testing of complete answers for free-connex acyclic OMQs
  (Theorem 4.1(2), via Proposition 4.2).

The minimality checks follow the appendix constructions: a wildcard tuple is
a minimal partial answer iff the query grounded at its constant positions is
satisfiable over the chase, while no wildcard position can be pulled back
into the database domain (single wildcard), respectively no wildcard group
can be grounded and no two groups merged (multi-wildcards).

"Pulled back into the database domain" needs no marking of the chase: the
ontology's TGDs contain no constants, so the chase's non-null terms are
exactly ``adom(D)``, and the check is the grounded query with that variable
restricted to non-null values.  Every check is one
:class:`~repro.yannakakis.evaluation.BooleanQueryPlan` evaluation over the
chase, read from the candidate's constants outward, so a check touches only
the facts those constants reach.  A grounded query that is not acyclic (the
triangle OMQ of Theorem 3.6) falls back to homomorphism search, once per
element of ``adom(D)`` when a variable must bind one.
"""

from __future__ import annotations

from typing import Sequence

from repro.data.instance import Database
from repro.cq.atoms import Variable
from repro.cq.homomorphism import find_homomorphism
from repro.cq.query import ConjunctiveQuery, QueryError
from repro.core.omq import OMQ, shared_chase
from repro.core.wildcards import WILDCARD, Wildcard, is_wildcard
from repro.enumeration.alltesting import FreeConnexAllTester
from repro.yannakakis.evaluation import BooleanQueryPlan, NotAcyclicError


class OMQSingleTester:
    """Single-testing of complete and (minimal) partial answers.

    The constructor runs the preprocessing (the query-directed chase, shared
    with every other live :mod:`repro.core` object over the same database
    version); each ``test_*`` method then runs in time linear in the data,
    and in time independent of it when the candidate's constants reach a
    bounded number of facts.  ``rows_read`` counts the rows all checks so
    far materialised.
    """

    def __init__(self, omq: OMQ, database: Database) -> None:
        self.omq = omq
        self.database = database
        self.chase = shared_chase(omq, database)
        self.database_constants = frozenset(database.adom())
        self.rows_read = 0

    # -- helpers ------------------------------------------------------------

    def _certain(self, query: ConjunctiveQuery, database_variable: Variable | None = None) -> bool:
        """Boolean certain-answer test of ``query`` over the chase.

        ``database_variable``, if given, must bind an element of
        ``adom(D)``.  Uses Yannakakis' algorithm when the (already grounded)
        query is acyclic and falls back to generic homomorphism search
        otherwise.
        """
        instance = self.chase.instance
        required = () if database_variable is None else (database_variable,)
        try:
            plan = BooleanQueryPlan(query, database_variables=required)
        except NotAcyclicError:
            boolean_query = query.boolean_version()
            if database_variable is None:
                return find_homomorphism(boolean_query, instance) is not None
            return any(
                find_homomorphism(boolean_query, instance, {database_variable: c}) is not None
                for c in self.database_constants
            )
        holds = plan.evaluate(instance)
        self.rows_read += plan.rows_read
        return holds

    def _coherent(self, candidate: Sequence) -> dict[Variable, object] | None:
        """Map answer variables to candidate values; ``None`` if incoherent."""
        if len(candidate) != self.omq.arity:
            raise QueryError(
                f"candidate has length {len(candidate)}, OMQ arity is {self.omq.arity}"
            )
        assignment: dict[Variable, object] = {}
        for variable, value in zip(self.omq.query.answer_variables, candidate):
            if variable in assignment and assignment[variable] != value:
                return None
            assignment[variable] = value
        return assignment

    def _grounded_query(
        self,
        assignment: dict[Variable, object],
        identify: dict[Variable, Variable] | None = None,
    ) -> ConjunctiveQuery:
        """The query with constant positions grounded and wildcard positions
        quantified; ``identify`` merges variables (multi-wildcard groups)."""
        substitution: dict[Variable, object] = {}
        for variable, value in assignment.items():
            if is_wildcard(value):
                continue
            substitution[variable] = value
        if identify:
            substitution.update(identify)
        atoms = [atom.substitute(substitution) for atom in self.omq.query.atoms]
        return ConjunctiveQuery((), atoms, name=f"{self.omq.query.name}_test")

    # -- complete answers (Theorem 3.1(1)) -----------------------------------

    def test_complete(self, candidate: Sequence) -> bool:
        """Decide ``candidate ∈ Q(D)`` (complete answers)."""
        assignment = self._coherent(candidate)
        if assignment is None:
            return False
        if not self.database_constants.issuperset(candidate):
            return False
        return self._certain(self._grounded_query(assignment))

    # -- partial answers, single wildcard (Theorem 3.1(2)) -------------------

    def test_partial(self, candidate: Sequence) -> bool:
        """Decide whether ``candidate`` is a (not necessarily minimal)
        partial answer with a single wildcard."""
        assignment = self._coherent(candidate)
        if assignment is None:
            return False
        for value in candidate:
            if value is not WILDCARD and value not in self.database_constants:
                return False
        return self._certain(self._grounded_query(assignment))

    def test_minimal_partial(self, candidate: Sequence) -> bool:
        """Decide whether ``candidate`` is a *minimal* partial answer."""
        assignment = self._coherent(candidate)
        if assignment is None or not self.test_partial(candidate):
            return False
        wildcard_variables = [
            variable for variable, value in assignment.items() if value is WILDCARD
        ]
        grounded = self._grounded_query(assignment)
        for variable in wildcard_variables:
            if self._certain(grounded, database_variable=variable):
                return False
        return True

    # -- partial answers, multi-wildcards (Theorem 3.1(3)) -------------------

    def _multi_groups(
        self, assignment: dict[Variable, object]
    ) -> dict[Wildcard, list[Variable]]:
        groups: dict[Wildcard, list[Variable]] = {}
        for variable, value in assignment.items():
            if isinstance(value, Wildcard):
                groups.setdefault(value, []).append(variable)
        return groups

    def _identification(
        self, groups: dict[Wildcard, list[Variable]]
    ) -> dict[Variable, Variable]:
        """Identify the variables of every wildcard group with a representative."""
        identify: dict[Variable, Variable] = {}
        for members in groups.values():
            representative = members[0]
            for other in members[1:]:
                identify[other] = representative
        return identify

    def test_partial_multi(self, candidate: Sequence) -> bool:
        """Decide whether ``candidate`` is a partial answer with multi-wildcards."""
        assignment = self._coherent(candidate)
        if assignment is None:
            return False
        for value in candidate:
            if not isinstance(value, Wildcard) and value not in self.database_constants:
                return False
        groups = self._multi_groups(assignment)
        identify = self._identification(groups)
        return self._certain(self._grounded_query(assignment, identify=identify))

    def test_minimal_partial_multi(self, candidate: Sequence) -> bool:
        """Decide whether ``candidate`` is a minimal partial answer with
        multi-wildcards (an element of ``Q(D)^W``)."""
        assignment = self._coherent(candidate)
        if assignment is None or not self.test_partial_multi(candidate):
            return False
        groups = self._multi_groups(assignment)
        identify = self._identification(groups)
        representatives = {w: members[0] for w, members in groups.items()}

        # (a) No wildcard group may be groundable to a database constant.
        grounded = self._grounded_query(assignment, identify=identify)
        for representative in representatives.values():
            if self._certain(grounded, database_variable=representative):
                return False

        # (b) No two wildcard groups may be mergeable.
        reps = sorted(representatives.values(), key=lambda v: v.name)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                merged = dict(identify)
                merged[reps[j]] = reps[i]
                for variable, target in list(merged.items()):
                    if target == reps[j]:
                        merged[variable] = reps[i]
                improved = self._grounded_query(assignment, identify=merged)
                if self._certain(improved):
                    return False
        return True


class OMQAllTester:
    """All-testing of complete answers (Theorem 4.1(2)).

    Preprocessing is linear in the data (query-directed chase plus the
    component projections of Proposition 4.2); each test then takes time
    independent of the data.  The chase is shared with every other live
    :mod:`repro.core` object over the same database version.
    """

    def __init__(self, omq: OMQ, database: Database) -> None:
        if not omq.is_free_connex_acyclic():
            raise QueryError(
                f"{omq.name} is not free-connex acyclic: all-testing in "
                "CD∘Lin is not guaranteed (Theorem 4.6)"
            )
        self.omq = omq
        self.database_constants = frozenset(database.adom())
        self.chase = shared_chase(omq, database)
        self._tester = FreeConnexAllTester(omq.query, self.chase.instance)

    def test(self, candidate: Sequence) -> bool:
        if len(candidate) != self.omq.arity:
            raise QueryError(
                f"candidate has length {len(candidate)}, OMQ arity is {self.omq.arity}"
            )
        if not self.database_constants.issuperset(candidate):
            return False
        return self._tester.test(candidate)

    def __call__(self, candidate: Sequence) -> bool:
        return self.test(candidate)
