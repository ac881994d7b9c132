"""Tests for the chase, the query-directed chase and Horn saturation."""

import pytest

from repro import Database, Fact, parse_ontology, parse_query
from repro.chase import chase, horn_saturation, query_directed_chase
from repro.chase.standard import ChaseNotTerminating, certain_facts
from repro.cq.homomorphism import evaluate, find_homomorphism
from repro.data.terms import is_null


class TestStandardChase:
    def test_full_tgds_reach_fixpoint(self):
        ontology = parse_ontology("R(x, y) -> R(y, x)\nR(x, y) -> A(x)")
        database = Database([Fact("R", ("a", "b"))])
        result = chase(database, ontology)
        assert Fact("R", ("b", "a")) in result.instance
        assert Fact("A", ("a",)) in result.instance
        assert Fact("A", ("b",)) in result.instance
        assert not result.truncated

    def test_existentials_introduce_nulls(self):
        ontology = parse_ontology("Researcher(x) -> HasOffice(x, y)")
        database = Database([Fact("Researcher", ("mary",))])
        result = chase(database, ontology)
        offices = [f for f in result.instance if f.relation == "HasOffice"]
        assert len(offices) == 1
        assert is_null(offices[0].args[1])

    def test_restricted_chase_does_not_fire_satisfied_heads(self):
        ontology = parse_ontology("Researcher(x) -> HasOffice(x, y)")
        database = Database(
            [Fact("Researcher", ("mary",)), Fact("HasOffice", ("mary", "room1"))]
        )
        result = chase(database, ontology)
        assert len(result.nulls()) == 0

    def test_oblivious_chase_fires_anyway(self):
        ontology = parse_ontology("Researcher(x) -> HasOffice(x, y)")
        database = Database(
            [Fact("Researcher", ("mary",)), Fact("HasOffice", ("mary", "room1"))]
        )
        result = chase(database, ontology, oblivious=True)
        assert len(result.nulls()) == 1

    def test_chase_result_is_a_model(self):
        ontology = parse_ontology(
            "Researcher(x) -> HasOffice(x, y)\nHasOffice(x, y) -> Office(y)\n"
            "Office(x) -> InBuilding(x, y)"
        )
        database = Database([Fact("Researcher", ("mary",))])
        result = chase(database, ontology)
        for tgd in ontology:
            body_query = tgd.body_query()
            head_query = tgd.head_query()
            for hom in [
                h
                for h in _all_body_matches(body_query, result.instance)
            ]:
                frontier = {v: hom[v] for v in tgd.frontier_variables()}
                assert find_homomorphism(head_query, result.instance, partial=frontier)

    def test_infinite_chase_is_truncated_by_depth(self):
        ontology = parse_ontology("A(x) -> R(x, y), A(y)")
        database = Database([Fact("A", ("a",))])
        result = chase(database, ontology, max_null_depth=3)
        assert result.truncated
        assert max(result.null_depth.values()) == 3

    def test_fact_budget_raises(self):
        ontology = parse_ontology("A(x) -> R(x, y), A(y)")
        database = Database([Fact("A", ("a",))])
        with pytest.raises(ChaseNotTerminating):
            chase(database, ontology, max_facts=10)

    def test_database_part_and_certain_facts(self):
        ontology = parse_ontology("Researcher(x) -> HasOffice(x, y)")
        database = Database([Fact("Researcher", ("mary",))])
        result = chase(database, ontology)
        assert certain_facts(result) == {Fact("Researcher", ("mary",))}
        assert result.database_part().facts() == {Fact("Researcher", ("mary",))}

    def test_null_blocks_group_connected_nulls(self):
        ontology = parse_ontology("A(x) -> R(x, y), S(y, z)")
        database = Database([Fact("A", ("a",)), Fact("A", ("b",))])
        result = chase(database, ontology)
        blocks = result.null_blocks()
        assert len(blocks) == 2
        for nulls, anchors in blocks:
            assert len(nulls) == 2
            assert len(anchors) == 1

    def test_empty_ontology(self):
        from repro.tgds.ontology import Ontology

        database = Database([Fact("A", ("a",))])
        result = chase(database, Ontology(()))
        assert result.instance.facts() == database.facts()


def _all_body_matches(body_query, instance):
    from repro.cq.homomorphism import all_homomorphisms

    if not body_query.atoms:
        return [{}]
    return list(all_homomorphisms(body_query.boolean_version(), instance))


class TestFreshNullContinuation:
    """Regression: null labels never alias across runs or instance copies."""

    OFFICE = "Researcher(x) -> HasOffice(x, y)\nOffice(x) -> InBuilding(x, y)"

    def test_independent_chase_runs_never_alias_labels(self):
        ontology = parse_ontology(self.OFFICE)
        first = chase(Database([Fact("Researcher", ("mary",))]), ontology)
        second = chase(Database([Fact("Researcher", ("mary",))]), ontology)
        assert first.nulls() and second.nulls()
        assert not ({n.label for n in first.nulls()} & {n.label for n in second.nulls()})

    def test_chase_of_database_and_its_copy_never_alias_labels(self):
        ontology = parse_ontology(self.OFFICE)
        database = Database([Fact("Researcher", ("mary",))])
        duplicate = database.copy()
        first = chase(database, ontology)
        second = chase(duplicate, ontology)
        assert not ({n.label for n in first.nulls()} & {n.label for n in second.nulls()})

    def test_instance_copies_continue_the_factory(self):
        database = Database([Fact("Researcher", ("mary",))])
        duplicate = database.copy()
        assert duplicate.null_factory is database.null_factory
        labels = {
            database.fresh_null().label,
            duplicate.fresh_null().label,
            database.fresh_null().label,
        }
        assert len(labels) == 3

    def test_interleaved_factories_stay_process_unique(self):
        from repro.data.terms import fresh_null, shared_null_factory

        factories = [shared_null_factory() for _ in range(3)]
        labels = [factory().label for factory in factories for _ in range(5)]
        labels.append(fresh_null().label)
        assert len(set(labels)) == len(labels)


class TestQueryDirectedChase:
    def test_office_example_sizes(self, office_omq, office_database):
        chased = query_directed_chase(
            office_database, office_omq.ontology, office_omq.query
        )
        # mike: office + building nulls, john: building null.
        assert len(chased.nulls()) == 3
        assert chased.database_constants() == frozenset(office_database.adom())
        assert chased.size() >= office_database.size()

    def test_certain_answers_via_chase(self, office_omq, office_database):
        chased = office_omq.chase(office_database)
        answers = evaluate(office_omq.query, chased.instance)
        complete = {a for a in answers if not any(is_null(v) for v in a)}
        assert complete == {("mary", "room1", "main1")}

    def test_blocks_have_bounded_size(self, office_omq, office_database):
        chased = office_omq.chase(office_database)
        for nulls, anchors in chased.blocks():
            assert len(nulls) <= 2
            assert len(anchors) <= 1

    def test_depth_override(self, office_omq, office_database):
        chased = query_directed_chase(
            office_database, office_omq.ontology, office_omq.query, null_depth=1
        )
        assert chased.null_depth_bound == 1

    def test_non_terminating_ontology_is_truncated(self):
        ontology = parse_ontology("Person(x) -> HasParent(x, y), Person(y)")
        query = parse_query("q(x, y) :- HasParent(x, y)")
        database = Database([Fact("Person", ("alice",))])
        chased = query_directed_chase(database, ontology, query)
        assert chased.result.truncated or len(chased.nulls()) > 0
        answers = evaluate(query, chased.instance)
        assert any(a[0] == "alice" for a in answers)

    def test_default_depth_reaches_an_answer_at_its_bound(self):
        # The counter's first all-ones node is 63 nulls below c.  With 50
        # TGDs and 12 query variables the default bound is 12 + 50 + 1 = 63
        # levels, so c's one answer sits exactly on it.  The P chain only
        # pads the query's variable count: every z maps to c.
        from repro.core import OMQ
        from repro.core.enumeration import CompleteAnswerEnumerator
        from repro.engine import QueryEngine

        ontology = _binary_counter(6)
        chain = ", ".join(f"P(z{i}, z{i + 1})" for i in range(10))
        query = parse_query(f"q(x) :- Up(x), P(x, z0), {chain}")
        database = Database([Fact("Start", ("c",)), Fact("P", ("c", "c"))])
        assert len(ontology) == 50 and len(query.variables()) == 12
        for depth, expected in ((62, set()), (63, {("c",)})):
            chased = query_directed_chase(database, ontology, query, null_depth=depth)
            assert set(evaluate(query, chased.instance)) == expected
        assert QueryEngine(ontology, database).execute(query) == {("c",)}
        omq = OMQ.from_parts(ontology, query)
        assert set(CompleteAnswerEnumerator(omq, database)) == {("c",)}

    def test_a_live_deeper_chase_is_not_shared(self):
        # The default bound misses the counter's answer at 1 + 50 + 1 = 52
        # levels and reaches it at 63, so an OMQ whose bound is 52 must not
        # read the depth-63 chase of an OMQ that is still alive: its answers
        # would then depend on which object was built first.
        from repro.core import OMQ
        from repro.core.enumeration import CompleteAnswerEnumerator

        ontology = _binary_counter(6)
        chain = ", ".join(f"P(z{i}, z{i + 1})" for i in range(10))
        padded = OMQ.from_parts(ontology, parse_query(f"q(x) :- Up(x), P(x, z0), {chain}"))
        bare = OMQ.from_parts(ontology, parse_query("q(x) :- Up(x)"))
        database = Database([Fact("Start", ("c",)), Fact("P", ("c", "c"))])
        alone = set(CompleteAnswerEnumerator(bare, database))
        deep = CompleteAnswerEnumerator(padded, database)
        shallow = CompleteAnswerEnumerator(bare, database)
        assert (deep.chase.null_depth_bound, shallow.chase.null_depth_bound) == (63, 52)
        assert set(shallow) == alone == set()
        assert set(deep) == {("c",)}

    @pytest.mark.xfail(
        strict=True,
        reason="the engine reuses its deepest chase, and the default depth is "
        "not sound on ELI (ROADMAP 7(v))",
    )
    def test_engine_answers_do_not_depend_on_query_order(self):
        # A fresh engine answers the depth-52 query over its own chase (no
        # answer); after the depth-63 padded query deepened the engine's
        # shared chase, the same query reads that chase and finds c.
        from repro.engine import QueryEngine

        ontology = _binary_counter(6)
        chain = ", ".join(f"P(z{i}, z{i + 1})" for i in range(10))
        padded = parse_query(f"q(x) :- Up(x), P(x, z0), {chain}")
        bare = parse_query("q(x) :- Up(x)")

        def database():
            return Database([Fact("Start", ("c",)), Fact("P", ("c", "c"))])

        alone = QueryEngine(ontology, database()).execute(bare)
        engine = QueryEngine(ontology, database())
        assert engine.execute(padded) == {("c",)}
        assert engine.execute(bare) == alone


def _binary_counter(bits):
    """ELI TGDs that count from 0 to ``2**bits - 1`` down an R-chain of nulls
    below each ``Start`` constant, then send ``Up`` back to the constant.

    A node holds bit ``i`` as ``B{i}`` (one) or ``N{i}`` (zero); ``C{i}``
    marks bits 1..i all one (the carry into bit i + 1) and ``D{i}`` some
    bit among 1..i zero.  The child of a node holds its value plus one, so
    the node at depth ``d`` holds ``d``, and ``Up`` first holds at depth
    ``2**bits - 1``.
    """
    rules = [f"Start(x) -> N{i}(x)" for i in range(1, bits + 1)]
    rules += [
        "Start(x) -> Node(x)",
        "Node(x) -> R(x, y)",
        "R(x, y) -> Node(y)",
        "B1(x) -> C1(x)",
        "N1(x) -> D1(x)",
        "R(x, y), B1(x) -> N1(y)",
        "R(x, y), N1(x) -> B1(y)",
        f"C{bits}(x) -> Up(x)",
        "R(x, y), Up(y) -> Up(x)",
    ]
    for i in range(2, bits + 1):
        rules += [
            f"C{i - 1}(x), B{i}(x) -> C{i}(x)",
            f"N{i}(x) -> D{i}(x)",
            f"D{i - 1}(x) -> D{i}(x)",
            f"R(x, y), C{i - 1}(x), B{i}(x) -> N{i}(y)",
            f"R(x, y), C{i - 1}(x), N{i}(x) -> B{i}(y)",
            f"R(x, y), D{i - 1}(x), B{i}(x) -> B{i}(y)",
            f"R(x, y), D{i - 1}(x), N{i}(x) -> N{i}(y)",
        ]
    return parse_ontology("\n".join(rules))


class TestHornSaturation:
    def test_saturation_adds_entailed_unary_facts(self):
        ontology = parse_ontology(
            "HasOffice(x, y) -> Office(y)\nOffice(x) -> Room(x)"
        )
        database = Database([Fact("HasOffice", ("mary", "room1"))])
        saturated = horn_saturation(database, ontology)
        assert Fact("Office", ("room1",)) in saturated
        assert Fact("Room", ("room1",)) in saturated

    def test_saturation_matches_chase_database_part(self, office_omq, office_database):
        saturated = horn_saturation(office_database, office_omq.ontology)
        chased = office_omq.chase(office_database)
        chase_certain = {f for f in chased.instance if not f.has_null()}
        assert chase_certain <= saturated.facts() | chase_certain
        assert {f for f in saturated if not f.has_null()} >= set(office_database)

    def test_saturation_with_existential_support(self):
        # B(x) is derivable only through the existential office.
        ontology = parse_ontology(
            "Researcher(x) -> HasOffice(x, y)\nHasOffice(x, y) -> Employed(x)"
        )
        database = Database([Fact("Researcher", ("mary",))])
        saturated = horn_saturation(database, ontology)
        assert Fact("Employed", ("mary",)) in saturated


# -- what the chase computes, pinned --------------------------------------


def _null_free(instance):
    return {fact for fact in instance if not fact.has_null()}


class TestChaseIsPinned:
    """Counts from the commit before the id-level trigger pipeline: the
    pipeline may get faster, what it computes may not move."""

    @pytest.mark.parametrize(
        "workload, size, expected",
        [
            ("lubm", 600, (6495, 6, 4134)),
            ("office", 400, (1600, 2, 716)),
        ],
    )
    def test_counts_and_determinism(self, workload, size, expected):
        from repro import workloads
        from repro.data.interning import TERMS

        omq = getattr(workloads, f"{workload}_omq")()
        database = getattr(workloads, f"generate_{workload}_database")(size)
        first = omq.chase(database)
        assert (len(first.instance), first.result.rounds, first.result.fired_triggers) == expected
        # Run twice, compare: same counts, same null-free facts, and the
        # database itself untouched by either run.
        before = len(database)
        second = omq.chase(database)
        assert len(database) == before
        assert len(second.instance) == len(first.instance)
        assert second.result.rounds == first.result.rounds
        assert second.result.fired_triggers == first.result.fired_triggers
        assert _null_free(second.instance) == _null_free(first.instance)
        for fact in first.instance:
            assert fact.iargs == TERMS.intern_tuple(fact.args)

    def test_integer_constants_keep_their_ids_apart(self):
        # An all-integer database: a dense id written where a term belongs
        # (or the reverse) would show up as a wrong argument here.
        from repro.data.interning import TERMS

        c = [10**9 + i for i in range(6)]
        ontology = parse_ontology(
            "A(x) -> R(x, y)\nR(x, y) -> B(y)\nB(x) -> S(x, y)\nS(x, y) -> T(y, x)"
        )
        database = Database(
            [Fact("A", (c[0],)), Fact("A", (c[1],)), Fact("R", (c[1], c[2])), Fact("B", (c[3],))]
        )
        result = chase(database, ontology)
        constants = set(c)
        for fact in result.instance:
            assert fact.iargs == TERMS.intern_tuple(fact.args)
            for arg in fact.args:
                assert is_null(arg) or arg in constants
        assert Fact("B", (c[2],)) in result.instance
        assert result.fired_triggers == 9 and len(result.nulls()) == 4


# -- trigger plan vs. the term-level route ---------------------------------


def _reference_chase(database, ontology, max_rounds=50):
    """The restricted chase by the book: every round, every body
    homomorphism, fire unless the head already has a homomorphism."""
    from repro.cq.homomorphism import all_homomorphisms
    from repro.data.instance import Instance

    instance = Instance(database)
    for _ in range(max_rounds):
        fired = False
        for tgd in ontology:
            matches = (
                list(all_homomorphisms(tgd.body_query().boolean_version(), instance))
                if tgd.body
                else [{}]
            )
            for match in matches:
                frontier = {v: match[v] for v in tgd.frontier_variables()}
                if find_homomorphism(tgd.head_query(), instance, partial=frontier):
                    continue
                for variable in tgd.existential_variables():
                    frontier[variable] = instance.fresh_null()
                for atom in tgd.head:
                    instance.add(atom.to_fact(frontier))
                fired = True
        if not fired:
            return instance
    raise AssertionError("reference chase did not terminate")


def _maps_into(source, target) -> bool:
    """True if ``source`` maps homomorphically into ``target`` (nulls move,
    constants stay)."""
    from repro.cq.atoms import Atom, Variable
    from repro.cq.query import ConjunctiveQuery

    def term(arg):
        return Variable(f"n{arg.label}") if is_null(arg) else arg

    atoms = [Atom(f.relation, [term(a) for a in f.args]) for f in source]
    return find_homomorphism(ConjunctiveQuery([], atoms), target) is not None


def _reference_answers(query, instance):
    from repro.core.wildcards import (
        collapse_nulls,
        collapse_nulls_multi,
        minimal_multi_tuples,
        minimal_partial_tuples,
    )

    answers = evaluate(query, instance)
    return (
        {a for a in answers if not any(is_null(v) for v in a)},
        minimal_partial_tuples({collapse_nulls(a) for a in answers}),
        minimal_multi_tuples({collapse_nulls_multi(a) for a in answers}),
    )


class _Log:
    """A recorder that keeps the rows, in the shape the chase hands them."""

    compiled = None

    def __init__(self):
        self.fired, self.suppressed = [], []

    def bind(self, instance, fired, fresh):
        self.instance = instance

    def log_fire(self, key, body_facts, created_facts, created_nulls):
        self.fired.append((key, body_facts, created_facts, created_nulls))

    def log_suppress(self, key, witness_facts):
        self.suppressed.append((key, witness_facts))


#: One ontology per shape a positional ``TriggerPlan`` must leave to the
#: homomorphism search, plus the plain shape as the control: (rules, facts,
#: query, the TGD whose body half / head half must be generic).
SHAPES = {
    "plain": (
        "A(x) -> R(x, y)\nR(x, y) -> B(y)",
        [("A", ("a",)), ("A", ("b",)), ("R", ("b", "c"))],
        "q(x, y) :- R(x, y), B(y)",
        None,
    ),
    "repeated-body-variable": (
        "R(x, x) -> A(x)\nA(x) -> S(x, y)",
        [("R", ("a", "a")), ("R", ("a", "b")), ("R", ("b", "b")), ("S", ("b", "c"))],
        "q(x, y) :- S(x, y)",
        "body",
    ),
    "repeated-existential": (
        "A(x) -> S(x, y, y)",
        [("A", ("a",)), ("A", ("b",)), ("S", ("a", "d", "e")), ("S", ("b", "d", "d"))],
        "q(x) :- S(x, y, z)",
        "head",
    ),
    "repeated-frontier-in-head": (
        "R(x, y) -> T(x, x, y)",
        [("R", ("a", "b")), ("R", ("c", "d")), ("T", ("a", "a", "b")), ("T", ("c", "e", "d"))],
        "q(x, y) :- T(x, z, y)",
        "head",
    ),
    "multi-atom-body": (
        "R(x, y), A(x) -> B(y)\nB(x) -> S(x, y)",
        [("R", ("a", "b")), ("A", ("a",)), ("R", ("c", "d")), ("B", ("e",)), ("S", ("e", "f"))],
        "q(x, y) :- S(x, y)",
        "body",
    ),
    "multi-atom-head": (
        "A(x) -> R(x, y), B(y)",
        [("A", ("a",)), ("A", ("b",)), ("R", ("a", "c")), ("B", ("c",)), ("R", ("b", "d"))],
        "q(x, y) :- R(x, y), B(y)",
        "head",
    ),
    "empty-frontier": (
        "A(x) -> B(y)\nB(x) -> S(x, y)",
        [("A", ("a",)), ("A", ("b",))],
        "q(x, y) :- S(x, y)",
        "head",
    ),
}


class TestTriggerPlanParity:
    @staticmethod
    def _setup(shape):
        from repro.core import OMQ

        rules, facts, query, generic = SHAPES[shape]
        ontology = parse_ontology(rules)
        database = Database(Fact(name, args) for name, args in facts)
        return OMQ.from_parts(ontology, parse_query(query)), database, generic

    @pytest.mark.parametrize("shape", SHAPES)
    def test_plan_takes_only_the_shapes_it_can_express(self, shape):
        from repro.chase.standard import compile_ontology

        omq, _, generic = self._setup(shape)
        plan = compile_ontology(omq.ontology).plans[0]
        assert (plan.body_relation is None) == (generic == "body")
        assert (plan.head_relation is None) == (generic == "head")

    @pytest.mark.parametrize("shape", SHAPES)
    def test_chase_is_equivalent_to_the_reference(self, shape):
        omq, database, _ = self._setup(shape)
        log = _Log()
        result = chase(database, omq.ontology, recorder=log)
        reference = _reference_chase(database, omq.ontology)
        assert _null_free(result.instance) == _null_free(reference)
        assert _maps_into(result.instance, reference)
        assert _maps_into(reference, result.instance)
        # What the recorder is handed is what the loop matched.
        assert len(log.fired) == result.fired_triggers
        for _, body_facts, created_facts, created_nulls in log.fired:
            assert all(fact in result.instance for fact in body_facts)
            assert all(fact in result.instance for fact in created_facts)
            assert set(created_nulls) <= {n for f in created_facts for n in f.nulls()}
        for (tgd_index, _), witness_facts in log.suppressed:
            head = omq.ontology.tgds[tgd_index].head
            assert len(witness_facts) == len(head)
            assert {f.relation for f in witness_facts} == {a.relation for a in head}
            assert all(fact in result.instance for fact in witness_facts)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_answers_match_the_reference_chase(self, shape):
        from repro.core import MinimalPartialAnswerEnumerator, MultiWildcardEnumerator
        from repro.core.enumeration import CompleteAnswerEnumerator

        omq, database, _ = self._setup(shape)
        complete, partial, multi = _reference_answers(
            omq.query, _reference_chase(database, omq.ontology)
        )
        assert set(CompleteAnswerEnumerator(omq, database)) == complete
        assert set(MinimalPartialAnswerEnumerator(omq, database)) == partial
        assert set(MultiWildcardEnumerator(omq, database)) == multi

    def test_a_longer_fact_in_the_probed_bucket_is_no_witness(self):
        # R is used at two arities: R(a) and R(b, c, d) sit in the buckets
        # the head probe of A(x) -> R(x, y) reads, and neither satisfies it.
        ontology = parse_ontology("A(x) -> R(x, y)")
        database = Database(
            [
                Fact("A", ("a",)),
                Fact("A", ("b",)),
                Fact("A", ("c",)),
                Fact("R", ("a",)),
                Fact("R", ("b", "c", "d")),
                Fact("R", ("c", "e")),
            ]
        )
        log = _Log()
        result = chase(database, ontology, recorder=log)
        assert result.fired_triggers == 2
        (suppressed,) = log.suppressed
        assert suppressed[1] == (Fact("R", ("c", "e")),)
        created = {row[2][0].args[0] for row in log.fired}
        assert created == {"a", "b"}
        reference = _reference_chase(database, ontology)
        assert _maps_into(result.instance, reference)
        assert _maps_into(reference, result.instance)

    def test_constants_in_rules_cannot_reach_the_plan(self):
        # The remaining shape a positional plan could not take — a constant
        # inside a body atom — is rejected where TGDs are built.
        from repro.cq.atoms import Atom, Variable
        from repro.tgds.tgd import TGD, TGDError

        x = Variable("x")
        with pytest.raises(TGDError):
            TGD([Atom("R", (x, "c"))], [Atom("A", (x,))])
