"""Tests for the OMQ class and reference certain-answer evaluation."""

import gc
import pickle

import pytest

import repro.core.omq
from repro import Database, Fact, parse_ontology, parse_query
from repro.baselines.naive import naive_certain_answers
from repro.core import (
    OMQ,
    WILDCARD,
    CompleteAnswerEnumerator,
    MinimalPartialAnswerEnumerator,
    MultiWildcardEnumerator,
    OMQAllTester,
    OMQSingleTester,
)
from repro.data.schema import SchemaError
from repro.tgds.ontology import Ontology


class TestOMQConstruction:
    def test_from_parts_infers_schema(self, office_omq):
        assert "HasOffice" in office_omq.data_schema
        assert "Researcher" in office_omq.data_schema
        assert office_omq.arity == 3

    def test_structural_properties(self, office_omq):
        assert office_omq.is_acyclic()
        assert office_omq.is_free_connex_acyclic()
        assert office_omq.is_weakly_acyclic()
        assert office_omq.is_self_join_free()
        assert office_omq.is_guarded()
        assert office_omq.is_eli()

    def test_largeoffice_ontology_is_guarded(self, largeoffice_omq):
        assert largeoffice_omq.is_guarded()

    def test_two_frontier_variables_make_an_ontology_non_eli(self):
        ontology = parse_ontology(
            "OfficeMate(x, y) -> HasOffice(x, z), HasOffice(y, z)"
        )
        query = parse_query("q(x, y) :- HasOffice(x, y)")
        omq = OMQ.from_parts(ontology, query)
        assert omq.is_guarded()
        assert not omq.is_eli()

    def test_validate_database(self, office_omq, office_database):
        office_omq.validate_database(office_database)
        bad = Database([Fact("Unknown", ("a",))])
        with pytest.raises(SchemaError):
            office_omq.validate_database(bad)

    def test_explicit_data_schema(self):
        ontology = parse_ontology("A(x) -> B(x)")
        query = parse_query("q(x) :- B(x)")
        from repro.data.schema import Schema

        omq = OMQ(ontology, Schema({"A": 1}), query)
        assert "A" in omq.data_schema
        assert "B" not in omq.data_schema


class TestCertainAnswers:
    def test_office_example(self, office_omq, office_database):
        assert naive_certain_answers(office_omq, office_database) == {
            ("mary", "room1", "main1")
        }
        assert naive_certain_answers(office_omq, office_database)

    def test_empty_database(self, office_omq):
        assert naive_certain_answers(office_omq, Database()) == set()
        assert not naive_certain_answers(office_omq, Database())

    def test_ontology_derives_new_answers(self):
        # The unary projection is entailed by the ontology even though the
        # office itself is anonymous.
        ontology = parse_ontology(
            "Employee(x) -> WorksFor(x, y)\nWorksFor(x, y) -> Employed(x)"
        )
        query = parse_query("q(x) :- Employed(x)")
        omq = OMQ.from_parts(ontology, query)
        database = Database([Fact("Employee", ("ann",))])
        assert naive_certain_answers(omq, database) == {("ann",)}

    def test_answers_never_contain_nulls(self, office_omq, office_database):
        for answer in naive_certain_answers(office_omq, office_database):
            for value in answer:
                assert value in office_database.adom()

    def test_empty_ontology_reduces_to_cq_evaluation(self):
        query = parse_query("q(x, y) :- R(x, y)")
        omq = OMQ.from_parts(Ontology(()), query)
        database = Database([Fact("R", ("a", "b"))])
        assert naive_certain_answers(omq, database) == {("a", "b")}

    def test_datalog_ontology_materialises(self):
        ontology = parse_ontology("R(x, y) -> T(x, y)\nT(x, y), T(y, z) -> T(x, z)")
        query = parse_query("q(x, y) :- T(x, y)")
        omq = OMQ.from_parts(ontology, query)
        database = Database(
            [Fact("R", ("a", "b")), Fact("R", ("b", "c")), Fact("R", ("c", "d"))]
        )
        answers = naive_certain_answers(omq, database)
        assert ("a", "d") in answers
        assert len(answers) == 6


def _every_kind(omq, database):
    return [
        CompleteAnswerEnumerator(omq, database),
        MinimalPartialAnswerEnumerator(omq, database),
        MultiWildcardEnumerator(omq, database),
        OMQSingleTester(omq, database),
        OMQAllTester(omq, database),
    ]


class TestSharedChase:
    """The repro.core constructors chase once per database version while
    some object holds the run; OMQ.chase and the oracle always run afresh."""

    def test_live_objects_share_one_chase(self, office_omq, office_database):
        objects = _every_kind(office_omq, office_database)
        assert len({id(obj.chase.result) for obj in objects}) == 1
        assert len({id(obj.chase) for obj in objects}) == len(objects)
        assert len(office_database.chase_memo) == 1

    def test_a_mutation_gets_a_fresh_chase(self, office_omq, office_database):
        before = OMQSingleTester(office_omq, office_database)
        added = Fact("InBuilding", ("room4", "annex"))
        office_database.add(added)
        after = OMQAllTester(office_omq, office_database)
        assert after.chase.result is not before.chase.result
        assert added in after.chase.instance and added not in before.chase.instance
        assert after.test(("john", "room4", "annex"))

    def test_holders_leave_the_shared_chase_unchanged(self, office_omq, office_database):
        complete, partial, multi, single, every = _every_kind(office_omq, office_database)
        instance = complete.chase.instance
        version, size = instance.version, len(instance)
        complete_answers, partial_answers = set(complete), set(partial)
        multi_answers = set(multi)
        assert set(partial.enumerate_complete_first()) == partial_answers
        assert ("mike", WILDCARD, WILDCARD) in partial_answers
        for answer in complete_answers | partial_answers | multi_answers:
            assert single.test_minimal_partial_multi(answer) == (answer in multi_answers)
            assert single.test_minimal_partial(answer) == (answer in partial_answers)
            assert every.test(answer) == (answer in complete_answers)
        assert (instance.version, len(instance)) == (version, size)

    def test_nothing_outlives_its_holders(self, office_omq, office_database):
        tester = OMQSingleTester(office_omq, office_database)
        assert len(office_database.chase_memo) == 1
        del tester
        gc.collect()
        assert len(office_database.chase_memo) == 0

    def test_a_pickled_database_starts_with_no_chase(self, office_omq, office_database):
        tester = OMQSingleTester(office_omq, office_database)
        copy = pickle.loads(pickle.dumps(office_database))
        assert copy == office_database and len(copy.chase_memo) == 0
        assert OMQSingleTester(office_omq, copy).chase.result is not tester.chase.result

    def test_fresh_runs_never_share(self, office_omq, office_database, monkeypatch):
        tester = OMQSingleTester(office_omq, office_database)
        assert office_omq.chase(office_database).result is not tester.chase.result
        runs = []
        run = repro.core.omq.query_directed_chase

        def counted(*args, **kwargs):
            runs.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(repro.core.omq, "query_directed_chase", counted)
        expected = set(CompleteAnswerEnumerator(office_omq, office_database))
        assert runs == []  # read the live tester's chase
        assert naive_certain_answers(office_omq, office_database) == expected
        assert len(runs) == 1

    def test_testers_leave_the_database_adjacency_unbuilt(
        self, office_omq, office_database
    ):
        OMQSingleTester(office_omq, office_database)
        OMQAllTester(office_omq, office_database)
        assert office_database._by_constant is None
