"""Tests for the OMQ class and reference certain-answer evaluation."""

import pytest

from repro import Database, Fact, parse_ontology, parse_query
from repro.baselines.naive import naive_certain_answers
from repro.core import OMQ
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
