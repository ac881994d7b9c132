"""Tests for TGDs, guardedness, ELI and ontologies."""

import pytest

from repro.cq import Variable, parse_query
from repro.cq.atoms import Atom
from repro.tgds import (
    TGD,
    TGDError,
    Ontology,
    is_eli_tgd,
    is_eliq,
    parse_ontology,
    parse_tgd,
)

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


class TestTGD:
    def test_frontier_and_existentials(self):
        tgd = parse_tgd("Researcher(x) -> HasOffice(x, y)")
        assert tgd.frontier_variables() == {X}
        assert tgd.existential_variables() == {Y}
        assert not tgd.is_full()

    def test_full_tgd(self):
        tgd = parse_tgd("HasOffice(x, y) -> Office(y)")
        assert tgd.is_full()
        assert tgd.existential_variables() == set()

    def test_guardedness(self):
        assert parse_tgd("R(x, y) -> S(x, y)").is_guarded()
        assert parse_tgd("A(x), B(y) -> R(x, y)").is_guarded() is False
        assert parse_tgd("R(x, y), A(x) -> S(y)").is_guarded()

    def test_true_body_is_guarded(self):
        tgd = parse_tgd("true -> Seed(x)")
        assert tgd.is_guarded()
        assert tgd.body == frozenset()

    def test_guard_atom(self):
        tgd = parse_tgd("R(x, y), A(x) -> S(x)")
        guard = tgd.guard()
        assert guard is not None and guard.relation == "R"

    def test_empty_head_rejected(self):
        with pytest.raises(TGDError):
            TGD([Atom("R", (X, Y))], [])

    def test_constants_rejected(self):
        with pytest.raises(TGDError):
            TGD([Atom("R", (X, "a"))], [Atom("S", (X,))])

    def test_body_and_head_queries(self):
        tgd = parse_tgd("R(x, y) -> S(x, z)")
        assert tgd.body_query().answer_variables == (X,)
        assert tgd.head_query().answer_variables == (X,)

    def test_relations_and_arity(self):
        tgd = parse_tgd("R(x, y) -> S(x), T(x, y, y)")
        assert tgd.relations() == {"R", "S", "T"}
        assert tgd.max_arity() == 3

    def test_parse_requires_arrow(self):
        with pytest.raises(TGDError):
            parse_tgd("R(x, y), S(x, y)")


class TestELI:
    def test_office_tgds_are_eli(self):
        for text in (
            "Researcher(x) -> HasOffice(x, y)",
            "HasOffice(x, y) -> Office(y)",
            "Office(x) -> InBuilding(x, y)",
        ):
            assert is_eli_tgd(parse_tgd(text)), text

    def test_two_frontier_variables_is_not_eli(self):
        assert not is_eli_tgd(parse_tgd("OfficeMate(x, y) -> HasOffice(x, z), HasOffice(y, z)"))

    def test_high_arity_is_not_eli(self):
        assert not is_eli_tgd(parse_tgd("T(x, y, z) -> A(x)"))

    def test_reflexive_loop_is_not_eli(self):
        assert not is_eli_tgd(parse_tgd("A(x) -> R(x, x)"))

    def test_multi_edge_head_is_not_eli(self):
        assert not is_eli_tgd(parse_tgd("A(x) -> R(x, y), S(x, y)"))

    def test_disconnected_head_is_not_eli(self):
        assert not is_eli_tgd(parse_tgd("A(x) -> B(x), C(y)"))

    def test_cyclic_head_is_not_eli(self):
        assert not is_eli_tgd(
            parse_tgd("A(x) -> R(x, y), S(y, z), T(z, x)")
        )

    def test_inverse_role_is_eli(self):
        assert is_eli_tgd(parse_tgd("A(x) -> R(y, x), B(y)"))

    def test_eliq(self):
        assert is_eliq(parse_query("q(x) :- R(x, y), A(y), S(y, z)"))
        assert not is_eliq(parse_query("q(x, y) :- R(x, y)"))
        assert not is_eliq(parse_query("q(x) :- R(x, y), S(y, x)"))
        assert not is_eliq(parse_query('q(x) :- R(x, "a")'))


class TestOntology:
    def test_parse_ontology_skips_comments(self):
        ontology = parse_ontology(
            """
            # a comment
            Researcher(x) -> HasOffice(x, y)

            % another comment
            HasOffice(x, y) -> Office(y)
            """
        )
        assert len(ontology) == 2

    def test_guarded_and_eli_flags(self):
        office = parse_ontology(
            "Researcher(x) -> HasOffice(x, y)\nHasOffice(x, y) -> Office(y)"
        )
        assert office.is_guarded() and office.is_eli()
        unguarded = parse_ontology("A(x), B(y) -> R(x, y)")
        assert not unguarded.is_guarded()

    def test_schema_and_relations(self):
        ontology = parse_ontology("R(x, y) -> A(x)")
        assert ontology.relations() == {"R", "A"}
        assert ontology.schema().arity("R") == 2

    def test_empty_ontology(self):
        ontology = Ontology(())
        assert ontology.is_empty()
        assert ontology.is_guarded() and ontology.is_eli()
        assert ontology.max_arity() == 0

    def test_radius_measures(self):
        ontology = parse_ontology("A(x) -> R(x, y), B(y)\nR(x, y), B(y) -> C(x)")
        assert ontology.max_head_radius() == 2
        assert ontology.max_body_radius() == 2

