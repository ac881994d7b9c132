"""Tests for the plain-CQ reduction, CD∘Lin enumeration and all-testing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq import parse_query
from repro.cq.homomorphism import evaluate
from repro.data import TERMS, Fact, Instance
from repro.data.terms import Null
from repro.enumeration import (
    CDLinEnumerator,
    FreeConnexAllTester,
    build_reduced_query,
    enumerate_answers,
)
from repro.enumeration.cdlin import answers_as_set
from repro.enumeration.reduction import component_projection
from repro.yannakakis import decompose_free_connex
from repro.yannakakis.evaluation import NotAcyclicError


def sample_instance() -> Instance:
    return Instance(
        [
            Fact("R", ("a", "b")),
            Fact("R", ("a", "c")),
            Fact("R", ("d", "e")),
            Fact("S", ("b", "x")),
            Fact("S", ("c", "y")),
            Fact("A", ("a",)),
            Fact("A", ("d",)),
        ]
    )


class TestReducedQuery:
    def test_reduction_preserves_answers(self):
        query = parse_query("q(x, y, z) :- R(x, y), S(y, z), A(x)")
        instance = sample_instance()
        reduced = build_reduced_query(query, instance)
        assert not reduced.is_empty
        expected = evaluate(query, instance)
        assert answers_as_set(query, instance) == expected

    def test_reduction_detects_empty(self):
        query = parse_query("q(x) :- R(x, y), Missing(y)")
        reduced = build_reduced_query(query, sample_instance())
        assert reduced.is_empty

    def test_reduction_blocks_are_globally_consistent(self):
        query = parse_query("q(x, y) :- R(x, y), S(y, z), A(x)")
        instance = sample_instance()
        reduced = build_reduced_query(query, instance)
        answers = evaluate(query, instance)
        for block in reduced.blocks:
            relation = reduced.relations[block.atom]
            for row in relation.tuples:
                assignment = dict(zip(relation.variables, TERMS.decode_tuple(row)))
                assert any(
                    all(
                        answer[query.answer_variables.index(v)] == value
                        for v, value in assignment.items()
                        if v in query.answer_variables
                    )
                    for answer in answers
                ), "every block row must extend to a full answer"

    def test_reduction_rejects_repeated_head(self):
        query = parse_query("q(x, x) :- R(x, y)")
        with pytest.raises(Exception):
            build_reduced_query(query, sample_instance())

    def test_reduction_rejects_cyclic_query(self):
        query = parse_query("q(x) :- R(x, y), S(y, z), T(z, x)")
        with pytest.raises(NotAcyclicError):
            build_reduced_query(query, sample_instance())

    def test_keep_nulls_mode(self):
        null = Null(100)
        instance = Instance([Fact("R", ("a", null)), Fact("S", (null, "z"))])
        query = parse_query("q(x, y, z) :- R(x, y), S(y, z)")
        with_nulls = build_reduced_query(query, instance, keep_nulls=True)
        without = build_reduced_query(query, instance, keep_nulls=False)
        assert not with_nulls.is_empty
        assert without.is_empty
        assert any(
            any(TERMS.is_null_id(v) for v in row)
            for block in with_nulls.blocks
            for row in with_nulls.relations[block.atom].tuples
        )


    def test_null_filter_keeps_null_free_rows(self):
        instance = Instance(
            [
                Fact("R", ("a", "b")),
                Fact("R", ("a", Null(101))),
                Fact("R", (Null(102), "b")),
                Fact("R", (Null(103), Null(104))),
            ]
        )
        query = parse_query("q(x, y) :- R(x, y)")
        (component,) = decompose_free_connex(query).components
        rows = component_projection(component, instance, keep_nulls=False)
        assert {TERMS.decode_tuple(row) for row in rows} == {("a", "b")}
        assert len(component_projection(component, instance, keep_nulls=True)) == 4
        only_nulls = Instance([Fact("R", ("a", Null(105)))])
        assert component_projection(component, only_nulls, keep_nulls=False) is None


class TestCDLinEnumerator:
    def test_matches_reference_evaluation(self):
        query = parse_query("q(x, y, z) :- R(x, y), S(y, z)")
        instance = sample_instance()
        expected = evaluate(query, instance)
        assert set(enumerate_answers(query, instance)) == expected

    def test_no_duplicates(self):
        query = parse_query("q(x) :- R(x, y)")
        answers = list(enumerate_answers(query, sample_instance()))
        assert len(answers) == len(set(answers))

    def test_boolean_query(self):
        query = parse_query("q() :- R(x, y), S(y, z)")
        assert set(enumerate_answers(query, sample_instance())) == {()}
        empty_query = parse_query("q() :- Missing(x)")
        assert set(enumerate_answers(empty_query, sample_instance())) == set()

    def test_repeated_head_variables(self):
        query = parse_query("q(x, x) :- A(x)")
        assert set(enumerate_answers(query, sample_instance())) == {
            ("a", "a"),
            ("d", "d"),
        }

    def test_disconnected_query_is_cross_product(self):
        query = parse_query("q(x, u) :- A(x), S(u, w)")
        expected = evaluate(query, sample_instance())
        assert set(enumerate_answers(query, sample_instance())) == expected
        assert len(expected) == 4

    def test_count_and_is_empty(self):
        query = parse_query("q(x) :- A(x)")
        enumerator = CDLinEnumerator(query, sample_instance())
        assert not enumerator.is_empty()
        assert enumerator.count() == 2

    def test_constants_in_query(self):
        query = parse_query('q(y) :- R("a", y)')
        assert set(enumerate_answers(query, sample_instance())) == {("b",), ("c",)}

    def test_null_answers_are_excluded_by_default(self):
        null = Null(200)
        instance = Instance([Fact("R", ("a", null)), Fact("R", ("a", "b"))])
        query = parse_query("q(x, y) :- R(x, y)")
        assert set(enumerate_answers(query, instance)) == {("a", "b")}
        assert set(enumerate_answers(query, instance, keep_nulls=True)) == {
            ("a", "b"),
            ("a", null),
        }


class TestFreeConnexAllTester:
    def test_agrees_with_evaluation(self):
        query = parse_query("q(x, y) :- R(x, y), S(y, z)")
        instance = sample_instance()
        tester = FreeConnexAllTester(query, instance)
        answers = evaluate(query, instance)
        domain = sorted(instance.adom(), key=repr)
        for left in domain:
            for right in domain:
                assert tester.test((left, right)) == ((left, right) in answers)

    def test_non_acyclic_but_free_connex_query(self):
        # Full triangle: not acyclic, but free-connex acyclic, so all-testing
        # is still available (Proposition 4.2).
        instance = Instance(
            [
                Fact("R", ("a", "b")),
                Fact("S", ("b", "c")),
                Fact("T", ("c", "a")),
                Fact("T", ("c", "d")),
            ]
        )
        query = parse_query("q(x, y, z) :- R(x, y), S(y, z), T(z, x)")
        tester = FreeConnexAllTester(query, instance)
        assert tester.test(("a", "b", "c"))
        assert not tester.test(("d", "b", "c"))

    def test_empty_query_result(self):
        query = parse_query("q(x) :- Missing(x)")
        tester = FreeConnexAllTester(query, sample_instance())
        assert tester.is_empty()
        assert not tester.test(("a",))

    def test_repeated_head_variables(self):
        query = parse_query("q(x, x) :- A(x)")
        tester = FreeConnexAllTester(query, sample_instance())
        assert tester.test(("a", "a"))
        assert not tester.test(("a", "d"))

    def test_wrong_arity_raises(self):
        query = parse_query("q(x) :- A(x)")
        tester = FreeConnexAllTester(query, sample_instance())
        with pytest.raises(Exception):
            tester.test(("a", "b"))


def _random_instance(rng: random.Random) -> Instance:
    constants = ["a", "b", "c", "d", "e"]
    facts = []
    for _ in range(rng.randint(1, 15)):
        facts.append(Fact("R", (rng.choice(constants), rng.choice(constants))))
    for _ in range(rng.randint(1, 15)):
        facts.append(Fact("S", (rng.choice(constants), rng.choice(constants))))
    for _ in range(rng.randint(0, 5)):
        facts.append(Fact("A", (rng.choice(constants),)))
    return Instance(facts)


_QUERIES = [
    "q(x, y, z) :- R(x, y), S(y, z)",
    "q(x, y) :- R(x, y), A(x)",
    "q(x) :- R(x, y), S(y, z)",
    "q(x, u) :- A(x), S(u, w)",
    "q(x, y) :- R(x, y), S(y, z), A(x)",
]


@pytest.mark.slow
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_cdlin_enumeration_matches_reference_on_random_instances(seed):
    """Property: CD∘Lin enumeration equals the reference evaluator."""
    rng = random.Random(seed)
    instance = _random_instance(rng)
    for text in _QUERIES:
        query = parse_query(text)
        assert set(enumerate_answers(query, instance)) == evaluate(query, instance)


@pytest.mark.slow
@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_all_tester_matches_reference_on_random_instances(seed):
    """Property: the all-tester agrees with the reference evaluator."""
    rng = random.Random(seed)
    instance = _random_instance(rng)
    query = parse_query("q(x, y) :- R(x, y), S(y, z)")
    tester = FreeConnexAllTester(query, instance)
    answers = evaluate(query, instance)
    domain = sorted(instance.adom(), key=repr)
    for left in domain:
        for right in domain:
            assert tester.test((left, right)) == ((left, right) in answers)
