"""Tests for single-testing (Theorem 3.1) and all-testing (Theorem 4.1(2))."""

import random

import pytest

from repro import Database, Fact, parse_ontology, parse_query
from repro.baselines import (
    naive_certain_answers,
    naive_minimal_partial_answers,
    naive_minimal_partial_answers_multi,
    naive_partial_answers,
)
from repro.core import OMQ, WILDCARD, OMQAllTester, OMQSingleTester, Wildcard
from repro.core.wildcards import leq_partial
from repro.cq.query import QueryError
from repro.tgds.ontology import Ontology
from repro.workloads import generate_office_database
from tests.conftest import random_office_database


class TestCompleteSingleTesting:
    def test_office_example(self, office_omq, office_database):
        tester = OMQSingleTester(office_omq, office_database)
        assert tester.test_complete(("mary", "room1", "main1"))
        assert not tester.test_complete(("john", "room4", "main1"))
        assert not tester.test_complete(("mike", "room1", "main1"))

    def test_values_outside_adom_rejected(self, office_omq, office_database):
        tester = OMQSingleTester(office_omq, office_database)
        assert not tester.test_complete(("mary", "room1", "atlantis"))

    def test_wrong_arity_raises(self, office_omq, office_database):
        tester = OMQSingleTester(office_omq, office_database)
        with pytest.raises(Exception):
            tester.test_complete(("mary",))
        all_tester = OMQAllTester(office_omq, office_database)
        for candidate in (("mary",), ("atlantis",)):
            with pytest.raises(QueryError):
                all_tester.test(candidate)

    def test_repeated_answer_variables(self):
        ontology = parse_ontology("Friend(x, y) -> Person(x)")
        query = parse_query("q(x, y) :- Friend(x, y), Person(x)")
        omq = OMQ.from_parts(ontology, query)
        database = Database([Fact("Friend", ("a", "b"))])
        tester = OMQSingleTester(omq, database)
        assert tester.test_complete(("a", "b"))
        assert not tester.test_complete(("b", "a"))

    def test_matches_naive_on_random_databases(self, office_omq):
        rng = random.Random(5)
        for _ in range(10):
            database = random_office_database(rng)
            tester = OMQSingleTester(office_omq, database)
            expected = naive_certain_answers(office_omq, database)
            adom = sorted(database.adom(), key=repr)
            candidates = set(expected)
            for _ in range(15):
                candidates.add(tuple(rng.choice(adom) for _ in range(3)))
            for candidate in candidates:
                assert tester.test_complete(candidate) == (candidate in expected)


class TestPartialSingleTesting:
    def test_paper_example_minimal_answers(self, office_omq, office_database):
        tester = OMQSingleTester(office_omq, office_database)
        assert tester.test_minimal_partial(("mary", "room1", "main1"))
        assert tester.test_minimal_partial(("john", "room4", WILDCARD))
        assert tester.test_minimal_partial(("mike", WILDCARD, WILDCARD))

    def test_non_minimal_partial_answers(self, office_omq, office_database):
        tester = OMQSingleTester(office_omq, office_database)
        # Partial but not minimal: can be improved to (mary, room1, main1).
        assert tester.test_partial(("mary", "room1", WILDCARD))
        assert not tester.test_minimal_partial(("mary", "room1", WILDCARD))
        assert tester.test_partial((WILDCARD, WILDCARD, WILDCARD))
        assert not tester.test_minimal_partial((WILDCARD, WILDCARD, WILDCARD))

    def test_non_partial_answers(self, office_omq, office_database):
        tester = OMQSingleTester(office_omq, office_database)
        assert not tester.test_partial(("john", "room1", WILDCARD))
        assert not tester.test_minimal_partial(("main1", WILDCARD, WILDCARD))

    def test_partial_testing_matches_naive(self, office_omq):
        rng = random.Random(17)
        for _ in range(8):
            database = random_office_database(rng)
            tester = OMQSingleTester(office_omq, database)
            minimal = naive_minimal_partial_answers(office_omq, database)
            partial = naive_partial_answers(office_omq, database)
            for candidate in minimal:
                assert tester.test_minimal_partial(candidate), candidate
            # Everything strictly above a minimal answer is partial but not minimal.
            for candidate in partial - minimal:
                assert tester.test_partial(candidate)
                assert not tester.test_minimal_partial(candidate)

    def test_partial_answers_closed_upwards(self, office_omq, office_database):
        tester = OMQSingleTester(office_omq, office_database)
        base = ("john", "room4", WILDCARD)
        weaker = ("john", WILDCARD, WILDCARD)
        assert leq_partial(base, weaker)
        assert tester.test_partial(base) and tester.test_partial(weaker)


class TestMultiWildcardSingleTesting:
    def test_office_example(self, office_omq, office_database):
        tester = OMQSingleTester(office_omq, office_database)
        assert tester.test_minimal_partial_multi(("mike", Wildcard(1), Wildcard(2)))
        assert not tester.test_minimal_partial_multi(("mike", Wildcard(1), Wildcard(1)))
        assert tester.test_minimal_partial_multi(("john", "room4", Wildcard(1)))

    def test_largeoffice_example(self, largeoffice_omq, largeoffice_database):
        tester = OMQSingleTester(largeoffice_omq, largeoffice_database)
        answer = ("mike", Wildcard(1), Wildcard(1), Wildcard(2))
        non_minimal = ("mike", Wildcard(1), Wildcard(2), Wildcard(3))
        assert tester.test_minimal_partial_multi(answer)
        assert tester.test_partial_multi(non_minimal)
        assert not tester.test_minimal_partial_multi(non_minimal)

    def test_matches_naive_enumeration(self, office_omq):
        rng = random.Random(23)
        for _ in range(6):
            database = random_office_database(rng)
            tester = OMQSingleTester(office_omq, database)
            expected = naive_minimal_partial_answers_multi(office_omq, database)
            for candidate in expected:
                assert tester.test_minimal_partial_multi(candidate), candidate

    def test_officemate_example(self):
        # Example 2.2, Q'' and D'': (mary, mike, *1, *1) is a minimal partial
        # answer because the office mates share an (anonymous) office.
        ontology = parse_ontology(
            """
            Researcher(x) -> HasOffice(x, y)
            HasOffice(x, y) -> Office(y)
            Office(x) -> InBuilding(x, y)
            OfficeMate(x, y) -> HasOffice(x, z), HasOffice(y, z)
            """
        )
        query = parse_query(
            "q(x1, x2, x3, x4) :- HasOffice(x1, x3), HasOffice(x2, x4), "
            "InBuilding(x3, y), InBuilding(x4, y)"
        )
        omq = OMQ.from_parts(ontology, query)
        database = Database(
            [
                Fact("Researcher", ("mary",)),
                Fact("Researcher", ("mike",)),
                Fact("HasOffice", ("mary", "room1")),
                Fact("InBuilding", ("room1", "main1")),
                Fact("OfficeMate", ("mary", "mike")),
            ]
        )
        tester = OMQSingleTester(omq, database)
        assert tester.test_minimal_partial_multi(
            ("mary", "mike", Wildcard(1), Wildcard(1))
        )


class TestAllTesting:
    def test_office_example(self, office_omq, office_database):
        tester = OMQAllTester(office_omq, office_database)
        assert tester(("mary", "room1", "main1"))
        assert not tester(("john", "room4", "main1"))
        assert not tester(("mary", "room1", "room1"))

    def test_requires_free_connex(self):
        ontology = parse_ontology("R(x, y) -> A(x)")
        query = parse_query("q(x, y) :- R(x, z), S(z, y)")
        omq = OMQ.from_parts(ontology, query)
        with pytest.raises(Exception):
            OMQAllTester(omq, Database([Fact("R", ("a", "b"))]))

    def test_matches_naive_on_random_databases(self, office_omq):
        rng = random.Random(31)
        for _ in range(8):
            database = random_office_database(rng)
            tester = OMQAllTester(office_omq, database)
            expected = naive_certain_answers(office_omq, database)
            adom = sorted(database.adom(), key=repr)
            for _ in range(20):
                candidate = tuple(rng.choice(adom) for _ in range(3))
                assert tester.test(candidate) == (candidate in expected)
            for answer in expected:
                assert tester.test(answer)


class TestSeededSingleTests:
    def test_constant_first_seen_by_the_test(self):
        """A constant no index has interned yet is still found: the seeded
        read builds the positional index before translating constants."""
        omq = OMQ.from_parts(Ontology([], name="empty"), parse_query("q(x) :- A(x)"))
        constant = "seeded-intern-order-root"
        tester = OMQSingleTester(omq, Database([Fact("A", (constant,))]))
        assert tester.test_minimal_partial((constant,))
        # The same trap one level down, where the constant sits in a child.
        query = parse_query("q(x, y) :- R(x, z), S(z, y)")
        omq = OMQ.from_parts(Ontology([], name="empty"), query)
        a, b, d = (f"seeded-intern-order-{name}" for name in "abd")
        tester = OMQSingleTester(omq, Database([Fact("R", (a, b)), Fact("S", (b, d))]))
        assert tester.test_complete((a, d))
        assert tester.test_minimal_partial((a, d))

    def test_work_per_test_does_not_grow_with_the_data(self, office_omq):
        """Thm 3.1 single tests read only what the candidate's constants
        reach: the rows each test materialises are the same on office-N and
        office-4N (person0 has no office; person2's office has a building,
        person3's does not)."""
        work = []
        for size in (250, 1000):
            database = generate_office_database(size, seed=0)
            (located,) = database.probe("InBuilding", (0,), ("office2",))
            building = located.args[1]
            tester = OMQSingleTester(office_omq, database)
            checks = [
                (tester.test_complete, ("person2", "office2", building), True),
                (tester.test_complete, ("person3", "office3", building), False),
                (tester.test_minimal_partial, ("person0", WILDCARD, WILDCARD), True),
                (tester.test_minimal_partial, ("person2", "office2", WILDCARD), False),
                (tester.test_minimal_partial, ("person3", "office3", WILDCARD), True),
                (tester.test_minimal_partial_multi, ("person0", Wildcard(1), Wildcard(2)), True),
                (tester.test_minimal_partial_multi, ("person3", "office3", Wildcard(1)), True),
            ]
            rows = []
            for test, candidate, expected in checks:
                before = tester.rows_read
                assert test(candidate) == expected, candidate
                rows.append(tester.rows_read - before)
            work.append(rows)
        assert all(rows > 0 for rows in work[0])
        assert work[0] == work[1], work
