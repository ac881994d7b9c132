"""Tests for the OMQ enumerators: Theorems 4.1(1), 5.2, 6.1 and Prop. 2.1."""

import gc
import random

import pytest

from repro import Database, Fact, parse_ontology, parse_query
from repro.baselines import (
    naive_certain_answers,
    naive_minimal_partial_answers,
    naive_minimal_partial_answers_multi,
)
from repro.core import (
    OMQ,
    WILDCARD,
    CompleteAnswerEnumerator,
    MinimalPartialAnswerEnumerator,
    MultiWildcardEnumerator,
    Wildcard,
)
from repro.core import multiwildcard, wildcards
from repro.core.progress import STAR, PartialAnswerEnumerator
from repro.workloads import (
    generate_office_database,
    generate_university_database,
    office_omq,
    university_omq,
)
from repro.workloads.office import OfficeProfile
from tests.conftest import random_office_database


class TestCompleteAnswerEnumeration:
    def test_office_example(self, office_omq, office_database):
        answers = list(CompleteAnswerEnumerator(office_omq, office_database))
        assert answers == [("mary", "room1", "main1")]

    def test_no_duplicates_and_matches_naive(self, office_omq):
        rng = random.Random(3)
        for _ in range(10):
            database = random_office_database(rng)
            answers = list(CompleteAnswerEnumerator(office_omq, database))
            assert len(answers) == len(set(answers))
            assert set(answers) == naive_certain_answers(office_omq, database)

    def test_rejects_non_free_connex_query(self):
        ontology = parse_ontology("R(x, y) -> A(x)")
        query = parse_query("q(x, y) :- R(x, z), S(z, y)")
        omq = OMQ.from_parts(ontology, query)
        with pytest.raises(Exception):
            CompleteAnswerEnumerator(omq, Database([Fact("R", ("a", "b"))]))

    def test_strict_false_allows_structurally_fine_queries(self):
        ontology = parse_ontology("R(x, y) -> A(x)")
        query = parse_query("q(x, y) :- R(x, y), A(x)")
        omq = OMQ.from_parts(ontology, query)
        database = Database([Fact("R", ("a", "b"))])
        answers = set(CompleteAnswerEnumerator(omq, database, strict=False))
        assert answers == {("a", "b")}

    def test_university_workload(self):
        omq = university_omq()
        database = generate_university_database(40, seed=1)
        answers = set(CompleteAnswerEnumerator(omq, database))
        assert answers == naive_certain_answers(omq, database)

    def test_empty_database(self, office_omq):
        enumerator = CompleteAnswerEnumerator(office_omq, Database())
        assert enumerator.is_empty()
        assert list(enumerator) == []


class TestMinimalPartialAnswerEnumeration:
    def test_paper_example(self, office_omq, office_database):
        answers = set(MinimalPartialAnswerEnumerator(office_omq, office_database))
        assert answers == {
            ("mary", "room1", "main1"),
            ("john", "room4", WILDCARD),
            ("mike", WILDCARD, WILDCARD),
        }

    def test_no_duplicates(self, office_omq, office_database):
        answers = list(MinimalPartialAnswerEnumerator(office_omq, office_database))
        assert len(answers) == len(set(answers))

    def test_contains_all_complete_answers(self, office_omq):
        rng = random.Random(41)
        for _ in range(6):
            database = random_office_database(rng)
            partial = set(MinimalPartialAnswerEnumerator(office_omq, database))
            complete = naive_certain_answers(office_omq, database)
            assert complete <= partial

    @pytest.mark.slow
    def test_matches_naive_on_random_databases(self, office_omq):
        rng = random.Random(43)
        for _ in range(12):
            database = random_office_database(rng)
            got = list(MinimalPartialAnswerEnumerator(office_omq, database))
            assert len(got) == len(set(got))
            assert set(got) == naive_minimal_partial_answers(office_omq, database)

    def test_largeoffice_example(self, largeoffice_omq, largeoffice_database):
        got = set(MinimalPartialAnswerEnumerator(largeoffice_omq, largeoffice_database))
        assert got == naive_minimal_partial_answers(
            largeoffice_omq, largeoffice_database
        )
        assert ("mike", WILDCARD, WILDCARD, WILDCARD) in got

    def test_university_workload(self):
        omq = university_omq()
        database = generate_university_database(30, seed=7)
        got = set(MinimalPartialAnswerEnumerator(omq, database))
        assert got == naive_minimal_partial_answers(omq, database)

    def test_cone_example(self, cone_example_omq, cone_example_database):
        got = set(MinimalPartialAnswerEnumerator(cone_example_omq, cone_example_database))
        assert got == {("c", "cprime", WILDCARD, WILDCARD)}

    def test_boolean_omq(self):
        ontology = parse_ontology("A(x) -> R(x, y)")
        query = parse_query("q() :- R(x, y)")
        omq = OMQ.from_parts(ontology, query)
        has_answer = Database([Fact("A", ("a",))])
        assert list(MinimalPartialAnswerEnumerator(omq, has_answer)) == [()]
        assert list(MinimalPartialAnswerEnumerator(omq, Database())) == []

    def test_rejects_non_acyclic_query(self):
        ontology = parse_ontology("R(x, y) -> A(x)")
        query = parse_query("q(x, y, z) :- R(x, y), S(y, z), T(z, x)")
        omq = OMQ.from_parts(ontology, query)
        with pytest.raises(Exception):
            MinimalPartialAnswerEnumerator(omq, Database([Fact("R", ("a", "b"))]))


class TestDatabasePreferringOrder:
    def test_less_wildcarded_answers_for_same_prefix_come_first(
        self, office_omq, office_database
    ):
        # For a fixed first component value, answers with fewer wildcards are
        # produced before answers with more wildcards.
        answers = list(MinimalPartialAnswerEnumerator(office_omq, office_database))
        by_person = {}
        for answer in answers:
            by_person.setdefault(answer[0], []).append(answer)
        for person_answers in by_person.values():
            stars = [sum(1 for v in a if v is WILDCARD) for a in person_answers]
            assert stars == sorted(stars)

    def test_complete_first_order(self, office_omq):
        rng = random.Random(47)
        for _ in range(6):
            database = random_office_database(rng)
            enumerator = MinimalPartialAnswerEnumerator(office_omq, database)
            ordered = list(enumerator.enumerate_complete_first())
            # Same multiset of answers as the plain enumeration.
            assert set(ordered) == naive_minimal_partial_answers(office_omq, database)
            assert len(ordered) == len(set(ordered))
            # All complete answers precede all wildcard answers.
            seen_wildcard = False
            for answer in ordered:
                if any(v is WILDCARD for v in answer):
                    seen_wildcard = True
                else:
                    assert not seen_wildcard, "complete answer after a wildcard answer"

    def test_complete_first_shares_the_chase(self, office_omq, office_database, monkeypatch):
        """Prop. 2.1's complete side reads the enumerator's chase result
        instead of chasing the database a second time."""
        from repro.core import enumeration

        built = []

        class Recording(enumeration.CompleteAnswerEnumerator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(enumeration, "CompleteAnswerEnumerator", Recording)
        enumerator = MinimalPartialAnswerEnumerator(office_omq, office_database)
        ordered = set(enumerator.enumerate_complete_first())
        assert ordered == naive_minimal_partial_answers(office_omq, office_database)
        assert len(built) == 1
        assert built[0].chase.result is enumerator.chase.result


class TestMultiWildcardEnumeration:
    def test_paper_example(self, office_omq, office_database):
        answers = set(MultiWildcardEnumerator(office_omq, office_database))
        assert answers == {
            ("mary", "room1", "main1"),
            ("john", "room4", Wildcard(1)),
            ("mike", Wildcard(1), Wildcard(2)),
        }

    def test_cone_example_from_paper(self, cone_example_omq, cone_example_database):
        # Example 6.2: the ball of (c, c', *, *) misses (c, *1, *2, *1); the
        # cone-based algorithm finds both minimal multi-wildcard answers.
        answers = set(MultiWildcardEnumerator(cone_example_omq, cone_example_database))
        assert answers == {
            ("c", "cprime", Wildcard(1), Wildcard(2)),
            ("c", Wildcard(1), Wildcard(2), Wildcard(1)),
        }

    def test_largeoffice_example(self, largeoffice_omq, largeoffice_database):
        answers = set(MultiWildcardEnumerator(largeoffice_omq, largeoffice_database))
        assert ("mike", Wildcard(1), Wildcard(1), Wildcard(2)) in answers
        assert ("mike", Wildcard(1), Wildcard(2), Wildcard(3)) not in answers
        assert answers == naive_minimal_partial_answers_multi(
            largeoffice_omq, largeoffice_database
        )

    @pytest.mark.slow
    def test_matches_naive_on_random_databases(self, office_omq):
        rng = random.Random(53)
        for _ in range(10):
            database = random_office_database(rng)
            got = list(MultiWildcardEnumerator(office_omq, database))
            assert len(got) == len(set(got))
            assert set(got) == naive_minimal_partial_answers_multi(office_omq, database)

    def test_university_workload(self):
        omq = university_omq()
        database = generate_university_database(25, seed=3)
        got = set(MultiWildcardEnumerator(omq, database))
        assert got == naive_minimal_partial_answers_multi(omq, database)

    def test_tester_work_and_templates_do_not_grow_with_the_data(self):
        """Theorem 6.1's constant-time all-tester as an assertion: the most
        bucket rows one ``A2`` test visits is the same on office-N and
        office-4N, and so is the number of per-shape templates, which is
        bounded by the arity alone."""
        work, memo_sizes = [], []
        for size in (250, 1000):
            enumerator = MultiWildcardEnumerator(
                office_omq(), generate_office_database(size, seed=0)
            )
            assert sum(1 for _ in enumerator) == size
            work.append(enumerator.tester.max_rows_per_test)
            memo_sizes.append(
                (
                    len(enumerator._cones),
                    len(enumerator.tester._plans),
                    len(wildcards.cone.templates),
                    len(wildcards.ball.templates),
                )
            )
        assert 0 < work[0] == work[1]
        assert memo_sizes[0] == memo_sizes[1]
        # Single-wildcard shapes of arity 3: set partitions of the three
        # positions plus one optional wildcard block = Bell(4).
        assert memo_sizes[0][0] <= 15

    def test_nothing_is_built_inside_the_walk(self):
        """Theorem 6.1's preprocessing is over before the first answer: on
        office data whose answers carry wildcards (offices without
        buildings, plus one complete researcher), ``A2``'s index table is
        the same after its constructor, at the first answer and after the
        drain, its buckets are untracked by the collector, and the most
        rows one test visits is the same on office-N and office-16N."""
        work = []
        for size in (150, 2400):
            database = generate_office_database(size, OfficeProfile(building_probability=0.0))
            for fact in (
                Fact("Researcher", ("ada",)),
                Fact("HasOffice", ("ada", "room0")),
                Fact("InBuilding", ("room0", "main")),
            ):
                database.add(fact)
            enumerator = MultiWildcardEnumerator(office_omq(), database)
            indexes = enumerator.tester._indexes
            tables = dict(indexes)
            answers = iter(enumerator)
            first = next(answers)
            assert indexes == tables
            got = {first, *answers}
            assert len(got) == size + 1 and ("ada", "room0", "main") in got
            assert indexes == tables
            assert all(indexes[key] is tables[key] for key in tables)
            # The buckets are tuples of id rows: nothing for the collector.
            # Two passes: a pass untracks a tuple of ints, but a tuple that
            # holds such rows only once a pass sees them untracked first,
            # which depends on the order of the collector's lists.
            gc.collect()
            gc.collect()
            assert not any(gc.is_tracked(b) for index in tables.values() for b in index.values())
            work.append(enumerator.tester.max_rows_per_test)
        assert 0 < work[0] == work[1]

    def test_star_computes_weaker_members_only_for_members_that_pass(self, monkeypatch):
        """A k-ary star's cones have Bell(k + 2) members; the pruning table
        is filled per member that passes a test, not for every pair."""
        k = 6
        ontology = parse_ontology("\n".join(f"A(x) -> R{i}(x, y)" for i in range(k)))
        query = parse_query(
            f"q(x, {', '.join(f'y{i}' for i in range(k))}) :- "
            + ", ".join(f"R{i}(x, y{i})" for i in range(k))
        )
        omq = OMQ.from_parts(ontology, query)
        database = Database(
            [Fact("A", ("a",)), Fact("A", ("b",))]
            + [Fact(f"R{i}", ("b", f"c{i}")) for i in range(k)]
        )
        comparisons = 0

        def counted_lt_multi(left, right):
            nonlocal comparisons
            comparisons += 1
            return wildcards.lt_multi(left, right)

        monkeypatch.setattr(multiwildcard, "lt_multi", counted_lt_multi)
        enumerator = MultiWildcardEnumerator(omq, database)
        check, passed = enumerator.tester.check, []

        def counted_check(plan, ids):
            verdict = check(plan, ids)
            passed.append(verdict)
            return verdict

        enumerator.tester.check = counted_check
        got = list(enumerator)
        assert len(got) == len(set(got))
        assert set(got) == naive_minimal_partial_answers_multi(omq, database)
        cone_size = max(len(plan[0]) for plan in enumerator._cones.values())
        assert cone_size == 4140  # Bell(8)
        assert comparisons <= sum(passed) * cone_size


class TestCQLevelPartialEnumerator:
    def test_runs_directly_on_chase_instances(self, office_omq, office_database):
        chased = office_omq.chase(office_database)
        enumerator = PartialAnswerEnumerator(office_omq.query, chased.instance)
        assert set(enumerator.enumerate()) == naive_minimal_partial_answers(
            office_omq, office_database
        )

    def test_plain_instance_without_nulls(self):
        query = parse_query("q(x, y) :- R(x, y)")
        from repro.data import Instance

        instance = Instance([Fact("R", ("a", "b"))])
        enumerator = PartialAnswerEnumerator(query, instance)
        assert set(enumerator.enumerate()) == {("a", "b")}


class TestProgressArena:
    """Algorithm 1's ``trees(v, h)`` lists: one arena of int-linked nodes."""

    @staticmethod
    def _root_list(rows: int) -> tuple[PartialAnswerEnumerator, int, list[int]]:
        from repro.data import Instance

        query = parse_query("q(x, y) :- R(x, y)")
        instance = Instance([Fact("R", (f"a{i}", f"b{i}")) for i in range(rows)])
        enumerator = PartialAnswerEnumerator(query, instance)
        head = enumerator._heads[(0, ())]
        return enumerator, head, list(enumerator._live(head))

    @pytest.mark.parametrize("successor_first", [False, True])
    def test_walk_paused_on_a_removed_node_continues(self, successor_first):
        enumerator, head, nodes = self._root_list(6)
        assert len(nodes) == 6
        walk = enumerator._live(head)
        assert [next(walk), next(walk)] == nodes[:2]
        paused, successor = nodes[1], nodes[2]
        for node in (successor, paused) if successor_first else (paused, successor):
            enumerator._remove(node)
        # The rest of the paused walk: every remaining live node, once.
        assert list(walk) == nodes[3:]
        # Removal unlinks: the live neighbours now point at each other.
        assert enumerator._next[nodes[0]] == nodes[3]
        assert enumerator._prev[nodes[3]] == nodes[0]
        assert list(enumerator._live(head)) == [nodes[0], *nodes[3:]]
        enumerator._remove(paused)  # removing twice is a no-op
        assert list(enumerator._live(head)) == [nodes[0], *nodes[3:]]

    def test_every_list_is_in_database_preferring_order(self, office_omq):
        database = generate_office_database(300, seed=2)
        enumerator = PartialAnswerEnumerator(office_omq.query, office_omq.chase(database).instance)
        mixed = 0
        for head in enumerator._heads.values():
            ranks = []
            for node in enumerator._live(head):
                _, _, mask, values = enumerator._trees[node]
                ranks.append((mask.bit_count(), values.count(STAR)))
            assert ranks == sorted(ranks)
            mixed += len(set(ranks)) > 1
        assert mixed > 0  # some list holds trees of different ranks

    def test_trees_keep_no_objects_for_the_collector(self, office_omq):
        """The build keeps at most one gc-tracked object per reduced row, on
        office-N and office-4N alike: trees are int tuples in int-linked
        lists.  What remains is the predecessor indexes' bucket lists."""
        for size in (500, 2000):
            database = generate_office_database(size, seed=0)
            instance = office_omq.chase(database).instance
            PartialAnswerEnumerator(office_omq.query, instance)  # warm the instance
            gc.collect()
            before = len(gc.get_objects())
            enumerator = PartialAnswerEnumerator(office_omq.query, instance)
            gc.collect()
            kept = len(gc.get_objects()) - before
            rows = enumerator.reduced.size()
            assert rows >= 2 * size
            assert kept <= rows, (size, kept / rows)
