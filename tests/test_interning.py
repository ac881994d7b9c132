"""Unit tests for the interned storage layer (interning, columns, instance)."""

import pickle

import pytest

from repro.data import (
    TERMS,
    ColumnarRelation,
    Database,
    Fact,
    Instance,
    Null,
    TermDictionary,
)
from repro.data.columns import merge_intersect
from repro.config import _env_disabled


class TestTermDictionary:
    def test_ids_are_dense_and_stable(self):
        dictionary = TermDictionary()
        a = dictionary.intern("a")
        b = dictionary.intern("b")
        assert (a, b) == (0, 1)
        assert dictionary.intern("a") == a
        assert len(dictionary) == 2
        assert "a" in dictionary and "c" not in dictionary

    def test_decode_is_the_inverse(self):
        dictionary = TermDictionary()
        ids = dictionary.intern_tuple(("x", 7, Null(3)))
        assert dictionary.decode_tuple(ids) == ("x", 7, Null(3))
        assert dictionary.decode(ids[1]) == 7

    def test_null_flags(self):
        dictionary = TermDictionary()
        constant = dictionary.intern("c")
        null = dictionary.intern(Null(1))
        assert not dictionary.is_null_id(constant)
        assert dictionary.is_null_id(null)

    def test_try_intern_never_grows_the_dictionary(self):
        dictionary = TermDictionary()
        dictionary.intern("seen")
        assert dictionary.try_intern("seen") == 0
        assert dictionary.try_intern("unseen") is None
        assert dictionary.try_intern_tuple(("seen", "unseen")) is None
        assert dictionary.try_intern_tuple(("seen",)) == (0,)
        assert len(dictionary) == 1

    def test_distinct_types_get_distinct_ids(self):
        dictionary = TermDictionary()
        assert dictionary.intern(3) != dictionary.intern("3")

    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CODEGEN", "1")
        assert _env_disabled("REPRO_NO_CODEGEN")
        monkeypatch.setenv("REPRO_NO_CODEGEN", "0")
        assert not _env_disabled("REPRO_NO_CODEGEN")
        monkeypatch.delenv("REPRO_NO_CODEGEN")
        assert not _env_disabled("REPRO_NO_CODEGEN")


class TestColumnarRelation:
    def rel(self):
        return ColumnarRelation(2, [(1, 2), (1, 3), (4, 2)])

    def test_rows_round_trip(self):
        relation = self.rel()
        assert len(relation) == 3
        assert set(relation) == {(1, 2), (1, 3), (4, 2)}
        assert relation.row(0) == (1, 2)
        assert len(relation.column(0)) == 3

    def test_zero_arity(self):
        relation = ColumnarRelation(0, [(), ()])
        assert len(relation) == 2
        assert list(relation) == [(), ()]
        assert relation.project(()) == {()}

    def test_append_and_extend(self):
        relation = ColumnarRelation(2)
        relation.append((5, 6))
        relation.extend([(7, 8)])
        assert set(relation) == {(5, 6), (7, 8)}

    def test_project(self):
        relation = self.rel()
        assert relation.project((0,)) == {(1,), (4,)}
        assert relation.project((1, 0)) == {(2, 1), (3, 1), (2, 4)}
        assert relation.project(()) == {()}
        assert ColumnarRelation(2).project(()) == set()

    def test_project_with_equalities(self):
        relation = ColumnarRelation(2, [(1, 1), (1, 2), (3, 3)])
        assert relation.project_with_equalities((0,), ((0, 1),)) == {(1,), (3,)}
        assert relation.project_with_equalities((0,), ()) == {(1,), (3,)}

    def test_index_on(self):
        index = self.rel().index_on((0,))
        assert set(index[(1,)]) == {(1, 2), (1, 3)}
        assert set(index[(4,)]) == {(4, 2)}
        empty_key = self.rel().index_on(())
        assert set(empty_key[()]) == {(1, 2), (1, 3), (4, 2)}
        assert ColumnarRelation(1).index_on(()) == {}

    def test_filter_by_keys(self):
        relation = self.rel()
        assert set(relation.filter_by_keys((0,), {(1,)})) == {(1, 2), (1, 3)}
        assert relation.filter_by_keys((0,), set()) == []
        assert set(relation.filter_by_keys((), {()})) == {(1, 2), (1, 3), (4, 2)}
        assert relation.filter_by_keys((), set()) == []

    def test_sorted_runs_and_merge_intersect(self):
        relation = self.rel()
        assert list(relation.sorted_column(0)) == [1, 1, 4]
        left = relation.sorted_column(0)
        right = ColumnarRelation(1, [(4,), (9,), (1,)]).sorted_column(0)
        assert list(merge_intersect(left, right)) == [1, 4]
        assert list(merge_intersect(left, relation.sorted_column(0))) == [1, 4]

    def test_semijoin_sorted(self):
        left = self.rel()
        right = ColumnarRelation(1, [(1,), (9,)])
        assert set(left.semijoin_sorted(0, right, 0)) == {(1, 2), (1, 3)}


class TestInternedInstance:
    def test_probe_takes_term_keys(self):
        facts = [Fact("R", ("a", "b")), Fact("R", ("a", "c")), Fact("R", ("b", "c"))]
        instance = Instance(facts)
        assert set(instance.probe("R", (0,), ("a",))) == {facts[0], facts[1]}
        assert len(instance.probe("R", (0,), ("zzz-never-seen",))) == 0

    def test_index_view_presents_term_keys(self):
        instance = Instance([Fact("R", ("a", "b")), Fact("R", ("b", "c"))])
        index = instance.index("R", (0,))
        assert ("a",) in index and ("nope",) not in index
        assert "not-a-tuple" not in index
        assert set(index.keys()) == {("a",), ("b",)}
        assert {key: set(bucket) for key, bucket in index.items()} == {
            ("a",): {Fact("R", ("a", "b"))},
            ("b",): {Fact("R", ("b", "c"))},
        }
        with pytest.raises(KeyError):
            index[("never-interned-key",)]

    def test_columnar_store_and_invalidation(self):
        instance = Instance([Fact("R", ("a", "b"))])
        store = instance.columnar("R", 2)
        assert len(store) == 1
        assert instance.columnar("R", 2) is store  # cached
        instance.add(Fact("R", ("b", "c")))
        assert len(instance.columnar("R", 2)) == 2
        # Mixed arities are stored per (relation, arity).
        instance.add(Fact("R", ("solo",)))
        assert len(instance.columnar("R", 1)) == 1
        assert len(instance.columnar("R", 2)) == 2

    def test_columnar_rows_decode_to_fact_args(self):
        instance = Instance([Fact("R", ("a", "b"))])
        (row,) = instance.columnar("R", 2)
        assert TERMS.decode_tuple(row) == ("a", "b")

    def test_columnar_invalidation_inside_batch(self):
        database = Database([Fact("R", ("a", "b"))])
        assert len(database.columnar("R", 2)) == 1
        with database.batch():
            database.add(Fact("R", ("c", "d")))
            assert len(database.columnar("R", 2)) == 2


class TestOneRowFormat:
    """Every consumer of the reduction holds dense-id rows; nobody decodes
    before an answer is emitted."""

    @staticmethod
    def all_ids(rows) -> bool:
        return all(type(value) is int for row in rows for value in row)

    def test_every_enumerator_and_tester_holds_id_rows(self, office_omq, office_database):
        from repro.core import CompleteAnswerEnumerator, MinimalPartialAnswerEnumerator
        from repro.enumeration.alltesting import FreeConnexAllTester

        partial = MinimalPartialAnswerEnumerator(office_omq, office_database)
        relations = partial._inner.reduced.relations
        assert relations and all(self.all_ids(r.tuples) for r in relations.values())
        assert any(
            TERMS.is_null_id(value) for r in relations.values() for row in r.tuples for value in row
        ), "partial-answer mode keeps rows with nulls, as ids"

        complete = CompleteAnswerEnumerator(office_omq, office_database)
        relations = complete._enumerator.reduced.relations
        assert relations and all(self.all_ids(r.tuples) for r in relations.values())

        tester = FreeConnexAllTester(office_omq.query, partial.chase.instance)
        assert tester._component_sets
        assert all(self.all_ids(rows) for _, rows in tester._component_sets)
        # The office constants are strings, so an id row cannot pass for one.
        assert all(type(value) is str for answer in complete for value in answer)


class TestFactCaches:
    def test_hash_is_stable_and_cached(self):
        fact = Fact("R", ("a", "b"))
        assert hash(fact) == hash(Fact("R", ("a", "b")))
        assert fact._hash == hash(fact)

    def test_iargs_align_with_args(self):
        fact = Fact("R", ("a", Null(2)))
        assert TERMS.decode_tuple(fact.iargs) == ("a", Null(2))
        assert fact.iargs is fact.iargs  # cached

    def test_immutability(self):
        fact = Fact("R", ("a",))
        with pytest.raises(AttributeError):
            fact.relation = "S"
        with pytest.raises(AttributeError):
            del fact.args

    def test_pickle_round_trip(self):
        fact = Fact("R", ("a", 3))
        assert pickle.loads(pickle.dumps(fact)) == fact
