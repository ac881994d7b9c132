"""Unit tests for the interned storage layer (interning, instance, facts)."""

import pickle

import pytest

from repro.data import TERMS, Fact, Instance, Null, TermDictionary


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
