"""Unit tests for the relational substrate (repro.data)."""

import pytest

from repro.data import Database, Fact, Instance, Schema
from repro.data.schema import SchemaError
from repro.data.terms import Null, NullFactory, fresh_null, is_null


class TestNulls:
    def test_nulls_equal_by_label(self):
        assert Null(3) == Null(3)
        assert Null(3) != Null(4)

    def test_fresh_nulls_are_distinct(self):
        assert fresh_null() != fresh_null()

    def test_factory_produces_increasing_labels(self):
        factory = NullFactory()
        first, second = factory(), factory()
        assert first.label < second.label

    def test_is_null(self):
        assert is_null(Null(1))
        assert not is_null("a")
        assert not is_null(42)

    def test_null_ordering(self):
        assert Null(1) < Null(2)


class TestFact:
    def test_args_are_tuples(self):
        fact = Fact("R", ["a", "b"])
        assert fact.args == ("a", "b")
        assert fact.arity == 2

    def test_equality_and_hash(self):
        assert Fact("R", ("a",)) == Fact("R", ("a",))
        assert hash(Fact("R", ("a",))) == hash(Fact("R", ("a",)))
        assert Fact("R", ("a",)) != Fact("S", ("a",))

    def test_has_null_and_nulls(self):
        null = Null(7)
        fact = Fact("R", ("a", null))
        assert fact.has_null()
        assert fact.nulls() == {null}
        assert not Fact("R", ("a", "b")).has_null()


class TestSchema:
    def test_arity_lookup(self):
        schema = Schema({"R": 2, "A": 1})
        assert schema.arity("R") == 2
        assert "A" in schema
        assert len(schema) == 2

    def test_unknown_relation_raises(self):
        with pytest.raises(SchemaError):
            Schema({"R": 2}).arity("S")

    def test_validate_fact(self):
        schema = Schema({"R": 2})
        schema.validate_fact(Fact("R", ("a", "b")))
        with pytest.raises(SchemaError):
            schema.validate_fact(Fact("R", ("a",)))
        with pytest.raises(SchemaError):
            schema.validate_fact(Fact("S", ("a",)))

    def test_union_conflict(self):
        with pytest.raises(SchemaError):
            Schema({"R": 2}).union(Schema({"R": 3}))

    def test_union_and_restrict(self):
        merged = Schema({"R": 2}).union(Schema({"S": 1}))
        assert merged.symbols() == {"R", "S"}
        assert merged.restrict(["S"]).symbols() == {"S"}

    def test_from_facts(self):
        schema = Schema.from_facts([Fact("R", ("a", "b")), Fact("A", ("a",))])
        assert schema.arity("R") == 2
        assert schema.arity("A") == 1

    def test_from_facts_conflicting_arity(self):
        with pytest.raises(SchemaError):
            Schema.from_facts([Fact("R", ("a",)), Fact("R", ("a", "b"))])


class TestInstance:
    def test_add_and_contains(self):
        instance = Instance()
        assert instance.add(Fact("R", ("a", "b")))
        assert not instance.add(Fact("R", ("a", "b")))
        assert Fact("R", ("a", "b")) in instance
        assert len(instance) == 1

    def test_discard(self):
        instance = Instance([Fact("R", ("a", "b"))])
        assert instance.discard(Fact("R", ("a", "b")))
        assert not instance.discard(Fact("R", ("a", "b")))
        assert len(instance) == 0
        assert instance.adom() == set()

    def test_adom_and_constants_and_nulls(self):
        null = Null(1)
        instance = Instance([Fact("R", ("a", null)), Fact("A", ("b",))])
        assert instance.adom() == {"a", "b", null}
        assert instance.constants() == {"a", "b"}
        assert instance.nulls() == {null}

    def test_relation_and_facts_with(self):
        instance = Instance([Fact("R", ("a", "b")), Fact("R", ("b", "c")), Fact("A", ("a",))])
        assert instance.relation("R") == {Fact("R", ("a", "b")), Fact("R", ("b", "c"))}
        assert instance.facts_with("a") == {Fact("R", ("a", "b")), Fact("A", ("a",))}
        assert instance.relations() == {"R", "A"}

    def test_restrict(self):
        instance = Instance([Fact("R", ("a", "b")), Fact("R", ("b", "c"))])
        restricted = instance.restrict({"a", "b"})
        assert restricted.facts() == {Fact("R", ("a", "b"))}

    def test_restrict_relations(self):
        instance = Instance([Fact("R", ("a", "b")), Fact("A", ("a",))])
        assert instance.restrict_relations(["A"]).facts() == {Fact("A", ("a",))}

    def test_guarded_sets(self):
        instance = Instance([Fact("R", ("a", "b")), Fact("A", ("c",))])
        assert frozenset({"a", "b"}) in instance.guarded_sets()
        assert instance.is_guarded_set({"a", "b"})
        assert instance.is_guarded_set({"a"})
        assert not instance.is_guarded_set({"a", "c"})
        assert instance.is_guarded_set(())

    def test_gaifman_graph(self):
        instance = Instance([Fact("R", ("a", "b")), Fact("R", ("b", "c"))])
        graph = instance.gaifman_graph()
        assert graph["b"] == {"a", "c"}
        assert graph["a"] == {"b"}

    def test_union(self):
        left = Instance([Fact("A", ("a",))])
        right = Instance([Fact("B", ("b",))])
        merged = left.union(right)
        assert len(merged) == 2
        assert len(left) == 1

    def test_size(self):
        instance = Instance([Fact("R", ("a", "b")), Fact("A", ("a",))])
        assert instance.size() == 3 + 2

    def test_copy_is_independent(self):
        instance = Instance([Fact("A", ("a",))])
        clone = instance.copy()
        clone.add(Fact("A", ("b",)))
        assert len(instance) == 1
        assert len(clone) == 2

    def test_schema_inference(self):
        instance = Instance([Fact("R", ("a", "b"))])
        assert instance.schema().arity("R") == 2


class TestDatabase:
    def test_rejects_nulls(self):
        with pytest.raises(ValueError):
            Database([Fact("R", ("a", Null(1)))])

    def test_copy_returns_database(self):
        database = Database([Fact("A", ("a",))])
        assert isinstance(database.copy(), Database)

    def test_equality_with_instance(self):
        assert Database([Fact("A", ("a",))]) == Instance([Fact("A", ("a",))])


class TestPositionalIndexes:
    def test_index_groups_by_key(self):
        instance = Instance(
            [Fact("R", ("a", "b")), Fact("R", ("a", "c")), Fact("R", ("b", "c"))]
        )
        index = instance.index("R", (0,))
        assert set(index[("a",)]) == {Fact("R", ("a", "b")), Fact("R", ("a", "c"))}
        assert set(index[("b",)]) == {Fact("R", ("b", "c"))}

    def test_probe_missing_key_is_empty(self):
        instance = Instance([Fact("R", ("a", "b"))])
        assert len(instance.probe("R", (0,), ("zzz",))) == 0
        assert len(instance.probe("Missing", (0,), ("a",))) == 0

    def test_index_updated_incrementally_on_add(self):
        instance = Instance([Fact("R", ("a", "b"))])
        index = instance.index("R", (1,))
        assert set(index[("b",)]) == {Fact("R", ("a", "b"))}
        instance.add(Fact("R", ("c", "b")))
        assert set(instance.probe("R", (1,), ("b",))) == {
            Fact("R", ("a", "b")),
            Fact("R", ("c", "b")),
        }

    def test_index_updated_incrementally_on_discard(self):
        instance = Instance([Fact("R", ("a", "b")), Fact("R", ("c", "b"))])
        instance.index("R", (1,))
        instance.discard(Fact("R", ("a", "b")))
        assert set(instance.probe("R", (1,), ("b",))) == {Fact("R", ("c", "b"))}

    def test_discard_cleans_empty_index_buckets(self):
        instance = Instance([Fact("R", ("a", "b"))])
        instance.index("R", (0,))
        instance.discard(Fact("R", ("a", "b")))
        assert ("a",) not in instance.index("R", (0,))
        assert instance.relation_size("R") == 0
        assert "R" not in instance.relations()

    def test_add_discard_interleaving_keeps_indexes_consistent(self):
        instance = Instance()
        facts = [Fact("R", (f"x{i % 3}", f"y{i % 5}")) for i in range(15)]
        instance.index("R", (0,))
        instance.index("R", (0, 1))
        for i, fact in enumerate(facts):
            instance.add(fact)
            if i % 2:
                instance.discard(facts[i - 1])
        for fact in instance.relation("R"):
            assert fact in instance.probe("R", (0,), (fact.args[0],))
            assert fact in instance.probe("R", (0, 1), fact.args)
        # A rebuilt index over the same state must agree with the live one,
        # bucket contents included (a stale fact left behind by discard in a
        # still-nonempty bucket must fail here).
        rebuilt = Instance(instance.facts())
        for positions in ((0,), (0, 1)):
            live = {k: set(v) for k, v in instance.index("R", positions).items()}
            fresh = {k: set(v) for k, v in rebuilt.index("R", positions).items()}
            assert live == fresh

    def test_index_skips_facts_with_short_arity(self):
        instance = Instance([Fact("R", ("a",)), Fact("R", ("a", "b"))])
        index = instance.index("R", (1,))
        assert set(index[("b",)]) == {Fact("R", ("a", "b"))}
        instance.add(Fact("R", ("c",)))  # must not break maintenance
        assert set(instance.probe("R", (1,), ("b",))) == {Fact("R", ("a", "b"))}

    def test_views_are_live_and_readonly(self):
        instance = Instance([Fact("A", ("a",))])
        view = instance.relation("A")
        assert len(view) == 1
        instance.add(Fact("A", ("b",)))
        assert len(view) == 2
        assert not hasattr(view, "add")
        assert view == {Fact("A", ("a",)), Fact("A", ("b",))}
        assert (view | {Fact("A", ("c",))}) == {
            Fact("A", ("a",)),
            Fact("A", ("b",)),
            Fact("A", ("c",)),
        }


class TestMutationEdgeCases:
    def test_discard_cleans_empty_constant_buckets(self):
        instance = Instance([Fact("R", ("a", "b")), Fact("A", ("a",))])
        instance.discard(Fact("R", ("a", "b")))
        assert instance.adom() == {"a"}
        assert instance.facts_with("b") == set()
        instance.discard(Fact("A", ("a",)))
        assert instance.adom() == set()
        assert instance.facts_with("a") == set()

    def test_discard_then_add_round_trip(self):
        fact = Fact("R", ("a", "a"))
        instance = Instance([fact])
        assert instance.discard(fact)
        assert instance.add(fact)
        assert instance.facts_with("a") == {fact}
        assert instance.relation("R") == {fact}

    def test_database_rejects_null_after_construction(self):
        database = Database([Fact("A", ("a",))])
        with pytest.raises(ValueError):
            database.add(Fact("R", ("a", Null(2))))
        assert len(database) == 1

    def test_database_update_rejects_nulls_midway(self):
        database = Database()
        with pytest.raises(ValueError):
            database.update([Fact("A", ("a",)), Fact("R", ("a", Null(3)))])
        # the valid prefix was added before the rejection
        assert Fact("A", ("a",)) in database

    def test_views_survive_bucket_deletion_and_recreation(self):
        instance = Instance([Fact("R", ("a", "b"))])
        view = instance.relation("R")
        constant_view = instance.facts_with("a")
        missing_view = instance.relation("S")
        instance.discard(Fact("R", ("a", "b")))  # empties and drops the buckets
        assert len(view) == 0 and len(constant_view) == 0
        instance.add(Fact("R", ("a", "c")))
        instance.add(Fact("S", ("s",)))
        assert view == {Fact("R", ("a", "c"))}
        assert constant_view == {Fact("R", ("a", "c"))}
        assert missing_view == {Fact("S", ("s",))}


class TestLazyAdjacency:
    """The element -> facts map exists only once somebody asked for it."""

    FACTS = [Fact("R", ("a", "b")), Fact("R", ("b", "b")), Fact("A", ("a",))]

    @staticmethod
    def _rebuilt(instance):
        return {
            element: set(bucket)
            for element, bucket in Instance(list(instance))._adjacency().items()
        }

    def test_absent_until_first_asked_for(self):
        instance = Instance(self.FACTS)
        instance.add(Fact("A", ("c",)))
        instance.discard(Fact("A", ("c",)))
        instance.probe("R", (0,), ("a",))
        list(instance.relation("R"))
        assert instance._by_constant is None
        assert instance.copy()._by_constant is None
        assert instance.adom() == {"a", "b"}
        assert instance._by_constant is not None

    @pytest.mark.parametrize(
        "ask",
        [
            lambda i: i.facts_with("a"),
            lambda i: i.adom(),
            lambda i: i.nulls(),
            lambda i: i.constants(),
            lambda i: i.is_guarded_set(["a", "b"]),
        ],
    )
    def test_every_reader_builds_it(self, ask):
        instance = Instance(self.FACTS)
        ask(instance)
        assert instance._by_constant == self._rebuilt(instance)

    def test_maintained_like_a_rebuild_once_built(self):
        instance = Instance(self.FACTS)
        view = instance.facts_with("c")  # taken before any fact mentions c
        only_c = Fact("S", ("c", "c"))
        assert instance.add(only_c)
        assert view == {only_c}
        assert instance.discard(only_c)  # c's bucket empties and is dropped
        assert view == set() and "c" not in instance._by_constant
        assert instance.add(only_c)
        assert instance.discard(Fact("R", ("b", "b")))
        assert instance.add(Fact("T", ("a", "c", Null(7))))
        assert view == {only_c, Fact("T", ("a", "c", Null(7)))}
        assert instance._by_constant == self._rebuilt(instance)
        assert instance.adom() == {"a", "b", "c", Null(7)}


class TestBulkCopy:
    """``Instance(instance)`` / ``.copy()`` against the per-fact build."""

    FACTS = [
        Fact("R", ("a", "b")),
        Fact("R", ("a", "c")),
        Fact("R", ("only",)),
        Fact("A", ("a",)),
    ]

    @pytest.mark.parametrize("source_type", [Instance, Database])
    @pytest.mark.parametrize(
        "duplicate", [Instance, lambda source: source.copy()], ids=["init", "copy"]
    )
    def test_equals_the_per_fact_build(self, source_type, duplicate):
        source = source_type(self.FACTS)
        source.probe("R", (0,), ("a",))  # an index on the source is not shared
        built = Instance(list(self.FACTS))
        copied = duplicate(source)
        assert copied == built and copied == source
        assert copied.version == built.version == len(self.FACTS)
        assert copied.relations() == built.relations()
        for name in ("R", "A", "Missing"):
            assert copied.relation(name) == built.relation(name)
            assert copied.relation_size(name) == built.relation_size(name)
        assert copied.probe("R", (0,), ("a",)) != ()
        assert set(copied.probe("R", (0,), ("a",))) == set(built.probe("R", (0,), ("a",)))
        assert sorted(copied.index("R", (0, 1))) == sorted(built.index("R", (0, 1)))

    def test_independent_of_later_mutations_either_way(self):
        source = Instance(self.FACTS)
        copied = Instance(source)
        source.add(Fact("A", ("late",)))
        source.discard(Fact("R", ("a", "b")))
        copied.add(Fact("R", ("mine", "x")))
        assert Fact("A", ("late",)) not in copied
        assert Fact("R", ("a", "b")) in copied.relation("R")
        assert Fact("R", ("mine", "x")) not in source.relation("R")
        assert copied.relation_size("R") == 4 and source.relation_size("R") == 2
        assert copied.version == len(self.FACTS) + 1

    def test_copy_shares_the_null_factory_and_the_class(self):
        database = Database(self.FACTS)
        clone = database.copy()
        assert type(clone) is Database
        assert clone.null_factory is database.null_factory
        assert Instance(database).null_factory is not database.null_factory
        # A copied database still diffs from its own construction onwards.
        clone.add(Fact("A", ("new",)))
        assert clone.changes_since(len(self.FACTS)).added == {Fact("A", ("new",))}

    def test_database_of_an_instance_with_nulls_still_raises(self):
        with pytest.raises(ValueError):
            Database(Instance([Fact("R", ("a", Null(1)))]))
        assert Database(Instance([Fact("A", ("a",))])) == Instance([Fact("A", ("a",))])
