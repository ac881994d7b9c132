"""Tests for per-plan code generation (`repro.engine.codegen`).

Covers the generated-source shape and caching of the enumeration walk and
the eviction guarantee: compiled closures never outlive their
:class:`PreparedQuery`.
"""

from __future__ import annotations

import gc
import weakref

from repro import Database, ExecutionOptions, Fact, QueryEngine
from repro.engine import CODEGEN_STATS, PlanCodegen
from repro.engine.codegen import MAX_WALK_DEPTH, compile_walk, walk_source
from repro.tgds.ontology import Ontology
from repro.tgds.parser import parse_ontology


#: A depth-2 slot plan shaped like ``CDLinEnumerator._build_plan`` output:
#: level 0 reads the root rows into slots 0/1, level 1 joins on slot 1 and
#: reads its second position into slot 2.
PATH_PLAN = (
    ((), (1,)),  # key_slots per level
    (((0, 0), (1, 1)), ((1, 2),)),  # stores per level: (position, slot)
    (0, 1, 2),  # final_slots
    3,  # slot_count
)

#: index_list matching PATH_PLAN over R = {(a,b),(a,c)}, S = {(b,d),(c,d)};
#: the lowercase letters stand for ids, DECODE for the dictionary's decoder.
PATH_INDEXES = [
    {(): [("a", "b"), ("a", "c")]},
    {("b",): [("b", "d")], ("c",): [("c", "d")]},
]
DECODE = str.upper


class TestWalkSource:
    def test_source_mirrors_the_interpreter(self):
        source = walk_source(PATH_PLAN)
        assert "def _walk(index_list, decode):" in source
        assert "_get1 = index_list[1].get" in source
        assert "for _r0 in index_list[0].get((), ()):" in source
        assert "for _r1 in _get1((_v1,), ()):" in source
        assert "yield (decode(_v0), decode(_v1), decode(_v2))" in source
        # Writes to key slots are elided: level 1's slot 1 is its lookup key.
        assert "_v1 = _r1" not in source

    def test_compiled_walk_enumerates_the_join_and_decodes_at_emit(self):
        walk = compile_walk(PATH_PLAN)
        assert set(walk(PATH_INDEXES, DECODE)) == {
            ("A", "B", "D"),
            ("A", "C", "D"),
        }

    def test_boolean_plan_yields_the_empty_tuple(self):
        plan = (((),), (((0, 0),),), (), 1)
        source = walk_source(plan)
        assert "yield ()" in source
        walk = compile_walk(plan)
        assert list(walk([{(): [("w",)]}], DECODE)) == [()]

    def test_single_answer_variable_yields_one_tuples(self):
        plan = (((),), (((0, 0),),), (0,), 1)
        assert "yield (decode(_v0),)" in walk_source(plan)
        walk = compile_walk(plan)
        assert set(walk([{(): [("a",), ("b",)]}], DECODE)) == {("A",), ("B",)}

    def test_depth_zero_yields_the_empty_answer(self):
        plan = ((), (), (), 0)
        assert walk_source(plan) == "def _walk(index_list, decode):\n    yield ()\n"
        assert list(compile_walk(plan)([], DECODE)) == [()]

    def test_a_walk_deeper_than_one_function_chains(self):
        # A path R0(x0, x1), R1(x1, x2), ...: level l joins on slot l.  Only
        # the first and last slots are answers, so the chained functions
        # take exactly those they still read.
        depth = 2 * MAX_WALK_DEPTH + 1
        plan = (
            ((),) + tuple((level,) for level in range(1, depth)),
            tuple(((0, level), (1, level + 1)) for level in range(depth)),
            (0, depth),
            depth + 1,
        )
        source = walk_source(plan)
        first, second = MAX_WALK_DEPTH, 2 * MAX_WALK_DEPTH
        assert f"def _walk{first}(index_list, decode, _v0, _v{first}):" in source
        assert f"yield from _walk{second}(index_list, decode, _v0, _v{second})" in source
        # Level 0 branches to two roots; every later level maps v -> v.
        indexes = [{(): [("a", "a"), ("b", "b")]}] + [
            {("a",): [("a", "a")], ("b",): [("b", "b")]} for _ in range(1, depth)
        ]
        assert list(compile_walk(plan)(indexes, DECODE)) == [("A", "A"), ("B", "B")]


class TestPlanCodegen:
    def test_walks_compile_once_then_hit(self):
        cache = PlanCodegen()
        compiled_before, hits_before = CODEGEN_STATS.snapshot()
        first = cache.walk_for(PATH_PLAN)
        second = cache.walk_for(PATH_PLAN)
        compiled_after, hits_after = CODEGEN_STATS.snapshot()
        assert first is second and first is not None
        assert compiled_after == compiled_before + 1
        assert hits_after == hits_before + 1
        assert len(cache) == 1


OFFICE_RULES = """
    Researcher(x) -> HasOffice(x, y)
    HasOffice(x, y) -> Office(y)
    Office(x) -> InBuilding(x, y)
"""

OFFICE_FACTS = [
    Fact("Researcher", ("mary",)),
    Fact("HasOffice", ("mary", "room1")),
    Fact("HasOffice", ("john", "room2")),
    Fact("InBuilding", ("room1", "main1")),
]

OFFICE_QUERY = "q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)"


def _office_engine(**kwargs) -> QueryEngine:
    return QueryEngine(parse_ontology(OFFICE_RULES), Database(OFFICE_FACTS), **kwargs)


class TestStatsAndEviction:
    def test_engine_stats_expose_codegen_counters(self):
        engine = _office_engine()
        engine.execute(OFFICE_QUERY)
        engine.execute(OFFICE_QUERY)
        stats = engine.stats
        assert stats.plans_compiled >= 1
        report = stats.as_dict()
        assert "plans_compiled" in report and "codegen_cache_hits" in report

    def test_compiled_walks_die_with_the_evicted_plan(self):
        """The eviction regression: no global cache outlives PreparedQuery."""
        engine = _office_engine(options=ExecutionOptions(plan_cache_size=1))
        engine.execute(OFFICE_QUERY)
        (prepared,) = engine._plans.values()
        assert len(prepared.codegen) >= 1
        grave = weakref.ref(prepared.codegen)
        del prepared
        # A second distinct query evicts the first plan (capacity 1)...
        engine.execute("q(x, y) :- HasOffice(x, y)")
        gc.collect()
        # ...and the compiled closures go with it.
        assert grave() is None

    def test_cached_plan_reuses_its_compiled_walk(self):
        engine = _office_engine()
        engine.execute(OFFICE_QUERY)
        _, hits_before = CODEGEN_STATS.snapshot()
        engine.execute(OFFICE_QUERY)
        _, hits_after = CODEGEN_STATS.snapshot()
        assert hits_after > hits_before


class TestUnifiedSignatures:
    def test_execute_batch_accepts_any_iterable(self):
        engine = _office_engine()
        queries = (text for text in [OFFICE_QUERY, "q(x, y) :- HasOffice(x, y)"])
        results = engine.execute_batch(queries)
        assert len(results) == 2
        assert results[0] == engine.execute(OFFICE_QUERY)
        assert results[1] == engine.execute("q(x, y) :- HasOffice(x, y)")

    def test_open_page_size_hint_drives_fetchmany(self):
        engine = _office_engine()
        with engine.open("q(x, y) :- HasOffice(x, y)", page_size=1) as cursor:
            assert cursor.page_size == 1
            assert len(cursor.fetchmany()) == 1  # page size, not DEFAULT_PAGE_SIZE
            assert len(cursor.fetchmany(10)) <= 10  # explicit size still wins
        with engine.open(OFFICE_QUERY) as cursor:
            assert cursor.page_size == cursor.DEFAULT_PAGE_SIZE

    def test_incremental_maintenance_keeps_codegen_answers_correct(self):
        ontology = parse_ontology(OFFICE_RULES)
        database = Database(OFFICE_FACTS)
        engine = QueryEngine(ontology, database)
        before = engine.execute(OFFICE_QUERY)
        database.add(Fact("InBuilding", ("room2", "annex")))
        after = engine.execute(OFFICE_QUERY)
        reference = QueryEngine(ontology, database).execute(OFFICE_QUERY)
        assert after == reference
        assert before < after

    def test_empty_ontology_engine_still_honours_options(self):
        engine = QueryEngine(
            Ontology([], name="empty"),
            Database([Fact("R", ("a", "b"))]),
            options=ExecutionOptions(plan_cache_size=2),
        )
        assert engine._plans.capacity == 2
        assert engine.execute("q(x, y) :- R(x, y)") == {("a", "b")}
