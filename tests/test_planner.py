"""Unit tests for the cost-based planner and its satellite fixes.

Covers the statistics collector (columnar stores, version-keyed
caching), the cardinality/cost model, join-tree tie and candidate
enumeration, the cheapest-plan choice and its tie-break contract, the
per-edge semi-join kernel decision, the ``ExecutionOptions`` validation,
the fallback-ratio semantics (``0.0`` = always rebuild), the engine
defaults derived from ``ExecutionOptions``, and the
``LatencyHistogram`` boundary semantics.
"""

from __future__ import annotations

import math

import pytest

from repro.config import ExecutionOptions, use_planner
from repro.cq.atoms import Atom, Variable
from repro.cq.jointree import build_join_tree, enumerate_join_trees
from repro.cq.parser import parse_query
from repro.data import Database, Fact
from repro.data.columns import ColumnarRelation
from repro.engine import LatencyHistogram, QueryEngine
from repro.engine.engine import EngineStats
from repro.engine.materialization import Materialization
from repro.planner import (
    InstanceStatistics,
    RelationStatistics,
    choose_plan,
    choose_semijoin_kernel,
    collect_statistics,
    estimate_atom_cardinality,
    estimate_decomposition,
    plan_candidates,
    planned_kernel,
    semijoin_planning,
    statistics_for,
)
from repro.tgds.ontology import Ontology
from repro.yannakakis.decomposition import (
    decompose_free_connex,
    enumerate_free_connex_decompositions,
)

EMPTY = Ontology([], name="empty")

#: A query whose q⁺ has several maximum-weight join trees, hence several
#: structurally distinct free-connex decompositions.
TIE_QUERY = "q(x, y) :- R(x, z), S(x, y), T(y, w)"


def _tie_facts(n: int = 40) -> list[Fact]:
    return [
        fact
        for i in range(n)
        for fact in (
            Fact("R", (f"a{i % 5}", f"b{i}")),
            Fact("S", (f"a{i % 5}", f"c{i % 3}")),
            Fact("T", (f"c{i % 3}", f"d{i}")),
        )
    ]


# -- statistics ------------------------------------------------------------


def test_collect_statistics_counts_and_distincts():
    database = Database(_tie_facts())
    statistics = collect_statistics(database)
    assert statistics.total_facts == len(database)
    r = statistics.get("R", 2)
    assert r is not None
    assert r.cardinality == 40
    assert r.distinct == (5, 40)
    assert statistics.get("S", 2).distinct == (5, 3)
    assert statistics.cardinality("missing", 2) == 0
    assert statistics.get("missing", 2) is None


def test_statistics_cached_until_version_bump():
    database = Database(_tie_facts())
    first = statistics_for(database)
    assert statistics_for(database) is first
    database.add(Fact("R", ("fresh", "fresh")))
    second = statistics_for(database)
    assert second is not first
    assert second.version == database.version
    assert second.get("R", 2).cardinality == 41


def test_relation_statistics_boundaries():
    stats = RelationStatistics(relation="R", arity=2, cardinality=100, distinct=(10, 0))
    assert stats.distinct_at(0) == 10
    assert stats.distinct_at(1) == 1  # floor at 1 even for a zeroed column
    assert stats.distinct_at(7) == 100  # out of range: fall back to cardinality
    assert stats.selectivity(0) == pytest.approx(0.1)


# -- cost model ------------------------------------------------------------


def _stats(**relations: RelationStatistics) -> InstanceStatistics:
    return InstanceStatistics(
        version=0,
        total_facts=sum(stats.cardinality for stats in relations.values()),
        relations={
            (stats.relation, stats.arity): stats for stats in relations.values()
        },
    )


def test_estimate_atom_cardinality_selectivities():
    statistics = _stats(
        r=RelationStatistics(relation="R", arity=2, cardinality=100, distinct=(10, 50))
    )
    x, y = Variable("x"), Variable("y")
    assert estimate_atom_cardinality(Atom("R", (x, y)), statistics) == 100.0
    # A constant position scales by 1/distinct of that position.
    assert estimate_atom_cardinality(Atom("R", ("c", y)), statistics) == pytest.approx(10.0)
    # A repeated variable applies the second position's selectivity.
    assert estimate_atom_cardinality(Atom("R", (x, x)), statistics) == pytest.approx(2.0)
    # Unknown relations estimate to zero rows.
    assert estimate_atom_cardinality(Atom("Z", (x,)), statistics) == 0.0


def test_estimate_decomposition_tracks_data():
    query = parse_query(TIE_QUERY)
    database = Database(_tie_facts())
    statistics = collect_statistics(database)
    default = decompose_free_connex(query)
    cost, rows = estimate_decomposition(default, statistics)
    assert cost > 0.0
    assert rows >= 0


# -- join-tree tie and candidate enumeration -------------------------------


def test_enumerate_join_trees_first_is_default_and_all_valid():
    atoms = list(parse_query(TIE_QUERY).atoms)
    trees = enumerate_join_trees(atoms)
    assert trees, "at least the default tree"
    default = build_join_tree(atoms)
    assert set(trees[0].edges()) == set(default.edges())
    seen = set()
    for tree in trees:
        assert tree.is_valid()
        edge_set = frozenset(frozenset((p, c)) for p, c in tree.edges())
        assert edge_set not in seen, "trees must be structurally distinct"
        seen.add(edge_set)


def test_enumerate_free_connex_decompositions_distinct_shapes():
    query = parse_query(TIE_QUERY)
    decompositions = enumerate_free_connex_decompositions(query)
    assert len(decompositions) >= 2
    shapes = {
        tuple(
            sorted(
                (component.root.relation, len(component.atoms))
                for component in decomposition.components
            )
        )
        for decomposition in decompositions
    }
    assert len(shapes) >= 2


def test_plan_candidates_default_first_and_deduplicated():
    query = parse_query(TIE_QUERY)
    default = decompose_free_connex(query)
    candidates = plan_candidates(query, default=default)
    assert candidates[0] is default
    assert len(candidates) >= 2
    # Re-running with the enumeration's own first tree as the default must
    # not produce a duplicate entry.
    assert len(plan_candidates(query, default=candidates[1])) == len(candidates)


# -- plan choice -----------------------------------------------------------


def test_choose_plan_picks_cheapest_and_records_all():
    query = parse_query(TIE_QUERY)
    database = Database(_tie_facts())
    candidates = plan_candidates(query, default=decompose_free_connex(query))
    choice = choose_plan(candidates, database)
    assert choice is not None
    assert len(choice.candidates) == len(candidates)
    assert choice.chosen.cost == min(candidate.cost for candidate in choice.candidates)
    assert choice.statistics_version == database.version
    report = choice.as_dict()
    assert report["chosen"] == choice.chosen.index
    assert len(report["candidates"]) == len(candidates)


def test_choose_plan_ties_break_to_default():
    query = parse_query(TIE_QUERY)
    database = Database(_tie_facts())
    default = decompose_free_connex(query)
    # Two copies of the same decomposition cost identically: index 0 wins.
    choice = choose_plan([default, default], database)
    assert choice is not None
    assert choice.chosen.index == 0
    assert choose_plan([], database) is None


# -- semi-join kernel decision ---------------------------------------------


def test_choose_semijoin_kernel_thresholds():
    assert choose_semijoin_kernel(10, 100_000) == "sorted"
    assert choose_semijoin_kernel(100_000, 10) == "hash"
    assert choose_semijoin_kernel(10, 255) == "hash"  # below the size floor
    assert choose_semijoin_kernel(100, 1_000) == "hash"  # below the ratio
    assert choose_semijoin_kernel(0, 256) == "sorted"  # empty probe side


def test_planned_kernel_only_inside_scope():
    assert planned_kernel(10, 100_000) == "hash"
    with semijoin_planning():
        assert planned_kernel(10, 100_000) == "sorted"
        assert planned_kernel(100_000, 10) == "hash"
    assert planned_kernel(10, 100_000) == "hash"


def test_filter_by_keys_sorted_matches_hash_kernel():
    rows = [(i % 7, i) for i in range(50)]
    store = ColumnarRelation(2, rows)
    for keys in (set(), {(1,), (3,)}, {(i,) for i in range(100)}):
        assert set(store.filter_by_keys_sorted(0, keys)) == set(
            store.filter_by_keys((0,), keys)
        )
    assert store.filter_by_keys_sorted(0, set()) == []


# -- ExecutionOptions validation (satellite) -------------------------------


def test_execution_options_validation():
    ExecutionOptions()  # defaults are valid
    ExecutionOptions(incremental_fallback_ratio=0.0, plan_cache_size=1)
    ExecutionOptions(incremental_fallback_ratio=1.0, planner=False)
    with pytest.raises(ValueError):
        ExecutionOptions(plan_cache_size=0)
    with pytest.raises(ValueError):
        ExecutionOptions(plan_cache_size=16.0)
    with pytest.raises(ValueError):
        ExecutionOptions(incremental_fallback_ratio=float("nan"))
    with pytest.raises(ValueError):
        ExecutionOptions(incremental_fallback_ratio=-0.1)
    with pytest.raises(ValueError):
        ExecutionOptions(incremental_fallback_ratio=1.5)
    with pytest.raises(ValueError):
        ExecutionOptions(incremental_fallback_ratio=True)


def test_engine_defaults_derive_from_execution_options():
    defaults = ExecutionOptions()
    engine = QueryEngine(EMPTY)
    assert engine.strict == defaults.strict
    assert engine.incremental == defaults.incremental
    assert engine.incremental_fallback_ratio == defaults.incremental_fallback_ratio
    assert engine.codegen == defaults.codegen
    assert engine.planner == defaults.planner
    assert engine._plan_cache_size == defaults.plan_cache_size


# -- fallback ratio semantics (satellite) ----------------------------------


def test_materialization_rejects_bad_fallback_ratio():
    database = Database([])
    with pytest.raises(ValueError):
        Materialization(EMPTY, database, fallback_ratio=-0.1)
    with pytest.raises(ValueError):
        Materialization(EMPTY, database, fallback_ratio=float("nan"))
    with pytest.raises(ValueError):
        Materialization(EMPTY, database, fallback_ratio=float("inf"))
    with pytest.raises(ValueError):
        Materialization(EMPTY, database, fallback_ratio=True)


def test_fallback_ratio_zero_always_rebuilds():
    database = Database(_tie_facts())
    query = parse_query(TIE_QUERY)
    engine = QueryEngine(
        EMPTY, database, incremental=True, incremental_fallback_ratio=0.0
    )
    before = engine.execute(query)
    database.add(Fact("R", ("a0", "zz")))
    after = engine.execute(query)
    assert before <= after
    stats = engine.snapshot()
    # Honouring 0.0 means no delta is ever maintained: the mutation forced
    # a full rebuild instead of a 1-row increment.
    assert stats.chase_increments == 0
    assert stats.incremental_fallbacks >= 1
    assert stats.chase_builds == 2


# -- engine integration ----------------------------------------------------


def test_engine_planner_counters_and_identical_answers():
    database = Database(_tie_facts())
    query = parse_query(TIE_QUERY)
    with use_planner(True):
        planned = QueryEngine(EMPTY, database)
        planned_answers = planned.execute(query)
        stats = planned.snapshot()
        assert stats.planner_choices == 1
        assert stats.planner_candidates >= 2
        assert stats.planner_actual_rows > 0
        prepared = planned.prepare(query)
        choice = prepared.last_plan_choice
        assert choice is not None
        assert choice.actual_rows is not None
    with use_planner(False):
        unplanned = QueryEngine(EMPTY, database)
        assert unplanned.execute(query) == planned_answers
        assert unplanned.snapshot().planner_choices == 0


def test_engine_planner_kwarg_beats_process_default():
    database = Database(_tie_facts())
    query = parse_query(TIE_QUERY)
    with use_planner(True):
        engine = QueryEngine(EMPTY, database, planner=False)
        engine.execute(query)
        assert engine.snapshot().planner_choices == 0


def test_engine_stats_schema_includes_planner_fields():
    snapshot = EngineStats.zero().as_dict()
    for key in (
        "planner_choices",
        "planner_candidates",
        "planner_estimated_rows",
        "planner_actual_rows",
    ):
        assert key in snapshot
        assert snapshot[key] == 0


def test_explain_plan_summary_includes_plan_choice():
    from repro.obs.explain import plan_summary

    database = Database(_tie_facts())
    query = parse_query(TIE_QUERY)
    with use_planner(True):
        engine = QueryEngine(EMPTY, database)
        engine.execute(query)
        summary = plan_summary(engine.prepare(query))
    assert "plan_choice" in summary
    assert summary["plan_choice"]["candidates"]
    assert summary["plan_choice"]["actual_rows"] is not None


# -- LatencyHistogram boundary semantics (satellite) -----------------------


def test_histogram_exact_bound_lands_in_le_bucket():
    histogram = LatencyHistogram(bounds=(0.001, 0.01, 0.1))
    histogram.observe(0.01)  # exactly on a bound: le-inclusive
    snapshot = histogram.snapshot()
    by_bound = {bucket["le"]: bucket["count"] for bucket in snapshot["buckets"]}
    assert by_bound[0.001] == 0
    assert by_bound[0.01] == 1
    assert by_bound[0.1] == 1


def test_histogram_single_observation_p50():
    histogram = LatencyHistogram(bounds=(0.001, 0.01, 0.1))
    histogram.observe(0.004)
    # rank = max(1, round(0.5 * 1)) = 1, capped by the exact max: the single
    # observation is reported exactly, not as its bucket's upper bound.
    assert histogram.percentile(0.5) == pytest.approx(0.004)


def test_histogram_overflow_reports_exact_max():
    histogram = LatencyHistogram(bounds=(0.001, 0.01))
    histogram.observe(5.0)
    histogram.observe(7.5)
    assert histogram.percentile(0.99) == 7.5
    assert histogram.percentile(1.0) == 7.5
    snapshot = histogram.snapshot()
    assert snapshot["max_ms"] == 7500.0


def test_histogram_snapshot_buckets_are_cumulative_to_count():
    histogram = LatencyHistogram(bounds=(0.001, 0.01, 0.1))
    for value in (0.0005, 0.005, 0.05, 0.5, 5.0):
        histogram.observe(value)
    snapshot = histogram.snapshot()
    buckets = snapshot["buckets"]
    assert buckets[-1]["le"] == "+Inf"
    assert buckets[-1]["count"] == snapshot["count"] == 5
    counts = [bucket["count"] for bucket in buckets]
    assert counts == sorted(counts), "bucket counts must be cumulative"


def test_histogram_empty_and_invalid_fraction():
    histogram = LatencyHistogram(bounds=(0.001,))
    assert histogram.percentile(0.5) == 0.0
    with pytest.raises(ValueError):
        histogram.percentile(1.5)
    with pytest.raises(ValueError):
        LatencyHistogram(bounds=())


def test_nan_never_reaches_budget_math():
    # The engine rejects NaN before any budget computation can silently
    # swallow it (NaN comparisons are all False).
    assert math.isnan(float("nan"))
    with pytest.raises(ValueError):
        QueryEngine(EMPTY, incremental_fallback_ratio=float("nan"))
