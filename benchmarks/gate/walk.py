"""The traced mode's step-by-step walk: one span per layer boundary.

The walk drives the same generated inputs as the untraced cell, at the
workload's largest size, through the layers' public functions instead of
through ``QueryEngine`` (or the ``repro.core`` one-shot classes), so that
each layer's share can be read from outside.  The steps on the path to the
first answer run first, in a process as fresh as the untraced cell's;
reference measurements beside the path (a bare chase, a rebuilt database, a
warmed engine under mutation) follow and are marked ``on_path = False``.

The walk reports the per-layer metrics it reaches; ``run.py`` reports 0 for
the rest of ``BENCHMARK.json``'s list: the walk did no work in that layer.
"""

from __future__ import annotations

import gc
import os
from collections import defaultdict
from itertools import islice
from time import process_time as clock

import inputs
from statistics import median
from trace import Tracer

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)

WARM_EXECUTES = 3
PLAN_LOOKUPS = 200
APPLY_BATCHES = 3


def current_rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * _PAGE_MB


def _timed_ms(call) -> float:
    started = clock()
    call()
    return 1000.0 * (clock() - started)


def _drain(iterator, chunk: int) -> int:
    count = 0
    while True:
        rows = list(islice(iterator, chunk))
        count += len(rows)
        if len(rows) < chunk:
            return count


def _max_delay_us(iterator) -> float:
    """Largest gap between consecutive answers, one clock stamp per answer
    (informational: at sub-microsecond delays the stamp is most of the gap)."""
    worst = 0.0
    last = clock()
    for _ in iterator:
        now = clock()
        if now - last > worst:
            worst = now - last
        last = now
    return 1e6 * worst


# -- engine pipeline: cold-chase, enum-graph, live-mix -------------------------


def walk_engine(tracer, workload, size, options, metrics) -> float:
    from repro.chase.query_directed import query_directed_chase
    from repro.config import planner_enabled
    from repro.data.instance import Database
    from repro.data.interning import TERMS
    from repro.engine import CODEGEN_STATS, QueryEngine, prepare_query
    from repro.enumeration.cdlin import CDLinEnumerator
    from repro.incremental import ChaseMaintainer
    from repro.incremental.delta import Delta, apply_delta
    from repro.io import dump_scenario
    from repro.planner import choose_plan
    from repro.planner.kernels import semijoin_planning

    scenario = inputs.build_scenario(workload, size, options.seed)
    from_files = workload.name != "enum-graph"
    if from_files:
        directory = options.workdir / f"walk-{size}"
        dump_scenario(scenario, directory)
        del scenario
    gc.collect()
    metrics["data.rss_mb"] = current_rss_mb()

    first_at = 0.0
    with tracer.span("walk"):
        if from_files:
            with tracer.span("io.load_scenario"):
                scenario = inputs.load_dumped(directory)
        database, ontology = scenario.database, scenario.ontology
        # live-mix's first answer is one query; cold-chase opens all three.
        queries = scenario.queries if workload.name == "cold-chase" else scenario.queries[:1]
        chase = None
        for query in queries:
            with tracer.span("plan.prepare_query"):
                prepared = prepare_query(ontology, query, name=query.name)
            if chase is None or chase.null_depth_bound < prepared.null_depth:
                before = current_rss_mb()
                with tracer.span("chase.recorded"):
                    recorder = ChaseMaintainer(
                        database, ontology, max_null_depth=prepared.null_depth
                    )
                    chase = query_directed_chase(
                        database, ontology, query,
                        null_depth=prepared.null_depth, recorder=recorder,
                    )
                    recorder.attach(chase.result)
                metrics["chase.rss_delta_mb"] = current_rss_mb() - before
            decomposition, choice = prepared.decomposition, None
            if planner_enabled():
                with tracer.span("planner.choose_plan"):
                    choice = choose_plan(prepared.planner_candidates(), chase.instance)
                decomposition = choice.decomposition
                metrics["planner.candidates"] += len(choice.candidates)
                metrics["planner.estimated_rows"] += choice.estimated_rows
            before = current_rss_mb()
            with tracer.span("yannakakis.reduce"), semijoin_planning(choice is not None):
                enumerator = CDLinEnumerator(
                    query, chase.instance, keep_nulls=False,
                    decomposition=decomposition, codegen_cache=prepared.codegen,
                )
            if not first_at:
                metrics["yannakakis.rss_delta_mb"] = current_rss_mb() - before
                first_enumerator = enumerator
            metrics["yannakakis.rows_in"] += sum(
                chase.instance.relation_size(atom.relation) for atom in query.atoms
            )
            metrics["yannakakis.rows_out"] += enumerator.reduced.size()
            with tracer.span("enumeration.first"):
                iterator = enumerator.enumerate()
                next(iterator)
            first_at = first_at or clock()
            with tracer.span("enumeration.walk"):
                metrics["enumeration.answers"] += 1 + _drain(iterator, workload.chunk)
    metrics["data.interned_terms"] = len(TERMS)

    with tracer.span("enumeration.stamped", on_path=False):
        metrics["enumeration.max_delay_us"] = _max_delay_us(first_enumerator.enumerate())
    depth = chase.null_depth_bound
    del chase, recorder, enumerator, first_enumerator, iterator
    gc.collect()
    with tracer.span("chase.bare", on_path=False):
        bare = query_directed_chase(database, ontology, queries[0], null_depth=depth)
    metrics["chase.bare_s"] = tracer.seconds("chase.bare")
    _chase_counts(metrics, bare)
    del bare
    with tracer.span("data.database", on_path=False):
        rebuilt = Database(list(database))
    del rebuilt
    gc.collect()

    # A warmed engine on the same inputs: cache hits, warm execution and the
    # cost of absorbing a mutation batch (the walk's last act: it mutates).
    engine = QueryEngine(ontology, database)
    with tracer.span("engine.cold_execute", on_path=False):
        for query in scenario.queries:
            engine.execute(query)
    rounds = range(WARM_EXECUTES)
    per_query = [
        median(_timed_ms(lambda: engine.execute(query)) for _ in rounds)
        for query in scenario.queries
    ]
    metrics["engine.warm_execute_ms"] = median(per_query)
    metrics["plan.cache_hit_us"] = 1000.0 * median(
        _timed_ms(lambda: engine.prepare(scenario.queries[0])) for _ in range(PLAN_LOOKUPS)
    )
    batches = inputs.mutation_batches(workload, database, options.seed, APPLY_BATCHES)
    applied = []
    for batch in batches:
        apply_delta(database, Delta.from_wire(batch))
        applied.append(_timed_ms(lambda: engine.execute(scenario.queries[0])))
    metrics["incremental.apply_ms"] = median(applied) - per_query[0]
    metrics["incremental.delta_facts"] = sum(
        len(batch["add"]) + len(batch["remove"]) for batch in batches
    )
    stats = engine.stats
    metrics["incremental.increments"] = stats.chase_increments
    metrics["incremental.fallbacks"] = stats.incremental_fallbacks
    metrics["engine.plan_hits"] = stats.plan_hits
    metrics["engine.state_builds"] = stats.state_builds
    metrics["engine.chase_builds"] = stats.chase_builds
    compiled, hits = CODEGEN_STATS.snapshot()
    metrics["codegen.plans_compiled"] = compiled
    metrics["codegen.cache_hits"] = hits

    recorded = tracer.seconds("chase.recorded")
    metrics["io.parse_s"] = tracer.seconds("io.load_scenario")
    if from_files:
        metrics["io.facts_per_s"] = len(database) / metrics["io.parse_s"]
    metrics["data.build_s"] = tracer.seconds("data.database")
    metrics["plan.prepare_ms"] = 1000.0 * tracer.seconds("plan.prepare_query")
    metrics["planner.choice_ms"] = 1000.0 * tracer.seconds("planner.choose_plan")
    metrics["planner.actual_rows"] = metrics["yannakakis.rows_out"]
    metrics["incremental.capture_s"] = recorded - metrics["chase.bare_s"]
    metrics["yannakakis.reduce_s"] = tracer.seconds("yannakakis.reduce")
    metrics["yannakakis.survival"] = (
        metrics["yannakakis.rows_out"] / metrics["yannakakis.rows_in"]
    )
    metrics["enumeration.walk_s"] = tracer.seconds("enumeration.walk")
    metrics["enumeration.ns_per_answer"] = (
        1e9 * metrics["enumeration.walk_s"] / metrics["enumeration.answers"]
    )
    metrics["codegen.first_walk_ms"] = 1000.0 * tracer.find("enumeration.first").seconds
    return first_at


def _chase_counts(metrics, chase) -> None:
    span_s = metrics["chase.bare_s"]
    result = chase.result
    metrics["chase.facts_out"] = len(chase.instance)
    metrics["chase.rounds"] = result.rounds
    metrics["chase.fired_triggers"] = result.fired_triggers
    metrics["chase.us_per_fact_out"] = 1e6 * span_s / len(chase.instance)


# -- repro.core one-shot classes: the three office workloads -------------------


def walk_core(tracer, workload, size, options, metrics) -> float:
    import repro.core as core
    from repro.enumeration.alltesting import FreeConnexAllTester
    from repro.workloads import generate_office_database, office_omq

    omq = office_omq()
    database = generate_office_database(size, seed=options.seed)
    testing = workload.name == "test-office"
    if testing:
        candidates = inputs.test_candidates(
            database, options.seed,
            inputs.scaled(inputs.SINGLE_TESTS_PER_KIND, options.quick),
            inputs.scaled(inputs.ALL_TEST_VERDICTS, options.quick),
        )
    gc.collect()
    metrics["data.rss_mb"] = current_rss_mb()

    before = current_rss_mb()
    with tracer.span("walk"):
        if testing:
            with tracer.span("core.single_build"):
                single = core.OMQSingleTester(omq, database)
            metrics["chase.rss_delta_mb"] = current_rss_mb() - before
            with tracer.span("core.first_test"):
                single.test_complete(candidates["complete"][0][0])
            first_at = clock()
            tests = inputs.single_tests(single)
            with tracer.span("core.single_tests") as span:
                for index in range(len(candidates["complete"])):
                    for kind, test in tests:
                        test(candidates[kind][index][0])
                span.counts["tests"] = 3 * len(candidates["complete"])
            with tracer.span("core.all_build"):
                tester = core.OMQAllTester(omq, database)
            with tracer.span("enumeration.alltest") as span:
                test = tester.test
                verdicts = [test(candidate) for candidate, _ in candidates["all"]]
                span.counts["verdicts"] = len(verdicts)
        else:
            kind, name = inputs.OFFICE_ENUMERATORS[workload.name]
            with tracer.span("core.build"):
                enumerator = getattr(core, name)(omq, database)
            metrics["chase.rss_delta_mb"] = current_rss_mb() - before
            with tracer.span("core.first"):
                iterator = iter(enumerator.enumerate())
                next(iterator)
            first_at = clock()
            with tracer.span("core.walk"):
                metrics["enumeration.answers"] = 1 + _drain(iterator, workload.chunk)

    with tracer.span("chase.bare", on_path=False):
        bare = omq.chase(database)
    metrics["chase.bare_s"] = tracer.seconds("chase.bare")
    _chase_counts(metrics, bare)
    if testing:
        with tracer.span("enumeration.alltest_build", on_path=False):
            direct = FreeConnexAllTester(omq.query, bare.instance)
        with tracer.span("enumeration.alltest_direct", on_path=False):
            for candidate, _ in candidates["all"]:
                direct.test(candidate)
        verdict_count = len(candidates["all"])
        metrics["core.single_build_s"] = tracer.seconds("core.single_build")
        metrics["core.single_test_us"] = (
            1e6 * tracer.seconds("core.single_tests") / (3 * len(candidates["complete"]))
        )
        metrics["core.all_build_s"] = tracer.seconds("core.all_build")
        metrics["enumeration.alltest_build_s"] = tracer.seconds("enumeration.alltest_build")
        metrics["enumeration.alltest_ns"] = (
            1e9 * tracer.seconds("enumeration.alltest_direct") / verdict_count
        )
        metrics["enumeration.answers"] = verdict_count
    else:
        pre = tracer.seconds("core.build") - metrics["chase.bare_s"]
        walked = tracer.seconds("core.first") + tracer.seconds("core.walk")
        metrics[f"core.{kind}_pre_s"] = pre
        metrics[f"core.{kind}_walk_s"] = walked
    return first_at


def run(workload, size, options) -> dict:
    """The walk child's result: spans, per-layer metrics and the on-path
    times the parent sets against the untraced cell."""
    metrics = defaultdict(int)
    family = walk_core if workload.generator == "office" else walk_engine
    with Tracer(workload.name) as tracer:
        first_at = family(tracer, workload, size, options, metrics)
    root = tracer.find("walk")
    steps = [s for s in tracer.spans if s.parent == root.id]
    metrics["runtime.gc_pause_s"] = sum(s.gc_pause_s for s in steps) + root.gc_pause_s
    metrics["runtime.gc_gen2_collections"] = sum(s.gc_gen2 for s in steps) + root.gc_gen2
    return {
        "spans": tracer.as_dicts(),
        "metrics": metrics,
        "path_first_s": sum(tracer.self_seconds(s) for s in steps if s.end <= first_at),
        "path_total_s": root.seconds,
    }

