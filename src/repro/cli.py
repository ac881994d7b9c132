"""The ``repro`` command line interface.

Runs prepared-query workloads through :class:`repro.engine.QueryEngine`::

    repro run --workload university --size 400 --repeat 100 --json
    repro run --workload office --queries q1.cq q2.cq --batch
    repro run --rules rules.dlgp --data Edge.csv --queries queries.dlgp
    repro run --workload university --updates 20 --update-size 5 --json
    repro convert --workload office --size 50 --out office-dump
    repro workloads
    repro serve --workload demo --port 8080
    repro serve --tenant acme=university --tenant beta=lubm --size 500

``run`` resolves a scenario — a registry workload (``--workload``, a name
from ``repro workloads`` or a path to DLGP/CSV files) or explicit
``--rules`` / ``--data`` / ``--queries`` files — prepares every query once,
executes them ``--repeat`` times (sequentially, or as engine batches with
``--batch``), and reports per-query answer counts, wall-clock timings and the
engine's cache statistics — as a table, or as one JSON document with
``--json``.  Query files are DLGP documents (``.dlgp``, possibly holding
many queries) or single Datalog-style queries
(``q(x, y) :- R(x, z), S(z, y)``); without ``--queries`` the scenario's own
queries are used.

``convert`` writes any scenario back to disk as ``rules.dlgp`` +
``queries.dlgp`` + data files (CSV/TSV per relation, or one DLGP facts
document) — the dump/reload pair behind the round-trip guarantees of
``docs/formats.md``.

``serve`` starts the multi-tenant asyncio HTTP service of
:mod:`repro.server`: one named database per ``--tenant NAME=WORKLOAD``
(or a single ``default`` tenant from ``--workload``), query/cursor/mutation
endpoints, admission control and per-query timeouts, and a ``/metrics``
endpoint — see ``docs/server.md`` for the API.

``--updates N`` appends a *live-update replay*: N rounds, each applying one
``Database.batch()`` of random schema-shaped insertions and deletions
(``--update-size`` facts per round, default ~1% of the database) and then
re-executing every query on the warm engine.  The report shows how many
rounds the incremental subsystem served in place (``chase_increments``)
versus full rebuilds; ``--no-incremental`` forces the rebuild path for
comparison.

Every subcommand and flag is documented in ``docs/cli.md``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.config import ExecutionOptions
from repro.data.facts import Fact
from repro.data.instance import Database
from repro.cq.atoms import Variable
from repro.cq.parser import parse_query
from repro.cq.query import ConjunctiveQuery, QueryError
from repro.engine import QueryEngine
from repro.engine.fingerprint import query_fingerprint
from repro.io import Scenario, dump_scenario, load_queries, load_scenario
from repro.obs import TRACES, SlowQueryLog, explain_report, format_span_tree, start_trace
from repro.workloads import get_workload, list_workloads


def _execution_options(args: argparse.Namespace) -> ExecutionOptions:
    """The engine options behind ``run``, ``explain`` and ``serve``'s flags.

    A subcommand without a flag keeps that field's default.
    """
    return ExecutionOptions(
        incremental=not getattr(args, "no_incremental", False),
        strict=not args.no_strict,
        tracing=getattr(args, "trace", False),
        plan_cache_size=getattr(args, "plan_cache_size", ExecutionOptions.plan_cache_size),
    )


def _resolve_scenario(args: argparse.Namespace) -> Scenario:
    """The scenario named by ``--workload`` or assembled from file flags."""
    if args.rules or args.data:
        if args.workload is not None:
            raise ValueError("pass either --workload or --rules/--data, not both")
        return load_scenario(rules=args.rules, data=args.data)
    workload = get_workload(args.workload or "university")
    if not workload.scalable and args.size is not None:
        print(
            f"note: workload {workload.name!r} is file-backed; --size ignored",
            file=sys.stderr,
        )
    size = args.size if args.size is not None else 300
    # Reflect the effective scale back so reports show the size actually
    # used (or None for file-backed workloads, where it is meaningless).
    args.size = size if workload.scalable else None
    return workload.scenario(size=size, seed=args.seed)


def _load_query_file(path: Path) -> list[tuple[str, ConjunctiveQuery]]:
    """Queries of one ``--queries`` file: a DLGP document or a single CQ."""
    if path.suffix.lower() == ".dlgp":
        return [(f"{path.name}:{query.name}", query) for query in load_queries(path)]
    text = path.read_text(encoding="utf-8").strip()
    return [(path.name, parse_query(text))]


def _resolve_queries(
    paths: Sequence[str], inline: Sequence[str], scenario: Scenario
) -> list[tuple[str, ConjunctiveQuery]]:
    queries: list[tuple[str, ConjunctiveQuery]] = []
    for path in paths:
        queries.extend(_load_query_file(Path(path)))
    for index, text in enumerate(inline):
        queries.append((f"inline{index}", parse_query(text)))
    if not queries:
        queries.extend((query.name, query) for query in scenario.queries)
    if not queries:
        raise ValueError(
            f"scenario {scenario.name!r} declares no queries; "
            "pass --queries or --inline"
        )
    return queries


def _mutation_batch(
    database: Database, live: list[Fact], rng: random.Random, count: int, tag: str
) -> tuple[int, int]:
    """One coalesced batch of ~half insertions, ~half deletions.

    Insertions clone the shape of random existing facts with a fresh first
    argument (a new entity entering the system); deletions drop random
    existing facts.  Everything lands in one ``Database.batch()`` so the
    engine sees a single delta.  ``live`` mirrors the database's fact set
    and is maintained across rounds (built once by the caller) so the
    replay never re-materialises it.
    """
    added = removed = 0
    with database.batch():
        for index in range(count):
            if not live:
                break
            if rng.random() < 0.5:
                victim = live.pop(rng.randrange(len(live)))
                if database.discard(victim):
                    removed += 1
            else:
                template = live[rng.randrange(len(live))]
                fact = Fact(
                    template.relation, (f"live_{tag}_{index}",) + template.args[1:]
                )
                if database.add(fact):
                    added += 1
                    live.append(fact)
    return added, removed


def _replay_updates(
    engine: QueryEngine,
    database: Database,
    queries: list[tuple[str, ConjunctiveQuery]],
    rounds: int,
    batch_size: int,
    seed: int,
) -> dict:
    """Replay ``rounds`` mutation batches against the warm engine."""
    rng = random.Random(seed)
    live = sorted(database.facts(), key=repr)
    added = removed = 0
    round_seconds: list[float] = []
    started = time.perf_counter()
    for round_index in range(rounds):
        plus, minus = _mutation_batch(database, live, rng, batch_size, str(round_index))
        added += plus
        removed += minus
        round_started = time.perf_counter()
        for _, query in queries:
            engine.execute(query)
        round_seconds.append(time.perf_counter() - round_started)
    total_seconds = time.perf_counter() - started
    stats = engine.stats
    return {
        "rounds": rounds,
        "batch_size": batch_size,
        "facts_added": added,
        "facts_removed": removed,
        "total_seconds": round(total_seconds, 6),
        "mean_round_ms": round(1000 * total_seconds / rounds, 3) if rounds else None,
        "max_round_ms": round(1000 * max(round_seconds), 3) if round_seconds else None,
        "chase_builds": stats.chase_builds,
        "chase_increments": stats.chase_increments,
        "incremental_fallbacks": stats.incremental_fallbacks,
    }


def _run(args: argparse.Namespace) -> int:
    try:
        scenario = _resolve_scenario(args)
        queries = _resolve_queries(args.queries, args.inline, scenario)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    database = scenario.database

    engine = QueryEngine(scenario.ontology, database, options=_execution_options(args))
    slow_log = SlowQueryLog(args.slow_query_ms)
    prep_started = time.perf_counter()
    try:
        engine.warm([query for _, query in queries])
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prep_seconds = time.perf_counter() - prep_started

    results = []
    exec_started = time.perf_counter()
    if args.batch:
        batch = [query for _, query in queries] * args.repeat
        answer_sets = engine.execute_batch(batch)
        per_query = answer_sets[: len(queries)]
    else:
        per_query = []
        for label, query in queries:
            answers: set[tuple] = set()
            for _ in range(args.repeat):
                query_started = time.perf_counter()
                answers = engine.execute(query)
                if slow_log.threshold_ms is not None:
                    recent = TRACES.recent(1) if args.trace else []
                    slow_log.record(
                        query=label,
                        elapsed_ms=1000 * (time.perf_counter() - query_started),
                        answers=len(answers),
                        trace_id=recent[0].trace_id if recent else None,
                    )
            per_query.append(answers)
    exec_seconds = time.perf_counter() - exec_started

    executed = len(queries) * args.repeat
    for (label, query), answers in zip(queries, per_query):
        sample = sorted(answers)[: args.show] if args.show > 0 else []
        results.append(
            {
                "query": label,
                "arity": query.arity,
                "answers": len(answers),
                "sample": [list(a) for a in sample],
            }
        )

    updates_report = None
    if args.updates:
        batch_size = args.update_size or max(1, len(database) // 100)
        updates_report = _replay_updates(
            engine, database, queries, args.updates, batch_size, args.seed
        )

    stats = engine.stats
    report = {
        "workload": args.workload or ("files" if (args.rules or args.data) else "university"),
        "scenario": scenario.name,
        "sources": list(scenario.sources),
        "size": args.size,
        "seed": args.seed,
        "db_facts": len(database),
        "queries": len(queries),
        "repeat": args.repeat,
        "mode": "batch" if args.batch else "sequential",
        "executed": executed,
        "preprocess_seconds": round(prep_seconds, 6),
        "execute_seconds": round(exec_seconds, 6),
        "throughput_qps": round(executed / exec_seconds, 1) if exec_seconds else None,
        "results": results,
        "engine": {
            "plans_cached": stats.plans_cached,
            "plan_hits": stats.plan_hits,
            "plan_misses": stats.plan_misses,
            "chase_builds": stats.chase_builds,
            "chase_increments": stats.chase_increments,
            "incremental_fallbacks": stats.incremental_fallbacks,
            "state_builds": stats.state_builds,
            "invalidations": stats.invalidations,
            "plans_compiled": stats.plans_compiled,
            "codegen_cache_hits": stats.codegen_cache_hits,
        },
    }
    if updates_report is not None:
        report["updates"] = updates_report
    if args.trace:
        report["traces"] = [
            {
                "trace_id": trace.trace_id,
                "name": trace.name,
                "duration_ms": round(trace.duration_ms, 3),
                "spans": len(trace.spans),
            }
            for trace in TRACES.recent(len(queries))
        ]
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0

    scale = f"size={args.size}, seed={args.seed}" if args.size is not None else f"seed={args.seed}"
    print(f"scenario {scenario.name}: {len(database)} facts ({scale})")
    print(
        f"prepared {len(queries)} queries in {prep_seconds * 1000:.1f} ms; "
        f"executed {executed} in {exec_seconds * 1000:.1f} ms "
        f"({report['throughput_qps']} q/s, {report['mode']})"
    )
    for entry in results:
        print(f"  {entry['query']}/{entry['arity']}: {entry['answers']} answers")
        for sample in entry["sample"]:
            print(f"    {tuple(sample)}")
    if updates_report is not None:
        print(
            f"updates: {updates_report['rounds']} rounds x "
            f"{updates_report['batch_size']} facts "
            f"(+{updates_report['facts_added']}/-{updates_report['facts_removed']}) "
            f"in {updates_report['total_seconds'] * 1000:.1f} ms "
            f"(mean {updates_report['mean_round_ms']} ms/round); "
            f"{updates_report['chase_increments']} incremental, "
            f"{updates_report['chase_builds']} rebuilds, "
            f"{updates_report['incremental_fallbacks']} fallbacks"
        )
    print(
        f"engine: {stats.plans_cached} plans cached "
        f"({stats.plan_hits} hits / {stats.plan_misses} misses), "
        f"{stats.chase_builds} chase builds, "
        f"{stats.chase_increments} incremental updates, "
        f"{stats.state_builds} state builds"
    )
    if args.trace:
        for entry in report["traces"]:
            print(
                f"trace {entry['trace_id']}  {entry['name']}  "
                f"{entry['duration_ms']} ms ({entry['spans']} spans); "
                "inspect with `repro explain` or the /traces endpoint"
            )
    return 0


def _format_term(term) -> str:
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, int):
        return str(term)
    return f'"{term}"'


def _format_query(query: ConjunctiveQuery) -> str:
    """Render a query back to the Datalog-style surface syntax.

    Used by ``repro explain`` so the traced execution starts from text and
    the report shows a genuine ``parse`` phase; atoms are emitted in sorted
    order for determinism (conjunction is commutative).
    """
    head = ", ".join(v.name for v in query.answer_variables)
    atoms = sorted(query.atoms, key=repr)
    body = ", ".join(
        f"{atom.relation}({', '.join(_format_term(term) for term in atom.args)})"
        for atom in atoms
    )
    return f"{query.name}({head}) :- {body}"


def _explain_target(query: ConjunctiveQuery) -> "str | ConjunctiveQuery":
    """The query as text when the round-trip is faithful, else the object.

    Queries from DLGP files can use variable names the Datalog-style parser
    would read as constants (uppercase); those are executed as objects — the
    report then simply has no parse phase.
    """
    text = _format_query(query)
    try:
        reparsed = parse_query(text)
    except QueryError:
        return query
    if query_fingerprint(reparsed) != query_fingerprint(query):
        return query
    return text


def _explain(args: argparse.Namespace) -> int:
    """Trace one cold execution per query and print the phase report."""
    try:
        scenario = _resolve_scenario(args)
        queries = _resolve_queries(args.queries, args.inline, scenario)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = []
    for label, query in queries:
        # A fresh engine per query, so EXPLAIN shows every phase paying its
        # real cost (plan compile, chase, reduction) instead of cache hits.
        engine = QueryEngine(
            scenario.ontology, scenario.database, options=_execution_options(args)
        )
        target = _explain_target(query)
        try:
            with start_trace(f"explain:{label}") as trace:
                answers = engine.execute(target)
        except QueryError as exc:
            print(f"error: {label}: {exc}", file=sys.stderr)
            return 2
        reports.append(
            explain_report(
                trace, prepared=engine.prepare(target), answers=len(answers)
            )
        )
    if args.json:
        json.dump(
            {"scenario": scenario.name, "explains": reports}, sys.stdout, indent=2
        )
        sys.stdout.write("\n")
        return 0
    for report in reports:
        print(format_span_tree(report))
        print()
    return 0


def _serve(args: argparse.Namespace) -> int:
    from repro.server import ServiceConfig
    from repro.server.runner import run as run_server

    tenants: list[tuple[str, str, int, int]] = []
    for spec in args.tenant:
        name, separator, workload = spec.partition("=")
        if not separator or not name or not workload:
            print(f"error: --tenant must be NAME=WORKLOAD, got {spec!r}", file=sys.stderr)
            return 2
        tenants.append((name, workload, args.size or 300, args.seed))
    if not tenants:
        tenants.append(("default", args.workload or "university", args.size or 300, args.seed))
    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            query_timeout=args.timeout,
            page_size=args.page_size,
            max_cursors=args.max_cursors,
            drain_timeout=args.drain_timeout,
            execution=_execution_options(args),
            slow_query_ms=args.slow_query_ms,
        )
        return run_server(config, tenants)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _workloads(args: argparse.Namespace) -> int:
    del args
    for name, workload in list_workloads().items():
        kind = "generator " if workload.scalable else "file-based"
        print(f"{name:12s} {kind}  {workload.description}")
    return 0


def _convert(args: argparse.Namespace) -> int:
    try:
        scenario = _resolve_scenario(args)
        if args.queries or args.inline:
            named = _resolve_queries(args.queries, args.inline, scenario)
            scenario = Scenario(
                ontology=scenario.ontology,
                database=scenario.database,
                queries=tuple(query for _, query in named),
                name=scenario.name,
                sources=scenario.sources,
            )
        written = dump_scenario(scenario, args.out, data_format=args.data_format)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags every subcommand uses to resolve a scenario."""
    parser.add_argument(
        "--workload",
        default=None,
        metavar="NAME_OR_PATH",
        help=(
            "registry workload name (see `repro workloads`) or a path to "
            "DLGP/CSV files; default: university"
        ),
    )
    parser.add_argument(
        "--rules",
        nargs="+",
        default=[],
        metavar="FILE.dlgp",
        help="DLGP rule files (embedded @queries/@facts sections are used too)",
    )
    parser.add_argument(
        "--data",
        nargs="+",
        default=[],
        metavar="FILE",
        help="data files: .csv/.tsv (one relation per file) or .dlgp facts",
    )
    parser.add_argument(
        "--queries",
        nargs="*",
        default=[],
        metavar="FILE",
        help=(
            "query files: .dlgp documents (any number of queries) or files "
            "holding one Datalog-style query"
        ),
    )
    parser.add_argument(
        "--inline",
        nargs="*",
        default=[],
        metavar="QUERY",
        help="queries given directly on the command line",
    )
    parser.add_argument(
        "--size",
        type=int,
        default=None,
        help="database scale factor for generator workloads (default: 300)",
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Prepared-query engine CLI for the PODS'22 reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run queries through the QueryEngine")
    _add_scenario_arguments(run)
    run.add_argument("--repeat", type=int, default=1, help="executions per query")
    run.add_argument(
        "--batch",
        action="store_true",
        help="evaluate through engine.execute_batch instead of per-query calls",
    )
    run.add_argument("--show", type=int, default=0, help="sample answers to print")
    run.add_argument("--json", action="store_true", help="emit one JSON report")
    run.add_argument(
        "--updates",
        type=int,
        default=0,
        metavar="N",
        help="replay N random mutation batches against the warm engine",
    )
    run.add_argument(
        "--update-size",
        type=int,
        default=None,
        metavar="K",
        help="facts per mutation batch (default: ~1%% of the database)",
    )
    run.add_argument(
        "--no-incremental",
        action="store_true",
        help="disable incremental maintenance (full rebuild per mutation)",
    )
    run.add_argument(
        "--no-strict",
        action="store_true",
        help=(
            "allow queries outside the acyclic/free-connex class "
            "(served via materialized certain answers, not constant delay)"
        ),
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help=(
            "record a span trace for every execution "
            "and list the recorded trace ids in the report"
        ),
    )
    run.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "log sequential-mode executions slower than MS milliseconds as "
            "JSON lines on stderr (the slow-query log)"
        ),
    )
    run.set_defaults(func=_run)

    explain = subparsers.add_parser(
        "explain",
        help="trace one cold execution per query and print the phase report",
    )
    _add_scenario_arguments(explain)
    explain.add_argument(
        "--no-strict",
        action="store_true",
        help=(
            "allow queries outside the acyclic/free-connex class "
            "(served via materialized certain answers, not constant delay)"
        ),
    )
    explain.add_argument(
        "--json",
        action="store_true",
        help="emit the EXPLAIN reports as one JSON document",
    )
    explain.set_defaults(func=_explain)

    convert = subparsers.add_parser(
        "convert",
        help="dump a scenario to rules.dlgp + queries.dlgp + data files",
    )
    _add_scenario_arguments(convert)
    convert.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help="output directory (created if missing)",
    )
    convert.add_argument(
        "--data-format",
        choices=("csv", "tsv", "dlgp"),
        default="csv",
        help="how to serialize the database (default: csv, one file per relation)",
    )
    convert.set_defaults(func=_convert)

    workloads = subparsers.add_parser(
        "workloads", help="list registered workloads (generators and file-based)"
    )
    workloads.set_defaults(func=_workloads)

    serve = subparsers.add_parser(
        "serve", help="start the multi-tenant HTTP query service"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port (0 picks an ephemeral port, announced on stdout)",
    )
    serve.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="NAME=WORKLOAD",
        help=(
            "provision a named tenant from a workload (registry name or "
            "path); repeatable"
        ),
    )
    serve.add_argument(
        "--workload",
        default=None,
        metavar="NAME_OR_PATH",
        help="workload for the single 'default' tenant when no --tenant is given",
    )
    serve.add_argument(
        "--size",
        type=int,
        default=None,
        help="database scale factor for generator workloads (default: 300)",
    )
    serve.add_argument("--seed", type=int, default=0, help="generator seed")
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="admission control: in-flight requests per tenant before 429",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-query timeout; enumeration is cancelled cleanly at a page boundary",
    )
    serve.add_argument(
        "--page-size",
        type=int,
        default=100,
        help="default cursor page size (?count=N overrides per request)",
    )
    serve.add_argument(
        "--max-cursors",
        type=int,
        default=64,
        help="open server-side cursors per tenant before 429",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="graceful-shutdown budget for in-flight requests before cursors close",
    )
    serve.add_argument(
        "--plan-cache-size",
        type=int,
        default=256,
        help="capacity of the cross-tenant prepared-plan cache",
    )
    serve.add_argument(
        "--no-strict",
        action="store_true",
        help=(
            "serve queries outside the acyclic/free-connex class "
            "(materialized certain answers, not constant delay)"
        ),
    )
    serve.add_argument(
        "--no-incremental",
        action="store_true",
        help="disable incremental maintenance (mutations force full rebuilds)",
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        help=(
            "trace every request (otherwise only requests carrying an "
            "X-Repro-Trace header or ?explain=1 are traced)"
        ),
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log queries/pages slower than MS milliseconds as JSON lines on stderr",
    )
    serve.set_defaults(func=_serve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
