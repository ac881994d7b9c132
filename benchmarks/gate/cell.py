"""One cell of the gate benchmark, in a process of its own.

``run.py`` starts this file once per (workload, size, repetition): repeated
cold runs in one process drift, because the term dictionary is process-wide
and every chase interns fresh nulls.  A cell sets up its inputs from the
seed, collects garbage once, hands the inputs to the program and times what
the program does with them.  The collector stays exactly as the program
leaves it.  The last line of standard output is one JSON object.

The clock is ``time.process_time``: CPU seconds of this process.  On an idle
machine that is the wall time of these single-threaded cells; on this shared
2-core box it leaves out the time the hypervisor gave to other guests, which
moved the wall time of one cell between 1.6 and 3.8 s while its CPU time
stayed within 1.5-2.0 s.  ``ready``, read at the hand-over, is therefore the
CPU time of the whole set-up, interpreter start and imports included.

Only the windows in which the program runs are timed: answers are
checksummed between windows, or on a second pass, and that work is not part
of any metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from itertools import islice
from pathlib import Path
from time import process_time

import inputs
from stats import MASK64, row_crc, rows_checksum


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def drain(iterator, chunk: int, first_row, inline: bool = True, collect: list | None = None):
    """Pull the remaining answers in chunks of ``chunk``.

    Returns ``(answers, checksum, seconds, delays)``: the answer count and
    checksum include ``first_row``; ``seconds`` sums the chunk windows and
    ``delays`` holds one per-answer delay for every full chunk.  With
    ``inline`` each chunk is checksummed between two windows.  That costs
    about 1 us per answer of cache traffic, which is nothing beside a 30 us
    wildcard answer but slows the 0.6 us complete-answer walk by a third, so
    engine cursors are drained with ``inline=False`` and checksummed on a
    second, untimed pass (:func:`second_pass`).
    """
    count, crc, seconds, delays = 1, row_crc(first_row), 0.0, []
    if collect is not None:
        collect.append(first_row)
    while True:
        started = process_time()
        rows = list(islice(iterator, chunk))
        window = process_time() - started
        seconds += window
        count += len(rows)
        if inline:
            crc += rows_checksum(rows)
        if collect is not None:
            collect.extend(rows)
        if len(rows) < chunk:
            return count, crc & MASK64, seconds, delays
        delays.append(window / chunk)


def second_pass(cursor, answers: int, name: str) -> int:
    """Checksum of a restarted engine cursor, which must yield ``answers`` rows."""
    count = crc = 0
    for row in cursor.restart():
        count += 1
        crc += row_crc(row)
    if count != answers:
        raise SystemExit(f"{name}: {answers} answers timed, {count} on the checksum pass")
    return crc & MASK64


def first_of(iterator, what: str):
    try:
        return next(iterator)
    except StopIteration:
        raise SystemExit(f"{what}: no answers; the workload must not be empty") from None


# -- the five cold workloads ---------------------------------------------------
#
# Each returns the cell's measurements; ``collect`` (check runs only) receives
# one list of answers per query so the caller can compare them with the oracle.


def cold_chase(workload, size, options, collect=None) -> dict:
    from repro.engine import QueryEngine
    from repro.io import dump_scenario

    scenario = inputs.build_scenario(workload, size, options.seed)
    directory = options.workdir / f"lubm-{size}"
    dump_scenario(scenario, directory)
    facts = len(scenario.database)
    del scenario
    gc.collect()
    ready = process_time()

    started = process_time()
    loaded = inputs.load_dumped(directory)
    engine = QueryEngine(loaded.ontology, loaded.database)
    total = first_answer = 0.0
    queries = []
    for query in loaded.queries:
        cursor = engine.open(query)
        first = first_of(cursor, query.name)
        total += process_time() - started
        if not queries:
            first_answer = total
        rows = [] if collect is not None else None
        answers, _, seconds, _ = drain(cursor, workload.chunk, first, False, rows)
        total += seconds
        crc = second_pass(cursor, answers, query.name)
        queries.append([query.name, answers, crc])
        if collect is not None:
            collect.append(rows)
        started = process_time()
    return {
        "setup_s": ready,
        "facts": facts,
        "first_answer_s": first_answer,
        "total_s": total,
        "peak_rss_mb": peak_rss_mb(),
        "sets": queries,
    }


def enum_graph(workload, size, options, collect=None) -> dict:
    from repro.config import ExecutionOptions
    from repro.engine import QueryEngine

    scenario = inputs.build_scenario(workload, size, options.seed)
    (query,) = scenario.queries
    # ``--engine-tracing`` is the traced mode's observer-effect probe
    # (obs.traced_ratio); every other run uses the options as shipped.
    engine_options = ExecutionOptions(tracing=True) if options.engine_tracing else None
    gc.collect()
    ready = process_time()

    started = process_time()
    engine = QueryEngine(scenario.ontology, scenario.database, options=engine_options)
    cursor = engine.open(query)
    first = first_of(cursor, query.name)
    first_answer = process_time() - started
    rows = [] if collect is not None else None
    answers, _, seconds, delays = drain(cursor, workload.chunk, first, False, rows)
    rss_mb = peak_rss_mb()
    crc = second_pass(cursor, answers, query.name)
    if collect is not None:
        collect.append(rows)
    return {
        "setup_s": ready,
        "facts": len(scenario.database),
        "first_answer_s": first_answer,
        "total_s": first_answer + seconds,
        "drain_s": seconds,
        "drained": answers - 1,
        "delays": delays,
        "peak_rss_mb": rss_mb,
        "sets": [[query.name, answers, crc]],
    }


def office_enumeration(workload, size, options, collect=None) -> dict:
    import repro.core as core
    from repro.workloads import generate_office_database, office_omq

    kind, enumerator_name = inputs.OFFICE_ENUMERATORS[workload.name]
    omq = office_omq()
    database = generate_office_database(size, seed=options.seed)
    truth = inputs.office_answers(database)[kind]
    gc.collect()
    ready = process_time()

    started = process_time()
    enumerator = getattr(core, enumerator_name)(omq, database)
    iterator = iter(enumerator.enumerate())
    first = first_of(iterator, kind)
    first_answer = process_time() - started
    rows = [] if collect is not None else None
    answers, crc, seconds, delays = drain(iterator, workload.chunk, first, True, rows)
    if collect is not None:
        collect.append(rows)
    # Example 1.1's answers can be read off the facts, so every enumerated
    # set is checked in full, at every size and seed.
    wrong = int(answers != len(truth) or crc != rows_checksum(truth))
    return {
        "setup_s": ready,
        "facts": len(database),
        "first_answer_s": first_answer,
        "total_s": first_answer + seconds,
        "drain_s": seconds,
        "drained": answers - 1,
        "delays": delays,
        "peak_rss_mb": peak_rss_mb(),
        "sets": [[kind, answers, crc]],
        "attempted": 1,
        "failed": wrong,
    }


def test_office(workload, size, options, collect=None) -> dict:
    from repro.core import OMQAllTester, OMQSingleTester
    from repro.workloads import generate_office_database, office_omq

    omq = office_omq()
    database = generate_office_database(size, seed=options.seed)
    per_kind = inputs.scaled(inputs.SINGLE_TESTS_PER_KIND, options.quick)
    verdict_count = inputs.scaled(inputs.ALL_TEST_VERDICTS, options.quick)
    candidates = inputs.test_candidates(database, options.seed, per_kind, verdict_count)
    gc.collect()
    ready = process_time()

    started = process_time()
    single = OMQSingleTester(omq, database)
    first_candidate, first_expected = candidates["complete"][0]
    first_verdict = single.test_complete(first_candidate)
    first_answer = total = process_time() - started
    failed = int(first_verdict != first_expected)
    attempted = 1

    # The single tests are an op phase of the largest size only: the two
    # smaller sizes feed preprocess_exponent and delay_growth, which read the
    # first verdict and the all-testing delay.
    op_ms: list[float] = []
    ops_s = 0.0
    if options.ops:
        tests = inputs.single_tests(single)
        phase_started = process_time()
        for index in range(per_kind):
            for kind, test in tests:
                candidate, expected = candidates[kind][index]
                started = process_time()
                verdict = test(candidate)
                op_ms.append(1000.0 * (process_time() - started))
                failed += verdict != expected
        ops_s = process_time() - phase_started
        attempted += len(op_ms)
        total += ops_s

    started = process_time()
    tester = OMQAllTester(omq, database)
    test = tester.test
    total += process_time() - started
    delays, verdicts_s, positives, crc = [], 0.0, 0, 0
    pool = candidates["all"]
    for offset in range(0, len(pool), workload.chunk):
        chunk = pool[offset : offset + workload.chunk]
        started = process_time()
        verdicts = [test(candidate) for candidate, _ in chunk]
        window = process_time() - started
        verdicts_s += window
        if len(chunk) == workload.chunk:
            delays.append(window / workload.chunk)
        failed += sum(v != expected for v, (_, expected) in zip(verdicts, chunk))
        accepted = [candidate for v, (candidate, _) in zip(verdicts, chunk) if v]
        positives += len(accepted)
        crc += rows_checksum(accepted)
    total += verdicts_s
    attempted += len(pool)
    if collect is not None:
        collect.append(candidates)
        collect.append((single, tester))
    return {
        "setup_s": ready,
        "facts": len(database),
        "first_answer_s": first_answer,
        "total_s": total,
        "drain_s": verdicts_s,
        "drained": len(pool),
        "delays": delays,
        "op_ms": op_ms,
        "ops": len(op_ms),
        "ops_s": ops_s,
        "peak_rss_mb": peak_rss_mb(),
        "sets": [["accepted", positives, crc & MASK64]],
        "attempted": attempted,
        "failed": int(failed),
    }


def live_mix(workload, size, options, collect=None) -> dict:
    import livemix

    return livemix.run_cell(workload, size, options)


CELLS = {
    "cold-chase": cold_chase,
    "enum-graph": enum_graph,
    "partial-office": office_enumeration,
    "multiwild-office": office_enumeration,
    "test-office": test_office,
    "live-mix": live_mix,
}


# -- the check run: the program against the repro.baselines oracle -------------


def check(workload, options) -> dict:
    """Run the workload's cell at ``check_size`` and compare every answer set
    (every verdict on test-office) with the naive oracle."""
    if workload.name == "live-mix":
        import livemix

        return livemix.run_check(workload, options)
    from repro.baselines import naive
    from repro.core import OMQ
    from repro.workloads import generate_office_database, office_omq

    size = inputs.scaled(workload.check_size, options.quick)
    collected: list = []
    CELLS[workload.name](workload, size, options, collect=collected)
    mismatches = []
    if workload.generator == "office":
        omq = office_omq()
        database = generate_office_database(size, seed=options.seed)
        oracle = {
            "complete": naive.naive_certain_answers(omq, database),
            "partial": naive.naive_minimal_partial_answers(omq, database),
            "multi": naive.naive_minimal_partial_answers_multi(omq, database),
        }
        truth = inputs.office_answers(database)
        mismatches += [f"office_answers[{k}]" for k in oracle if oracle[k] != truth[k]]
        if workload.name == "test-office":
            candidates, (single, tester) = collected
            for kind, test in (*inputs.single_tests(single), ("all", tester.test)):
                answers = oracle["complete" if kind == "all" else kind]
                wrong = sum(test(c) != (c in answers) for c, _ in candidates[kind])
                if wrong:
                    mismatches.append(f"{kind}: {wrong} verdicts differ from the oracle")
            complete = next(c for c, expected in candidates["complete"] if expected)
            if not naive.naive_single_test(omq, database, complete):
                mismatches.append("naive_single_test rejects a sampled true answer")
        else:
            kind = inputs.OFFICE_ENUMERATORS[workload.name][0]
            if set(collected[0]) != oracle[kind] or len(collected[0]) != len(oracle[kind]):
                mismatches.append(f"{kind} answers differ from the oracle")
    else:
        scenario = inputs.build_scenario(workload, size, options.seed)
        for query, rows in zip(scenario.queries, collected):
            expected = naive.naive_certain_answers(
                OMQ.from_parts(scenario.ontology, query), scenario.database
            )
            if set(rows) != expected or len(rows) != len(expected):
                mismatches.append(f"{query.name}: answers differ from the oracle")
    return {"check_size": size, "mismatches": mismatches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--mode", choices=("cell", "check", "walk"), default="cell")
    parser.add_argument("--size", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--ops", action="store_true", help="run the op phase (largest size)")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--engine-tracing", action="store_true")
    options = parser.parse_args(argv)
    workload = inputs.WORKLOADS[options.workload]
    options.workdir.mkdir(parents=True, exist_ok=True)
    if options.mode == "check":
        result = check(workload, options)
    elif options.mode == "walk":
        import walk

        result = walk.run(workload, options.size, options)
    else:
        result = CELLS[workload.name](workload, options.size, options)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
