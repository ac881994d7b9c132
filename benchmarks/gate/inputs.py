"""The six workloads and everything that is derived from ``--seed``.

The table at the top is plain data: the parent process reads it without
importing ``repro``, and ``BENCHMARK.json`` and README.md say why each
workload exists.  The functions below build generator inputs, test
candidates, the live-mix op schedule and its mutation batches.  The same
seed always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str
    #: Generator arguments, smallest to largest (1 : 2 : 4).  Every gated
    #: metric is read at the largest size; the two smaller sizes only feed
    #: ``preprocess_exponent`` and ``delay_growth``.
    sizes: tuple[int, ...]
    #: Size of the run that is compared with the ``repro.baselines`` oracle.
    check_size: int
    #: Answers (or verdicts) per timed chunk, measurement rule 3.
    chunk: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold-chase", "lubm", (1500, 3000, 6000), 300, 256),
        Workload("enum-graph", "graph", (6000, 12000, 24000), 600, 256),
        Workload("partial-office", "office", (4000, 8000, 16000), 400, 32),
        Workload("multiwild-office", "office", (1500, 3000, 6000), 300, 8),
        Workload("test-office", "office", (1500, 3000, 6000), 300, 256),
        Workload("live-mix", "lubm", (2500,), 300, 256),
    )
}

#: test-office: single tests per kind and all-testing verdicts per cell.
SINGLE_TESTS_PER_KIND = 80
ALL_TEST_VERDICTS = 100_000

#: live-mix: per repetition, each of the two clients issues this many ops;
#: on client B every ``WRITE_EVERY``-th op is a write.  One read in
#: ``CURSOR_EVERY`` is a cursor open plus ``CURSOR_PAGES`` page fetches.
LIVE_OPS_PER_CLIENT = 100
WRITE_EVERY = 10
CURSOR_EVERY = 5
CURSOR_PAGES = 3
BATCH_FACTS = 10

QUICK_DIVISOR = 10


def scaled(value: int, quick: bool) -> int:
    return max(1, value // QUICK_DIVISOR) if quick else value


def hash_seed(seed: int) -> str:
    """``PYTHONHASHSEED`` of every child of a run (never 0: 0 would also be
    deterministic but is CPython's "hashing disabled" special case)."""
    return str(seed % 4_000_000_000 + 1)


# -- generator inputs ---------------------------------------------------------


def build_scenario(workload: Workload, size: int, seed: int):
    """The ``repro.io.Scenario`` a workload's generator yields at ``size``."""
    from repro.workloads import get_workload

    return get_workload(workload.generator).scenario(size=size, seed=seed)


def load_dumped(directory):
    """The scenario ``dump_scenario`` wrote to ``directory``, read back."""
    from repro.io import load_scenario

    return load_scenario(
        rules=[directory / "rules.dlgp"],
        data=sorted(directory.glob("*.csv")),
        queries=[directory / "queries.dlgp"],
    )


def query_text(query) -> str:
    """A conjunctive query in the ``head :- body`` text the HTTP API parses."""
    return str(query).replace("←", ":-").replace("∧", ",")


# -- Example 1.1 ground truth -------------------------------------------------


def office_answers(database) -> dict[str, set[tuple]]:
    """Complete, minimal-partial and multi-wildcard answers of Example 1.1,
    read directly off the generated facts.

    Every researcher has an office and every office a building, named or
    not, so an answer names what the data names and wildcards the rest.  The
    check run compares this with the ``repro.baselines`` oracle; the timed
    runs use it to sample candidates and to check every enumerated set.
    """
    from repro.core import WILDCARD, Wildcard

    offices: dict[str, list[str]] = {}
    buildings: dict[str, list[str]] = {}
    researchers = []
    for fact in database:
        if fact.relation == "HasOffice":
            offices.setdefault(fact.args[0], []).append(fact.args[1])
        elif fact.relation == "InBuilding":
            buildings.setdefault(fact.args[0], []).append(fact.args[1])
        elif fact.relation == "Researcher":
            researchers.append(fact.args[0])
    complete, partial, multi = set(), set(), set()
    for person in set(researchers) | set(offices):
        if person not in offices:
            partial.add((person, WILDCARD, WILDCARD))
            multi.add((person, Wildcard(1), Wildcard(2)))
            continue
        for office in offices[person]:
            if office in buildings:
                complete.update((person, office, b) for b in buildings[office])
            else:
                partial.add((person, office, WILDCARD))
                multi.add((person, office, Wildcard(1)))
    return {
        "complete": complete,
        "partial": partial | complete,
        "multi": multi | complete,
    }


#: The two enumerating office workloads: answer kind and ``repro.core`` class.
OFFICE_ENUMERATORS = {
    "partial-office": ("partial", "MinimalPartialAnswerEnumerator"),
    "multiwild-office": ("multi", "MultiWildcardEnumerator"),
}


def single_tests(single) -> tuple:
    """``(kind, test)`` of the three single tests, in their interleaving order."""
    return (
        ("complete", single.test_complete),
        ("partial", single.test_minimal_partial),
        ("multi", single.test_minimal_partial_multi),
    )


def _order(rows) -> list[tuple]:
    return sorted(rows, key=repr)


def test_candidates(database, seed: int, per_kind: int, verdicts: int) -> dict:
    """test-office candidates: half sampled from true answers, half random
    triples over ``adom``; each comes with its expected verdict."""
    rng = random.Random(seed)
    truth = office_answers(database)
    adom = sorted(database.adom())

    def draw(kind: str, count: int) -> list[tuple[tuple, bool]]:
        true_rows = _order(truth[kind])
        rows = [rng.choice(true_rows) for _ in range(count // 2)]
        rows += [
            (rng.choice(adom), rng.choice(adom), rng.choice(adom))
            for _ in range(count - count // 2)
        ]
        rng.shuffle(rows)
        return [(row, row in truth[kind]) for row in rows]

    return {
        "complete": draw("complete", per_kind),
        "partial": draw("partial", per_kind),
        "multi": draw("multi", per_kind),
        "all": draw("complete", verdicts),
    }


# -- live-mix -----------------------------------------------------------------

#: Per generator: the binary relations a write touches, with the name
#: prefixes of the constants on either side.
_MUTABLE = {
    "lubm": (
        ("TakesCourse", "student", "course"),
        ("HasAdvisor", "student", "faculty"),
        ("TaughtBy", "course", "faculty"),
    ),
    "graph": (("E", "v", "v"),),
}


def mutation_batches(workload: Workload, database, seed: int, writes: int) -> list[dict]:
    """``writes`` wire-format batches of ``BATCH_FACTS`` adds and removes.

    Batch 0 removes facts of the generated data; every later batch removes
    what the previous one added, so the database keeps its size and state
    ``k`` (after ``k`` batches) is the base minus batch 0's removals plus
    batch ``k - 1``'s additions.
    """
    rng = random.Random(seed + 1)
    adom = database.adom()
    mutable = _MUTABLE[workload.generator]
    names = {
        prefix: sorted(c for c in adom if c.startswith(prefix))
        for _, *prefixes in mutable
        for prefix in prefixes
    }
    present = {
        (fact.relation, fact.args)
        for fact in database
        if fact.relation in {relation for relation, _, _ in mutable}
    }
    used = set(present)

    def fresh() -> list[list]:
        batch = []
        while len(batch) < BATCH_FACTS:
            relation, left, right = mutable[len(batch) % len(mutable)]
            entry = (relation, (rng.choice(names[left]), rng.choice(names[right])))
            if entry not in used:
                used.add(entry)
                batch.append([entry[0], list(entry[1])])
        return batch

    batches = []
    previous = [[r, list(a)] for r, a in rng.sample(sorted(present), BATCH_FACTS)]
    for _ in range(writes):
        added = fresh()
        batches.append({"add": added, "remove": previous})
        previous = added
    return batches


def client_schedules(ops_per_client: int) -> tuple[list[str], list[str]]:
    """The op kinds of client A (reads only) and client B (every tenth op a
    write).  ``query`` is one POST /query, ``cursor`` a cursor open plus page
    fetches, ``write`` a POST /facts plus the POST /query that follows it."""

    def kind(index: int, writer: bool) -> str:
        if writer and index % WRITE_EVERY == WRITE_EVERY - 1:
            return "write"
        return "cursor" if index % CURSOR_EVERY == CURSOR_EVERY - 1 else "query"

    return (
        [kind(i, False) for i in range(ops_per_client)],
        [kind(i, True) for i in range(ops_per_client)],
    )
