"""The live-mix workload: ``repro serve`` as a separate process under a
closed loop of two keep-alive clients (= ``nproc``), writes beside reads.

Client A issues reads only; on client B every tenth op is a write.  A read
is one ``POST /query`` (round-robin over the three lubm queries, order
shuffled by the seed) or, one time in five, a cursor open plus three page
fetches that drain it.  A write is ``POST /facts`` (10 adds + 10 removes)
plus the ``POST /query`` that follows it.

Every response is checked.  The check run replays the same mutation batches
through an in-process engine and records the answer count and checksum of
every query in every database state; client B, the only writer, must see
exactly the state its own writes produced, client A any state the database
passed through.  The check run also builds a fresh engine on a database that
received all the mutations, which must agree with the maintained one.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, process_time

import inputs
from stats import rows_checksum

READY_PREFIX = "repro-server listening on "
TENANT = "t0"
REQUEST_TIMEOUT_S = 30.0
SERVER_START_TIMEOUT_S = 60.0


def writes_per_repetition(quick: bool) -> int:
    ops = inputs.scaled(inputs.LIVE_OPS_PER_CLIENT, quick)
    return ops // inputs.WRITE_EVERY


def expect_path(workdir: Path) -> Path:
    return workdir / "live-mix-states.json"


# -- the check run -------------------------------------------------------------


def run_check(workload, options) -> dict:
    """Replay the mutation batches in process; write the state table."""
    from repro.data.instance import Database
    from repro.engine import QueryEngine
    from repro.incremental.delta import Delta, apply_delta

    size = inputs.scaled(workload.sizes[-1], options.quick)
    scenario = inputs.build_scenario(workload, size, options.seed)
    batches = inputs.mutation_batches(
        workload, scenario.database, options.seed, writes_per_repetition(options.quick)
    )
    engine = QueryEngine(scenario.ontology, scenario.database)

    def state() -> list[list[int]]:
        rows = [engine.execute(query) for query in scenario.queries]
        return [[len(answers), rows_checksum(answers)] for answers in rows]

    states = [state()]
    for batch in batches:
        apply_delta(scenario.database, Delta.from_wire(batch))
        states.append(state())
    fresh = QueryEngine(scenario.ontology, Database(list(scenario.database)))
    final = [
        [len(answers), rows_checksum(answers)]
        for answers in (fresh.execute(query) for query in scenario.queries)
    ]
    mismatches = []
    if final != states[-1]:
        mismatches.append("maintained engine differs from a fresh engine after the writes")
    if engine.stats.chase_increments != len(batches):
        mismatches.append("a mutation batch was not maintained incrementally")
    expect_path(options.workdir).write_text(json.dumps(states), encoding="utf-8")
    return {"check_size": size, "mismatches": mismatches}


# -- the measured cell ---------------------------------------------------------


class Client:
    """One keep-alive HTTP connection; every op is timed and checked."""

    def __init__(self, host: str, port: int, states, pages) -> None:
        self.connection = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
        self.states = states
        self.pages = pages
        self.read_ms: list[float] = []
        self.query_ms: list[float] = []
        self.write_ms: list[float] = []
        self.attempted = self.failed = self.bytes = 0
        self.rejected = self.timeouts = 0
        self.writes_done = 0

    def request(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        try:
            self.connection.request(
                method, path, body=body, headers={"Content-Type": "application/json"}
            )
            response = self.connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.connection.close()
            self.timeouts += 1
            return 0, {}
        self.bytes += len(data)
        self.rejected += response.status == 429
        self.timeouts += response.status == 504
        return response.status, (json.loads(data) if data else {})

    def _matches(self, index: int, rows, exact_state: int | None) -> bool:
        observed = [len(rows), rows_checksum(rows)]
        if exact_state is not None:
            return observed == self.states[exact_state][index]
        return any(observed == state[index] for state in self.states)

    def query(self, index: int, text: str, exact_state: int | None) -> bool:
        status, body = self.request("POST", f"/tenants/{TENANT}/query", {"query": text})
        return status == 200 and self._matches(index, body["answers"], exact_state)

    def cursor(self, index: int, text: str, exact_state: int | None) -> bool:
        status, body = self.request("POST", f"/tenants/{TENANT}/cursors", {"query": text})
        if status != 201:
            return False
        rows, done = [], False
        for _ in range(inputs.CURSOR_PAGES):
            status, page = self.request(
                "GET", f"/tenants/{TENANT}/cursors/{body['cursor']}?count={self.pages[index]}"
            )
            if status != 200:
                return False
            rows.extend(page["answers"])
            done = page["done"]
        return done and self._matches(index, rows, exact_state)

    def run(self, kinds, order, texts, batches, writer: bool, barrier) -> None:
        barrier.wait()
        for kind, index in zip(kinds, order):
            exact = self.writes_done if writer else None
            started = perf_counter()
            if kind == "write":
                status, _ = self.request(
                    "POST", f"/tenants/{TENANT}/facts", batches[self.writes_done]
                )
                self.writes_done += 1
                ok = status == 200 and self.query(index, texts[index], self.writes_done)
                self.write_ms.append(1000.0 * (perf_counter() - started))
            else:
                op = self.cursor if kind == "cursor" else self.query
                ok = op(index, texts[index], exact)
                elapsed = 1000.0 * (perf_counter() - started)
                self.read_ms.append(elapsed)
                if kind == "query":
                    self.query_ms.append(elapsed)
            self.attempted += 1
            self.failed += not ok


def start_server(directory: Path, log: Path) -> tuple[subprocess.Popen, str, int]:
    """Start ``repro serve`` on an ephemeral port; wait for its ready line."""
    with open(log, "wb") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--tenant", f"{TENANT}={directory}"],
            stdout=subprocess.PIPE, stderr=stderr, text=True, env=os.environ.copy(),
        )
    deadline = perf_counter() + SERVER_START_TIMEOUT_S
    try:
        while perf_counter() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            if line.startswith(READY_PREFIX):
                host, port = line.strip().rsplit("/", 1)[-1].rsplit(":", 1)
                return process, host, int(port)
    except BaseException:
        stop_server(process)
        raise
    stop_server(process)
    raise SystemExit(f"repro serve did not come up:\n{log.read_text()[-2000:]}")


_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def server_cpu_s(process: subprocess.Popen) -> float:
    """CPU seconds (user + system, all threads) the server has used so far."""
    with open(f"/proc/{process.pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_S


def stop_server(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()


def run_cell(workload, size, options) -> dict:
    from repro.io import dump_scenario

    seed, workdir = options.seed, options.workdir
    scenario = inputs.build_scenario(workload, size, seed)
    directory = workdir / f"live-{size}"
    dump_scenario(scenario, directory)
    texts = [inputs.query_text(query) for query in scenario.queries]
    ops = inputs.scaled(inputs.LIVE_OPS_PER_CLIENT, options.quick)
    batches = inputs.mutation_batches(
        workload, scenario.database, seed, writes_per_repetition(options.quick)
    )
    facts = len(scenario.database)
    states = json.loads(expect_path(workdir).read_text(encoding="utf-8"))
    # Three pages always drain a cursor: 3 x page > the largest answer count.
    pages = [
        max(state[index][0] for state in states) // inputs.CURSOR_PAGES + 1
        for index in range(len(texts))
    ]
    rng = random.Random(seed + 2)
    kinds = inputs.client_schedules(ops)
    orders = []
    for _ in kinds:
        order = [i % len(texts) for i in range(ops)]
        rng.shuffle(order)
        orders.append(order)
    del scenario
    process, host, port = start_server(directory, workdir / "server.log")
    try:
        clients = [Client(host, port, states, pages) for _ in kinds]
        gc.collect()
        # The durations of this workload are CPU seconds of the server
        # process: the clients are the benchmark's, and wall time on this
        # box includes what the hypervisor gave to other guests.
        ready = server_cpu_s(process)
        setup = process_time() + ready

        first_ok = clients[0].query(0, texts[0], 0)
        first_answer = server_cpu_s(process) - ready
        barrier = threading.Barrier(len(clients) + 1)
        threads = [
            threading.Thread(
                target=client.run,
                args=(kinds[i], orders[i], texts, batches, i == 1, barrier),
            )
            for i, client in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        phase_started = perf_counter()
        for thread in threads:
            thread.join()
        ops_s = perf_counter() - phase_started
        total = server_cpu_s(process) - ready

        # The final answers over HTTP against the replayed final state.
        final_ok = [
            clients[0].query(index, text, len(batches)) for index, text in enumerate(texts)
        ]
        for client in clients:
            client.connection.close()
    finally:
        stop_server(process)
    attempted = 1 + sum(c.attempted for c in clients) + len(final_ok)
    failed = (not first_ok) + sum(c.failed for c in clients) + final_ok.count(False)
    return {
        "setup_s": setup,
        "facts": facts,
        "first_answer_s": first_answer,
        "total_s": total,
        "ops_s": ops_s,
        "ops": sum(c.attempted for c in clients),
        "op_ms": [ms for c in clients for ms in c.read_ms],
        "query_ms": [ms for c in clients for ms in c.query_ms],
        "write_ms": clients[1].write_ms,
        "bytes": sum(c.bytes for c in clients),
        "rejected": sum(c.rejected for c in clients),
        "timeouts": sum(c.timeouts for c in clients),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "sets": [],
        "attempted": attempted,
        "failed": int(failed),
    }
