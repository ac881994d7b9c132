"""The multi-tenant query service: routing, interleavings, transport.

The interesting tests here are the *interleavings*: a cursor paginating
across a mutation batch must finish over the pre-batch snapshot, admission
must reject exactly at the in-flight bound, a timed-out query must leave no
running thread and no leaked cursor, and shutdown must drain.  They drive
:meth:`QueryService.handle` directly (the handler layer is transport-free
by design) and pin the blocking stages with events where determinism
requires it; the wire-level tests at the bottom go through real sockets.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro import Fact
from repro.config import ExecutionOptions
from repro.engine import QueryEngine
from repro.incremental.delta import Delta, apply_delta
from repro.server import (
    HttpServer,
    QueryService,
    Request,
    Response,
    ServiceConfig,
    serve,
)
from repro.server.service import _Cancelled
from repro.workloads import get_workload

WORKLOAD = "university"
SIZE = 60
SEED = 3
QUERY = "q(s, a) :- HasAdvisor(s, a)"
JOIN_QUERY = "q(s, a, d) :- HasAdvisor(s, a), WorksFor(a, d)"


def _request(method: str, path: str, payload=None, params=None, headers=None) -> Request:
    body = json.dumps(payload).encode("utf-8") if payload is not None else b""
    return Request(
        method=method, path=path, params=params or {}, headers=headers or {}, body=body
    )


def _service(**overrides) -> QueryService:
    config = ServiceConfig(port=0, **overrides)
    service = QueryService(config)
    service.create_tenant("t", WORKLOAD, size=SIZE, seed=SEED)
    return service


def _direct_answers(query: str, mutate=None) -> list[list[str]]:
    scenario = get_workload(WORKLOAD).scenario(size=SIZE, seed=SEED)
    if mutate is not None:
        mutate(scenario.database)
    engine = QueryEngine(scenario.ontology, scenario.database)
    return sorted([str(t) for t in row] for row in engine.execute(query))


def _body(response) -> dict:
    return json.loads(response.body)


class TestRoutingAndQueries:
    def test_query_matches_direct_engine(self):
        service = _service()

        async def scenario():
            return await service.handle(
                _request("POST", "/tenants/t/query", {"query": QUERY})
            )

        response = asyncio.run(scenario())
        assert response.status == 200
        body = _body(response)
        assert body["answers"] == _direct_answers(QUERY)
        assert body["count"] == len(body["answers"])

    def test_bad_query_is_a_400(self):
        service = _service()

        async def scenario():
            return await service.handle(
                _request("POST", "/tenants/t/query", {"query": "q(x :- broken"})
            )

        assert asyncio.run(scenario()).status == 400

    def test_unknown_tenant_and_route_are_404(self):
        service = _service()

        async def scenario():
            return (
                await service.handle(
                    _request("POST", "/tenants/nope/query", {"query": QUERY})
                ),
                await service.handle(_request("GET", "/no/such/route")),
            )

        missing_tenant, missing_route = asyncio.run(scenario())
        assert missing_tenant.status == 404
        assert missing_route.status == 404

    def test_tenant_lifecycle_over_http(self):
        service = _service()

        async def scenario():
            created = await service.handle(
                _request(
                    "PUT",
                    "/tenants/u",
                    {"workload": WORKLOAD, "size": 40, "seed": 9},
                )
            )
            duplicate = await service.handle(
                _request("PUT", "/tenants/u", {"workload": WORKLOAD})
            )
            listing = await service.handle(_request("GET", "/tenants"))
            dropped = await service.handle(_request("DELETE", "/tenants/u"))
            return created, duplicate, listing, dropped

        created, duplicate, listing, dropped = asyncio.run(scenario())
        assert created.status == 201
        assert duplicate.status == 409
        assert [t["name"] for t in _body(listing)["tenants"]] == ["t", "u"]
        assert dropped.status == 200
        assert "u" not in service.tenants

    def test_tenants_with_shared_ontology_share_plans(self):
        service = _service()
        service.create_tenant("t2", WORKLOAD, size=40, seed=4)

        async def scenario():
            await service.handle(
                _request("POST", "/tenants/t/query", {"query": JOIN_QUERY})
            )
            await service.handle(
                _request("POST", "/tenants/t2/query", {"query": JOIN_QUERY})
            )
            return await service.handle(_request("GET", "/metrics"))

        metrics = _body(asyncio.run(scenario()))
        # One engine serves both tenants and compiled the plan exactly once.
        assert len(metrics["engines"]) == 1
        assert metrics["engine"]["plan_misses"] == 1
        assert metrics["engine"]["plan_hits"] == 1


class TestCursorAcrossMutation:
    def test_cursor_finishes_over_pre_batch_snapshot(self):
        service = _service()
        pre = _direct_answers(QUERY)

        def mutate(database):
            apply_delta(
                database,
                Delta.from_wire({"add": [["HasAdvisor", ["newbie", "prof0"]]]}),
            )

        post = _direct_answers(QUERY, mutate=mutate)
        assert post != pre

        async def scenario():
            opened = await service.handle(
                _request("POST", "/tenants/t/cursors", {"query": QUERY})
            )
            assert opened.status == 201
            cursor = _body(opened)["cursor"]

            first = await service.handle(
                _request(
                    "GET", f"/tenants/t/cursors/{cursor}", params={"count": "3"}
                )
            )
            assert first.status == 200 and not _body(first)["done"]
            rows = _body(first)["answers"]

            mutated = await service.handle(
                _request(
                    "POST",
                    "/tenants/t/facts",
                    {"add": [["HasAdvisor", ["newbie", "prof0"]]]},
                )
            )
            assert mutated.status == 200 and _body(mutated)["added"] == 1

            while True:
                page = await service.handle(
                    _request(
                        "GET",
                        f"/tenants/t/cursors/{cursor}",
                        params={"count": "7"},
                    )
                )
                body = _body(page)
                rows.extend(body["answers"])
                if body["done"]:
                    break

            fresh = await service.handle(
                _request("POST", "/tenants/t/query", {"query": QUERY})
            )
            return rows, _body(fresh)["answers"]

        streamed, fresh = asyncio.run(scenario())
        # The cursor was opened before the batch: pre-batch answers, exactly.
        assert sorted(streamed) == pre
        # A query issued after the batch sees the maintained database.
        assert fresh == post

    def test_exhausted_cursor_deregisters_and_404s(self):
        service = _service()

        async def scenario():
            opened = await service.handle(
                _request("POST", "/tenants/t/cursors", {"query": QUERY})
            )
            cursor = _body(opened)["cursor"]
            page = await service.handle(
                _request(
                    "GET", f"/tenants/t/cursors/{cursor}", params={"count": "10000"}
                )
            )
            assert _body(page)["done"]
            after = await service.handle(
                _request("GET", f"/tenants/t/cursors/{cursor}")
            )
            return after

        assert asyncio.run(scenario()).status == 404
        assert service.tenants["t"].cursors == {}

    def test_explicit_close_via_delete(self):
        service = _service()

        async def scenario():
            opened = await service.handle(
                _request("POST", "/tenants/t/cursors", {"query": QUERY})
            )
            cursor = _body(opened)["cursor"]
            closed = await service.handle(
                _request("DELETE", f"/tenants/t/cursors/{cursor}")
            )
            return closed

        assert asyncio.run(scenario()).status == 200
        assert service.open_cursor_count() == 0


class TestAdmissionControl:
    def test_rejects_exactly_at_the_inflight_bound(self):
        service = _service(max_inflight=1)
        started = threading.Event()
        release = threading.Event()

        def slow_execute(cancel, tenant, query):
            started.set()
            assert release.wait(10), "test never released the worker"
            return []

        service._execute_blocking = slow_execute

        async def scenario():
            first = asyncio.create_task(
                service.handle(_request("POST", "/tenants/t/query", {"query": QUERY}))
            )
            await asyncio.to_thread(started.wait, 10)
            rejected = await service.handle(
                _request("POST", "/tenants/t/query", {"query": QUERY})
            )
            release.set()
            return await first, rejected

        first, rejected = asyncio.run(scenario())
        assert first.status == 200
        assert rejected.status == 429
        assert rejected.headers.get("Retry-After") == "1"
        tenant = service.tenants["t"]
        assert tenant.inflight == 0
        assert tenant.counters.get("rejected") == 1
        assert tenant.counters.get("queries") == 1

    def test_cursor_open_bound(self):
        service = _service(max_cursors=1)

        async def scenario():
            first = await service.handle(
                _request("POST", "/tenants/t/cursors", {"query": QUERY})
            )
            second = await service.handle(
                _request("POST", "/tenants/t/cursors", {"query": QUERY})
            )
            return first, second

        first, second = asyncio.run(scenario())
        assert first.status == 201
        assert second.status == 429


class TestTimeoutCancellation:
    def test_timed_out_query_leaves_no_running_thread(self):
        service = _service(query_timeout=0.1)
        thread_finished = threading.Event()

        def hanging_execute(cancel, tenant, query):
            try:
                while not cancel.is_set():
                    time.sleep(0.005)
                raise _Cancelled()
            finally:
                thread_finished.set()

        service._execute_blocking = hanging_execute

        response = asyncio.run(
            service.handle(_request("POST", "/tenants/t/query", {"query": QUERY}))
        )
        assert response.status == 504
        # _in_thread awaited the worker after setting the flag: by the time
        # the 504 exists, the thread has provably exited.
        assert thread_finished.is_set()
        tenant = service.tenants["t"]
        assert tenant.inflight == 0
        assert tenant.counters.get("timeouts") == 1

    def test_timed_out_page_closes_the_cursor(self):
        service = _service(query_timeout=0.1)

        def hanging_page(cancel, session, count):
            while not cancel.is_set():
                time.sleep(0.005)
            raise _Cancelled()

        async def scenario():
            opened = await service.handle(
                _request("POST", "/tenants/t/cursors", {"query": QUERY})
            )
            cursor_id = _body(opened)["cursor"]
            session = service.tenants["t"].cursors[cursor_id]
            service._page_blocking = hanging_page
            page = await service.handle(
                _request("GET", f"/tenants/t/cursors/{cursor_id}")
            )
            return page, session

        page, session = asyncio.run(scenario())
        assert page.status == 504
        assert session.cursor.closed
        # The close hook deregistered the session; nothing leaked.
        assert service.open_cursor_count() == 0
        assert service.tenants["t"].inflight == 0


def _hang(cancel, *args):
    """A worker stub that runs until the service cancels it."""
    while not cancel.is_set():
        time.sleep(0.005)
    raise _Cancelled()


class TestTimeoutFrame:
    """Every endpoint that does work times out through one frame: the 504 of
    a traced request echoes its trace id, and a slow-query log line records
    the timeout."""

    TRACE_ID = "abc123"

    def _timed_out(self, service, endpoint: str):
        headers = {"x-repro-trace": self.TRACE_ID}

        async def scenario():
            if endpoint == "cursor":
                service._open_blocking = _hang
                return await service.handle(
                    _request("POST", "/tenants/t/cursors", {"query": QUERY}, headers=headers)
                )
            if endpoint == "facts":
                service._mutate_blocking = _hang
                return await service.handle(
                    _request(
                        "POST",
                        "/tenants/t/facts",
                        {"add": [["HasAdvisor", ["m1", "prof0"]]]},
                        headers=headers,
                    )
                )
            opened = await service.handle(
                _request("POST", "/tenants/t/cursors", {"query": QUERY})
            )
            service._page_blocking = _hang
            cursor_id = _body(opened)["cursor"]
            return await service.handle(
                _request("GET", f"/tenants/t/cursors/{cursor_id}", headers=headers)
            )

        return asyncio.run(scenario())

    @pytest.mark.parametrize("endpoint", ["cursor", "page", "facts"])
    def test_a_traced_timeout_echoes_the_trace_id(self, endpoint):
        service = _service(query_timeout=0.1)
        response = self._timed_out(service, endpoint)
        assert response.status == 504
        assert response.headers["X-Repro-Trace"] == self.TRACE_ID
        assert _body(response)["trace_id"] == self.TRACE_ID
        tenant = service.tenants["t"]
        assert tenant.inflight == 0
        assert tenant.counters.get("timeouts") == 1
        assert service.open_cursor_count() == 0

    def test_a_timed_out_page_writes_one_slow_log_line(self, capsys):
        service = _service(query_timeout=0.1, slow_query_ms=0.0)
        capsys.readouterr()
        assert self._timed_out(service, "page").status == 504
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["outcome"] == "timeout"
        assert entry["trace_id"] == self.TRACE_ID
        assert entry["query"] == QUERY
        assert entry["cursor"] == "c1"


class TestGracefulShutdown:
    def test_drain_waits_for_inflight_and_closes_cursors(self):
        service = _service()
        started = threading.Event()
        release = threading.Event()

        def slow_execute(cancel, tenant, query):
            started.set()
            assert release.wait(10)
            return []

        service._execute_blocking = slow_execute

        async def scenario():
            opened = await service.handle(
                _request("POST", "/tenants/t/cursors", {"query": QUERY})
            )
            session = service.tenants["t"].cursors[_body(opened)["cursor"]]

            inflight = asyncio.create_task(
                service.handle(_request("POST", "/tenants/t/query", {"query": QUERY}))
            )
            await asyncio.to_thread(started.wait, 10)

            shutdown = asyncio.create_task(service.shutdown())
            await asyncio.sleep(0)  # let shutdown() flip the draining flag
            refused = await service.handle(
                _request("POST", "/tenants/t/query", {"query": QUERY})
            )
            release.set()
            report = await shutdown
            return await inflight, refused, report, session

        inflight, refused, report, session = asyncio.run(scenario())
        assert inflight.status == 200
        assert refused.status == 503
        assert report == {"drained": True, "cursors_closed": 1}
        assert session.cursor.closed

    def test_drain_timeout_reports_undrained(self):
        service = _service(drain_timeout=0.05)
        service.tenants["t"].inflight = 1  # a stuck request that never returns

        report = asyncio.run(service.shutdown())
        assert report["drained"] is False


class TestMetrics:
    def test_metrics_reflect_traffic(self):
        service = _service()

        async def scenario():
            for _ in range(3):
                await service.handle(
                    _request("POST", "/tenants/t/query", {"query": QUERY})
                )
            await service.handle(
                _request(
                    "POST",
                    "/tenants/t/facts",
                    {"add": [["HasAdvisor", ["m1", "prof0"]]]},
                )
            )
            return await service.handle(_request("GET", "/metrics"))

        metrics = _body(asyncio.run(scenario()))
        tenant = metrics["tenants"]["t"]
        assert tenant["counters"]["queries"] == 3
        assert tenant["counters"]["mutations"] == 1
        assert tenant["latency"]["count"] == 3
        assert tenant["latency"]["p50_ms"] <= tenant["latency"]["p99_ms"]
        assert metrics["service"]["counters"]["queries"] == 3
        assert metrics["engine"]["chase_increments"] >= 1
        assert metrics["engine"]["cursors_open"] == 0


def _query(query: str = QUERY, **kwargs) -> Request:
    return _request("POST", "/tenants/t/query", {"query": query}, **kwargs)


class TestAnswerCache:
    """A query's sorted answers are encoded once per database version."""

    @pytest.mark.parametrize(
        "params, headers",
        [({}, {}), ({}, {"x-repro-trace": "cafe0000cafe0000"}), ({"explain": "1"}, {})],
        ids=["untraced", "trace-header", "explain"],
    )
    def test_hit_and_miss_bodies_are_response_json(self, params, headers):
        service = _service()

        async def scenario():
            return [
                await service.handle(_query(params=params, headers=headers))
                for _ in range(2)
            ]

        responses = asyncio.run(scenario())
        assert service.tenants["t"].counters.get("answer_cache_hits") == 1
        for response in responses:
            assert response.status == 200
            body = _body(response)
            assert response.body == Response.json(body).body
            assert body["answers"] == _direct_answers(QUERY)
            assert ("trace_id" in body) is bool(params or headers)
            assert ("explain" in body) is bool(params)

    def test_a_write_is_seen_and_drops_older_versions(self):
        service = _service()
        tenant = service.tenants["t"]
        batch = {"add": [["HasAdvisor", ["newbie", "prof0"]]]}

        async def scenario():
            for query in (QUERY, JOIN_QUERY):
                await service.handle(_query(query))
            assert list(tenant.answers) == [QUERY, JOIN_QUERY]
            await service.handle(_request("POST", "/tenants/t/facts", batch))
            return await service.handle(_query())

        fresh = asyncio.run(scenario())
        post = _direct_answers(
            QUERY, mutate=lambda db: apply_delta(db, Delta.from_wire(batch))
        )
        assert post != _direct_answers(QUERY)
        assert _body(fresh)["answers"] == post
        assert tenant.counters.get("answer_cache_hits") == 0
        assert list(tenant.answers) == [QUERY]
        assert [entry.version for entry in tenant.answers.values()] == [
            tenant.database.version
        ]

    def test_a_miss_overtaken_by_a_write_is_not_stored(self):
        service = _service()
        tenant = service.tenants["t"]
        calls = []

        def execute_then_write(cancel, tenant, query):
            calls.append(query)
            with tenant.state_lock:
                tenant.database.add(Fact("HasAdvisor", (f"late{len(calls)}", "prof0")))
            return []

        service._execute_blocking = execute_then_write

        async def scenario():
            return [await service.handle(_query()) for _ in range(2)]

        assert [r.status for r in asyncio.run(scenario())] == [200, 200]
        assert calls == [QUERY, QUERY]
        assert len(tenant.answers) == 0
        assert tenant.counters.get("answer_cache_hits") == 0

    def test_entries_never_exceed_the_plan_cache_size(self):
        service = _service(execution=ExecutionOptions(plan_cache_size=2))
        tenant = service.tenants["t"]
        queries = [QUERY, JOIN_QUERY, "q(a, d) :- WorksFor(a, d)", "q(s) :- HasAdvisor(s, a)"]
        sizes = []

        async def scenario():
            for query in queries + queries[:1]:
                assert (await service.handle(_query(query))).status == 200
                sizes.append(len(tenant.answers))

        asyncio.run(scenario())
        assert sizes == [1, 2, 2, 2, 2]
        # The first query was evicted before it came back: a miss again.
        assert tenant.counters.get("answer_cache_hits") == 0

    def test_a_hit_takes_an_admission_slot(self):
        service = _service(max_inflight=1)
        tenant = service.tenants["t"]
        started = threading.Event()
        release = threading.Event()
        execute = service._execute_blocking

        def slow_join(cancel, tenant, query):
            if query == JOIN_QUERY:
                started.set()
                assert release.wait(10), "test never released the worker"
            return execute(cancel, tenant, query)

        service._execute_blocking = slow_join

        async def scenario():
            warm = await service.handle(_query())
            slow = asyncio.create_task(service.handle(_query(JOIN_QUERY)))
            await asyncio.to_thread(started.wait, 10)
            rejected = await service.handle(_query())
            release.set()
            await slow
            hit = await service.handle(_query())
            return warm, rejected, hit

        warm, rejected, hit = asyncio.run(scenario())
        assert rejected.status == 429
        assert _body(hit)["answers"] == _body(warm)["answers"]
        assert tenant.counters.get("answer_cache_hits") == 1
        assert tenant.inflight == 0

    def test_a_hit_while_draining_is_refused(self):
        service = _service()
        tenant = service.tenants["t"]

        async def scenario():
            warm = await service.handle(_query())
            await service.shutdown()
            return warm, await service.handle(_query())

        warm, refused = asyncio.run(scenario())
        assert warm.status == 200 and QUERY in tenant.answers
        assert refused.status == 503
        assert tenant.inflight == 0
        assert tenant.counters.get("answer_cache_hits") == 0
        assert tenant.counters.get("queries") == 1


async def _raw_exchange(port: int, payload: bytes, exchanges: int = 1) -> list[bytes]:
    """Write raw bytes to the server, read one response per exchange."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    responses = []
    try:
        writer.write(payload)
        await writer.drain()
        for _ in range(exchanges):
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 10)
            length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            body = await asyncio.wait_for(reader.readexactly(length), 10)
            responses.append(head + body)
    finally:
        writer.close()
        await writer.wait_closed()
    return responses


class TestWireLevel:
    def test_healthz_and_keepalive_over_a_real_socket(self):
        service = _service()

        async def scenario():
            server = HttpServer(service.handle, port=0)
            await server.start()
            try:
                probe = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                responses = await _raw_exchange(server.port, probe * 2, exchanges=2)
            finally:
                await server.stop()
            return responses

        responses = asyncio.run(scenario())
        assert len(responses) == 2
        for response in responses:
            assert response.startswith(b"HTTP/1.1 200 OK")
            assert b'"status": "ok"' in response

    def test_malformed_request_line_is_a_400(self):
        service = _service()

        async def scenario():
            server = HttpServer(service.handle, port=0)
            await server.start()
            try:
                [response] = await _raw_exchange(
                    server.port, b"NONSENSE\r\n\r\n", exchanges=1
                )
            finally:
                await server.stop()
            return response

        assert asyncio.run(scenario()).startswith(b"HTTP/1.1 400 Bad Request")

    def test_oversized_header_block_is_a_431(self):
        service = _service()

        async def scenario():
            server = HttpServer(service.handle, port=0)
            await server.start()
            try:
                huge = (
                    b"GET /healthz HTTP/1.1\r\nX-Pad: "
                    + b"a" * (64 * 1024)
                    + b"\r\n\r\n"
                )
                [response] = await _raw_exchange(server.port, huge, exchanges=1)
            finally:
                await server.stop()
            return response

        assert asyncio.run(scenario()).startswith(b"HTTP/1.1 431 ")

    def test_serve_announces_and_drains(self):
        service = _service()

        async def scenario():
            ready, stop = asyncio.Event(), asyncio.Event()
            addresses: list[str] = []
            task = asyncio.create_task(
                serve(
                    service,
                    announce=addresses.append,
                    ready=ready,
                    stop=stop,
                    install_signal_handlers=False,
                )
            )
            await ready.wait()
            port = int(addresses[0].rsplit(":", 1)[1])
            probe = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            [response] = await _raw_exchange(port, probe, exchanges=1)
            stop.set()
            report = await task
            return response, report

        response, report = asyncio.run(scenario())
        assert response.startswith(b"HTTP/1.1 200 OK")
        assert report == {"drained": True, "cursors_closed": 0}


class TestCliWiring:
    def test_serve_subcommand_builds_config_and_tenants(self, monkeypatch):
        import repro.server.runner as runner
        from repro import cli

        captured = {}

        def fake_run(config, tenants):
            captured["config"] = config
            captured["tenants"] = tenants
            return 0

        monkeypatch.setattr(runner, "run", fake_run)
        exit_code = cli.main(
            [
                "serve",
                "--port",
                "0",
                "--tenant",
                "a=university",
                "--tenant",
                "b=university",
                "--size",
                "50",
                "--seed",
                "2",
                "--max-inflight",
                "3",
                "--timeout",
                "1.5",
            ]
        )
        assert exit_code == 0
        assert captured["config"].max_inflight == 3
        assert captured["config"].query_timeout == pytest.approx(1.5)
        assert captured["tenants"] == [
            ("a", "university", 50, 2),
            ("b", "university", 50, 2),
        ]


class TestWireEdgeCases:
    def test_oversized_body_is_a_413(self):
        service = _service()

        async def scenario():
            server = HttpServer(service.handle, port=0)
            await server.start()
            try:
                head = (
                    b"POST /tenants/t/query HTTP/1.1\r\n"
                    b"Content-Length: 9000000\r\n\r\n"
                )
                [response] = await _raw_exchange(server.port, head, exchanges=1)
            finally:
                await server.stop()
            return response

        assert asyncio.run(scenario()).startswith(b"HTTP/1.1 413 ")

    def test_invalid_content_length_is_a_400(self):
        service = _service()

        async def scenario():
            server = HttpServer(service.handle, port=0)
            await server.start()
            try:
                head = (
                    b"POST /tenants/t/query HTTP/1.1\r\n"
                    b"Content-Length: banana\r\n\r\n"
                )
                [response] = await _raw_exchange(server.port, head, exchanges=1)
            finally:
                await server.stop()
            return response

        assert asyncio.run(scenario()).startswith(b"HTTP/1.1 400 ")

    def test_http_10_closes_unless_keepalive_requested(self):
        service = _service()

        async def scenario():
            server = HttpServer(service.handle, port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"GET /healthz HTTP/1.0\r\n\r\n")
                await writer.drain()
                payload = await asyncio.wait_for(reader.read(), 10)
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
            return payload

        payload = asyncio.run(scenario())
        # The server answered and then closed the connection (EOF reached).
        assert payload.startswith(b"HTTP/1.1 200 OK")
        assert b"Connection: close" in payload

    def test_handler_exception_is_a_500(self):
        async def exploding_handler(request):
            raise RuntimeError("boom")

        async def scenario():
            server = HttpServer(exploding_handler, port=0)
            await server.start()
            try:
                probe = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                [response] = await _raw_exchange(server.port, probe, exchanges=1)
            finally:
                await server.stop()
            return response

        response = asyncio.run(scenario())
        assert response.startswith(b"HTTP/1.1 500 ")
        assert b"boom" in response


class TestRunnerEntry:
    def test_run_provisions_tenants_then_serves(self, monkeypatch, capsys):
        import repro.server.runner as runner

        seen = {}

        async def fake_serve(service, **kwargs):
            seen["tenants"] = sorted(service.tenants)
            return {"drained": True, "cursors_closed": 0}

        monkeypatch.setattr(runner, "serve", fake_serve)
        exit_code = runner.run(
            ServiceConfig(port=0),
            [("a", WORKLOAD, 40, 1), ("b", WORKLOAD, 40, 2)],
        )
        assert exit_code == 0
        assert seen["tenants"] == ["a", "b"]
        err = capsys.readouterr().err
        assert "tenant 'a'" in err and "drained=True" in err
