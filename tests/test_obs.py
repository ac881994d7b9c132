"""The observability layer: traces, spans, delay stats, EXPLAIN, telemetry.

Unit tests for the ``repro.obs`` primitives plus the three integration
properties the instrumentation must never lose:

* ``QueryEngine.execute_batch`` joins the calling trace (each query's
  enumerate span is a child of the batch span), and
* a server-side timeout closes the request's spans with an error status —
  a cancelled execution may never leave an open span behind, and
* tracing a request never changes whether the server answers it from its
  answer cache.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading
import time

import pytest

from repro.config import ExecutionOptions
from repro.engine import QueryEngine
from repro.obs import (
    NULL_SPAN,
    TRACES,
    DelayStats,
    Trace,
    TraceStore,
    add_event,
    current_span,
    current_trace,
    explain_report,
    format_span_tree,
    render_prometheus,
    SlowQueryLog,
    span,
    start_trace,
    traced_answers,
)
from repro.obs.trace import MAX_SPANS_PER_TRACE
from repro.server import QueryService, Request, ServiceConfig
from repro.server.service import _Cancelled
from repro.workloads import get_workload

WORKLOAD = "university"
SIZE = 40
SEED = 5
QUERY = "q(s, a) :- HasAdvisor(s, a)"
JOIN_QUERY = "q(s, a, d) :- HasAdvisor(s, a), WorksFor(a, d)"


def _engine(**kwargs) -> QueryEngine:
    scenario = get_workload(WORKLOAD).scenario(size=SIZE, seed=SEED)
    return QueryEngine(scenario.ontology, scenario.database, **kwargs)


class TestDelayStats:
    def test_exact_aggregates_and_bounded_percentiles(self):
        stats = DelayStats()
        samples = [1e-6, 2e-6, 4e-6, 1e-3]
        for value in samples:
            stats.observe(value)
        assert stats.count == 4
        assert stats.min == 1e-6
        assert stats.max == 1e-3
        assert stats.total == pytest.approx(sum(samples))
        # Percentiles answer from bucket upper bounds: conservative, but
        # never beyond the exact max and never below the exact min.
        for fraction in (0.5, 0.9, 0.99, 1.0):
            value = stats.percentile(fraction)
            assert stats.min <= value <= stats.max
        assert stats.percentile(1.0) == stats.max

    def test_median_within_bucket_factor(self):
        stats = DelayStats()
        for _ in range(100):
            stats.observe(3e-6)
        assert 3e-6 <= stats.percentile(0.5) <= 6e-6

    def test_empty_wire_form(self):
        assert DelayStats().to_dict() == {"count": 0}

    def test_wire_form_is_milliseconds(self):
        stats = DelayStats()
        stats.observe(0.002)
        payload = stats.to_dict()
        assert payload["count"] == 1
        assert payload["min_ms"] == pytest.approx(2.0)
        assert payload["max_ms"] == pytest.approx(2.0)
        assert payload["mean_ms"] == pytest.approx(2.0)


class TestSpansAndTraces:
    def test_spans_nest_and_carry_attributes(self):
        with start_trace("unit", store=None) as trace:
            with span("outer", flavor="a") as outer:
                with span("inner") as inner:
                    assert current_span() is inner
                assert current_span() is outer
        assert trace.ended is not None
        root, outer, inner = trace.spans
        assert root.name == "unit" and root.parent_id is None
        assert outer.parent_id == root.span_id
        assert inner.parent_id == outer.span_id
        assert outer.attributes == {"flavor": "a"}
        assert all(s.status == "ok" for s in trace.spans)

    def test_exception_marks_span_and_root_as_error(self):
        with pytest.raises(RuntimeError):
            with start_trace("boom", store=None) as trace:
                with span("phase"):
                    raise RuntimeError("kaput")
        root, phase = trace.spans
        assert phase.status == "error" and "kaput" in phase.error
        assert root.status == "error"

    def test_leaked_span_is_force_closed_as_error(self):
        with start_trace("leak", store=None) as trace:
            trace.begin_span("orphan", None)  # no __exit__ will ever run
        orphan = trace.spans[-1]
        assert orphan.status == "error"
        assert orphan.error == "span leaked open"
        assert trace.open_spans() == []

    def test_span_cap_drops_and_counts(self):
        trace = Trace("cap")
        for _ in range(MAX_SPANS_PER_TRACE):
            assert trace.begin_span("s", None) is not None
        assert trace.begin_span("overflow", None) is None
        assert trace.spans_dropped == 1

    def test_no_ambient_trace_means_null_span(self):
        assert current_trace() is None
        assert span("anything") is NULL_SPAN
        with span("anything") as sp:
            assert sp is None

    def test_events_attach_to_ambient_trace(self):
        add_event("ignored.without.trace")  # must be a silent no-op
        with start_trace("events", store=None) as trace:
            add_event("codegen.compile", function="f0")
        (event,) = trace.events
        assert event["name"] == "codegen.compile"
        assert event["function"] == "f0"
        assert event["at_ms"] >= 0

    def test_adopted_trace_id_and_span_tree(self):
        with start_trace("adopt", trace_id="cafe0123cafe0123", store=None) as trace:
            with span("child"):
                pass
        assert trace.trace_id == "cafe0123cafe0123"
        (root,) = trace.span_tree()
        assert root["name"] == "adopt"
        assert [c["name"] for c in root["children"]] == ["child"]

    def test_nested_trace_shadows_and_restores(self):
        with start_trace("outer", store=None) as outer:
            with start_trace("shadow", store=None) as inner:
                assert current_trace() is inner
            assert current_trace() is outer
        assert current_trace() is None


class TestTraceStore:
    def test_ring_buffer_evicts_oldest(self):
        store = TraceStore(capacity=2)
        traces = [Trace(f"t{i}") for i in range(3)]
        for trace in traces:
            store.add(trace)
        assert len(store) == 2
        assert store.get(traces[0].trace_id) is None
        assert store.get(traces[2].trace_id) is traces[2]
        assert [t.name for t in store.recent()] == ["t2", "t1"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)


class TestTracedAnswers:
    def test_samples_delays_and_marks_exhausted(self):
        with start_trace("enum", store=None) as trace:
            out = list(traced_answers(iter([(1,), (2,), (3,)])))
        assert out == [(1,), (2,), (3,)]
        enum = next(s for s in trace.spans if s.name == "enumerate")
        assert enum.status == "ok"
        assert enum.attributes["answers"] == 3
        assert enum.attributes["exhausted"] is True
        assert enum.attributes["delay"]["count"] == 3

    def test_abandoned_iterator_closes_span_as_cancelled(self):
        with start_trace("enum", store=None) as trace:
            it = traced_answers(iter([(1,), (2,), (3,)]))
            assert next(it) == (1,)
            it.close()
        enum = next(s for s in trace.spans if s.name == "enumerate")
        assert enum.status == "cancelled"
        assert enum.attributes["answers"] == 1
        assert enum.attributes["exhausted"] is False
        assert trace.open_spans() == []

    def test_passthrough_without_a_trace(self):
        assert list(traced_answers(iter([(1,)]))) == [(1,)]


class TestEngineTracing:
    def test_execute_records_pipeline_phases(self):
        engine = _engine()
        with start_trace("exec", store=None) as trace:
            answers = engine.execute(QUERY)
        names = {s.name for s in trace.spans}
        assert {"execute", "parse", "plan", "chase", "reduce", "enumerate"} <= names
        enum = next(s for s in trace.spans if s.name == "enumerate")
        assert enum.attributes["answers"] == len(answers)
        assert trace.open_spans() == []

    def test_execute_batch_workers_join_the_calling_trace(self):
        engine = _engine()
        queries = [QUERY, JOIN_QUERY]
        with start_trace("batch", store=None) as trace:
            results = engine.execute_batch(queries)
        assert [len(r) for r in results] == [
            len(engine.execute(q)) for q in queries
        ]
        enum_spans = [s for s in trace.spans if s.name == "enumerate"]
        # One enumerate span per query, each a child of this trace's batch
        # span, and all closed.
        assert len(enum_spans) == len(queries)
        assert all(s.status == "ok" for s in enum_spans)
        assert trace.open_spans() == []
        batch = next(s for s in trace.spans if s.name == "execute_batch")
        assert all(s.parent_id == batch.span_id for s in enum_spans)
        assert batch.status == "ok"


def _request(method: str, path: str, payload=None, params=None, headers=None):
    body = json.dumps(payload).encode("utf-8") if payload is not None else b""
    return Request(
        method=method,
        path=path,
        params=params or {},
        headers=headers or {},
        body=body,
    )


def _service(**overrides) -> QueryService:
    service = QueryService(ServiceConfig(port=0, **overrides))
    service.create_tenant("t", WORKLOAD, size=SIZE, seed=SEED)
    return service


class TestServerTracing:
    def test_client_trace_id_is_adopted_and_echoed(self):
        service = _service()
        trace_id = "feedc0de12345678"
        response = asyncio.run(
            service.handle(
                _request(
                    "POST",
                    "/tenants/t/query",
                    {"query": QUERY},
                    headers={"x-repro-trace": trace_id},
                )
            )
        )
        assert response.status == 200
        assert response.headers["X-Repro-Trace"] == trace_id
        assert json.loads(response.body)["trace_id"] == trace_id
        trace = TRACES.get(trace_id)
        assert trace is not None
        assert {"plan", "enumerate"} <= {s.name for s in trace.spans}

    def test_tracing_option_traces_requests_that_did_not_ask(self):
        # The default config joins traces requests ask for and starts none;
        # ``execution.tracing`` traces every request.
        assert ServiceConfig().execution == ExecutionOptions(plan_cache_size=256)
        for tracing in (False, True):
            service = _service(execution=ExecutionOptions(tracing=tracing))
            response = asyncio.run(
                service.handle(_request("POST", "/tenants/t/query", {"query": QUERY}))
            )
            assert response.status == 200
            assert ("X-Repro-Trace" in response.headers) is tracing
            assert ("trace_id" in json.loads(response.body)) is tracing

    def test_explain_param_embeds_phase_report(self):
        service = _service()
        response = asyncio.run(
            service.handle(
                _request(
                    "POST",
                    "/tenants/t/query",
                    {"query": QUERY},
                    params={"explain": "1"},
                )
            )
        )
        assert response.status == 200
        body = json.loads(response.body)
        explain = body["explain"]
        assert explain["trace_id"] == body["trace_id"]
        assert {"plan", "enumerate"} <= set(explain["phases"])
        assert explain["answers"] == body["count"]

    @pytest.mark.parametrize("how", ["header", "explain", "tracing"])
    def test_a_traced_repeat_is_an_answer_cache_hit(self, how):
        # Observation does not change the path: however a request is traced,
        # a repeat at an unchanged version is served from the answer cache.
        service = _service(execution=ExecutionOptions(tracing=how == "tracing"))
        headers = {"x-repro-trace": "ac4e0000ac4e0000"} if how == "header" else None
        params = {"explain": "1"} if how == "explain" else None

        async def scenario():
            first = await service.handle(
                _request("POST", "/tenants/t/query", {"query": QUERY})
            )
            second = await service.handle(
                _request(
                    "POST",
                    "/tenants/t/query",
                    {"query": QUERY},
                    headers=headers,
                    params=params,
                )
            )
            return json.loads(first.body), json.loads(second.body)

        first, second = asyncio.run(scenario())
        assert second["answers"] == first["answers"]
        assert service.tenants["t"].counters.get("answer_cache_hits") == 1
        spans = TRACES.get(second["trace_id"]).spans
        assert "enumerate" not in {s.name for s in spans}
        [answers] = [s for s in spans if s.name == "answers"]
        assert answers.attributes == {
            "cached": True,
            "db_version": second["db_version"],
            "answers": second["count"],
        }
        if how == "tracing":
            # The traced first request was the miss that filled the cache.
            spans = TRACES.get(first["trace_id"]).spans
            assert "enumerate" in {s.name for s in spans}
            [answers] = [s for s in spans if s.name == "answers"]
            assert answers.attributes["cached"] is False
        if how == "explain":
            explain = second["explain"]
            assert explain["answers"] == second["count"]
            assert explain["phases"]["answers"]["calls"] == 1
            [node] = [n for n in _span_nodes(explain["spans"]) if n["name"] == "answers"]
            assert node["attributes"]["cached"] is True

    def test_answer_cache_hits_in_metrics_and_prometheus(self):
        service = _service()

        async def scenario():
            before = await service.handle(_request("GET", "/metrics"))
            for _ in range(3):
                await service.handle(
                    _request("POST", "/tenants/t/query", {"query": QUERY})
                )
            after = await service.handle(_request("GET", "/metrics"))
            text = await service.handle(
                _request("GET", "/metrics", params={"format": "prometheus"})
            )
            return json.loads(before.body), json.loads(after.body), text.body.decode()

        before, after, text = asyncio.run(scenario())
        assert before["tenants"]["t"]["counters"]["answer_cache_hits"] == 0
        assert after["tenants"]["t"]["counters"]["answer_cache_hits"] == 2
        assert after["tenants"]["t"]["counters"]["queries"] == 3
        assert 'repro_tenant_answer_cache_hits_total{tenant="t"} 2' in text.splitlines()

    def test_mutation_trace_attributes_the_first_write_indexing(self):
        # The eager refresh behind POST /facts is traced like a query: its
        # revalidate span says which write indexed the provenance log.
        service = _service()
        asyncio.run(
            service.handle(_request("POST", "/tenants/t/query", {"query": QUERY}))
        )
        indexed = []
        for step in range(2):
            trace_id = f"fac7{step:012d}"
            response = asyncio.run(
                service.handle(
                    _request(
                        "POST",
                        "/tenants/t/facts",
                        {"add": [["HasAdvisor", [f"late{step}", "prof0"]]]},
                        headers={"x-repro-trace": trace_id},
                    )
                )
            )
            assert response.status == 200
            assert response.headers["X-Repro-Trace"] == trace_id
            by_name = {s.name: s for s in TRACES.get(trace_id).spans}
            assert "facts:t" in by_name
            assert by_name["revalidate"].attributes["incremental"] is True
            indexed.append(by_name["revalidate"].attributes["provenance_indexed"])
        assert indexed[0] > 0 and indexed[1] == 0

    def test_timeout_closes_spans_with_error_status(self):
        """A cancelled execution must never leave an open span behind."""
        service = _service(query_timeout=0.05)
        trace_id = "dead0123dead0123"
        span_entered = threading.Event()

        def hanging_execute(cancel, tenant, query):
            # Runs in the worker thread with the request's (copied) trace
            # context: the span below attaches to the request trace.
            with span("enumerate"):
                span_entered.set()
                while not cancel.is_set():
                    time.sleep(0.005)
                raise _Cancelled()

        service._execute_blocking = hanging_execute
        response = asyncio.run(
            service.handle(
                _request(
                    "POST",
                    "/tenants/t/query",
                    {"query": QUERY},
                    headers={"x-repro-trace": trace_id},
                )
            )
        )
        assert response.status == 504
        assert span_entered.is_set()
        # The 504 still correlates: same trace id, finished trace stored.
        assert response.headers["X-Repro-Trace"] == trace_id
        trace = TRACES.get(trace_id)
        assert trace is not None
        assert trace.ended is not None
        assert trace.open_spans() == []
        by_name = {s.name: s for s in trace.spans}
        assert by_name["enumerate"].status == "error"
        assert by_name["query:t"].status == "error"


class TestSlowQueryLog:
    def test_threshold_gates_emission(self):
        stream = io.StringIO()
        log = SlowQueryLog(5.0, stream=stream)
        assert log.record(query="fast", elapsed_ms=1.0) is False
        assert log.record(query="slow", elapsed_ms=9.5, tenant="t") is True
        assert log.emitted == 1
        entry = json.loads(stream.getvalue())
        assert entry["event"] == "slow_query"
        assert entry["query"] == "slow"
        assert entry["elapsed_ms"] == 9.5
        assert entry["threshold_ms"] == 5.0
        assert entry["tenant"] == "t"

    def test_disabled_and_invalid_thresholds(self):
        log = SlowQueryLog(None, stream=io.StringIO())
        assert log.record(query="q", elapsed_ms=1e9) is False
        with pytest.raises(ValueError):
            SlowQueryLog(-1.0)

    def test_one_json_object_per_line(self):
        stream = io.StringIO()
        log = SlowQueryLog(0.0, stream=stream)
        log.record(query="a", elapsed_ms=1.0)
        log.record(query="b", elapsed_ms=2.0, trace_id="tid")
        lines = stream.getvalue().splitlines()
        assert [json.loads(line)["query"] for line in lines] == ["a", "b"]
        assert json.loads(lines[1])["trace_id"] == "tid"


class TestPrometheusExposition:
    METRICS = {
        "service": {
            "draining": False,
            "uptime_seconds": 1.25,
            "tenants": 1,
            "counters": {"queries": 3, "timeouts": 1},
        },
        "engine": {"executions": 5, "plans_cached": 2},
        "engines": {"abc123def456": {"executions": 5, "plans_cached": 2}},
        "tenants": {
            't"x\\y': {
                "db_facts": 10,
                "db_version": 2,
                "inflight": 0,
                "open_cursors": 1,
                "counters": {"queries": 3},
                "latency": {
                    "count": 2,
                    "sum_seconds": 0.5,
                    "buckets": [
                        {"le": 0.0001, "count": 1},
                        {"le": "+Inf", "count": 2},
                    ],
                },
            }
        },
    }

    def test_families_counters_gauges_histograms(self):
        text = render_prometheus(self.METRICS)
        lines = text.splitlines()
        assert "repro_service_queries_total 3" in lines
        assert "repro_service_draining 0" in lines
        assert "# TYPE repro_service_uptime_seconds gauge" in lines
        # Aggregate engine series unlabeled, per-engine series labeled.
        assert "repro_engine_executions_total 5" in lines
        assert 'repro_engine_executions_total{engine="abc123def456"} 5' in lines
        assert "# TYPE repro_engine_plans_cached gauge" in lines

    def test_histogram_is_cumulative_with_inf_bucket(self):
        text = render_prometheus(self.METRICS)
        assert "# TYPE repro_tenant_latency_seconds histogram" in text
        inf_line = next(
            line
            for line in text.splitlines()
            if line.startswith("repro_tenant_latency_seconds_bucket")
            and 'le="+Inf"' in line
        )
        assert inf_line.endswith(" 2")
        count_line = next(
            line
            for line in text.splitlines()
            if line.startswith("repro_tenant_latency_seconds_count")
        )
        assert count_line.endswith(" 2")

    def test_label_values_are_escaped(self):
        text = render_prometheus(self.METRICS)
        assert 'tenant="t\\"x\\\\y"' in text

    def test_every_sample_line_parses(self):
        for line in render_prometheus(self.METRICS).splitlines():
            if line.startswith("#") or not line:
                continue
            name, value = line.rsplit(" ", 1)
            float(value)  # must be a valid exposition number
            assert name[0].isalpha() or name[0] == "_"


def _span_nodes(tree):
    for node in tree:
        yield node
        yield from _span_nodes(node.get("children", []))


class TestExplainReport:
    def test_report_from_a_real_execution(self):
        engine = _engine()
        with start_trace("explain:q", store=None) as trace:
            answers = engine.execute(QUERY)
        report = explain_report(
            trace, prepared=engine.prepare(QUERY), answers=len(answers)
        )
        phase_names = list(report["phases"])
        # Canonical pipeline order first, whatever extra spans after.
        pipeline = [
            p
            for p in ("parse", "plan", "chase", "reduce", "enumerate")
            if p in report["phases"]
        ]
        assert phase_names[: len(pipeline)] == pipeline
        # The reduced block rows, the cardinality EXPLAIN prints per query.
        (reduce,) = [node for node in _span_nodes(report["spans"]) if node["name"] == "reduce"]
        assert reduce["attributes"]["rows"] > 0
        assert report["answers"] == len(answers)
        assert report["delay"]["count"] == len(answers)
        assert report["plan"]["is_acyclic"] is True
        assert report["plan"]["supports_enumeration"] is True
        for rollup in report["phases"].values():
            assert rollup["calls"] >= 1
            assert rollup["errors"] == 0

    def test_text_rendering_mentions_delay_line(self):
        engine = _engine()
        with start_trace("explain:q", store=None) as trace:
            engine.execute(QUERY)
        text = format_span_tree(explain_report(trace))
        assert "enumerate" in text
        assert "per-answer delay" in text
        assert trace.trace_id in text
