#!/usr/bin/env python
"""End-to-end check of ``repro serve``: HTTP answers == direct engine answers.

CI's ``server-e2e`` job runs this script.  It

1. boots ``repro serve`` as a real subprocess on an ephemeral port,
2. drives it like a client: execute a query twice, paginate a cursor,
   apply a mutation batch **mid-cursor**, re-query twice,
3. replays the identical workload and mutations through a direct
   :class:`repro.engine.QueryEngine` in this process and asserts every
   answer set is byte-identical — the paginated cursor must finish over the
   *pre-batch* snapshot, the re-queries must see the post-batch database,
   and each repeat is served from the answer cache (``answer_cache_hits``),
4. exercises the observability surface: ``?explain=1`` queries carrying an
   ``X-Repro-Trace`` header must echo the trace id and return a span tree
   (an ``enumerate`` phase on a miss, a ``cached`` ``answers`` span on a
   hit), and ``/metrics?format=prometheus`` must serve syntactically valid
   text-format 0.0.4 exposition whose histogram buckets are consistent,
5. shuts the server down with SIGTERM and asserts a clean exit with no
   leaked process.

Exit status 0 only if every step holds.  Run locally with::

    PYTHONPATH=src python tools/server_e2e.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

WORKLOAD = "university"
SIZE = 150
SEED = 7
QUERY = "q(s, a, d) :- HasAdvisor(s, a), WorksFor(a, d)"
PAGE_QUERY = "q(s, a) :- HasAdvisor(s, a)"
MUTATION = {
    "add": [
        ["HasAdvisor", ["e2e_student", "prof0"]],
        ["WorksFor", ["prof0", "dept0"]],
        ["HasAdvisor", ["e2e_student2", "prof1"]],
    ],
    "remove": [],
}


def request(
    base: str,
    method: str,
    path: str,
    payload: dict | None = None,
    headers: dict | None = None,
):
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    req = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(req, timeout=30) as response:
        return response.status, json.loads(response.read()), dict(response.headers)


def request_text(base: str, path: str):
    """GET a path and return (status, content-type, body text) undecoded."""
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


_SAMPLE_LINE = r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+-]+(Inf)?$'


def validate_prometheus(text: str) -> dict[str, float]:
    """Validate text-format 0.0.4 exposition; return {sample name: value}."""
    import re

    samples: dict[str, float] = {}
    typed: set[str] = set()
    helped: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP "):
            helped.add(line.split(" ", 3)[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            assert parts[3] in ("counter", "gauge", "histogram"), line
            typed.add(parts[2])
            continue
        assert re.match(_SAMPLE_LINE, line), f"malformed sample line {lineno}: {line!r}"
        name_and_labels, value = line.rsplit(" ", 1)
        samples[name_and_labels] = float(value)
        bare = name_and_labels.split("{", 1)[0]
        family = re.sub(r"_(bucket|sum|count)$", "", bare)
        assert family in typed or bare in typed, f"sample without TYPE: {line!r}"
        assert family in helped or bare in helped, f"sample without HELP: {line!r}"
    assert samples, "exposition contained no samples"
    return samples


def wait_ready(proc: subprocess.Popen) -> str:
    """Read the ready line off the server's stdout; fail fast on exit."""
    assert proc.stdout is not None
    deadline = time.time() + 30
    while time.time() < deadline:
        if proc.poll() is not None:
            stderr = proc.stderr.read() if proc.stderr else ""
            raise SystemExit(f"server exited early ({proc.returncode}):\n{stderr}")
        line = proc.stdout.readline().strip()
        if line.startswith("repro-server listening on "):
            return line.rsplit(" ", 1)[-1]
    raise SystemExit("server never printed its ready line")


def direct_answers(mutated: bool) -> tuple[list[list[str]], list[list[str]]]:
    """(QUERY answers, PAGE_QUERY answers) from a direct engine run."""
    from repro.engine import QueryEngine
    from repro.incremental.delta import Delta, apply_delta
    from repro.workloads import get_workload

    scenario = get_workload(WORKLOAD).scenario(size=SIZE, seed=SEED)
    engine = QueryEngine(scenario.ontology, scenario.database)
    if mutated:
        apply_delta(scenario.database, Delta.from_wire(MUTATION))
    return (
        sorted([str(t) for t in row] for row in engine.execute(QUERY)),
        sorted([str(t) for t in row] for row in engine.execute(PAGE_QUERY)),
    )


def walk_spans(nodes: list[dict]):
    """Every node of an EXPLAIN span tree, parents before children."""
    for node in nodes:
        yield node
        yield from walk_spans(node.get("children", []))


def check(label: str, actual, expected) -> None:
    if actual != expected:
        raise SystemExit(
            f"MISMATCH [{label}]: served answers differ from the direct engine\n"
            f"  served:   {len(actual)} rows\n  expected: {len(expected)} rows"
        )
    print(f"ok: {label} ({len(expected)} rows byte-identical)")


def main() -> int:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src if not env.get("PYTHONPATH") else os.pathsep.join([src, env["PYTHONPATH"]])
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--workload",
            WORKLOAD,
            "--size",
            str(SIZE),
            "--seed",
            str(SEED),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )
    try:
        base = wait_ready(proc)
        print(f"server up at {base} (pid {proc.pid})")

        pre_query, pre_page = direct_answers(mutated=False)
        post_query, post_page = direct_answers(mutated=True)

        # 1. the same query twice: a miss, then an answer-cache hit
        for attempt in ("first", "repeat"):
            status, body, _ = request(
                base, "POST", "/tenants/default/query", {"query": QUERY}
            )
            assert status == 200, f"query returned {status}"
            check(f"query (pre-mutation, {attempt})", body["answers"], pre_query)

        # 2. open a cursor and fetch the first page
        status, body, _ = request(
            base, "POST", "/tenants/default/cursors", {"query": PAGE_QUERY}
        )
        assert status == 201, f"cursor open returned {status}"
        cursor = body["cursor"]
        status, body, _ = request(
            base, "GET", f"/tenants/default/cursors/{cursor}?count=7"
        )
        assert status == 200 and not body["done"], "first page should not exhaust"
        collected = body["answers"]

        # 3. mutation batch lands while the cursor is mid-flight
        status, body, _ = request(base, "POST", "/tenants/default/facts", MUTATION)
        assert status == 200, f"mutation returned {status}"
        assert body["added"] == 3, f"expected 3 effective adds, got {body['added']}"

        # 4. drain the cursor: must finish over the PRE-batch snapshot
        while True:
            status, body, _ = request(
                base, "GET", f"/tenants/default/cursors/{cursor}?count=50"
            )
            assert status == 200, f"page returned {status}"
            collected.extend(body["answers"])
            if body["done"]:
                break
        check("cursor across mid-flight mutation (pre-batch snapshot)",
              sorted(collected), pre_page)

        # 5. the re-queries see the post-batch database, not a cached pre-batch one
        for attempt in ("first", "repeat"):
            status, body, _ = request(
                base, "POST", "/tenants/default/query", {"query": QUERY}
            )
            assert status == 200
            check(f"query (post-mutation, {attempt})", body["answers"], post_query)

        # 6. metrics are alive and consistent
        status, body, _ = request(base, "GET", "/metrics")
        assert status == 200
        counters = body["tenants"]["default"]["counters"]
        assert counters["queries"] == 4, counters
        assert counters["answer_cache_hits"] >= 2, counters
        assert body["engine"]["chase_increments"] >= 1, (
            "mutation should have been maintained incrementally"
        )
        print(
            f"ok: metrics (4 queries counted, {counters['answer_cache_hits']} answer "
            "cache hits, incremental maintenance ticked)"
        )

        # 7. traced explain queries: span tree in payload, trace id echoed back
        for text, expected, phase, cached in (
            (QUERY, post_query, "answers", True),
            (PAGE_QUERY, post_page, "enumerate", False),
        ):
            trace_id = f"e2e0deadbeef00{42 + cached:02d}"
            status, body, resp_headers = request(
                base,
                "POST",
                "/tenants/default/query?explain=1",
                {"query": text},
                headers={"X-Repro-Trace": trace_id},
            )
            assert status == 200, f"explain query returned {status}"
            assert resp_headers.get("X-Repro-Trace") == trace_id, (
                f"trace id not propagated: {resp_headers.get('X-Repro-Trace')!r}"
            )
            explain = body["explain"]
            assert explain["trace_id"] == trace_id, explain["trace_id"]
            phase_names = set(explain["phases"])
            assert {phase, "answers"} <= phase_names, sorted(phase_names)
            answer_spans = [
                node for node in walk_spans(explain["spans"]) if node["name"] == "answers"
            ]
            assert len(answer_spans) == 1, answer_spans
            assert answer_spans[0]["attributes"]["cached"] is cached, answer_spans
            kind = "hit" if cached else "miss"
            check(f"explain query (post-mutation, {kind})", body["answers"], expected)
            print(f"ok: explain payload on a {kind} with phases {sorted(phase_names)}")

        # 8. Prometheus scrape: valid 0.0.4 exposition, consistent histogram
        status, ctype, text = request_text(base, "/metrics?format=prometheus")
        assert status == 200
        assert ctype.startswith("text/plain; version=0.0.4"), ctype
        samples = validate_prometheus(text)
        queries = samples['repro_tenant_queries_total{tenant="default"}']
        assert queries == 6.0, f"expected 6 queries scraped, got {queries}"
        hits = samples['repro_tenant_answer_cache_hits_total{tenant="default"}']
        assert hits >= 3.0, f"expected at least 3 answer cache hits, got {hits}"
        inf_bucket = samples[
            'repro_tenant_latency_seconds_bucket{le="+Inf",tenant="default"}'
        ]
        count = samples['repro_tenant_latency_seconds_count{tenant="default"}']
        assert inf_bucket == count > 0, (inf_bucket, count)
        assert "repro_engine_plans_compiled_total" in text
        print(f"ok: prometheus exposition ({len(samples)} samples validated)")
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            returncode = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit("LEAK: server did not exit on SIGTERM within 30s")

    if returncode != 0:
        stderr = proc.stderr.read() if proc.stderr else ""
        raise SystemExit(f"server exited nonzero ({returncode}):\n{stderr}")
    print(f"ok: graceful shutdown, exit status {returncode}, no leaked process")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main())
