"""A self-contained tour of the multi-tenant HTTP query service.

Starts :class:`repro.server.QueryService` on an ephemeral port inside this
process, provisions two tenants that *share one ontology* (so the second
tenant's queries are plan-cache hits), and then plays a client session:

1. execute a query over HTTP and print the first answers, then repeat it
   (served from the answer cache: the database has not changed),
2. open a server-side cursor and paginate it,
3. apply a mutation batch while the cursor is mid-flight — the cursor
   finishes over the pre-batch snapshot, a fresh query sees the new facts,
4. scrape ``/metrics`` and show the shared-plan-cache and incremental-
   maintenance counters,
5. shut down gracefully (draining open cursors).

Run with:  python examples/serve_demo.py
"""

import asyncio
import json
import urllib.request

from repro.server import QueryService, ServiceConfig, serve

QUERY = "q(s, a, d) :- HasAdvisor(s, a), WorksFor(a, d)"
PAGE_QUERY = "q(s, a) :- HasAdvisor(s, a)"


def client(base: str, method: str, path: str, payload: dict | None = None) -> dict:
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


async def main() -> None:
    service = QueryService(ServiceConfig(port=0, max_inflight=4, query_timeout=5.0))
    service.create_tenant("acme", "university", size=200, seed=1)
    service.create_tenant("globex", "university", size=120, seed=2)

    ready, stop = asyncio.Event(), asyncio.Event()
    addresses: list[str] = []
    server_task = asyncio.create_task(
        serve(
            service,
            announce=addresses.append,
            ready=ready,
            stop=stop,
            install_signal_handlers=False,
        )
    )
    await ready.wait()
    base = addresses[0]
    tenants = await asyncio.to_thread(client, base, "GET", "/tenants")
    print(f"service up at {base} with tenants "
          f"{[t['name'] for t in tenants['tenants']]}\n")

    # -- 1. query over HTTP -------------------------------------------------
    body = await asyncio.to_thread(client, base, "POST", "/tenants/acme/query",
                                   {"query": QUERY})
    print(f"acme: {body['count']} answers in {body['elapsed_ms']} ms; first three:")
    for row in body["answers"][:3]:
        print(f"  {tuple(row)}")
    again = await asyncio.to_thread(client, base, "POST", "/tenants/acme/query",
                                    {"query": QUERY})
    assert again["answers"] == body["answers"]
    print(f"repeat at db version {again['db_version']}: same answers from the "
          f"answer cache in {again['elapsed_ms']} ms")

    # The same query on the second tenant reuses the compiled plan.
    await asyncio.to_thread(client, base, "POST", "/tenants/globex/query",
                            {"query": QUERY})

    # -- 2. cursor pagination ----------------------------------------------
    body = await asyncio.to_thread(client, base, "POST", "/tenants/acme/cursors",
                                   {"query": PAGE_QUERY})
    cursor = body["cursor"]
    page = await asyncio.to_thread(
        client, base, "GET", f"/tenants/acme/cursors/{cursor}?count=5")
    streamed = page["count"]
    print(f"\ncursor {cursor}: first page of {page['count']} answers")

    # -- 3. mutation mid-cursor --------------------------------------------
    mutation = {"add": [["HasAdvisor", ["demo_student", "prof0"]],
                        ["WorksFor", ["prof0", "dept0"]]]}
    body = await asyncio.to_thread(client, base, "POST", "/tenants/acme/facts", mutation)
    print(f"mutation batch: +{body['added']} facts -> db version {body['db_version']}")
    while True:
        page = await asyncio.to_thread(
            client, base, "GET", f"/tenants/acme/cursors/{cursor}?count=50")
        streamed += page["count"]
        if page["done"]:
            break
    fresh = await asyncio.to_thread(client, base, "POST", "/tenants/acme/query",
                                    {"query": PAGE_QUERY})
    print(f"cursor drained {streamed} answers (pre-batch snapshot); "
          f"a fresh query now sees {fresh['count']}")

    # -- 4. metrics ---------------------------------------------------------
    metrics = await asyncio.to_thread(client, base, "GET", "/metrics")
    engine = metrics["engine"]
    print(f"\n/metrics: {engine['plans_cached']} plans cached, "
          f"{engine['plan_hits']} hits / {engine['plan_misses']} misses "
          f"(plans shared across tenants), "
          f"{engine['chase_increments']} incremental maintenance pass(es)")
    acme = metrics["tenants"]["acme"]
    print(f"acme: {acme['counters']['queries']} queries, "
          f"{acme['counters']['answer_cache_hits']} answered from the answer cache")
    print(f"acme latency: p50={acme['latency']['p50_ms']} ms "
          f"p99={acme['latency']['p99_ms']} ms over {acme['latency']['count']} requests")

    # -- 5. graceful shutdown ----------------------------------------------
    stop.set()
    report = await server_task
    print(f"\nshutdown: drained={report['drained']}, "
          f"cursors_closed={report['cursors_closed']}")


if __name__ == "__main__":
    asyncio.run(main())
