"""Process lifecycle for the query service: bind, announce, drain, exit.

:func:`serve` is what ``repro serve`` runs.  It binds the HTTP server,
prints one machine-readable ready line (``repro-server listening on
http://host:port``) so drivers can discover an ephemeral port, then waits
for SIGTERM/SIGINT.  Shutdown is graceful in two stages: the service drains
(refusing new work with 503, waiting for in-flight requests, closing every
remaining cursor through its lifecycle hooks), then the transport closes.
A second signal skips the drain wait.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import sys

from repro.server.http import HttpServer
from repro.server.service import QueryService, ServiceConfig

READY_PREFIX = "repro-server listening on "


async def serve(
    service: QueryService,
    *,
    announce=None,
    ready: "asyncio.Event | None" = None,
    stop: "asyncio.Event | None" = None,
    install_signal_handlers: bool = True,
) -> dict:
    """Run ``service`` until stopped; returns the drain report.

    ``announce`` receives the base URL once the socket is bound (defaults
    to printing the ready line); ``ready``/``stop`` are optional events for
    embedding the server in another asyncio program (the tests and
    ``examples/serve_demo.py`` drive it this way).
    """
    server = HttpServer(
        service.handle, host=service.config.host, port=service.config.port
    )
    await server.start()
    stop = stop or asyncio.Event()
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, stop.set)
    if announce is None:
        print(f"{READY_PREFIX}{server.address}", flush=True)
    else:
        announce(server.address)
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
    finally:
        report = await service.shutdown()
        await server.stop()
    return report


def run(config: ServiceConfig, tenants: list[tuple[str, str, int, int]]) -> int:
    """Blocking entry point: build the service, provision tenants, serve."""
    service = QueryService(config)
    for name, workload, size, seed in tenants:
        tenant = service.create_tenant(name, workload, size=size, seed=seed)
        print(
            f"tenant {tenant.name!r}: workload={workload} "
            f"({len(tenant.database)} facts)",
            file=sys.stderr,
            flush=True,
        )
    report = asyncio.run(serve(service))
    print(
        f"shutdown: drained={report['drained']} "
        f"cursors_closed={report['cursors_closed']}",
        file=sys.stderr,
        flush=True,
    )
    return 0
