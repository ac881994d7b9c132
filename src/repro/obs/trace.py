"""Span-based query tracing: contextvar trace context, monotonic spans.

The paper's central claim — constant delay after bounded preprocessing — is
a statement about *where time goes*, yet until this module the engine could
only report totals.  A :class:`Trace` is one end-to-end execution (a CLI
``repro explain`` run, one HTTP request); a :class:`Span` is one phase of
it — ``parse``, ``plan``, ``chase``, ``reduce``, ``enumerate`` — with a
monotonic start/end, a parent link and free-form attributes.  The
``enumerate`` span additionally carries a per-answer *delay distribution*
(:class:`DelayStats`) sampled by :func:`traced_answers`, which is what
turns the constant-delay guarantee into a measurable min/p50/p99/max.

Design constraints, in priority order:

1. **Near-zero overhead when off.**  The ambient trace lives in one
   :class:`contextvars.ContextVar`; :func:`span` performs exactly one
   ``ContextVar.get`` and returns the shared :data:`NULL_SPAN` when no
   trace is active.  Per-answer sampling only happens inside an active
   trace, and nothing starts one unless asked (``tracing=True``,
   ``--trace``, an ``X-Repro-Trace`` header, ``repro explain``).
2. **Thread-friendly.**  Traces are shared objects guarded by one lock;
   spans opened from worker threads (``asyncio.to_thread`` propagates the
   context automatically) attach to the same trace with correct parent
   links.
3. **Bounded memory.**  Finished traces land in a ring buffer
   (:class:`TraceStore`, default 256 traces); each trace caps its span
   count, so a runaway enumeration cannot balloon the process.

This module deliberately imports nothing from :mod:`repro`, so every layer
(data, chase, enumeration, engine, server) can call into it cycle-free.
"""

from __future__ import annotations

import threading
import time
import uuid
from bisect import bisect_left
from collections import OrderedDict
from contextvars import ContextVar
from typing import Any, Iterator

__all__ = [
    "NULL_SPAN",
    "TRACES",
    "DelayStats",
    "Span",
    "Trace",
    "TraceStore",
    "add_event",
    "current_span",
    "current_trace",
    "span",
    "start_trace",
    "traced_answers",
]

#: Spans a single trace will record before dropping further ones (the
#: ``spans_dropped`` counter on the trace says when the cap was hit).
MAX_SPANS_PER_TRACE = 512

#: Events (instantaneous markers, e.g. codegen compiles) per trace.
MAX_EVENTS_PER_TRACE = 256

_ACTIVE_TRACE: "ContextVar[Trace | None]" = ContextVar("repro_trace", default=None)
_ACTIVE_SPAN: "ContextVar[Span | None]" = ContextVar("repro_span", default=None)


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (wire-safe, collision-negligible)."""
    return uuid.uuid4().hex[:16]


#: Delay-sample buckets: 0.25 µs .. ~4 s in ×2 steps.  Much finer than the
#: request-latency histogram of :mod:`repro.engine.stats` because a single
#: enumeration step is micro- not milliseconds.
_DELAY_BOUNDS = tuple(0.25e-6 * (2.0**i) for i in range(24))


class DelayStats:
    """A bounded histogram of per-answer delays (seconds).

    O(1) memory however many answers stream through; exact ``min``/``max``/
    ``sum`` are kept alongside so the tails are not quantized away.
    Percentiles answer from bucket upper bounds (conservative, error
    bounded by the ×2 bucket ratio).  Not thread-safe: one enumeration
    owns one recorder.
    """

    __slots__ = ("_counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self._counts = [0] * (len(_DELAY_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        self._counts[bisect_left(_DELAY_BOUNDS, seconds)] += 1
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def percentile(self, fraction: float) -> float:
        """The upper bound of the bucket holding the ``fraction`` rank."""
        if self.count == 0:
            return 0.0
        rank = max(1, round(fraction * self.count))
        seen = 0
        for bucket, count in enumerate(self._counts):
            seen += count
            if seen >= rank:
                if bucket < len(_DELAY_BOUNDS):
                    return min(_DELAY_BOUNDS[bucket], self.max)
                return self.max
        return self.max  # pragma: no cover - rank <= count always hits

    def to_dict(self) -> dict[str, float | int]:
        """The distribution as the EXPLAIN wire shape (milliseconds)."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "min_ms": round(1000.0 * self.min, 6),
            "p50_ms": round(1000.0 * self.percentile(0.50), 6),
            "p99_ms": round(1000.0 * self.percentile(0.99), 6),
            "max_ms": round(1000.0 * self.max, 6),
            "mean_ms": round(1000.0 * self.total / self.count, 6),
        }


class Span:
    """One timed phase of a trace (monotonic clock, parent/child nesting)."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "started",
        "ended",
        "status",
        "error",
        "attributes",
    )

    def __init__(self, span_id: int, parent_id: int | None, name: str) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.started = time.perf_counter()
        self.ended: float | None = None
        self.status = "open"
        self.error: str | None = None
        self.attributes: dict[str, Any] = {}

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute (overwrites silently)."""
        self.attributes[key] = value

    @property
    def duration_ms(self) -> float:
        """Elapsed milliseconds (up to now while the span is still open)."""
        end = self.ended if self.ended is not None else time.perf_counter()
        return 1000.0 * (end - self.started)

    def finish(self, status: str = "ok", error: str | None = None) -> None:
        if self.ended is None:
            self.ended = time.perf_counter()
            self.status = status
            self.error = error

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "span_id": self.span_id,
            "name": self.name,
            "status": self.status,
            "duration_ms": round(self.duration_ms, 6),
        }
        if self.parent_id is not None:
            payload["parent_id"] = self.parent_id
        if self.error is not None:
            payload["error"] = self.error
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name}, {self.status}, {self.duration_ms:.3f} ms)"


class Trace:
    """One end-to-end execution: an id, a wall-clock anchor, its spans."""

    def __init__(self, name: str, trace_id: str | None = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.name = name
        self.started_at = time.time()
        self.started = time.perf_counter()
        self.ended: float | None = None
        self.spans: list[Span] = []
        self.events: list[dict[str, Any]] = []
        self.spans_dropped = 0
        self._lock = threading.Lock()
        self._seq = 0

    # -- span management (called from any thread) ---------------------------

    def begin_span(self, name: str, parent: Span | None) -> Span | None:
        """Allocate and register a span; ``None`` once the cap is hit."""
        with self._lock:
            if len(self.spans) >= MAX_SPANS_PER_TRACE:
                self.spans_dropped += 1
                return None
            self._seq += 1
            span = Span(self._seq, parent.span_id if parent else None, name)
            self.spans.append(span)
            return span

    def add_event(self, name: str, **attributes: Any) -> None:
        """Record an instantaneous marker (e.g. a codegen compile)."""
        with self._lock:
            if len(self.events) >= MAX_EVENTS_PER_TRACE:
                return
            self.events.append(
                {
                    "name": name,
                    "at_ms": round(1000.0 * (time.perf_counter() - self.started), 6),
                    **attributes,
                }
            )

    def open_spans(self) -> list[Span]:
        with self._lock:
            return [span for span in self.spans if span.ended is None]

    def finish(self) -> None:
        """Close the trace; any span still open is force-closed as an error.

        A leaked-open span means a code path escaped without running its
        ``__exit__`` (a bug); closing it here keeps the recorded data
        well-formed and makes the leak visible in the report.
        """
        with self._lock:
            if self.ended is None:
                self.ended = time.perf_counter()
            for span in self.spans:
                if span.ended is None:
                    span.finish(status="error", error="span leaked open")

    @property
    def duration_ms(self) -> float:
        end = self.ended if self.ended is not None else time.perf_counter()
        return 1000.0 * (end - self.started)

    def to_dict(self) -> dict[str, Any]:
        """The flat wire form; ``span_tree`` nests it for human output."""
        with self._lock:
            return {
                "trace_id": self.trace_id,
                "name": self.name,
                "started_at": self.started_at,
                "duration_ms": round(self.duration_ms, 6),
                "spans": [span.to_dict() for span in self.spans],
                "events": list(self.events),
                "spans_dropped": self.spans_dropped,
            }

    def span_tree(self) -> list[dict[str, Any]]:
        """The spans as a parent/child forest (children in start order)."""
        with self._lock:
            nodes = {span.span_id: span.to_dict() for span in self.spans}
            order = [span.span_id for span in self.spans]
        roots: list[dict[str, Any]] = []
        for span_id in order:
            node = nodes[span_id]
            parent = nodes.get(node.get("parent_id"))
            if parent is None:
                roots.append(node)
            else:
                parent.setdefault("children", []).append(node)
        return roots

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace({self.trace_id}, {self.name!r}, {len(self.spans)} spans)"


class TraceStore:
    """A bounded in-memory ring buffer of recent finished traces."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("trace store capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, Trace]" = OrderedDict()

    def add(self, trace: Trace) -> None:
        with self._lock:
            self._traces[trace.trace_id] = trace
            self._traces.move_to_end(trace.trace_id)
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)

    def get(self, trace_id: str) -> Trace | None:
        with self._lock:
            return self._traces.get(trace_id)

    def recent(self, count: int = 20) -> list[Trace]:
        """The most recent traces, newest first."""
        with self._lock:
            return list(reversed(list(self._traces.values())))[:count]

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


#: The process-wide ring buffer `repro explain`, the server's ``/traces``
#: endpoint and the tests all read.
TRACES = TraceStore()


def current_trace() -> Trace | None:
    """The ambient trace of this context (``None`` when not tracing)."""
    return _ACTIVE_TRACE.get()


def current_span() -> Span | None:
    """The innermost open span of this context."""
    return _ACTIVE_SPAN.get()


def add_event(name: str, **attributes: Any) -> None:
    """Record an instantaneous event on the ambient trace, if any."""
    trace = _ACTIVE_TRACE.get()
    if trace is not None:
        trace.add_event(name, **attributes)


class _NullSpan:
    """The shared no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:  # pragma: no cover - no-op
        pass


NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager for one span: parent bookkeeping + status on exit."""

    __slots__ = ("_trace", "_name", "_attributes", "_span", "_token")

    def __init__(self, trace: Trace, name: str, attributes: dict[str, Any]):
        self._trace = trace
        self._name = name
        self._attributes = attributes
        self._span: Span | None = None
        self._token = None

    def __enter__(self) -> Span | None:
        span = self._trace.begin_span(self._name, _ACTIVE_SPAN.get())
        self._span = span
        if span is not None:
            if self._attributes:
                span.attributes.update(self._attributes)
            self._token = _ACTIVE_SPAN.set(span)
        return span

    def __exit__(self, exc_type, exc, _tb) -> bool:
        span = self._span
        if span is not None:
            if exc_type is None:
                span.finish("ok")
            elif exc_type is GeneratorExit:
                # The consumer abandoned an enumeration mid-stream: a normal
                # lifecycle event (cursor close, page limit), not a failure.
                span.finish("cancelled")
            else:
                span.finish("error", error=f"{exc_type.__name__}: {exc}")
            if self._token is not None:
                _ACTIVE_SPAN.reset(self._token)
        return False


def span(name: str, **attributes: Any) -> "_SpanContext | _NullSpan":
    """A span context on the ambient trace — the shared no-op without one.

    The disabled fast path is one ``ContextVar.get`` plus a shared-object
    return.
    """
    trace = _ACTIVE_TRACE.get()
    if trace is None:
        return NULL_SPAN
    return _SpanContext(trace, name, attributes)


class _TraceContext:
    """Context manager that installs a trace (and its root span)."""

    __slots__ = ("_trace", "_store", "_token", "_span_token", "_root")

    def __init__(self, trace: Trace, store: TraceStore | None):
        self._trace = trace
        self._store = store
        self._token = None
        self._span_token = None
        self._root: Span | None = None

    def __enter__(self) -> Trace:
        self._token = _ACTIVE_TRACE.set(self._trace)
        self._root = self._trace.begin_span(self._trace.name, None)
        if self._root is not None:
            self._span_token = _ACTIVE_SPAN.set(self._root)
        return self._trace

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if self._root is not None:
            if exc_type is None:
                self._root.finish("ok")
            else:
                self._root.finish("error", error=f"{exc_type.__name__}: {exc}")
            if self._span_token is not None:
                _ACTIVE_SPAN.reset(self._span_token)
        self._trace.finish()
        if self._token is not None:
            _ACTIVE_TRACE.reset(self._token)
        if self._store is not None:
            self._store.add(self._trace)
        return False


def start_trace(
    name: str,
    trace_id: str | None = None,
    store: TraceStore | None = TRACES,
) -> _TraceContext:
    """Start a new trace (with a root span) and make it ambient.

    On exit the trace is finished — leaked-open spans are force-closed with
    an error status — and recorded into ``store`` (the process ring buffer
    by default; pass ``None`` to keep a trace out of it).  Starting a trace
    while another is ambient shadows the outer one for the duration; the
    outer trace is restored on exit.
    """
    return _TraceContext(Trace(name, trace_id=trace_id), store)


def traced_answers(
    answers: Iterator[tuple],
    name: str = "enumerate",
    **attributes: Any,
) -> Iterator[tuple]:
    """Wrap an answer iterator in a span with per-answer delay sampling.

    The delay attributed to answer *i* is the producer time only: the clock
    restarts after each ``yield`` returns, so consumer think-time between
    ``next()`` calls does not pollute the constant-delay distribution.
    The distribution, answer count and completion state land on the span
    as attributes (recorded even when the consumer abandons the iterator
    early — the span then closes as ``cancelled``, not an error).
    """
    with span(name, **attributes) as sp:
        if sp is None:
            yield from answers
            return
        delays = DelayStats()
        produced = 0
        exhausted = False
        try:
            clock = time.perf_counter
            last = clock()
            for answer in answers:
                delays.observe(clock() - last)
                produced += 1
                yield answer
                last = clock()
            exhausted = True
        finally:
            sp.set("answers", produced)
            sp.set("exhausted", exhausted)
            if delays.count:
                sp.set("delay", delays.to_dict())
