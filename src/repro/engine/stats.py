"""Thread-safe engine counters and latency histograms.

The engine's execution counters used to be bare ``int`` attributes bumped
with ``+=``.  That read–modify–write is not atomic in Python: two worker
threads of the HTTP service (or a worker racing its event loop) can
interleave between the load and the store and lose an increment, so
long-serving processes slowly under-count.  Both classes here
close that hole with one small lock per object:

* :class:`EngineCounters` — a named-counter block.  Every ``bump`` takes the
  lock, and :meth:`snapshot` returns all counters from a single critical
  section, so a ``/metrics`` scrape can never observe a torn multi-counter
  state (e.g. ``executions`` bumped but ``cursors_opened`` not yet).
* :class:`LatencyHistogram` — fixed geometric buckets, so ``observe`` is
  O(1), memory is O(#buckets) forever, and percentile estimates come from
  the bucket boundaries (upper bound of the bucket holding the requested
  rank — a conservative estimate whose error is bounded by the bucket
  ratio).

Both are cheap enough to sit on hot paths: one uncontended lock acquisition
is tens of nanoseconds, far below the cost of a single enumeration step.
"""

from __future__ import annotations

import threading
from bisect import bisect_left


class EngineCounters:
    """A block of named monotonic counters guarded by one lock.

    ``bump``/``get`` accept any string name; unknown names read as 0 so
    callers never pre-register.  Negative amounts are allowed for the few
    gauge-style entries (open-cursor count).
    """

    __slots__ = ("_lock", "_values")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: dict[str, int] = {}

    def bump(self, name: str, amount: int = 1) -> int:
        """Atomically add ``amount`` to ``name``; return the new value."""
        with self._lock:
            value = self._values.get(name, 0) + amount
            self._values[name] = value
            return value

    def get(self, name: str) -> int:
        with self._lock:
            return self._values.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        """All counters, read in one critical section (a consistent cut)."""
        with self._lock:
            return dict(self._values)


#: Default histogram buckets: 0.1 ms .. ~54 s in ×2 steps (20 boundaries).
_DEFAULT_BOUNDS = tuple(0.0001 * (2.0**i) for i in range(20))


class LatencyHistogram:
    """A thread-safe latency histogram with geometric buckets.

    ``observe(seconds)`` is O(log #buckets) (a bisect) under the lock;
    ``percentile`` answers from bucket upper bounds, so estimates are
    conservative (never below the true percentile by more than one bucket).
    The exact ``max`` and ``sum`` are tracked alongside, so means and worst
    cases in ``snapshot`` are not quantized.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_count", "_sum", "_max")

    def __init__(self, bounds: tuple[float, ...] = _DEFAULT_BOUNDS) -> None:
        if list(bounds) != sorted(bounds) or not bounds:
            raise ValueError("histogram bounds must be a sorted, non-empty sequence")
        self._lock = threading.Lock()
        self._bounds = tuple(bounds)
        # One bucket per bound (values <= bound) plus one overflow bucket.
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        bucket = bisect_left(self._bounds, seconds)
        with self._lock:
            self._counts[bucket] += 1
            self._count += 1
            self._sum += seconds
            if seconds > self._max:
                self._max = seconds

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def percentile(self, fraction: float) -> float:
        """The upper bound of the bucket holding the ``fraction`` rank.

        ``fraction`` is in [0, 1]; an empty histogram reports 0.0, and ranks
        landing in the overflow bucket report the observed maximum.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be within [0, 1], got {fraction}")
        with self._lock:
            return self._percentile_locked(fraction)

    def _percentile_locked(self, fraction: float) -> float:
        if self._count == 0:
            return 0.0
        rank = max(1, round(fraction * self._count))
        seen = 0
        for bucket, count in enumerate(self._counts):
            seen += count
            if seen >= rank:
                if bucket < len(self._bounds):
                    return min(self._bounds[bucket], self._max)
                return self._max
        return self._max  # pragma: no cover - rank <= count always hits

    def snapshot(self) -> dict[str, object]:
        """Count, mean, quantiles *and the raw buckets* as one reading.

        ``buckets`` lists cumulative counts per upper bound in seconds
        (Prometheus ``le`` convention, final bound ``"+Inf"``), so the
        exposition layer can emit a genuine histogram instead of
        pre-digested percentiles.
        """
        with self._lock:
            count, total, maximum = self._count, self._sum, self._max
            p50 = self._percentile_locked(0.50)
            p95 = self._percentile_locked(0.95)
            p99 = self._percentile_locked(0.99)
            counts = list(self._counts)
        buckets: list[dict[str, object]] = []
        cumulative = 0
        for bound, bucket_count in zip(self._bounds, counts):
            cumulative += bucket_count
            buckets.append({"le": bound, "count": cumulative})
        buckets.append({"le": "+Inf", "count": cumulative + counts[-1]})
        return {
            "count": count,
            "sum_seconds": round(total, 9),
            "mean_ms": round(1000.0 * total / count, 3) if count else 0.0,
            "p50_ms": round(1000.0 * p50, 3),
            "p95_ms": round(1000.0 * p95, 3),
            "p99_ms": round(1000.0 * p99, 3),
            "max_ms": round(1000.0 * maximum, 3),
            "buckets": buckets,
        }
