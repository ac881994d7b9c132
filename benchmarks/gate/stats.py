"""Estimators and checksums shared by the gate's parent and child processes.

Standard library only: the parent process never imports ``repro``.
"""

from __future__ import annotations

import math
import statistics
from zlib import crc32

MASK64 = (1 << 64) - 1


def row_crc(row) -> int:
    """CRC of one answer row, independent of ``PYTHONHASHSEED``.

    Terms are compared by their ``str`` form, which is what the HTTP server
    puts on the wire, so in-process tuples and served rows checksum equal.
    """
    return crc32(repr(tuple(map(str, row))).encode())


def rows_checksum(rows) -> int:
    """Order-independent checksum of an answer set: sum of row CRCs mod 2^64."""
    return sum(map(row_crc, rows)) & MASK64


def percentile(sorted_values, percent: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(len(sorted_values) * percent / 100.0))
    return sorted_values[rank - 1]


def tail_percentile(values, wanted: int) -> tuple[int, float]:
    """``(p, value)``: the ``wanted`` percentile if ten samples lie beyond it,
    otherwise the highest whole percentile that has ten samples beyond it
    (measurement rule 3).  Fewer than twenty samples report the median.
    """
    ordered = sorted(values)
    count = len(ordered)
    supported = math.floor(100.0 * (1.0 - 10.0 / count)) if count >= 20 else 50
    p = max(50, min(wanted, supported))
    return p, percentile(ordered, p)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of ``log y`` against ``log x``."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )
