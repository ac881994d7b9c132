"""``run.py --calibrate N``: how far each gated cell moves between runs.

One set is N full runs on seeds 0..N-1, which is what the driver does with
ten.  For every gated (workload, metric) cell the set records the N values;
``CALIBRATION.md`` is rendered from every set recorded so far and shows, per
cell, the median, the quartiles, (Q3 - Q1) / median — the spread the driver
holds against the bound — and (max - min) / median.  With two sets or more
it also shows how far the medians of consecutive sets lie apart.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "calibration.json"
REPORT = HERE / "CALIBRATION.md"
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"


def run(run_once, names, runs: int, seconds: float, expected: Path) -> int:
    if runs < 5:
        raise SystemExit("--calibrate needs at least 5 runs")
    cells: dict[str, list[float]] = {}
    failed = 0
    started = time.time()
    for seed in range(runs):
        results, verdict = run_once(names, seed, seconds, 0, False, expected)
        failed += verdict.failed
        for workload, metrics in results.items():
            for metric, cell in metrics.items():
                cells.setdefault(f"{workload}/{metric}", []).append(cell["value"])
    sets = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else []
    sets.append({
        "when": time.strftime("%Y-%m-%d %H:%M", time.gmtime(started)),
        "runs": runs,
        "seconds": seconds,
        "wall_s": round(time.time() - started),
        "failed": failed,
        "cells": cells,
    })
    DATA.write_text(json.dumps(sets, indent=1) + "\n", encoding="utf-8")
    REPORT.write_text(render(sets), encoding="utf-8")
    print(f"wrote {REPORT}")
    return 1 if failed else 0


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, the spread the driver computes over ten runs."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def bounds() -> dict[str, float]:
    if not BENCHMARK.exists():
        return {}
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def render(sets: list[dict]) -> str:
    bound = bounds()
    lines = [
        "# Calibration of the gated cells",
        "",
        "Written by `python3 benchmarks/gate/run.py --calibrate N`; do not edit by hand.",
        "`spread` is (Q3 - Q1) / median over the set's runs, as the driver computes it",
        "(`statistics.quantiles(values, n=4)`); `range` is (max - min) / median.",
        "A cell's bound in `BENCHMARK.json` is the bound of its metric.",
        "",
    ]
    for number, one in enumerate(sets, start=1):
        lines += [
            f"## Set {number}: {one['runs']} runs, seeds 0-{one['runs'] - 1}, "
            f"`--seconds {one['seconds']:g}`, {one['when']} UTC, "
            f"{one['wall_s']} s wall, {one['failed']} failed ops",
            "",
            "| cell | median | Q1 | Q3 | spread | range | bound |",
            "|---|---|---|---|---|---|---|",
        ]
        for cell, values in one["cells"].items():
            q1, _, q3 = statistics.quantiles(values, n=4)
            limit = bound.get(cell.split("/")[1])
            lines.append(
                f"| `{cell}` | {statistics.median(values):.5g} | {q1:.5g} | {q3:.5g} "
                f"| {quartile_spread(values):.4f} "
                f"| {(max(values) - min(values)) / statistics.median(values):.4f} "
                f"| {limit if limit is not None else '-'} |"
            )
        lines.append("")
    for number in range(1, len(sets)):
        first, second = sets[number - 1], sets[number]
        lines += [
            f"## Medians of set {number + 1} against set {number}",
            "",
            "| cell | set %d | set %d | relative change | bound |" % (number, number + 1),
            "|---|---|---|---|---|",
        ]
        for cell, values in second["cells"].items():
            if cell not in first["cells"]:
                continue
            a = statistics.median(first["cells"][cell])
            b = statistics.median(values)
            limit = bound.get(cell.split("/")[1])
            lines.append(
                f"| `{cell}` | {a:.5g} | {b:.5g} | {(b - a) / a:+.4f} "
                f"| {limit if limit is not None else '-'} |"
            )
        lines.append("")
    return "\n".join(lines)
