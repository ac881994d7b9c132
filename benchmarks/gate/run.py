#!/usr/bin/env python3
"""The gate benchmark: six workloads, sized in seconds, one command.

    python3 benchmarks/gate/run.py [--workload NAME] [--seed N] [--seconds S]
                                   [--trace [0|1]] [--quick] [--calibrate N]

Generates every input from the seed, hands the program only the generated
inputs (DLGP/CSV files or built ``Database`` objects), runs each cell in a
child process of its own, checks every answer set, and prints every metric
by name with its unit.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics.

This process never imports ``repro``; README.md in this directory has the
workloads, the metric definitions and the six measurement rules.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import stats  # noqa: E402
from trace import dump as dump_trace  # noqa: E402

#: What is gated and what the traced mode must report is declared once, in
#: ``BENCHMARK.json``: name -> unit of the end-to-end and per-layer metrics.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
RUN_SECONDS = SPEC["run_seconds"]

#: Repetitions at the largest size for every ``RUN_SECONDS`` of ``--seconds``.
#: Counts are fixed from the arguments, never from a deadline, so they repeat.
REPETITIONS = 3
#: One workload run must end within 180 s; its children share this budget.
WORKLOAD_TIMEOUT_S = 170

_ENUMERATING = ("enum-graph", "partial-office", "multiwild-office", "test-office")
_OPS = ("test-office", "live-mix")
#: Metrics that exist only on some workloads: reported there, never filled in
#: elsewhere (measurement rule 6), and therefore outside the rectangular,
#: gated table of ``BENCHMARK.json``, whose four metrics every workload has.
REPORTED = {
    "preprocess_exponent": ("ratio", ("cold-chase", *_ENUMERATING)),
    "answers_per_s": ("1/s", _ENUMERATING),
    "delay_p50_us": ("us", _ENUMERATING),
    "delay_p99_us": ("us", _ENUMERATING),
    "delay_growth": ("ratio", _ENUMERATING),
    "op_p50_ms": ("ms", _OPS),
    "op_p95_ms": ("ms", _OPS),
    "write_p50_ms": ("ms", ("live-mix",)),
    "ops_per_s": ("1/s", _OPS),
}

COVERAGE_ENFORCED = ("cold-chase", "enum-graph")
COVERAGE_RANGE = (0.85, 1.15)


class Children:
    """Starts the cells, strictly one at a time, in a scratch directory."""

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.workdir = HERE / "out" / f"work-{os.getpid()}"
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        env["PYTHONHASHSEED"] = inputs.hash_seed(seed)
        self.env = env
        self.deadline = monotonic() + WORKLOAD_TIMEOUT_S

    def __enter__(self) -> "Children":
        self.workdir.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, workload: str, mode: str = "cell", size: int = 0, *flags: str) -> dict:
        """One child to completion; the JSON object on its last line."""
        command = [
            sys.executable, str(HERE / "cell.py"),
            "--workload", workload, "--mode", mode, "--size", str(size),
            "--seed", str(self.seed), "--workdir", str(self.workdir), *flags,
        ]
        if self.quick:
            command.append("--quick")
        # A session of its own, so that a cell's own child (live-mix's server)
        # is stopped with it whatever happens here.
        child = subprocess.Popen(
            command, env=self.env, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        try:
            stdout, _ = child.communicate(timeout=max(1.0, self.deadline - monotonic()))
        except BaseException:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise
        if child.returncode != 0 or not stdout.strip():
            raise SystemExit(f"{workload}: {mode} child failed with code {child.returncode}")
        return json.loads(stdout.strip().splitlines()[-1])


def load_expected(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def size_plan(workload, quick: bool, seconds: float) -> list[tuple[int, int]]:
    """``(size, repetitions)``: one run at each smaller size, the rest of the
    run at the largest."""
    if quick:
        return [(inputs.scaled(size, True), 1) for size in workload.sizes]
    repetitions = max(REPETITIONS, round(REPETITIONS * seconds / RUN_SECONDS))
    return [(size, 1) for size in workload.sizes[:-1]] + [(workload.sizes[-1], repetitions)]


class Verdict:
    """Counts attempted and failed operations; explains each failure."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        print(f"FAILED: {message}", file=sys.stderr)


def run_cells(children, workload, plan, verdict, expected, record) -> dict[int, list[dict]]:
    """The check run, then every cell; answer sets checked as they arrive."""
    outcome = children.run(workload.name, "check")
    verdict.attempted += 1
    for mismatch in outcome["mismatches"]:
        verdict.fail(f"{workload.name} check at size {outcome['check_size']}: {mismatch}")
    cells: dict[int, list[dict]] = {}
    for size, repetitions in plan:
        flags = ["--ops"] if size == plan[-1][0] else []
        for _ in range(repetitions):
            cell = children.run(workload.name, "cell", size, *flags)
            cells.setdefault(size, []).append(cell)
            verdict.attempted += cell.get("attempted", len(cell["sets"]))
            if cell.get("failed"):
                verdict.fail(f"{workload.name} size {size}: wrong outputs", cell["failed"])
            sets = cell["sets"]  # [name, answer count, checksum] per answer set
            if sets != cells[size][0]["sets"]:
                verdict.fail(f"{workload.name} size {size}: repetitions disagree")
            key = str(size)
            if record:
                expected.setdefault(workload.name, {})[key] = sets
            elif children.seed == 0:
                # Another seed skips only this comparison.
                if expected.get(workload.name, {}).get(key) != sets:
                    verdict.fail(
                        f"{workload.name} size {size}: count or checksum differs from "
                        f"expected.json: {sets}"
                    )
    return cells


def summarize(workload, cells: dict[int, list[dict]]) -> tuple[dict, dict]:
    """``(metrics, notes)`` of one untraced workload run: the end-to-end
    metrics, then the ones this workload alone reports."""
    sizes = sorted(cells)
    top = cells[sizes[-1]]
    med = statistics.median
    metrics = {name: med(c[name] for c in top) for name in END_TO_END}
    notes = {
        name: f"median of {len(top)} at size {sizes[-1]}: "
        + " ".join(f"{c[name]:.4g}" for c in top)
        for name in END_TO_END
    }
    name = workload.name
    if name in REPORTED["preprocess_exponent"][1]:
        metrics["preprocess_exponent"] = stats.loglog_slope(
            [cells[s][0]["facts"] for s in sizes],
            [min(c["first_answer_s"] for c in cells[s]) for s in sizes],
        )
        notes["preprocess_exponent"] = "facts " + "/".join(str(cells[s][0]["facts"]) for s in sizes)
    if name in _ENUMERATING:
        results = "verdicts" if name == "test-office" else "answers"
        metrics["answers_per_s"] = med(c["drained"] / c["drain_s"] for c in top)
        notes["answers_per_s"] = f"{results}, median of {len(top)}"
        pooled = [1e6 * d for c in top for d in c["delays"]]
        smallest = [1e6 * d for c in cells[sizes[0]] for d in c["delays"]]
        metrics["delay_p50_us"] = med(pooled)
        p, value = stats.tail_percentile(pooled, 99)
        metrics["delay_p99_us"] = value
        metrics["delay_growth"] = metrics["delay_p50_us"] / med(smallest)
        notes["delay_p50_us"] = f"{len(pooled)} chunks of {workload.chunk}"
        notes["delay_p99_us"] = f"p{p} of {len(pooled)} chunks"
        notes["delay_growth"] = f"size {sizes[-1]} over size {sizes[0]}"
    if name in _OPS:
        ops = [ms for c in top for ms in c["op_ms"]]
        metrics["op_p50_ms"] = med(ops)
        p, metrics["op_p95_ms"] = stats.tail_percentile(ops, 95)
        metrics["ops_per_s"] = med(c["ops"] / c["ops_s"] for c in top)
        what = "reads" if name == "live-mix" else "single tests"
        notes["op_p50_ms"] = f"{len(ops)} {what}"
        notes["op_p95_ms"] = f"p{p} of {len(ops)} {what}"
        notes["ops_per_s"] = "closed loop, 2 clients" if name == "live-mix" else "1 caller"
    if name == "live-mix":
        writes = [ms for c in top for ms in c["write_ms"]]
        metrics["write_p50_ms"] = med(writes)
        notes["write_p50_ms"] = f"{len(writes)} writes"
    return metrics, notes


def run_untraced(children, workload, seconds, verdict, expected, record) -> dict:
    plan = size_plan(workload, children.quick, seconds)
    cells = run_cells(children, workload, plan, verdict, expected, record)
    metrics, notes = summarize(workload, cells)
    units = {**END_TO_END, **{k: v[0] for k, v in REPORTED.items()}}
    for name, value in metrics.items():
        print(f"{workload.name:17s} {name:20s} {value:14.6g} {units[name]:6s} {notes[name]}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def run_traced(children, workload, verdict, expected) -> dict:
    """The per-layer numbers: an untraced reference cell, then the walk."""
    size = size_plan(workload, children.quick, RUN_SECONDS)[-1][0]
    cells = run_cells(children, workload, [(size, 1)], verdict, expected, record=False)
    reference = cells[size][0]
    walked = children.run(workload.name, "walk", size)
    unknown = set(walked["metrics"]) - set(PER_LAYER)
    if unknown:
        raise SystemExit(f"walk reports metrics BENCHMARK.json does not list: {sorted(unknown)}")
    # 0: the walk recorded no span in that layer, so it did no work there.
    metrics = {name: walked["metrics"].get(name, 0) for name in PER_LAYER}
    metrics["engine.overhead_s"] = reference["first_answer_s"] - walked["path_first_s"]
    metrics["trace.coverage"] = walked["path_first_s"] / reference["first_answer_s"]
    if workload.name != "live-mix":
        metrics["trace.overhead"] = walked["path_total_s"] / reference["total_s"]
    if workload.name == "enum-graph":
        observed = children.run(workload.name, "cell", size, "--engine-tracing")
        metrics["obs.traced_ratio"] = observed["total_s"] / reference["total_s"]
    if workload.name == "live-mix":
        metrics["server.overhead_ms"] = (
            statistics.median(reference["query_ms"]) - metrics["engine.warm_execute_ms"]
        )
        metrics["server.bytes_per_op"] = reference["bytes"] / reference["ops"]
        metrics["server.rejected"] = reference["rejected"]
        metrics["server.timeouts"] = reference["timeouts"]
    dump_trace(HERE / "out" / f"trace-{workload.name}.json", workload.name,
               walked["spans"], metrics)

    path = [s for s in walked["spans"] if s["on_path"] and s["parent"] is not None]
    total = sum(s["self_s"] for s in path)
    for span in path:
        print(
            f"{workload.name:17s} span {span['name']:24s} self {span['self_s']:10.4f} s "
            f"{100 * span['self_s'] / total:5.1f}%  gc {span['gc_pause_s']:.4f} s"
        )
    for name, unit in PER_LAYER.items():
        print(f"{workload.name:17s} {name:30s} {metrics[name]:14.6g} {unit}")
    verdict.attempted += 1
    low, high = COVERAGE_RANGE
    if workload.name in COVERAGE_ENFORCED and not low <= metrics["trace.coverage"] <= high:
        verdict.fail(
            f"{workload.name}: trace.coverage {metrics['trace.coverage']:.3f} outside "
            f"{low}-{high}: the walk does not describe the engine's path"
        )
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run_once(names, seed, seconds, trace, quick, expected_path, record=False):
    """One pass over ``names``: ``(per-workload metrics, verdict)``."""
    expected = load_expected(expected_path)
    verdict = Verdict()
    results = {}
    with Children(seed, quick) as children:
        for name in names:
            workload = inputs.WORKLOADS[name]
            children.deadline = monotonic() + WORKLOAD_TIMEOUT_S
            if trace:
                results[name] = run_traced(children, workload, verdict, expected)
            else:
                results[name] = run_untraced(
                    children, workload, seconds, verdict, expected, record
                )
    if record:
        expected_path.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return results, verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="sets the repetition count at the largest size")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="sizes / 10, 1 repetition: a smoke run, not a measurement")
    parser.add_argument("--calibrate", type=int, metavar="N",
                        help="N full runs on seeds 0..N-1; appends a set to CALIBRATION.md")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json")
    parser.add_argument("--record-expected", action="store_true",
                        help="write the seed-0 counts and checksums to --expected")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: nothing to measure", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(inputs.WORKLOADS)
    if args.calibrate:
        import calibrate

        return calibrate.run(run_once, names, args.calibrate, args.seconds, args.expected)
    if args.record_expected and args.seed != 0:
        parser.error("--record-expected records seed 0")
    results, verdict = run_once(
        names, args.seed, args.seconds, args.trace, args.quick, args.expected,
        record=args.record_expected,
    )
    print(f"ops_attempted {verdict.attempted}")
    print(f"ops_failed {verdict.failed}")
    if args.workload:
        metrics = results[args.workload]
    else:
        metrics = {f"{w}/{m}": cell for w, cells in results.items() for m, cell in cells.items()}
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }))
    return 0 if verdict.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
