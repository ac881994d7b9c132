"""Self-test of the gate benchmark; not part of tier-1.

    python -m pytest benchmarks/gate -q -m bench

(``benchmarks/conftest.py`` marks everything under ``benchmarks/`` as
``bench`` and the default selection leaves that marker out.)  Everything runs
in ``--quick`` mode: sizes / 10, one repetition, under 20 s in total.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def gate(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_pass():
    done = gate("--quick")
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_names_and_units_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_workloads_are_the_ones_the_code_runs():
    sys.path.insert(0, str(HERE))
    import inputs

    assert WORKLOADS == list(inputs.WORKLOADS)


def test_quick_prints_exactly_the_declared_cells(quick_pass):
    result = last_json(quick_pass)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == {f"{w}/{m}" for w in WORKLOADS for m in units}
    for cell, measured in result["metrics"].items():
        # No not-applicable cells: every value is a finite number, never 0.
        assert isinstance(measured["value"], (int, float)), cell
        assert math.isfinite(measured["value"]) and measured["value"] > 0, cell
        assert measured["unit"] == units[cell.split("/")[1]]
    # The table above the JSON line names every cell with its unit.
    for workload in WORKLOADS:
        for metric, unit in units.items():
            assert re.search(
                rf"^{re.escape(workload)}\s+{re.escape(metric)}\s+\S+\s+{re.escape(unit)}\s",
                quick_pass, re.MULTILINE,
            ), (workload, metric)
    assert "ops_attempted" in quick_pass and "ops_failed 0" in quick_pass


def test_one_workload_prints_the_contract_line():
    done = gate("--quick", "--workload", "test-office", "--seed", "3", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_corrupted_checksum_exits_non_zero(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    size = min(expected["partial-office"], key=int)
    expected["partial-office"][size][0][2] ^= 1
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected), encoding="utf-8")
    done = gate("--quick", "--workload", "partial-office", "--expected", str(corrupted))
    assert done.returncode != 0
    result = last_json(done.stdout)
    assert result["correct"] is False and result["failed"] >= 1


def test_traced_mode_reports_every_layer_and_writes_spans():
    done = gate("--quick", "--workload", "partial-office", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["core.partial_walk_s"]["value"] > 0
    assert result["metrics"]["server.overhead_ms"]["value"] == 0
    spans = json.loads((HERE / "out" / "trace-partial-office.json").read_text())["spans"]
    assert {"id", "parent", "workload", "name", "start", "end"} <= set(spans[0])
    assert any(span["parent"] == spans[0]["id"] for span in spans[1:])


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "gate",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = gate("--workload", "cold-chase", "--seed", "0", "--seconds", "10", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "benchmarks" / "gate" / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
