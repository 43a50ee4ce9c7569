"""Committed benchmark records name what BENCHMARK.json declares.

A BENCH_*.json file at the repository root records what
``python3 perfbench/run.py --workload all --seed S --seconds N`` printed with
``--trace 0`` and ``--trace 1``, and where it ran: the commit, the host, and
the Python and numpy versions.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_names_the_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["commit"] and record["host"] and record["python"] and record["numpy"]
    runs = {run["trace"]: run for run in record["runs"]}
    assert set(runs) == {0, 1}
    workloads = [workload["name"] for workload in BENCHMARK["workloads"]]
    for run in runs.values():
        assert run["command"][:2] == BENCHMARK["command"]
        assert run["result"]["correct"] is True
        for workload in workloads:
            assert any(line.startswith(f"# workload={workload} ") for line in run["output"])
    metrics = runs[0]["result"]["metrics"]
    for workload in workloads:
        for metric in BENCHMARK["end_to_end"]:
            assert metrics[f"{workload}.{metric['name']}"]["unit"] == metric["unit"]
