"""Every checked-in ``BENCH_*.json`` report is whole and from a clean run.

A report is written by ``perfbench/run.py --workload all --report``; it
must name every workload of ``BENCHMARK.json`` with every end-to-end
metric finite, and no op may have failed its output check.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTS = sorted(ROOT.glob("BENCH_*.json"))


def test_reports_are_checked_in():
    assert REPORTS


@pytest.mark.parametrize("path", REPORTS, ids=lambda p: p.name)
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_report_has_every_end_to_end_metric(path, workload):
    report = json.loads(path.read_text())
    assert report[workload]["workload"] == workload
    metrics = report[workload]["metrics"]
    for metric in BENCHMARK["end_to_end"]:
        value = metrics[metric["name"]]
        assert isinstance(value, (int, float)) and math.isfinite(value), metric["name"]
    assert metrics["ok_frac"] == 1.0
