"""Every committed bench record names what it claims and summarises every metric.

A `BENCH_<n>.json` at the repository root records the paired parent/change
runs behind a claimed speedup.  Its `claim` must name a workload and an
end-to-end metric that `BENCHMARK.json` lists, and its `summary` must give
the parent and change medians and their ratio for every end-to-end metric on
every workload, so that no regression can hide behind an omitted metric.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_claims_and_summarises_every_metric(path):
    record = json.loads(path.read_text())
    assert record["claim"]["workload"] in WORKLOADS
    assert record["claim"]["metric"] in END_TO_END
    missing = [
        f"{workload}.{metric}.{key}"
        for workload in WORKLOADS
        for metric in END_TO_END
        for key in ("parent_median", "change_median", "ratio")
        if key not in record["summary"].get(workload, {}).get(metric, {})
    ]
    assert missing == []
