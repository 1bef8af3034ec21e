"""Every committed BENCH_*.json is a clean benchmark result over the declared metrics."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def declared_metrics():
    """``workload:metric`` -> unit for every workload and metric in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        f"{w['name']}:{m['name']}": m["unit"]
        for w in spec["workloads"]
        for m in spec["end_to_end"] + spec["per_layer"]
    }


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_is_a_clean_result_over_the_declared_metrics(path):
    result = json.loads(path.read_text(encoding="utf-8"))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared_metrics()
