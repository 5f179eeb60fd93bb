"""Workload generation is seeded, and BENCHMARK.json matches what run.py reports."""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


def _bytes(items):
    return [(item["name"], item["points"].tobytes(), sorted(
        (k, v) for k, v in item.items() if k != "points")) for item in items]


def test_cloud_inputs_repeat_for_a_seed_and_differ_across_seeds():
    first = workloads.cloud_inputs(17)
    assert _bytes(first) == _bytes(workloads.cloud_inputs(17))
    other = workloads.cloud_inputs(18)
    assert all(a["points"].tobytes() != b["points"].tobytes() for a, b in zip(first, other))
    assert [item["points"].shape for item in first] == [
        (p["n"], p["d"]) for _, _, _, p in workloads.CLOUD_OPS]


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert len(bench["per_layer"]) <= 128
