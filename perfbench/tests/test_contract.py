"""BENCHMARK.json names exactly the metrics the code reports."""

import json
from pathlib import Path

import layers
import run
from workloads import WORKLOADS

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads(BENCHMARK.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(bound < bounds["setup_s"] <= 0.25
               for name, bound in bounds.items() if name != "setup_s")
