"""BENCHMARK.json names exactly the workloads and metrics the benchmark emits."""

import json
from pathlib import Path

import run
import tracing
import workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


def test_per_layer_metrics_match():
    emitted = set(tracing.SELF_TIME) | set(tracing.COUNTS) | {"trace.gap_s"} | \
        {"closure.errors", "representation.errors", "trace.overhead_s"}
    assert {m["name"] for m in SPEC["per_layer"]} == emitted
    for m in SPEC["per_layer"]:
        assert m["unit"] == ("s" if m["name"].endswith("_s") else "count")
