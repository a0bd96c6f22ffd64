"""BENCHMARK.json and run.py describe the same workloads and metrics."""

import json
import os

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def load():
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


def test_workloads_and_command_match_the_runner():
    spec = load()
    assert spec["command"] == ["python3", "benchmarks/pipeline/run.py"]
    assert spec["paths"] == ["benchmarks/pipeline"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == run.WORKLOADS
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_end_to_end_metrics_match_the_runner():
    spec = load()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for metric in spec["end_to_end"]:
        unit, better, bound, applies = run.METRICS[metric["name"]]
        assert (metric["unit"], metric["better"], metric["bound"]) == (
            unit, better, bound
        )
        assert set(applies) == set(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_metrics_match_the_runner():
    spec = load()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
