"""BENCHMARK.json and the code report the same metrics."""

import json
from pathlib import Path

import catalog

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(catalog.END_TO_END)


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(catalog.PER_LAYER)


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_workload_has_a_fixed_latency_statistic():
    assert set(catalog.LATENCY_STAT) == {w["name"] for w in SPEC["workloads"]}
    for stat in catalog.LATENCY_STAT.values():
        assert stat == "mean" or 50.0 < float(stat.removeprefix("p")) < 100.0
