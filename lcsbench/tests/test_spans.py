"""Self times, coverage and pool splits of a synthetic trace."""

import pytest

import spans


def ev(id_, name, ts, dur, parent=None, cat="repro", pid=1, tid=1, **args):
    return {"id": id_, "name": name, "ts": ts, "dur": dur, "parent": parent,
            "cat": cat, "pid": pid, "tid": tid, "args": args}


def test_union_length_merges_and_clips():
    assert spans.union_length([(0, 10), (5, 15), (20, 30)]) == 25
    assert spans.union_length([(0, 10), (5, 15)], lo=2, hi=12) == 10


def test_self_time_subtracts_children_and_layers_sum():
    tree = spans.SpanTree([
        ev("op", "pair.ref", 0, 100, cat="op"),
        ev("c", "combing.leaf", 0, 80, parent="op"),
        ev("k", "kernel.counter_build", 80, 15, parent="op", cat="bench", kind="wavelet"),
        ev("s", "steady_ant.vectorized", 10, 20, parent="c"),
    ])
    assert tree.self_time(tree.by_id["c"]) == 60
    layers = tree.layer_self_seconds()
    assert layers == {"combing": 60e-6, "steady_ant": 20e-6, "kernel": 15e-6}
    assert tree.coverage() == pytest.approx(0.95)


def test_worker_chunk_belongs_to_the_submitting_layer():
    tree = spans.SpanTree([
        ev("op", "batch.alt", 0, 100, cat="op"),
        ev("b", "batch.run", 0, 100, parent="op"),
        ev("w1", "worker.chunk", 10, 40, parent="b", pid=2),
        ev("w2", "worker.chunk", 30, 50, parent="b", pid=3),
    ])
    assert tree.layer_of(tree.by_id["w1"]) == "batch"
    barrier, busy = tree.pool_split("batch.alt", workers=2)
    assert barrier == pytest.approx(30e-6)  # 100 us minus the union [10, 80)
    assert busy == pytest.approx(90 / 200)


def test_attribute_reports_counter_kinds_and_probe_cost():
    tree = spans.SpanTree([
        ev("k1", "kernel.counter_build", 0, 4000, cat="bench", kind="dense"),
        ev("k2", "kernel.counter_build", 0, 2000, cat="bench", kind="wavelet"),
        ev("p", "kernel.probe", 0, 30, cat="bench", n=10),
    ])
    out = spans.attribute(tree, {"batch.padded_cells": 10, "batch.real_cells": 5}, per=1)
    assert out["kernel.counter_builds.dense"] == 1
    assert out["kernel.counter_build_ms.dense"] == 4.0
    assert out["kernel.counter_build_ms"] == 3.0
    assert out["kernel.probe_us"] == 3.0
    assert out["batch.useful_cell_share"] == 0.5
