"""The benchmark's metric names, units and directions.

Every workload reports every metric: the end-to-end ones in an untraced
run, the per-layer ones in a traced run. A layer a workload bypasses
reports zero work (see GUIDE.md for the prediction behind each zero).
``BENCHMARK.json`` lists the same names; ``tests/test_catalog.py`` keeps
the two in sync.
"""

from __future__ import annotations

#: (name, unit, better). Each workload measures a reference and an
#: alternative setting: ``pair`` and ``batch`` in-process vs the warm
#: 2-worker pool, ``serve`` one client vs two. A setting's latency is the
#: statistic of :data:`LATENCY_STAT`.
END_TO_END = (
    ("latency_ms.ref", "ms", "lower"),
    ("latency_ms.alt", "ms", "lower"),
    ("max_ops_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("rss_mb", "MiB", "lower"),
)

#: the statistic behind ``latency_ms.*`` per workload, fixed so that every
#: run of a workload reports the same one whatever its sample count.
#: ``pair`` and ``batch`` call the program back to back for the whole
#: window, so their latency is the mean wall time of one call: the
#: window's time over its calls, the reciprocal of the setting's
#: throughput. The mean takes in every slow stretch of the window in
#: proportion, where the median of 10 to 60 calls jumps with the share
#: of them that a busy neighbour slowed. A ``serve`` run gathers at least
#: 2000 requests per setting, which leave ten beyond p99.5
#: (``stats.supports``). Medians are printed, not gated: on ``serve``
#: they move with the machine's idle-wake-up latency by more than any
#: bound allows.
LATENCY_STAT = {"pair": "mean", "batch": "mean", "serve": "p99.5"}

QUERY_OPS = (
    "lcs",
    "windowed_lcs",
    "all_prefix_scores",
    "all_suffix_scores",
    "substring_threshold_matches",
    "append",
    "prepend",
)

PER_LAYER = (
    # core.combing
    ("combing.self_s", "s", "lower"),
    ("combing.cells_per_s", "cells/s", "higher"),
    ("combing.leaf_calls", "count", "lower"),
    ("combing.grid_leaves", "count", "lower"),
    # core.steady_ant, core.compose
    ("steady_ant.self_s", "s", "lower"),
    ("compose.self_s", "s", "lower"),
    ("combing.grid_composes", "count", "lower"),
    ("steady_ant.multiplies", "count", "lower"),
    ("steady_ant.vectorized_multiplies", "count", "lower"),
    ("steady_ant.precalc_builds", "count", "lower"),
    # parallel: machines, transport, resilience
    ("parallel.self_s", "s", "lower"),
    ("machine.start_s", "s", "lower"),
    ("machine.rounds", "count", "lower"),
    ("machine.tasks", "count", "lower"),
    ("machine.barrier_s", "s", "lower"),
    ("machine.worker_busy_share", "ratio", "higher"),
    ("transport.bytes_shipped", "B", "lower"),
    ("transport.bytes_returned", "B", "lower"),
    ("transport.slab_reuses", "count", "higher"),
    ("resilience.retries", "count", "lower"),
    ("resilience.degraded_rounds", "count", "lower"),
    # batch
    ("batch.self_s", "s", "lower"),
    ("batch.megabatches", "count", "lower"),
    ("batch.mean_lanes", "lanes", "higher"),
    ("batch.useful_cell_share", "ratio", "higher"),
    ("batch.fallback_pairs", "count", "lower"),
    # core.kernel, core.dominance
    ("kernel.self_s", "s", "lower"),
    ("kernel.counter_builds.dense", "count", "lower"),
    ("kernel.counter_builds.wavelet", "count", "lower"),
    ("kernel.counter_build_ms", "ms", "lower"),
    ("kernel.counter_build_ms.dense", "ms", "lower"),
    ("kernel.counter_build_ms.wavelet", "ms", "lower"),
    ("kernel.probes", "count", "lower"),
    ("kernel.probe_batches", "count", "lower"),
    ("kernel.probe_us", "us", "lower"),
    # query
    ("query.self_s", "s", "lower"),
    ("query.kernel_hits", "count", "higher"),
    ("query.kernel_misses", "count", "lower"),
    ("query.kernel_builds", "count", "lower"),
    ("query.appends", "count", "lower"),
    ("query.prepends", "count", "lower"),
    ("query.fill_s", "s", "lower"),
    ("query.key_ms", "ms", "lower"),
    *((f"query.answer_ms.{op}", "ms", "lower") for op in QUERY_OPS),
    # checkpoint.store
    ("store.self_s", "s", "lower"),
    ("checkpoint.hits", "count", "higher"),
    ("checkpoint.misses", "count", "lower"),
    ("checkpoint.writes", "count", "lower"),
    ("checkpoint.bytes_written", "B", "lower"),
    ("store.evictions", "count", "lower"),
    ("store.get_ms", "ms", "lower"),
    ("store.put_ms", "ms", "lower"),
    # serve
    ("serve.start_s", "s", "lower"),
    ("serve.admitted", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.deadline_expired", "count", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.mean_occupancy", "requests", "higher"),
    ("serve.query_hits", "count", "higher"),
    ("serve.query_misses", "count", "lower"),
    ("serve.cached_p50_ms", "ms", "lower"),
    ("serve.cached_tail_ms", "ms", "lower"),
    ("serve.new_p50_ms", "ms", "lower"),
    ("serve.new_tail_ms", "ms", "lower"),
    ("serve.score_p50_ms", "ms", "lower"),
    ("serve.score_tail_ms", "ms", "lower"),
    ("serve.engine_ms", "ms", "lower"),
    ("serve.envelope_ms", "ms", "lower"),
    # harness: judges whether a run is valid
    ("gen.lag_tail_ms", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

#: ``repro.obs.METRIC_CATALOG`` counters reported as-is (deltas over the
#: measured operations; the daemon's come through its ``metrics`` request)
REGISTRY_COUNTERS = (
    "combing.leaf_calls", "combing.grid_leaves", "combing.grid_composes",
    "steady_ant.multiplies", "steady_ant.vectorized_multiplies",
    "steady_ant.precalc_builds", "machine.rounds", "machine.tasks",
    "transport.bytes_shipped", "transport.bytes_returned", "transport.slab_reuses",
    "resilience.retries", "resilience.degraded_rounds",
    "batch.megabatches", "batch.fallback_pairs",
    "kernel.probes", "kernel.probe_batches",
    "query.kernel_hits", "query.kernel_misses", "query.kernel_builds",
    "query.appends", "query.prepends",
    "checkpoint.hits", "checkpoint.misses", "checkpoint.writes",
    "checkpoint.bytes_written", "store.evictions",
    "serve.admitted", "serve.shed", "serve.deadline_expired", "serve.batches",
    "serve.query_hits", "serve.query_misses",
)


def metric_block(values: dict, names) -> dict:
    """``{"name": {"value", "unit"}}`` for *names*; missing values are 0
    (the workload did no work in that layer)."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": UNITS[name]}
        for name in names
    }
