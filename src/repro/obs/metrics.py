"""Zero-dependency metrics registry: counters, gauges and histograms.

One process-global :class:`Metrics` registry (:func:`get_metrics`) holds
every named metric. The full catalog is pre-registered at import time
(:data:`METRIC_CATALOG`), so a snapshot always contains every metric the
library can emit — zero-valued when its subsystem never ran. The catalog
is the single source of truth for ``docs/metrics.md`` (tested in
``tests/obs/test_metrics.py``).

Thread-safety: every mutation takes the metric's own lock; registration
takes the registry lock. Reads of the registry dict are lock-free (the
dict only grows, never rebinds entries).

Cross-process collection: worker processes accumulate into their *own*
global registry; :meth:`Metrics.snapshot` / :func:`diff_snapshots` /
:meth:`Metrics.merge` move the per-chunk *delta* back to the parent (see
``repro.parallel.transport.run_chunk``). Counters merge by addition,
gauges by maximum, histograms by summing counts/sums/buckets.

Performance contract: hot per-item loops (anti-diagonal rounds of the
simulator, steady-ant recursion nodes) must NOT increment registry
metrics per item — they accumulate locally and flush once per call, or
are harvested at collection time (:func:`repro.obs.collect_machine`).
"""

from __future__ import annotations

import json
import threading
from typing import Any, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "METRIC_CATALOG",
    "get_metrics",
    "diff_snapshots",
    "inc",
    "gauge_max",
    "observe",
]


class Counter:
    """A monotonically non-decreasing integer total.

    :meth:`inc` rejects negative amounts, so a counter's value can never
    decrease — the invariant the hypothesis suite checks under chaos
    faults. Thread-safe (per-counter lock); units are whatever ``unit``
    declares (bytes, calls, rounds, ...).
    """

    kind = "counter"
    __slots__ = ("name", "unit", "subsystem", "description", "_value", "_lock")

    def __init__(self, name: str, *, unit: str = "", subsystem: str = "", description: str = ""):
        self.name = name
        self.unit = unit
        self.subsystem = subsystem
        self.description = description
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        if amount:
            with self._lock:
                self._value += amount

    @property
    def value(self) -> int:
        """Current total (lock-free read)."""
        return self._value

    def snapshot(self) -> dict:
        """JSON-ready dict of metadata + current value."""
        return {
            "kind": self.kind,
            "unit": self.unit,
            "subsystem": self.subsystem,
            "description": self.description,
            "value": self._value,
        }

    def reset(self) -> None:
        """Zero the total (test isolation; production counters only grow)."""
        with self._lock:
            self._value = 0

    def merge(self, snap: dict) -> None:
        """Fold a worker-side delta into this counter (addition)."""
        self.inc(int(snap.get("value", 0)))


class Gauge:
    """A point-in-time value; merges across workers by *maximum*.

    Used for high-water marks (peak RSS, maximum recursion depth) and
    end-of-run observations (elapsed seconds). :meth:`set` overwrites,
    :meth:`set_max` keeps the larger value. Thread-safe.
    """

    kind = "gauge"
    __slots__ = ("name", "unit", "subsystem", "description", "_value", "_lock")

    def __init__(self, name: str, *, unit: str = "", subsystem: str = "", description: str = ""):
        self.name = name
        self.unit = unit
        self.subsystem = subsystem
        self.description = description
        self._value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Overwrite the gauge with *value*."""
        with self._lock:
            self._value = value

    def set_max(self, value: float) -> None:
        """Raise the gauge to *value* if larger (high-water mark)."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        """Current value (lock-free read)."""
        return self._value

    def snapshot(self) -> dict:
        """JSON-ready dict of metadata + current value."""
        return {
            "kind": self.kind,
            "unit": self.unit,
            "subsystem": self.subsystem,
            "description": self.description,
            "value": self._value,
        }

    def reset(self) -> None:
        """Reset the gauge to zero."""
        with self._lock:
            self._value = 0.0

    def merge(self, snap: dict) -> None:
        """Fold a worker-side gauge into this one (maximum)."""
        self.set_max(float(snap.get("value", 0.0)))


class Histogram:
    """Power-of-two-bucketed distribution of observed values.

    Bucket ``k`` counts observations in ``[2^k, 2^(k+1))`` (values < 1
    land in bucket 0). Tracks count, sum, min and max exactly; the
    buckets give the shape (e.g. steady-ant multiplication orders).
    Thread-safe; merges across workers by summing counts/sums/buckets.
    """

    kind = "histogram"
    __slots__ = (
        "name", "unit", "subsystem", "description",
        "_count", "_sum", "_min", "_max", "_buckets", "_lock",
    )

    def __init__(self, name: str, *, unit: str = "", subsystem: str = "", description: str = ""):
        self.name = name
        self.unit = unit
        self.subsystem = subsystem
        self.description = description
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._buckets: dict[int, int] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _bucket(value: float) -> int:
        if value < 2.0:
            return 0
        return int(value).bit_length() - 1

    def observe(self, value: float) -> None:
        """Record one observation of *value* (in the metric's unit)."""
        b = self._bucket(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            self._buckets[b] = self._buckets.get(b, 0) + 1

    @property
    def count(self) -> int:
        """Number of observations recorded so far."""
        return self._count

    def snapshot(self) -> dict:
        """JSON-ready dict: metadata, count, sum, min, max, buckets."""
        with self._lock:
            return {
                "kind": self.kind,
                "unit": self.unit,
                "subsystem": self.subsystem,
                "description": self.description,
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "buckets": {str(k): v for k, v in sorted(self._buckets.items())},
            }

    def reset(self) -> None:
        """Clear all observations (count, sum, bounds and buckets)."""
        with self._lock:
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None
            self._buckets.clear()

    def merge(self, snap: dict) -> None:
        """Fold a worker-side histogram delta into this one."""
        with self._lock:
            self._count += int(snap.get("count", 0))
            self._sum += float(snap.get("sum", 0.0))
            for bound in ("min", "max"):
                v = snap.get(bound)
                if v is None:
                    continue
                cur = self._min if bound == "min" else self._max
                if cur is None or (v < cur if bound == "min" else v > cur):
                    if bound == "min":
                        self._min = v
                    else:
                        self._max = v
            for k, v in (snap.get("buckets") or {}).items():
                k = int(k)
                self._buckets[k] = self._buckets.get(k, 0) + int(v)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Metrics:
    """A named registry of :class:`Counter` / :class:`Gauge` /
    :class:`Histogram` instances.

    ``counter()`` / ``gauge()`` / ``histogram()`` get-or-create by name
    (re-registering with a different kind raises). :meth:`snapshot`
    returns a JSON-serializable dict; :meth:`merge` folds a snapshot
    (typically a worker delta) in; :meth:`reset` zeroes every metric but
    keeps the registrations.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}
        self._lock = threading.Lock()
        #: when True, pool-backed machines request per-chunk metric
        #: deltas from their workers (set by ``repro.obs.observed`` for
        #: the duration of a ``--metrics-out`` run)
        self.remote_collection = False

    def _get_or_create(self, cls, name: str, unit: str, subsystem: str, description: str):
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, not {cls.kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, unit=unit, subsystem=subsystem, description=description)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, not {cls.kind}"
                )
            return metric

    def counter(self, name: str, *, unit: str = "", subsystem: str = "", description: str = "") -> Counter:
        """Get or create the counter *name*."""
        return self._get_or_create(Counter, name, unit, subsystem, description)

    def gauge(self, name: str, *, unit: str = "", subsystem: str = "", description: str = "") -> Gauge:
        """Get or create the gauge *name*."""
        return self._get_or_create(Gauge, name, unit, subsystem, description)

    def histogram(self, name: str, *, unit: str = "", subsystem: str = "", description: str = "") -> Histogram:
        """Get or create the histogram *name*."""
        return self._get_or_create(Histogram, name, unit, subsystem, description)

    def get(self, name: str):
        """The metric registered under *name*, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> Iterator[str]:
        """Registered metric names, sorted."""
        return iter(sorted(self._metrics))

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment a pre-registered counter (KeyError if unknown)."""
        self._metrics[name].inc(amount)

    def snapshot(self) -> dict[str, dict]:
        """JSON-serializable state of every registered metric."""
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}

    def merge(self, snap: dict[str, dict]) -> None:
        """Fold *snap* (a :meth:`snapshot` or a :func:`diff_snapshots`
        delta, e.g. shipped back from a worker process) into this
        registry, creating any metrics it does not know yet."""
        for name, entry in snap.items():
            cls = _KINDS.get(entry.get("kind", "counter"), Counter)
            metric = self._get_or_create(
                cls, name,
                entry.get("unit", ""), entry.get("subsystem", ""), entry.get("description", ""),
            )
            metric.merge(entry)

    def reset(self) -> None:
        """Zero every metric; registrations survive."""
        for metric in list(self._metrics.values()):
            metric.reset()

    def write_json(self, path: str, *, extra: dict | None = None) -> None:
        """Write ``{"version": 1, "metrics": snapshot(), **extra}``."""
        doc = {"version": 1, "metrics": self.snapshot()}
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def diff_snapshots(after: dict[str, dict], before: dict[str, dict]) -> dict[str, dict]:
    """The per-metric delta ``after - before`` (worker-chunk accounting).

    Counters subtract values; histograms subtract counts/sums/buckets
    (min/max keep *after*'s bounds — merge-approximate); gauges keep
    *after*'s value (max-merge absorbs them correctly). Metrics absent
    from *before* pass through whole; unchanged zero counters are
    dropped to keep chunk payloads small.
    """
    delta: dict[str, dict] = {}
    for name, a in after.items():
        b = before.get(name)
        kind = a.get("kind", "counter")
        if b is None:
            delta[name] = a
            continue
        if kind == "counter":
            d = a.get("value", 0) - b.get("value", 0)
            if d:
                delta[name] = {**a, "value": d}
        elif kind == "gauge":
            if a.get("value") != b.get("value"):
                delta[name] = a
        else:  # histogram
            d_count = a.get("count", 0) - b.get("count", 0)
            if d_count:
                buckets = {
                    k: v - (b.get("buckets") or {}).get(k, 0)
                    for k, v in (a.get("buckets") or {}).items()
                }
                delta[name] = {
                    **a,
                    "count": d_count,
                    "sum": a.get("sum", 0.0) - b.get("sum", 0.0),
                    "buckets": {k: v for k, v in buckets.items() if v},
                }
    return delta


#: Every metric the library emits: (name, kind, unit, subsystem,
#: description). ``docs/metrics.md`` renders this table and the test
#: suite keeps the two in sync.
METRIC_CATALOG: tuple[tuple[str, str, str, str, str], ...] = (
    ("combing.leaf_calls", "counter", "calls", "core.combing",
     "Invocations of the vectorized iterative combing leaf (semi_antidiag_SIMD)."),
    ("combing.leaf_cells", "counter", "cells", "core.combing",
     "Grid cells combed by iterative leaves (m*n per leaf call) and kernel "
     "extensions (|block|*n each)."),
    ("combing.grid_leaves", "counter", "blocks", "core.combing",
     "Sub-block leaf combings submitted by grid combing (Listing 7)."),
    ("combing.grid_composes", "counter", "compositions", "core.combing",
     "Kernel compositions performed by the grid reduction tree."),
    ("combing.compose_order", "histogram", "strands", "core.combing",
     "Order (m+n) of each kernel composition (Theorem 3.4)."),
    ("combing.wavefront_rounds", "counter", "rounds", "core.combing",
     "Anti-diagonal rounds submitted by wavefront combing (Listing 4)."),
    ("steady_ant.multiplies", "counter", "calls", "core.steady_ant",
     "Top-level steady-ant braid multiplications (steady_ant_combined)."),
    ("steady_ant.base_case_hits", "counter", "calls", "core.steady_ant",
     "Recursion leaves answered by the precalc table (sequential switch, paper section 5.1)."),
    ("steady_ant.max_depth", "gauge", "levels", "core.steady_ant",
     "Deepest steady-ant recursion observed (high-water mark)."),
    ("steady_ant.order", "histogram", "strands", "core.steady_ant",
     "Order n of each top-level steady-ant multiplication."),
    ("steady_ant.parallel_rounds", "counter", "rounds", "core.steady_ant",
     "Parallel rounds (leaf round + combine levels) run by steady_ant_parallel (Listing 5)."),
    ("steady_ant.parallel_leaves", "counter", "tasks", "core.steady_ant",
     "Leaf sub-multiplications submitted by steady_ant_parallel."),
    ("steady_ant.precalc_builds", "counter", "tables", "core.steady_ant",
     "PrecalcTable constructions — at most one per (process, max_order) under the warm-once guard."),
    ("steady_ant.precalc_hits", "counter", "calls", "core.steady_ant",
     "get_precalc_table calls answered by the already-built shared table."),
    ("steady_ant.vectorized_multiplies", "counter", "calls", "core.steady_ant",
     "Top-level level-vectorized steady-ant multiplications (steady_ant_vectorized)."),
    ("steady_ant.vectorized_base_hits", "counter", "lanes", "core.steady_ant",
     "Recursion leaves answered by the batched dense (min,+) base kernel (lanes across all levels)."),
    ("steady_ant.vectorized_levels", "counter", "levels", "core.steady_ant",
     "Recursion levels expanded breadth-first by the vectorized steady ant."),
    ("steady_ant.vectorized_plan_builds", "counter", "plans", "core.steady_ant",
     "Cold growths of the shared index buffer behind the batched kernels (zero after warm_compute_kernels)."),
    ("compute.multi_diag_calls", "counter", "calls", "core.bitparallel",
     "Bit-parallel LCS calls served by the multi-diagonal carry-adder column sweep."),
    ("batch.pairs", "counter", "pairs", "batch",
     "String pairs accepted by the batched throughput engine."),
    ("batch.megabatches", "counter", "batches", "batch",
     "Shape-bucketed megabatches dispatched by the BatchScheduler."),
    ("batch.lanes", "histogram", "lanes", "batch",
     "Lane count (batch width B) of each dispatched megabatch."),
    ("batch.padded_cells", "counter", "cells", "batch",
     "Grid cells combed by lockstep kernels including shape-bucket padding (M*N per lane)."),
    ("batch.real_cells", "counter", "cells", "batch",
     "Real (unpadded) grid cells covered by lockstep combing (sum of m*n over lanes)."),
    ("batch.fallback_pairs", "counter", "pairs", "batch",
     "Pairs routed through the per-pair fallback path (algorithms without a lockstep kernel)."),
    ("bitparallel.calls", "counter", "calls", "core.bitparallel",
     "Bit-parallel LCS computations (sequential bit_lcs)."),
    ("bitparallel.rounds", "counter", "rounds", "core.bitparallel",
     "Block-anti-diagonal rounds run by bit_lcs_parallel."),
    ("bitparallel.blocks", "counter", "blocks", "core.bitparallel",
     "Word blocks processed by bit_lcs_parallel across all rounds."),
    ("machine.rounds", "counter", "rounds", "parallel",
     "Rounds submitted to pool-backed machines (ProcessMachine, ThreadMachine)."),
    ("machine.tasks", "counter", "tasks", "parallel",
     "Tasks submitted to pool-backed machines."),
    ("machine.rebuilds", "counter", "events", "parallel",
     "Worker-pool replacements (ProcessMachine/ThreadMachine rebuild)."),
    ("machine.elapsed_seconds", "gauge", "seconds", "parallel",
     "Machine-accounted elapsed time, harvested by collect_machine at run end."),
    ("machine.inproc_rounds", "gauge", "rounds", "parallel",
     "Rounds run by an in-process machine (Serial/Simulated), harvested by collect_machine."),
    ("machine.inproc_tasks", "gauge", "tasks", "parallel",
     "Tasks run by an in-process machine, harvested by collect_machine."),
    ("transport.bytes_shipped", "counter", "bytes", "parallel.transport",
     "Serialized bytes shipped to worker processes (exact, per chunk payload)."),
    ("transport.bytes_returned", "counter", "bytes", "parallel.transport",
     "Serialized bytes returned from worker processes."),
    ("transport.fallbacks", "counter", "events", "parallel.transport",
     "Shared-memory-to-pickle transport degradations."),
    ("transport.slab_allocs", "counter", "segments", "parallel.transport",
     "Fresh slab segments allocated by SharedArena.slab (pool misses)."),
    ("transport.slab_reuses", "counter", "segments", "parallel.transport",
     "Slab requests satisfied from the arena's free pool (no new segment)."),
    ("checkpoint.hits", "counter", "artifacts", "checkpoint",
     "Verified kernel-store reads that found a valid artifact."),
    ("checkpoint.misses", "counter", "artifacts", "checkpoint",
     "Kernel-store reads that found nothing and forced a recompute."),
    ("checkpoint.corrupt", "counter", "artifacts", "checkpoint",
     "Artifacts that failed integrity verification on read."),
    ("checkpoint.writes", "counter", "artifacts", "checkpoint",
     "Kernel artifacts durably committed."),
    ("checkpoint.bytes_written", "counter", "bytes", "checkpoint",
     "Payload bytes durably committed to the kernel store."),
    ("store.evictions", "counter", "artifacts", "checkpoint",
     "Artifacts evicted by the LRU cache mode to stay under max_bytes."),
    ("store.hit_rate", "gauge", "ratio", "checkpoint",
     "Running kernel-store hit rate (hits / lookups), exported on every lookup."),
    ("store.cache_bytes", "gauge", "bytes", "checkpoint",
     "Bytes held by a cache-mode kernel store after its last budget enforcement."),
    ("query.requests", "counter", "queries", "query",
     "Semi-local queries answered by a QueryEngine (every op, hit or miss)."),
    ("query.kernel_hits", "counter", "kernels", "query",
     "Queries answered from an already-cached kernel (memory LRU or backing store)."),
    ("query.kernel_misses", "counter", "kernels", "query",
     "Queries that had to build (or compose) the pair's kernel first."),
    ("query.kernel_builds", "counter", "kernels", "query",
     "Fresh semi-local kernels combed on behalf of the query tier."),
    ("query.appends", "counter", "kernels", "query",
     "Extended kernels produced by resuming a cached kernel's comb through an appended "
     "block instead of a recompute."),
    ("query.prepends", "counter", "kernels", "query",
     "Extended kernels produced by resuming a cached kernel's comb through a prepended "
     "block (via the reversal identity) instead of a recompute."),
    ("kernel.counter_builds", "counter", "structures", "core.kernel",
     "Dominance-counting structures constructed from scratch (a store hit that "
     "ships a persisted counter skips this)."),
    ("kernel.probe_batches", "counter", "batches", "core.kernel",
     "Batched dominance probes (count_many calls) answered by semi-local kernels."),
    ("kernel.probes", "counter", "probes", "core.kernel",
     "Individual dominance counts answered through batched count_many probes."),
    ("resilience.retries", "counter", "attempts", "parallel.resilient",
     "Per-task re-executions after a failed round."),
    ("resilience.task_failures", "counter", "events", "parallel.resilient",
     "Task/round failures observed by the resilience layer."),
    ("resilience.timeouts", "counter", "events", "parallel.resilient",
     "Task attempts lost to the fault policy's timeout."),
    ("resilience.recovered_rounds", "counter", "rounds", "parallel.resilient",
     "Rounds completed via per-task recovery after an initial failure."),
    ("resilience.degraded_rounds", "counter", "rounds", "parallel.resilient",
     "Rounds that fell back to serial execution."),
    ("resilience.pool_rebuilds", "counter", "events", "parallel.resilient",
     "Broken worker pools replaced before retrying."),
    ("resilience.durable_recoveries", "counter", "tasks", "parallel.resilient",
     "Failed tasks recovered from the durable checkpoint ledger instead of recomputed."),
    ("chaos.injected_failures", "counter", "events", "parallel.chaos",
     "Task failures injected by ChaosMachine."),
    ("chaos.injected_crashes", "counter", "events", "parallel.chaos",
     "Simulated worker crashes injected by ChaosMachine."),
    ("chaos.injected_delays", "counter", "events", "parallel.chaos",
     "Task stalls injected by ChaosMachine."),
    ("process.peak_rss_bytes", "gauge", "bytes", "obs.profile",
     "Peak resident set size of this process (high-water mark, ru_maxrss)."),
    ("serve.requests", "counter", "requests", "serve",
     "Protocol requests received by the batching daemon (every type, before admission)."),
    ("serve.admitted", "counter", "requests", "serve",
     "Scoring requests accepted into the bounded admission queue."),
    ("serve.shed", "counter", "requests", "serve",
     "Requests answered with the structured 'overloaded' error because the admission queue was full."),
    ("serve.quota_rejected", "counter", "requests", "serve",
     "Requests answered with 'quota_exhausted' by the per-client token bucket."),
    ("serve.deadline_expired", "counter", "requests", "serve",
     "Admitted requests whose deadline passed while queued (answered, never computed)."),
    ("serve.drained", "counter", "requests", "serve",
     "Accepted requests completed after a graceful drain began (the zero-drop guarantee, counted)."),
    ("serve.batches", "counter", "batches", "serve",
     "Continuous-batching flushes dispatched to the warm engine."),
    ("serve.queue_depth", "gauge", "requests", "serve",
     "Admission queue depth, sampled at every enqueue and flush."),
    ("serve.batch_occupancy", "histogram", "requests", "serve",
     "Requests coalesced into each continuous-batching flush (occupancy > 1 means batching pays)."),
    ("serve.query_requests", "counter", "requests", "serve",
     "Semi-local 'query' requests received by the daemon."),
    ("serve.query_hits", "counter", "requests", "serve",
     "Query requests answered from a cached kernel, bypassing the batcher entirely."),
    ("serve.query_misses", "counter", "requests", "serve",
     "Query requests whose kernel build rode a continuous-batching flush."),
)


def _register_catalog(metrics: "Metrics") -> None:
    for name, kind, unit, subsystem, description in METRIC_CATALOG:
        getattr(metrics, kind)(name, unit=unit, subsystem=subsystem, description=description)


_GLOBAL = Metrics()
_register_catalog(_GLOBAL)


def get_metrics() -> Metrics:
    """The process-global registry (workers each have their own)."""
    return _GLOBAL


def inc(name: str, amount: int = 1) -> None:
    """Increment a cataloged counter on the global registry."""
    _GLOBAL.inc(name, amount)


def gauge_max(name: str, value: float) -> None:
    """Raise a cataloged gauge's high-water mark on the global registry."""
    _GLOBAL._metrics[name].set_max(value)


def observe(name: str, value: float) -> None:
    """Record *value* in a cataloged histogram on the global registry."""
    _GLOBAL._metrics[name].observe(value)
