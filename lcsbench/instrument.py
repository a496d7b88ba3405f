"""Benchmark-side spans around the layers' public entry points.

:func:`install` wraps entry points of the program with spans recorded in
the library's own tracer (``cat="bench"``). A wrapper costs one
attribute check while the tracer is off, so an untraced run is not
instrumented at all: the benchmark calls :func:`install` only in traced
runs. Span names pick the layer (see ``spans.py``).
"""

from __future__ import annotations

import functools
import hashlib
import json


def request_key(op: str, a: str, b: str, params: dict | None = None) -> str:
    """Content key of one query (or of one scored pair, ``op="score"``):
    ties a client request to the engine spans that answered it."""
    h = hashlib.blake2b(digest_size=8)
    h.update(json.dumps([op, a, b, params or {}], sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def _wrap(owner, attr: str, name: str, args_of=None, after=None) -> None:
    from repro.obs import get_tracer

    fn = getattr(owner, attr)
    if getattr(fn, "_lcsbench_span", None):
        return
    tracer = get_tracer()

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span_args = args_of(*args, **kwargs) if args_of is not None else None
        with tracer.span(name, cat="bench", args=span_args) as event:
            out = fn(*args, **kwargs)
            if after is not None:
                after(event, out)
            return out

    wrapper._lcsbench_span = name
    setattr(owner, attr, wrapper)


def _counter_kind(event, counter) -> None:
    event["args"]["kind"] = getattr(counter, "kind", "?")
    event["args"]["order"] = int(counter.n)


def _probe_count(n_of):
    def args_of(self, i, j):
        return {"n": n_of(i)}

    return args_of


def install(*, serve: bool = False) -> None:
    """Wrap the entry points the traced runs attribute time to.

    Always: the batch scheduler (``batch.scheduler``), dominance-counter
    construction (``kernel.counter_build``, with the kind built) and
    probes (``kernel.probe``). With *serve*
    also the daemon-side layers: the engine's request paths
    (``engine.*``, tagged with :func:`request_key` of every request they
    answer), the query tier (``query.kernel``, ``query.answer``, and the
    encoding and key hashing of every lookup), the kernel store
    (``store.get``, ``store.put``).
    """
    import numpy as np

    from repro.batch import BatchScheduler
    from repro.core import dominance, kernel

    _wrap(BatchScheduler, "run", "batch.scheduler")
    _wrap(kernel, "make_counter", "kernel.counter_build", after=_counter_kind)
    for cls in (dominance.DenseCounter, dominance.DominanceCounter, dominance.WaveletCounter):
        _wrap(cls, "count", "kernel.probe", _probe_count(lambda i: 1))
        _wrap(cls, "count_many", "kernel.probe", _probe_count(lambda i: int(np.size(i))))
    if not serve:
        return

    from repro.checkpoint import store
    from repro.query import engine as query_engine
    from repro.serve import Engine

    def query_keys(self, op, a, b, params):
        return {"keys": [request_key(op, a, b, params)]}

    def batch_keys(self, items):
        return {"keys": [request_key(op, a, b, params) for op, a, b, params in items]}

    def score_keys(self, pairs):
        return {"keys": [request_key("score", a, b) for a, b in pairs]}

    _wrap(Engine, "query_cached", "engine.query_cached", query_keys)
    _wrap(Engine, "run_query", "engine.run_query", query_keys)
    _wrap(Engine, "run_query_batch", "engine.run_query_batch", batch_keys)
    _wrap(Engine, "scores", "engine.scores", score_keys)
    _wrap(query_engine.QueryEngine, "kernel", "query.kernel")
    _wrap(
        query_engine.QueryEngine, "answer", "query.answer",
        lambda self, op, a, b, **params: {"op": op},
    )
    _wrap(query_engine, "encode", "query.key.encode")
    _wrap(store, "kernel_key", "query.key.hash")
    _wrap(store.KernelStore, "get_with_counter", "store.get")
    _wrap(store.KernelStore, "put", "store.put")
