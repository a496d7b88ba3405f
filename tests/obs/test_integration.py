"""Observability across process boundaries and under fault injection.

Covers the cross-process span protocol (worker ``worker.chunk`` spans
re-parent under the submitting round, worker metric deltas merge into
the parent exactly once), the rebuild counter-carry guarantees of
``ChaosMachine`` / ``ResilientMachine``, and a hypothesis property that
every registered counter stays non-negative and monotone while a
chaos-injected machine fails and retries.
"""

from __future__ import annotations

import contextlib
import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BackendError, DegradedExecutionWarning
from repro.obs import get_metrics, get_tracer
from repro.parallel import (
    ChaosMachine,
    FaultPolicy,
    ProcessMachine,
    ResilientMachine,
    SerialMachine,
)

NO_SLEEP = dict(sleep=lambda s: None)
FAST = dict(backoff_base=0.0, jitter=0.0)


@pytest.fixture
def obs_on():
    """Enable the global tracer + remote metric collection; restore after."""
    tracer = get_tracer()
    metrics = get_metrics()
    tracer.reset()
    tracer.enabled = True
    prev = metrics.remote_collection
    metrics.remote_collection = True
    metrics.reset()
    yield tracer, metrics
    tracer.enabled = False
    tracer.reset()
    metrics.remote_collection = prev
    metrics.reset()


def _identity(x):
    return x


def _observed_leaf(x):
    """Worker-side task: bumps a counter so the delta must ship home."""
    get_metrics().counter("obs_test.leaf_calls").inc(1)
    return x * 2


class TestCrossProcess:
    def test_worker_spans_reparent_and_deltas_merge_once(self, obs_on):
        tracer, metrics = obs_on
        specs = [(_observed_leaf, (i,), {}) for i in range(4)]
        with ProcessMachine(workers=2) as machine:
            assert machine.run_round(specs) == [0, 2, 4, 6]
            # second round on the same (reused) workers: the worker-side
            # counter keeps its old value, so only snapshot *deltas* keep
            # the parent total honest
            assert machine.run_round(specs) == [0, 2, 4, 6]

        events = tracer.events()
        rounds = [e for e in events if e["name"] == "machine.round"]
        assert len(rounds) == 2
        chunks = [e for e in events if e["name"] == "worker.chunk"]
        assert chunks
        round_ids = {e["id"] for e in rounds}
        for chunk in chunks:
            assert chunk["pid"] != os.getpid()
            assert chunk["parent"] in round_ids
        assert metrics.get("obs_test.leaf_calls").value == 8

    def test_unobserved_round_adopts_nothing(self):
        tracer = get_tracer()
        tracer.reset()
        specs = [(_observed_leaf, (i,), {}) for i in range(2)]
        with ProcessMachine(workers=1) as machine:
            assert machine.run_round(specs) == [0, 2]
        assert tracer.events() == []


class TestRebuildCounterCarry:
    def test_chaos_counters_survive_rebuild(self):
        m = ChaosMachine(SerialMachine(), fail_rate=1.0, seed=0)
        with pytest.raises(BackendError):
            m.run_round([(lambda: 1, (), {})])
        assert m.injected_failures == 1
        log = list(m.fault_log)
        inner_rounds = m.inner.rounds
        m.rebuild()
        assert m.injected_failures == 1
        assert m.fault_log == log
        assert m.inner.rounds == inner_rounds

    def test_resilient_rebuild_keeps_history_and_counts_event(self):
        m = ResilientMachine(
            ChaosMachine(SerialMachine(), fail_rate=0.5, seed=3),
            FaultPolicy(max_retries=5, **FAST),
            **NO_SLEEP,
        )
        assert m.run_round([(_identity, (k,), {}) for k in range(8)]) == list(range(8))
        health = m.health()
        inner_failures = m.inner.injected_failures
        m.rebuild()
        after = m.health()
        assert after["pool_rebuilds"] == health["pool_rebuilds"] + 1
        assert after["retries"] == health["retries"]
        assert after["task_failures"] == health["task_failures"]
        assert m.inner.injected_failures == inner_failures


@settings(max_examples=20, deadline=None)
@given(
    fail_rate=st.floats(0.0, 0.6),
    crash_rate=st.floats(0.0, 0.3),
    seed=st.integers(0, 1000),
)
def test_counters_nonnegative_and_monotone_under_chaos(fail_rate, crash_rate, seed):
    """Counters only ever go up, fault or no fault."""
    metrics = get_metrics()
    metrics.reset()
    machine = ResilientMachine(
        ChaosMachine(SerialMachine(), fail_rate=fail_rate, crash_rate=crash_rate, seed=seed),
        FaultPolicy(max_retries=4, **FAST),
        **NO_SLEEP,
    )
    prev: dict[str, float] = {}
    for _ in range(5):
        with contextlib.suppress(Exception), warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecutionWarning)
            machine.run_round([(_identity, (k,), {}) for k in range(4)])  # failures are fine
        snapshot = metrics.snapshot()
        for name, payload in snapshot.items():
            if metrics.get(name).kind != "counter":
                continue
            value = payload["value"]
            assert value >= 0, name
            assert value >= prev.get(name, 0), name
            prev[name] = value
    metrics.reset()
