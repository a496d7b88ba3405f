"""Tests for the fault-tolerance layer: FaultPolicy, ResilientMachine,
and the acceptance scenarios from the paper call sites."""

import random
import warnings

import numpy as np
import pytest

from repro.core.combing.iterative import iterative_combing_antidiag_simd
from repro.core.combing.parallel import (
    parallel_hybrid_combing_grid,
    parallel_iterative_combing,
    parallel_load_balanced_combing,
)
from repro.core.dist_matrix import sticky_multiply_dense
from repro.core.steady_ant.parallel import steady_ant_parallel
from repro.errors import (
    DegradedExecutionWarning,
    RoundFailedError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.parallel import (
    ChaosMachine,
    FaultPolicy,
    Machine,
    ResilientMachine,
    SerialMachine,
    make_machine,
)

NO_SLEEP = dict(sleep=lambda s: None)
FAST = dict(backoff_base=0.0, jitter=0.0)


def const(value):
    return (lambda: value, (), {})


def call(fn):
    return (fn, (), {})


def chaotic(policy=None, **chaos):
    """ResilientMachine over a seeded ChaosMachine over SerialMachine."""
    chaos.setdefault("seed", 0)
    return ResilientMachine(
        ChaosMachine(SerialMachine(), **chaos),
        policy or FaultPolicy(max_retries=3, **FAST),
        **NO_SLEEP,
    )


class TestFaultPolicy:
    def test_backoff_is_exponential_and_capped(self):
        p = FaultPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5, jitter=0.0)
        assert p.backoff_delay(1) == pytest.approx(0.1)
        assert p.backoff_delay(2) == pytest.approx(0.2)
        assert p.backoff_delay(3) == pytest.approx(0.4)
        assert p.backoff_delay(4) == pytest.approx(0.5)  # capped
        assert p.backoff_delay(10) == pytest.approx(0.5)

    def test_jitter_bounded_and_deterministic(self):
        p = FaultPolicy(backoff_base=0.1, jitter=0.5)
        delays = [p.backoff_delay(1, random.Random(7)) for _ in range(20)]
        assert len(set(delays)) == 1  # same rng state -> same delay
        rng = random.Random(7)
        spread = [p.backoff_delay(1, rng) for _ in range(200)]
        assert all(0.05 <= d <= 0.15 for d in spread)
        assert max(spread) > 0.1 > min(spread)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(task_timeout=0)
        with pytest.raises(ValueError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            FaultPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            FaultPolicy(max_round_failures=0)

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            FaultPolicy().backoff_delay(0)


class TestProtocolConformance:
    def test_satisfies_machine_protocol(self):
        m = ResilientMachine(SerialMachine())
        assert isinstance(m, Machine)
        assert m.workers == 1

    def test_transparent_when_healthy(self):
        m = ResilientMachine(SerialMachine())
        assert m.run_round([const(1), const(2)]) == [1, 2]
        assert m.run_round([const(3)], items=[2]) == [3]
        assert m.run_round([const(4)]) == [4]
        assert m.run_round([(int, ("5",), {})]) == [5]
        assert m.elapsed > 0
        assert m.health()["task_failures"] == 0
        m.reset()
        assert m.elapsed == 0


class TestRetries:
    def test_transient_failures_recovered(self):
        m = chaotic(fail_rate=0.4, seed=3)
        out = m.run_round([const(k) for k in range(20)])
        assert out == list(range(20))
        assert m.retries > 0
        assert m.recovered_rounds >= 1
        assert m.degraded_rounds == 0

    def test_completed_tasks_not_reexecuted(self):
        """Exactly-once: tasks that finished in the failed round attempt
        are spliced from the capture ledger, not re-run."""
        counts = [0] * 6
        m = chaotic(fail_rate=0.5, seed=1)

        def bump(k):
            counts[k] += 1
            return k

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecutionWarning)
            out = m.run_round([(bump, (k,), {}) for k in range(6)])
        assert out == list(range(6))
        assert max(counts) == 1  # nothing double-applied

    def test_permanent_failure_raises_when_degradation_disabled(self):
        m = chaotic(
            policy=FaultPolicy(max_retries=2, degrade_to_serial=False, **FAST),
            crash_rate=1.0,
        )
        with pytest.raises(RoundFailedError):
            m.run_round([const(1)])

    def test_retries_disabled_degradation_disabled(self):
        m = chaotic(
            policy=FaultPolicy(max_retries=0, degrade_to_serial=False, **FAST),
            fail_rate=1.0,
        )
        with pytest.raises(RoundFailedError):
            m.run_round([const(1)])

    def test_backoff_sleeps_are_called(self):
        slept = []
        m = ResilientMachine(
            ChaosMachine(SerialMachine(), fail_rate=1.0, seed=0),
            FaultPolicy(max_retries=2, backoff_base=0.25, backoff_factor=2.0, jitter=0.0),
            sleep=slept.append,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecutionWarning)
            m.run_round([const(1)])
        assert slept == [0.25, 0.5]


class TestDegradation:
    def test_poisoned_round_falls_back_and_warns_once(self):
        """Acceptance: retries disabled + degradation enabled -> serial
        fallback, DegradedExecutionWarning exactly once."""
        m = chaotic(policy=FaultPolicy(max_retries=0, **FAST), fail_rate=1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(5):
                assert m.run_round([const(1), const(2)]) == [1, 2]
        degraded = [w for w in caught if issubclass(w.category, DegradedExecutionWarning)]
        assert len(degraded) == 1
        assert m.degraded_rounds >= 1

    def test_permanent_degradation_after_threshold(self):
        m = chaotic(
            policy=FaultPolicy(max_retries=0, max_round_failures=2, **FAST),
            fail_rate=1.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecutionWarning)
            m.run_round([const(1)])
            assert not m.permanently_degraded
            m.run_round([const(2)])
        assert m.permanently_degraded
        # subsequent rounds run serially and still return results
        assert m.run_round([const(3)]) == [3]
        assert m.health()["permanently_degraded"] is True

    def test_degraded_serial_bypasses_faulty_backend(self):
        """Even a 100%-failing backend completes via the serial ladder."""
        m = chaotic(policy=FaultPolicy(max_retries=1, **FAST), crash_rate=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecutionWarning)
            assert m.run_round([const("s")]) == ["s"]
            assert m.run_round([const("u")], items=[4]) == ["u"]

    def test_genuine_task_error_resurfaces_through_degradation(self):
        """A deterministic task bug is not masked: the serial fallback
        re-raises it unchanged."""

        def boom():
            raise ZeroDivisionError("task bug")

        m = ResilientMachine(SerialMachine(), FaultPolicy(max_retries=1, **FAST), **NO_SLEEP)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecutionWarning)
            with pytest.raises(ZeroDivisionError):
                m.run_round([call(boom)])


class TestHealthMetrics:
    def test_health_counters_match_metric_deltas(self):
        """Every fault counted in health() reaches its resilience.*
        metric, the failed retry attempts included."""
        from repro.obs import get_metrics

        metrics = get_metrics()
        m = chaotic(policy=FaultPolicy(max_retries=5, **FAST), fail_rate=0.5, seed=3)
        names = [k for k in m.health() if k != "permanently_degraded"]
        before = {k: metrics.get(f"resilience.{k}").value for k in names}
        assert m.run_round([const(k) for k in range(8)]) == list(range(8))
        health = m.health()
        assert health["task_failures"] > 1  # retries failed too
        for k in names:
            assert metrics.get(f"resilience.{k}").value - before[k] == health[k], k


class TestTimeouts:
    def test_posthoc_timeout_detected_on_inprocess_machine(self):
        """A retried task that overruns the timeout counts as failed even
        on machines that cannot preempt it."""
        import time

        calls = {"n": 0}

        def flaky_slow():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            time.sleep(0.02)
            return 9

        m = ResilientMachine(
            SerialMachine(),
            FaultPolicy(max_retries=2, task_timeout=0.005, **FAST),
            **NO_SLEEP,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecutionWarning)
            assert m.run_round([call(flaky_slow)]) == [9]
        assert m.timeouts >= 1


class TestMakeMachine:
    def test_kinds(self):
        from repro.parallel import ProcessMachine, SimulatedMachine, ThreadMachine

        assert isinstance(make_machine("serial"), SerialMachine)
        assert isinstance(make_machine("simulated", workers=4), SimulatedMachine)
        with make_machine("threads", workers=2) as m:
            assert isinstance(m, ThreadMachine)
        with make_machine("processes", workers=1) as m:
            assert isinstance(m, ProcessMachine)

    def test_unknown_kind(self):
        from repro.errors import BackendError

        with pytest.raises(BackendError):
            make_machine("quantum")

    def test_wrapping_order(self):
        m = make_machine(
            "serial",
            policy=FaultPolicy(max_retries=1),
            chaos={"fail_rate": 0.1, "seed": 3},
        )
        assert isinstance(m, ResilientMachine)
        assert isinstance(m.inner, ChaosMachine)
        assert isinstance(m.inner.inner, SerialMachine)

    def test_policy_true_uses_defaults(self):
        m = make_machine("serial", policy=True)
        assert isinstance(m, ResilientMachine)
        assert m.policy == FaultPolicy()


class TestAcceptanceScenarios:
    """The ISSUE's acceptance criteria, verbatim."""

    def test_steady_ant_bit_identical_under_20pct_chaos(self, rng):
        p, q = rng.permutation(100), rng.permutation(100)
        want = sticky_multiply_dense(p, q)
        m = chaotic(fail_rate=0.2, seed=11)
        got = steady_ant_parallel(p, q, machine=m, depth=3)
        assert np.array_equal(got, want)
        assert m.task_failures > 0  # chaos actually fired

    def test_hybrid_combing_bit_identical_under_20pct_chaos(self, rng):
        a = rng.integers(0, 4, size=90)
        b = rng.integers(0, 4, size=110)
        want = iterative_combing_antidiag_simd(a, b)
        m = chaotic(fail_rate=0.2, seed=13)
        got = parallel_hybrid_combing_grid(a, b, m, n_tasks=8)
        assert np.array_equal(got, want)
        assert m.task_failures > 0

    def test_mutating_combing_survives_chaos_via_exactly_once(self, rng):
        """The in-place anti-diagonal kernels also survive injected
        faults thanks to the capture ledger."""
        a = rng.integers(0, 3, size=40)
        b = rng.integers(0, 3, size=55)
        want = iterative_combing_antidiag_simd(a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecutionWarning)
            got1 = parallel_iterative_combing(a, b, chaotic(fail_rate=0.2, seed=5))
            got2 = parallel_load_balanced_combing(a, b, chaotic(fail_rate=0.2, seed=7))
        assert np.array_equal(got1, want)
        assert np.array_equal(got2, want)


class TestCloseIdempotence:
    class _CountingClose(Machine):
        workers = 1

        def __init__(self):
            self.closes = 0
            self.rebuilds = 0

        def run_round(self, specs, *, items=None):
            return [fn(*a, **kw) for fn, a, kw in specs]

        def close(self):
            self.closes += 1

        def rebuild(self):
            self.rebuilds += 1
            return True

    def test_double_close_tears_down_once(self):
        """A signal handler's close racing a finally block's must not
        double-free the backend (double-SIGTERM delivery)."""
        inner = self._CountingClose()
        m = ResilientMachine(inner, FaultPolicy(**FAST), **NO_SLEEP)
        m.close()
        m.close()
        assert inner.closes == 1

    def test_concurrent_close_from_threads(self):
        import threading

        inner = self._CountingClose()
        m = ResilientMachine(inner, FaultPolicy(**FAST), **NO_SLEEP)
        threads = [threading.Thread(target=m.close) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert inner.closes == 1

    def test_rebuild_revives_a_closed_machine(self):
        """Mid-round pool rebuild after a close must let the eventual
        close tear the fresh pool down (no leak)."""
        inner = self._CountingClose()
        m = ResilientMachine(inner, FaultPolicy(**FAST), **NO_SLEEP)
        m.close()
        m.rebuild()
        assert inner.rebuilds == 1
        m.close()
        assert inner.closes == 2


class TestRebuildCounting:
    def test_no_pool_rebuild_is_not_counted(self):
        """A crash on a machine without workers is retried, but no pool
        rebuild is reported: there is no pool to replace."""
        crashed = []

        def crash_once():
            if not crashed:
                crashed.append(1)
                raise WorkerCrashError("worker died")
            return "ok"

        m = ResilientMachine(SerialMachine(), FaultPolicy(max_retries=2, **FAST), **NO_SLEEP)
        assert m.run_round([call(crash_once)]) == ["ok"]
        assert m.rebuild() is False
        assert m.health()["pool_rebuilds"] == 0
        assert m.health()["task_failures"] == 1

    def test_pool_rebuild_is_counted(self):
        from repro.parallel import ThreadMachine

        with ThreadMachine(workers=2) as inner:
            m = ResilientMachine(inner, FaultPolicy(**FAST), **NO_SLEEP)
            assert m.rebuild() is True
            assert m.run_round([const(3)]) == [3]
        assert m.health()["pool_rebuilds"] == 1


class TestProcessBackendRecovery:
    def test_crash_recovery_with_pool_rebuild(self, tmp_path):
        """A worker that dies once is retried on a rebuilt pool."""
        from repro.parallel import ProcessMachine

        flag = tmp_path / "crashed-once"
        with ProcessMachine(workers=2) as inner:
            m = ResilientMachine(inner, FaultPolicy(max_retries=2, **FAST), **NO_SLEEP)
            out = m.run_round([(_crash_once, (str(flag),), {}), (_identity, (7,), {})])
        assert out == ["survived", 7]
        assert m.pool_rebuilds >= 1
        assert m.health()["task_failures"] >= 1


def _crash_once(flag_path):
    """Kill the worker the first time, succeed afterwards (module-level:
    must be picklable)."""
    import os
    import pathlib
    import signal

    flag = pathlib.Path(flag_path)
    if not flag.exists():
        flag.write_text("x")
        os.kill(os.getpid(), signal.SIGKILL)
    return "survived"


def _identity(x):
    return x
