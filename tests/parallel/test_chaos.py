"""Tests for the deterministic chaos fault injector."""

import pytest

from repro.errors import BackendError, WorkerCrashError
from repro.parallel import ChaosError, ChaosMachine, SerialMachine


def const(value):
    return (lambda: value, (), {})


def _run_many(machine, rounds=30, tasks=4):
    """Drive *machine* through identical rounds, recording outcomes."""
    outcomes = []
    for r in range(rounds):
        try:
            machine.run_round([const(k) for k in range(tasks)])
            outcomes.append("ok")
        except ChaosError as exc:
            outcomes.append(f"fail@{exc.task_index}")
        except WorkerCrashError as exc:
            outcomes.append(f"crash@{exc.task_index}")
    return outcomes


class TestDeterminism:
    def test_same_seed_same_faults(self):
        a = ChaosMachine(SerialMachine(), fail_rate=0.3, crash_rate=0.1, seed=42)
        b = ChaosMachine(SerialMachine(), fail_rate=0.3, crash_rate=0.1, seed=42)
        assert _run_many(a) == _run_many(b)
        assert a.fault_log == b.fault_log
        assert a.injected_failures == b.injected_failures
        assert a.injected_crashes == b.injected_crashes

    def test_different_seed_different_faults(self):
        a = ChaosMachine(SerialMachine(), fail_rate=0.3, seed=1)
        b = ChaosMachine(SerialMachine(), fail_rate=0.3, seed=2)
        assert _run_many(a, rounds=50) != _run_many(b, rounds=50)

    def test_zero_rates_inject_nothing(self):
        m = ChaosMachine(SerialMachine(), seed=0)
        assert _run_many(m) == ["ok"] * 30
        assert m.fault_log == []

    def test_retry_consumes_fresh_draws(self):
        """Re-executing through the machine draws fresh randomness:
        faults are transient, like real stragglers."""
        m = ChaosMachine(SerialMachine(), fail_rate=0.5, seed=0)
        successes = failures = 0
        for _ in range(100):
            try:
                assert m.run_round([const("done")]) == ["done"]
                successes += 1
            except ChaosError:
                failures += 1
        assert successes > 0 and failures > 0


class TestFaultKinds:
    def test_injected_failure_is_backend_error(self):
        m = ChaosMachine(SerialMachine(), fail_rate=1.0, seed=0)
        with pytest.raises(BackendError):
            m.run_round([const(1)])

    def test_injected_crash_is_worker_crash(self):
        m = ChaosMachine(SerialMachine(), crash_rate=1.0, seed=0)
        with pytest.raises(WorkerCrashError):
            m.run_round([const(1)])

    def test_fault_preempts_task(self):
        """The injected fault fires instead of the task: no half-applied
        work on a faulted task."""
        ran = []
        m = ChaosMachine(SerialMachine(), fail_rate=1.0, seed=0)
        with pytest.raises(ChaosError):
            m.run_round([(ran.append, (1,), {})])
        assert ran == []

    def test_delay_injection(self):
        m = ChaosMachine(SerialMachine(), delay_rate=1.0, delay=0.001, seed=0)
        assert m.run_round([const(5)]) == [5]
        assert m.injected_delays == 1

    def test_uniform_round_and_serial_are_faultable(self):
        # an items round, and a one-task round (a sequential section)
        m = ChaosMachine(SerialMachine(), fail_rate=1.0, seed=0)
        with pytest.raises(ChaosError):
            m.run_round([const(1)], items=[3])
        with pytest.raises(ChaosError):
            m.run_round([const(1)])

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ChaosMachine(fail_rate=1.5)
        with pytest.raises(ValueError):
            ChaosMachine(fail_rate=0.7, crash_rate=0.7)


class TestDelegation:
    def test_results_and_accounting_pass_through(self):
        m = ChaosMachine(SerialMachine(), seed=0)
        assert m.run_round([const(2), const(3)]) == [2, 3]
        assert m.elapsed > 0
        m.reset()
        assert m.elapsed == 0
        assert m.workers == 1
