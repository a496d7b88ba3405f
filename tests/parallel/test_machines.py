"""Tests for the serial / thread / process machines."""

import glob
import threading
import time

import numpy as np
import pytest

from repro.errors import BackendError, TaskTimeoutError
from repro.parallel import (
    Machine,
    ProcessMachine,
    SerialMachine,
    SimulatedMachine,
    ThreadMachine,
    shared_memory_available,
)


def _square(x):
    return x * x


def _const(x):
    return x


def _raise(msg):
    raise ValueError(msg)


def _sleep_and_return(seconds, value):
    time.sleep(seconds)
    return value


class TestSerialMachine:
    def test_round_results(self):
        m = SerialMachine()
        assert m.run_round([(_const, (1,), {}), (_const, ("a",), {})]) == [1, "a"]
        assert m.rounds == 1 and m.tasks == 2

    def test_elapsed_accumulates(self):
        m = SerialMachine()
        m.run_round([(sum, (range(1000),), {})])
        assert m.elapsed > 0
        m.reset()
        assert m.elapsed == 0

    def test_protocol_conformance(self):
        assert isinstance(SerialMachine(), Machine)
        assert isinstance(SimulatedMachine(workers=2), Machine)


class TestThreadMachine:
    def test_round_results_ordered(self):
        with ThreadMachine(workers=3) as m:
            out = m.run_round([(_const, (k,), {}) for k in range(7)])
        assert out == list(range(7))

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ThreadMachine(workers=0)


class TestProcessMachine:
    def test_round_spec(self):
        with ProcessMachine(workers=2) as m:
            out = m.run_round([(_square, (k,), {}) for k in range(5)])
        assert out == [0, 1, 4, 9, 16]

    def test_numpy_payload(self):
        with ProcessMachine(workers=2) as m:
            out = m.run_round([(np.sum, (np.arange(10),), {})])
        assert out == [45]

    def test_accounting(self):
        with ProcessMachine(workers=2) as m:
            m.run_round([(_square, (2,), {})])
            assert m.rounds == 1 and m.tasks == 1 and m.elapsed > 0

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ProcessMachine(workers=0)


class TestProcessMachineFailureSemantics:
    def test_task_error_cancels_siblings_and_carries_index(self):
        with ProcessMachine(workers=1) as m:
            futures_after = []
            with pytest.raises(ValueError) as info:
                # one worker: the failing first task guarantees pending siblings
                m.run_round(
                    [(_raise, ("boom",), {})]
                    + [(_sleep_and_return, (0.2, k), {}) for k in range(6)]
                )
            notes = getattr(info.value, "__notes__", [])
        assert any("task 0" in n for n in notes)

    def test_timeout_raises_task_timeout_error(self):
        with ProcessMachine(workers=1) as m:
            with pytest.raises(TaskTimeoutError) as info:
                m.run_round([(_sleep_and_return, (5.0, 1), {})], timeout=0.2)
            assert info.value.task_index == 0

    def test_timeout_names_tasks_not_chunks(self):
        # one future per spec: the late fourth spec is named exactly
        with ProcessMachine(workers=1) as m:
            with pytest.raises(TaskTimeoutError) as info:
                m.run_round(
                    [(_sleep_and_return, (0.0, k), {}) for k in range(3)]
                    + [(_sleep_and_return, (1.0, 3), {})],
                    timeout=0.5,
                )
            assert info.value.task_index == 3
            assert "task 3" in str(info.value)
        with ProcessMachine(workers=1) as m:
            with pytest.raises(TaskTimeoutError) as info:
                m.run_round(
                    [(_sleep_and_return, (0.0, k), {}) for k in range(2)]
                    + [(_sleep_and_return, (1.0, 2), {})],
                    timeout=0.5,
                )
            assert info.value.task_index == 2

    @pytest.mark.skipif(not shared_memory_available(), reason="no shared memory")
    def test_close_after_timeout_terminates_the_late_task(self):
        """A timed-out task still holds its worker: close (and rebuild)
        must not wait the 5 s for it, nor leave its segments behind."""
        before = set(glob.glob("/dev/shm/repro*"))
        m = ProcessMachine(workers=1, transport="shm")
        try:
            late = (_sleep_and_return, (5.0, np.arange(100_000)), {})
            with pytest.raises(TaskTimeoutError):
                m.run_round([late], timeout=0.2)
            start = time.monotonic()
            m.rebuild()
            assert time.monotonic() - start < 1.0
            assert m.run_round([(_square, (3,), {})]) == [9]
            with pytest.raises(TaskTimeoutError):
                m.run_round([late], timeout=0.2)
        finally:
            start = time.monotonic()
            m.close()
        assert time.monotonic() - start < 1.0
        assert set(glob.glob("/dev/shm/repro*")) - before == set()

    def test_close_is_idempotent_and_closed_machine_errors(self):
        m = ProcessMachine(workers=1)
        m.close()
        m.close()  # second close must not raise
        with pytest.raises(BackendError):
            m.run_round([(_square, (2,), {})])

    def test_rebuild_gives_fresh_pool(self):
        m = ProcessMachine(workers=1)
        m.close()
        m.rebuild()
        try:
            assert m.run_round([(_square, (3,), {})]) == [9]
        finally:
            m.close()


class TestThreadMachineFailureSemantics:
    def test_timeout(self):
        with ThreadMachine(workers=1) as m:
            with pytest.raises(TaskTimeoutError):
                m.run_round([(time.sleep, (5,), {})], timeout=0.1)

    def test_timeout_is_a_round_deadline_not_per_task(self):
        """4 x 0.12s tasks on 1 worker: each individual wait stays under a
        0.25s timeout, but the round as a whole cannot — per-task
        sequential timeouts would (wrongly) let this pass."""
        with ThreadMachine(workers=1) as m:
            start = time.monotonic()
            with pytest.raises(TaskTimeoutError):
                m.run_round([(time.sleep, (0.12,), {})] * 4, timeout=0.25)
            # and it must trip at the deadline, not after 4 x 0.25s
            assert time.monotonic() - start < 1.0

    def test_close_after_timeout_does_not_wait_for_the_late_task(self):
        release = threading.Event()
        m = ThreadMachine(workers=1)
        try:
            with pytest.raises(TaskTimeoutError):
                m.run_round([(release.wait, (5,), {})], timeout=0.1)
            start = time.monotonic()
            m.close()
            assert time.monotonic() - start < 1.0
        finally:
            release.set()

    def test_close_is_idempotent(self):
        m = ThreadMachine(workers=1)
        m.close()
        m.close()
        with pytest.raises(BackendError):
            m.run_round([(_const, (1,), {})])


class TestRealParallelSteadyAnt:
    def test_process_machine_end_to_end(self, rng):
        """Coarse-grained steady ant over real processes (correctness)."""
        from repro.core.dist_matrix import sticky_multiply_dense
        from repro.core.steady_ant.parallel import steady_ant_parallel

        p, q = rng.permutation(120), rng.permutation(120)
        with ProcessMachine(workers=2) as machine:
            got = steady_ant_parallel(p, q, machine=machine, depth=2)
        assert np.array_equal(got, sticky_multiply_dense(p, q))
