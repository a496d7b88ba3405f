"""The batch tier's dispatch plumbing: the SharedArena slab pool and
the one array round a batch runs as.

Covers: the reusable slab pool lifecycle (best-fit reuse, recycle,
release purge), the fallback for machines without a pool, array-round
accounting and error attribution, slab-backed arguments shipping as
handles, and chaos faults through ResilientMachine.
"""

import warnings

import numpy as np
import pytest

from repro.parallel import (
    ChaosError,
    ChaosMachine,
    FaultPolicy,
    ProcessMachine,
    ResilientMachine,
    SerialMachine,
    shared_memory_available,
)
from repro.parallel.transport import SharedArena

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no multiprocessing.shared_memory"
)


def _double(a, k=2):
    return a * k


def _total(a, b):
    return float(a.sum() + b.sum())


def _boom(x):
    raise RuntimeError("boom")


class TestSlabPool:
    def test_best_fit_reuse(self):
        arena = SharedArena()
        try:
            a = arena.slab((100,), np.float64)  # 800 B -> 2048 B segment
            b = arena.slab((1000,), np.float64)  # 8000 B -> 8192 B segment
            assert arena.stats()["slabs_used"] == 2
            arena.recycle(a)
            arena.recycle(b)
            assert arena.stats()["slabs_free"] == 2
            # a 600 B request must take the 2048 B slab, not the 8192 B one
            c = arena.slab((75,), np.float64)
            assert c.nbytes == 600
            assert arena.stats() == {**arena.stats(), "slabs_free": 1, "slabs_used": 1}
            assert arena.stats()["segments"] == 2  # no new allocation
        finally:
            arena.close()

    def test_release_purges_pool(self):
        arena = SharedArena()
        try:
            arr = arena.slab((50,), np.float64)
            handle = arena.handle_of(arr)
            assert handle is not None
            del arr
            arena.release(handle.name)
            assert arena.stats()["slabs_used"] == 0
            assert arena.stats()["slabs_free"] == 0
        finally:
            arena.close()

    def test_recycle_foreign_array_is_noop(self):
        arena = SharedArena()
        try:
            assert arena.recycle(np.zeros(4)) is False
        finally:
            arena.close()

    def test_machine_slab_fallback_without_pool(self):
        arr = SerialMachine().slab((3, 3), np.int32)
        assert arr.shape == (3, 3) and arr.dtype == np.int32
        SerialMachine().recycle_slabs([arr])  # no-op, no error


class TestArrayRounds:
    def test_rounds_accounting(self):
        with ProcessMachine(workers=2, transport="shm") as machine:
            machine.run_round([(_double, (np.arange(4),), {})])
            machine.run_round([(_double, (np.arange(4),), {})])
            assert machine.rounds == 2
            assert machine.tasks == 2

    def test_error_carries_task_index(self):
        with ProcessMachine(workers=2, transport="shm") as machine:
            specs = [(_double, (np.arange(4),), {}), (_boom, (1,), {})]
            with pytest.raises(RuntimeError, match="boom") as err:
                machine.run_round(specs)
        notes = getattr(err.value, "__notes__", [])
        assert any("task 1" in note for note in notes)

    def test_slab_backed_args_ship_as_handles(self):
        with ProcessMachine(workers=2, transport="shm") as machine:
            a = machine.slab((64, 8), np.float64)
            b = machine.slab((64, 8), np.float64)
            a[...] = 1.0
            b[...] = 2.0
            before = machine.bytes_shipped
            (result,) = machine.run_round([(_total, (a, b), {})])
            assert result == a.size * 3.0
            # two 4 KiB arrays travelled as compact handles, not pickles
            assert machine.bytes_shipped - before < a.nbytes
            machine.recycle_slabs([a, b])
            assert machine.transport_stats()["arena"]["slabs_free"] == 2


class TestResilientArrayRounds:
    def test_chaos_failure_recovered(self):
        # chaos substitutes a raiser that fires inside the worker; the
        # resilient wrapper must retry with the original (pre-chaos)
        # specs and still return correct results
        with ProcessMachine(workers=2, transport="shm") as inner:
            chaotic = ChaosMachine(inner, fail_rate=1.0, seed=3)
            machine = ResilientMachine(
                chaotic, FaultPolicy(max_retries=3, backoff_base=0.0, seed=3)
            )
            specs = [(_double, (np.arange(8),), {"k": 5})]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                (result,) = machine.run_round(specs)
        assert np.array_equal(result, np.arange(8) * 5)

    def test_chaos_without_recovery_raises(self):
        with ProcessMachine(workers=2, transport="shm") as inner:
            chaotic = ChaosMachine(inner, fail_rate=1.0, seed=7)
            specs = [(_double, (np.arange(4),), {})]
            with pytest.raises(ChaosError):
                chaotic.run_round(specs)
