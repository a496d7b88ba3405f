"""The parallel grid's level schedule on real and faulty machines.

``parallel_hybrid_combing_grid`` runs one round of leaf combs, then one
round per level of ``plan_grid_reduction``. These tests pin that
schedule down, check the result is bit-identical to iterative combing on
every machine and transport, and check that the resilience ladder —
including a worker dying in the middle of a level — still recovers to
the exact kernel.
"""

import warnings

import numpy as np
import pytest

from repro.core.combing.hybrid import _split_lengths, optimal_split, plan_grid_reduction
from repro.core.combing.iterative import iterative_combing_rowmajor
from repro.core.combing.parallel import parallel_hybrid_combing_grid
from repro.core.steady_ant import steady_ant_multiply
from repro.errors import DegradedExecutionWarning
from repro.parallel import (
    ChaosMachine,
    FaultPolicy,
    ProcessMachine,
    ResilientMachine,
    SerialMachine,
    ThreadMachine,
)

NO_SLEEP = dict(sleep=lambda s: None)
FAST = FaultPolicy(max_retries=4, backoff_base=0.0, jitter=0.0)

A = "abacabadabacabaeabacabadabacaba" * 3
B = "bacabadabacabaeabacabadabacabaf" * 3
BLENDS = ["where", "masked", "arith", "bitwise", "minmax"]


def reference(a=A, b=B):
    return iterative_combing_rowmajor(a, b)


def grid(machine, a=A, b=B, **kw):
    got = parallel_hybrid_combing_grid(a, b, machine, n_tasks=4, **kw)
    return np.asarray(got, dtype=np.int64)


def levels_of(m, n, n_tasks):
    m_outer, n_outer = optimal_split(m, n, n_tasks)
    levels, _, _ = plan_grid_reduction(
        m, n, _split_lengths(m, m_outer), _split_lengths(n, n_outer)
    )
    return levels


class TestSchedule:
    def test_one_round_per_level(self):
        levels = levels_of(len(A), len(B), 4)
        assert len(levels) == 2  # a 2x2 grid: one row level, one column level
        with ThreadMachine(workers=2) as threads:
            for machine in (SerialMachine(), threads):
                assert np.array_equal(grid(machine), reference())
                assert machine.rounds == 1 + len(levels)
                assert machine.tasks == 4 + sum(len(ops) for ops in levels)

    def test_process_machine_rounds(self):
        with ProcessMachine(workers=2) as machine:
            assert np.array_equal(grid(machine), reference())
            assert machine.rounds == 1 + len(levels_of(len(A), len(B), 4))


class TestMachines:
    @pytest.mark.parametrize("blend", BLENDS)
    @pytest.mark.parametrize("use_16bit", [False, True])
    def test_in_process_machines_match_reference(self, blend, use_16bit):
        with ThreadMachine(workers=2) as threads:
            for machine in (SerialMachine(), threads):
                got = grid(machine, blend=blend, use_16bit=use_16bit)
                assert np.array_equal(got, reference()), (machine, blend, use_16bit)

    def test_process_machine_blends_and_dtypes(self):
        with ProcessMachine(workers=2) as machine:
            for blend in BLENDS:
                for use_16bit in (False, True):
                    got = grid(machine, blend=blend, use_16bit=use_16bit)
                    assert np.array_equal(got, reference()), (blend, use_16bit)

    def test_shm_transport_round_trip(self):
        with ProcessMachine(workers=2, transport="shm") as machine:
            assert np.array_equal(grid(machine), reference())
            assert np.array_equal(grid(machine, multiply=steady_ant_multiply), reference())


class TestFaults:
    def _resilient(self, inner, **chaos):
        return ResilientMachine(ChaosMachine(inner, **chaos), FAST, **NO_SLEEP)

    def test_transient_failures_mid_level(self):
        machine = self._resilient(SerialMachine(), fail_rate=0.25, seed=10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecutionWarning)
            got = grid(machine)
        assert np.array_equal(got, reference())
        # seed 10 fails the second compose of the first level once
        assert machine.inner.fault_log == [(5, 1, "fail")]
        assert machine.health()["retries"] == 1

    def test_worker_death_mid_level(self):
        # the injected crash kills the hosting worker process itself; the
        # ladder rebuilds the pool and re-runs the level's round
        inner = ProcessMachine(workers=2)
        machine = self._resilient(inner, crash_rate=0.15, seed=21)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedExecutionWarning)
                got = grid(machine)
        finally:
            inner.close()
        assert np.array_equal(got, reference())
        # seed 21 crashes the second compose of the first level (tasks
        # 0-3 are the leaf round)
        assert machine.inner.fault_log == [(5, 1, "crash")]
        assert machine.health()["pool_rebuilds"] == 1

    def test_thread_rounds_preserve_retry_ladder(self):
        inner = ThreadMachine(workers=2)
        machine = self._resilient(inner, fail_rate=0.3, seed=11)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedExecutionWarning)
                got = grid(machine)
        finally:
            inner.close()
        assert np.array_equal(got, reference())
