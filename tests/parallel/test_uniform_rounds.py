"""Tests for the uniform-round accounting (identical-cost item batches,
a round's ``items=``)."""

import time

import numpy as np

from repro.parallel import ProcessMachine, SerialMachine, SimulatedMachine, ThreadMachine


def _spin(seconds, result):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return result


def busy(seconds, result=None):
    return (_spin, (seconds, result), {})


def const(value):
    return (_spin, (0.0, value), {})


class TestSimulatedUniformRounds:
    def test_results_in_order(self):
        m = SimulatedMachine(workers=4)
        out = m.run_round([const("a"), const("b")], items=[3, 5])
        assert out == ["a", "b"]

    def test_division_by_workers(self):
        """8 items on 4 workers must be accounted at ~T/4."""
        m1 = SimulatedMachine(workers=1, sync_overhead=0, spawn_overhead=0)
        m1.run_round([busy(0.02)], items=[8])
        m4 = SimulatedMachine(workers=4, sync_overhead=0, spawn_overhead=0)
        m4.run_round([busy(0.02)], items=[8])
        assert m4.elapsed < m1.elapsed / 2.5

    def test_short_round_does_not_divide(self):
        """With fewer items than workers, each item still costs T/N."""
        m = SimulatedMachine(workers=8, sync_overhead=0, spawn_overhead=0)
        m.run_round([busy(0.01)], items=[2])
        # busiest worker holds ceil(2/8) = 1 of 2 items -> T/2
        assert 0.003 < m.elapsed < 0.008

    def test_multiple_tasks_pooled(self):
        """Item counts from several tasks pool into one round."""
        m = SimulatedMachine(workers=4, sync_overhead=0, spawn_overhead=0)
        m.run_round([busy(0.005), busy(0.005)], items=[2, 2])
        # 4 items, 4 workers -> ceil(4/4)/4 = 1/4 of the 0.01 s total
        assert m.elapsed < 0.006

    def test_overheads_added(self):
        m = SimulatedMachine(workers=2, sync_overhead=1.0, spawn_overhead=0.0)
        m.run_round([const(None)], items=[10])
        assert m.elapsed >= 1.0

    def test_round_log_records_active_workers(self):
        m = SimulatedMachine(workers=8)
        m.run_round([const(None)], items=[3])
        assert m.round_log[-1].tasks == 3  # only 3 items -> 3 active workers

    def test_zero_item_count_clamped(self):
        m = SimulatedMachine(workers=2)
        m.run_round([const(None)], items=[0])
        assert m.rounds == 1  # no division-by-zero


class TestFallbackMachines:
    def test_serial_machine(self):
        m = SerialMachine()
        out = m.run_round([const(1), const(2)], items=[5, 5])
        assert out == [1, 2]
        assert m.rounds == 1

    def test_thread_machine(self):
        with ThreadMachine(workers=2) as m:
            out = m.run_round([const(7)], items=[10])
        assert out == [7]

    def test_process_machine_accounting(self):
        with ProcessMachine(workers=2) as m:
            m.run_round([(int, (), {})], items=[1])
            assert m.tasks == 1


class TestEndToEndEquivalence:
    def test_wavefront_same_kernel_any_machine(self, rng):
        from repro.core.combing.iterative import iterative_combing_rowmajor
        from repro.core.combing.parallel import parallel_iterative_combing

        a = rng.integers(0, 3, size=40)
        b = rng.integers(0, 3, size=55)
        want = iterative_combing_rowmajor(a, b)
        for machine in (SerialMachine(), SimulatedMachine(workers=3)):
            got = parallel_iterative_combing(a, b, machine)
            assert np.array_equal(got, want)
