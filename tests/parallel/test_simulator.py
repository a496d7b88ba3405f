"""Tests for the p-worker cost-model simulator."""

import time

import pytest

from repro.parallel.simulator import RoundStats, SimulatedMachine


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return seconds


def busy(seconds):
    return (_spin, (seconds,), {})


def const(value):
    return (lambda: value, (), {})


NOOP = const(None)


class TestMakespan:
    def test_one_worker_sums(self):
        m = SimulatedMachine(workers=1)
        assert m.makespan([1.0, 2.0, 3.0]) == 6.0

    def test_enough_workers_takes_max(self):
        m = SimulatedMachine(workers=3)
        assert m.makespan([1.0, 2.0, 3.0]) == 3.0

    def test_lpt_two_workers(self):
        m = SimulatedMachine(workers=2, schedule="dynamic")
        # LPT: [3] | [2, 1] -> makespan 3
        assert m.makespan([1.0, 2.0, 3.0]) == 3.0

    def test_static_two_workers(self):
        m = SimulatedMachine(workers=2, schedule="static")
        # greedy in order: w1=[1,2]? greedy min-heap: 1->w1, 2->w2, 3->w1 -> [4, 2]
        assert m.makespan([1.0, 2.0, 3.0]) == 4.0

    def test_empty_round(self):
        assert SimulatedMachine(workers=4).makespan([]) == 0.0


class TestRunRound:
    def test_results_in_order(self):
        m = SimulatedMachine(workers=2)
        out = m.run_round([const(1), const(2), const(3)])
        assert out == [1, 2, 3]

    def test_sync_overhead_accumulates(self):
        m = SimulatedMachine(workers=2, sync_overhead=1.0, spawn_overhead=0.0)
        m.run_round([NOOP])
        m.run_round([NOOP])
        assert m.elapsed >= 2.0

    def test_spawn_overhead_per_task(self):
        m = SimulatedMachine(workers=2, sync_overhead=0.0, spawn_overhead=0.5)
        m.run_round([NOOP] * 4)
        assert m.elapsed >= 2.0

    def test_parallel_faster_than_serial(self):
        tasks = [busy(0.005) for _ in range(8)]
        m1 = SimulatedMachine(workers=1, sync_overhead=0, spawn_overhead=0)
        m1.run_round(tasks)
        m8 = SimulatedMachine(workers=8, sync_overhead=0, spawn_overhead=0)
        m8.run_round(tasks)
        assert m8.elapsed < m1.elapsed / 3

    def test_reset(self):
        m = SimulatedMachine(workers=2)
        m.run_round([NOOP])
        m.reset()
        assert m.elapsed == 0 and m.rounds == 0 and m.tasks == 0 and not m.round_log


class TestStatsAndValidation:
    def test_round_log(self):
        m = SimulatedMachine(workers=2)
        m.run_round([const(1), const(2)])
        assert len(m.round_log) == 1
        stats = m.round_log[0]
        assert isinstance(stats, RoundStats)
        assert stats.tasks == 2
        assert stats.imbalance >= 1.0

    def test_summary(self):
        m = SimulatedMachine(workers=2)
        m.run_round([busy(0.001)] * 4)
        s = m.summary()
        assert s["workers"] == 2
        assert s["tasks"] == 4
        assert 0 < s["parallel_efficiency"] <= 1.5  # noise tolerance

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            SimulatedMachine(workers=0)

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            SimulatedMachine(workers=1, schedule="chaotic")
