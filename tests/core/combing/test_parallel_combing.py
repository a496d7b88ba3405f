"""Tests for machine-parameterized parallel combing (Listings 4, 6, 7)."""

import numpy as np
import pytest

from repro.core.combing.iterative import iterative_combing_rowmajor
from repro.core.combing.parallel import (
    parallel_hybrid_combing_grid,
    parallel_iterative_combing,
    parallel_load_balanced_combing,
)
from repro.errors import BackendError
from repro.parallel import (
    ProcessMachine,
    ResilientMachine,
    SerialMachine,
    SimulatedMachine,
    ThreadMachine,
)

from ...conftest import random_codes, random_pair

PARALLEL_FNS = [
    parallel_iterative_combing,
    parallel_load_balanced_combing,
    parallel_hybrid_combing_grid,
]


@pytest.mark.parametrize("fn", PARALLEL_FNS, ids=lambda f: f.__name__)
class TestCorrectness:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_matches_sequential(self, fn, workers, rng):
        for _ in range(8):
            a, b = random_pair(rng, max_len=13)
            machine = SimulatedMachine(workers=workers)
            got = fn(a, b, machine)
            assert np.array_equal(got, iterative_combing_rowmajor(a, b)), (a, b, workers)

    def test_on_serial_machine(self, fn, rng):
        a, b = random_pair(rng, max_len=10)
        got = fn(a, b, SerialMachine())
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))

    def test_tall_grid_flip(self, fn, rng):
        a = random_codes(rng, 11)
        b = random_codes(rng, 4)
        got = fn(a, b, SimulatedMachine(workers=3))
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))

    def test_empty(self, fn):
        got = fn([], [1, 2], SimulatedMachine(workers=2))
        assert got.tolist() == [0, 1]


class TestAccounting:
    def test_rounds_counted(self, rng):
        a = random_codes(rng, 6)
        b = random_codes(rng, 8)
        machine = SimulatedMachine(workers=2)
        parallel_iterative_combing(a, b, machine)
        # one round per anti-diagonal
        assert machine.rounds == 6 + 8 - 1
        assert machine.elapsed > 0

    def test_load_balanced_fewer_rounds(self, rng):
        """Joint phase-1/3 rounds reduce the number of synchronizations."""
        a = random_codes(rng, 10)
        b = random_codes(rng, 12)
        m_plain = SimulatedMachine(workers=4)
        parallel_iterative_combing(a, b, m_plain)
        m_lb = SimulatedMachine(workers=4)
        parallel_load_balanced_combing(a, b, m_lb)
        assert m_lb.rounds < m_plain.rounds

    def test_hybrid_grid_round_structure(self, rng):
        a = random_codes(rng, 16)
        b = random_codes(rng, 16)
        machine = SimulatedMachine(workers=4)
        parallel_hybrid_combing_grid(a, b, machine, n_tasks=4)
        # 1 leaf round + log-many reduction rounds
        assert 2 <= machine.rounds <= 6

    def test_thread_machine_works(self, rng):
        a, b = random_pair(rng, max_len=8)
        with ThreadMachine(workers=2) as machine:
            got = parallel_iterative_combing(a, b, machine)
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))


@pytest.mark.parametrize(
    "fn", [parallel_iterative_combing, parallel_load_balanced_combing], ids=lambda f: f.__name__
)
@pytest.mark.parametrize(
    "wrap", [lambda m: m, ResilientMachine], ids=["processes", "resilient-processes"]
)
class TestWavefrontRejectsProcessPool:
    def test_raises_before_first_round(self, fn, wrap, rng):
        """The wavefront combers update strand arrays in place, which a
        worker process cannot do: they refuse a pool instead of failing
        every round and degrading to serial."""
        a, b = random_pair(rng, max_len=10)
        with ProcessMachine(2) as pool:
            machine = wrap(pool)
            with pytest.raises(BackendError, match="in place"):
                fn(a, b, machine)
            assert pool.rounds == 0

