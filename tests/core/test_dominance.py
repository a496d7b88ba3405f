"""Tests for the dominance-counting query structures."""

import numpy as np
import pytest

from repro.core.dist_matrix import dominance_count
from repro.core.dominance import (
    DenseCounter,
    DominanceCounter,
    WaveletCounter,
    make_counter,
    resolve_counter_kind,
)


@pytest.mark.parametrize("counter_cls", [DenseCounter, DominanceCounter, WaveletCounter])
class TestCounters:
    def test_empty(self, counter_cls):
        c = counter_cls(np.array([], dtype=np.int64))
        assert c.count(0, 0) == 0
        assert c.n == 0

    def test_singleton(self, counter_cls):
        c = counter_cls(np.array([0]))
        assert c.count(0, 1) == 1
        assert c.count(1, 1) == 0
        assert c.count(0, 0) == 0

    def test_matches_direct_count(self, counter_cls, rng):
        for n in (2, 3, 7, 16, 31, 64, 100):
            p = rng.permutation(n)
            c = counter_cls(p)
            for _ in range(50):
                i = int(rng.integers(0, n + 1))
                j = int(rng.integers(0, n + 1))
                assert c.count(i, j) == dominance_count(p, i, j), (n, i, j)

    def test_clamps_out_of_range(self, counter_cls, rng):
        p = rng.permutation(9)
        c = counter_cls(p)
        assert c.count(-5, 100) == 9
        assert c.count(100, -5) == 0

    def test_full_rectangle(self, counter_cls, rng):
        p = rng.permutation(12)
        assert counter_cls(p).count(0, 12) == 12


class TestMergeSortTreeInternals:
    def test_count_many(self, rng):
        p = rng.permutation(20)
        c = DominanceCounter(p)
        out = c.count_many(np.array([0, 5, 20]), np.array([20, 7, 0]))
        assert out.tolist() == [20, c.count(5, 7), 0]

    def test_non_power_of_two_sizes(self, rng):
        # exercises ragged tail blocks in the level construction
        for n in (3, 5, 6, 9, 17, 33, 63):
            p = rng.permutation(n)
            c = DominanceCounter(p)
            for i in range(0, n + 1, max(1, n // 7)):
                for j in range(0, n + 1, max(1, n // 7)):
                    assert c.count(i, j) == dominance_count(p, i, j)


class TestMakeCounter:
    def test_builds_wavelet_at_every_order(self):
        for order in (0, 1, 4, 2048, 2049):
            assert isinstance(make_counter(np.arange(order)), WaveletCounter)
            assert resolve_counter_kind(order) == "wavelet"


class TestWaveletAgainstDense:
    def test_every_clamped_probe_orders_0_to_40(self, rng):
        """Exhaustive differential check: for every order 0..40, every
        (i, j) in [-2, n + 2]^2, scalar and batched wavelet counts equal
        the dense table's."""
        for n in range(41):
            p = rng.permutation(n)
            wavelet, dense = WaveletCounter(p), DenseCounter(p)
            idx = np.arange(-2, n + 3)
            i, j = np.meshgrid(idx, idx, indexing="ij")
            want = dense.count_many(i, j)
            assert np.array_equal(wavelet.count_many(i, j), want), n
            got = [[wavelet.count(int(a), int(b)) for b in idx] for a in idx]
            assert np.array_equal(got, want), n


class TestWaveletInternals:
    def test_levels_count(self, rng):
        p = rng.permutation(33)
        w = WaveletCounter(p)
        # 33 values need 6 bits
        assert len(w._levels) == 6

    def test_singleton_and_empty(self):
        import numpy as np

        assert WaveletCounter(np.array([], dtype=np.int64)).count(0, 0) == 0
        w = WaveletCounter(np.array([0]))
        assert w.count(0, 1) == 1

    def test_non_power_of_two(self, rng):
        from repro.core.dist_matrix import dominance_count

        for n in (3, 5, 31, 33, 100):
            p = rng.permutation(n)
            w = WaveletCounter(p)
            for i in range(0, n + 1, max(1, n // 9)):
                for j in range(0, n + 1, max(1, n // 9)):
                    assert w.count(i, j) == dominance_count(p, i, j)
