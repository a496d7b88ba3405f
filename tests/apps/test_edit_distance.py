"""Tests for the indel edit-distance application."""

import numpy as np
import pytest

from repro.apps.edit_distance import best_indel_window, indel_distance, window_distances
from repro.core.dominance import WaveletCounter

from ..conftest import random_pair


def indel_dp(x, y):
    """Reference indel distance by direct DP."""
    m, n = len(x), len(y)
    d = np.zeros((m + 1, n + 1), dtype=np.int64)
    d[:, 0] = np.arange(m + 1)
    d[0, :] = np.arange(n + 1)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if x[i - 1] == y[j - 1]:
                d[i, j] = d[i - 1, j - 1]
            else:
                d[i, j] = 1 + min(d[i - 1, j], d[i, j - 1])
    return int(d[m, n])


def best_indel_window_loop(pattern, text):
    """Reference: every window's distance by DP; lowest distance, then
    the smallest ``l``, then the smallest ``r`` wins."""
    best = (0, 0, len(pattern))
    for l in range(len(text) + 1):
        for r in range(l, len(text) + 1):
            dist = indel_dp(pattern, text[l:r])
            if dist < best[2]:
                best = (l, r, dist)
    return best


@pytest.fixture
def no_scalar_probes(monkeypatch):
    """Fail on any one-at-a-time dominance count."""

    def scalar_count(self, i, j):
        raise AssertionError(f"scalar count({i}, {j})")

    monkeypatch.setattr(WaveletCounter, "count", scalar_count)


class TestIndelDistance:
    def test_matches_dp(self, rng):
        for _ in range(20):
            a, b = random_pair(rng, max_len=12, alphabet=3)
            assert indel_distance(a, b) == indel_dp(a.tolist(), b.tolist())

    def test_identical_zero(self):
        assert indel_distance("same", "same") == 0

    def test_disjoint_sum(self):
        assert indel_distance("aa", "bbb") == 5

    def test_symmetry(self, rng):
        a, b = random_pair(rng)
        assert indel_distance(a, b) == indel_distance(b, a)

    def test_triangle_inequality(self, rng):
        for _ in range(10):
            x, y = random_pair(rng, max_len=8, alphabet=2)
            z = rng.integers(0, 2, size=6)
            assert indel_distance(x, z) <= indel_distance(x, y) + indel_distance(y, z)


class TestWindowDistances:
    def test_matches_pointwise(self, rng):
        pattern = rng.integers(0, 3, size=5).tolist()
        text = rng.integers(0, 3, size=18).tolist()
        dists = window_distances(pattern, text)
        for l, d in enumerate(dists):
            assert d == indel_dp(pattern, text[l : l + 5])

    def test_exact_occurrence_zero(self):
        dists = window_distances("abc", "xxabcxx")
        assert dists.min() == 0
        assert int(np.argmin(dists)) == 2

    def test_oversized_window(self):
        assert window_distances("abc", "ab").size == 0

    def test_probes_are_batched(self, rng, no_scalar_probes):
        pattern = rng.integers(0, 3, size=6).tolist()
        text = rng.integers(0, 3, size=30).tolist()
        dists = window_distances(pattern, text, 8)
        assert dists.tolist() == [indel_dp(pattern, text[l : l + 8]) for l in range(23)]


class TestBestWindow:
    def test_finds_zero_distance_substring(self):
        l, r, d = best_indel_window("core", "hardcorecode")
        assert d == 0
        assert "hardcorecode"[l:r] == "core"

    def test_distance_value(self, rng):
        a, b = random_pair(rng, max_len=8, alphabet=3)
        l, r, d = best_indel_window(a, b)
        assert d == indel_dp(a.tolist(), b.tolist()[l:r])

    def test_empty_sides(self):
        assert best_indel_window("", "abc") == (0, 0, 0)
        assert best_indel_window("abc", "") == (0, 0, 3)

    def test_matches_nested_loop_with_ties(self, rng):
        # a binary alphabet makes ties in distance common
        for _ in range(60):
            pattern = rng.integers(0, 2, int(rng.integers(0, 6))).tolist()
            text = rng.integers(0, 2, int(rng.integers(0, 11))).tolist()
            assert best_indel_window(pattern, text) == best_indel_window_loop(
                pattern, text), (pattern, text)

    def test_probes_are_batched(self, rng, no_scalar_probes):
        pattern = rng.integers(0, 4, 12).tolist()
        text = rng.integers(0, 4, 40).tolist()
        assert best_indel_window(pattern, text) == best_indel_window_loop(pattern, text)
