"""Tests for hybrid combing (Listings 6 and 7)."""

import numpy as np
import pytest

from repro.core.combing.hybrid import (
    _split_lengths,
    hybrid_combing,
    hybrid_combing_grid,
    optimal_split,
)
from repro.core.combing.iterative import iterative_combing_rowmajor
from repro.obs import get_metrics, get_tracer

from ...conftest import random_codes, random_pair


def traced_grid(a, b, n_tasks):
    """Run the grid traced; return its kernel, its ``combing.grid`` span
    args and the leaves and composes it counted."""
    metrics, tracer = get_metrics(), get_tracer()
    names = ("leaves", "composes")
    before = [metrics.get(f"combing.grid_{k}").value for k in names]
    tracer.reset()
    tracer.enabled = True
    try:
        got = hybrid_combing_grid(a, b, n_tasks)
        (span,) = [e for e in tracer.events() if e["name"] == "combing.grid"]
    finally:
        tracer.enabled = False
        tracer.reset()
    counts = {
        k: metrics.get(f"combing.grid_{k}").value - v for k, v in zip(names, before)
    }
    return got, span["args"], counts


class TestHybridCombing:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
    def test_matches_iterative_any_depth(self, depth, rng):
        for _ in range(10):
            a, b = random_pair(rng, max_len=14)
            got = hybrid_combing(a, b, depth)
            assert np.array_equal(got, iterative_combing_rowmajor(a, b)), (depth, a, b)

    def test_depth_zero_is_pure_iterative(self, rng):
        a, b = random_pair(rng)
        leaves = []
        hybrid_combing(a, b, 0, on_leaf=lambda m, n: leaves.append((m, n)))
        assert leaves == [(len(a), len(b))]

    def test_leaf_count_doubles_per_level(self, rng):
        a = random_codes(rng, 32)
        b = random_codes(rng, 32)
        for depth in (1, 2, 3):
            leaves = []
            hybrid_combing(a, b, depth, on_leaf=lambda m, n: leaves.append((m, n)))
            assert len(leaves) == 2**depth

    def test_leaves_cover_all_cells(self, rng):
        a = random_codes(rng, 20)
        b = random_codes(rng, 30)
        leaves = []
        hybrid_combing(a, b, 3, on_leaf=lambda m, n: leaves.append((m, n)))
        assert sum(m * n for m, n in leaves) == 20 * 30

    def test_empty_input(self):
        assert hybrid_combing([], [1], 2).tolist() == [0]


class TestOptimalSplit:
    def test_reaches_task_count(self):
        m_outer, n_outer = optimal_split(1000, 1000, 8)
        assert m_outer * n_outer >= 8

    def test_splits_longer_side_more(self):
        m_outer, n_outer = optimal_split(100, 10_000, 8)
        assert n_outer > m_outer

    def test_single_task(self):
        assert optimal_split(50, 50, 1) == (1, 1)

    def test_cannot_split_beyond_length(self):
        m_outer, n_outer = optimal_split(2, 2, 100)
        assert m_outer <= 2 and n_outer <= 2


class TestSplitLengths:
    def test_sum_preserved(self):
        assert sum(_split_lengths(17, 4)) == 17

    def test_nearly_equal(self):
        lens = _split_lengths(17, 4)
        assert max(lens) - min(lens) <= 1

    def test_clamped_parts(self):
        assert _split_lengths(2, 5) == [1, 1]


class TestHybridGrid:
    @pytest.mark.parametrize("n_tasks", [1, 2, 4, 6, 9, 16])
    def test_matches_iterative(self, n_tasks, rng):
        for _ in range(8):
            a, b = random_pair(rng, max_len=14)
            got = hybrid_combing_grid(a, b, n_tasks)
            assert np.array_equal(got, iterative_combing_rowmajor(a, b)), (n_tasks, a, b)

    def test_counts_leaves_and_composes(self, rng):
        a = random_codes(rng, 16)
        b = random_codes(rng, 16)
        got, args, counts = traced_grid(a, b, 4)
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))
        assert counts["leaves"] == args["m_outer"] * args["n_outer"] >= 4
        assert counts["composes"] == counts["leaves"] - 1  # a reduction tree

    def test_rectangular_grids(self, rng):
        a = random_codes(rng, 5)
        b = random_codes(rng, 29)
        got = hybrid_combing_grid(a, b, 8)
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))

    def test_empty(self):
        assert hybrid_combing_grid([], [], 4).tolist() == []

    @pytest.mark.parametrize("reduction", ["longest-side", "rows-first", "cols-first"])
    def test_reduction_heuristics_agree(self, reduction, rng):
        """All compose orders yield the identical kernel (only cost differs)."""
        for _ in range(6):
            a, b = random_pair(rng, max_len=16)
            got = hybrid_combing_grid(a, b, 6, reduction=reduction)
            assert np.array_equal(got, iterative_combing_rowmajor(a, b))

    def test_unknown_reduction_rejected(self, rng):
        a, b = random_pair(rng)
        with pytest.raises(ValueError):
            hybrid_combing_grid(a, b, 4, reduction="diagonal-first")


class TestHybridGridEdgeCases:
    """Degenerate shapes: empty sides, 1×k grids, excessive depth."""

    def test_empty_a(self, rng):
        b = random_codes(rng, 9)
        got = hybrid_combing_grid([], b, 4)
        assert np.array_equal(got, iterative_combing_rowmajor([], b))

    def test_empty_b(self, rng):
        a = random_codes(rng, 9)
        got = hybrid_combing_grid(a, [], 4)
        assert np.array_equal(got, iterative_combing_rowmajor(a, []))

    def test_both_empty_many_tasks(self):
        assert hybrid_combing_grid([], [], 16).tolist() == []

    def test_single_character_sides(self, rng):
        for m, n in [(1, 1), (1, 12), (12, 1)]:
            a = random_codes(rng, m)
            b = random_codes(rng, n)
            got = hybrid_combing_grid(a, b, 6)
            assert np.array_equal(got, iterative_combing_rowmajor(a, b)), (m, n)

    @pytest.mark.parametrize("depth", [10, 50])
    def test_hybrid_depth_exceeding_log2(self, depth, rng):
        """depth ≫ log2(n): recursion bottoms out at single characters."""
        a, b = random_pair(rng, max_len=10)
        got = hybrid_combing(a, b, depth)
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))

    def test_tasks_exceeding_cells(self, rng):
        """More tasks than grid cells clamps to one cell per character."""
        a = random_codes(rng, 3)
        b = random_codes(rng, 2)
        got = hybrid_combing_grid(a, b, 64)
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))

    def test_degenerate_1xk_grid(self, rng):
        """A length-1 `a` forces a 1×k grid: the reduction is a chain of
        horizontal composes only."""
        a = random_codes(rng, 1)
        b = random_codes(rng, 30)
        got, args, counts = traced_grid(a, b, 5)
        assert args["m_outer"] == 1 and counts["leaves"] == args["n_outer"] >= 5
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))

    def test_degenerate_kx1_grid(self, rng):
        """A length-1 `b` forces a k×1 grid: vertical composes only."""
        a = random_codes(rng, 30)
        b = random_codes(rng, 1)
        got, args, counts = traced_grid(a, b, 5)
        assert args["n_outer"] == 1 and counts["leaves"] == args["m_outer"] >= 5
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))
