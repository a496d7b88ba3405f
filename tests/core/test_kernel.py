"""Tests for SemiLocalKernel: the H-matrix formula and all four quadrant
queries, validated against the brute-force DP of Definition 3.3."""

import numpy as np
import pytest

from repro.baselines.lcs_dp import lcs_score_scalar
from repro.baselines.semilocal_naive import semilocal_h_matrix_naive
from repro.core.combing.iterative import iterative_combing_rowmajor
from repro.core.kernel import SemiLocalKernel
from repro.errors import QueryError, ShapeMismatchError

from ..conftest import random_pair


def make_kernel(a, b, **kw) -> SemiLocalKernel:
    return SemiLocalKernel(iterative_combing_rowmajor(a, b), len(a), len(b), **kw)


class TestHMatrix:
    def test_matches_brute_force(self, rng):
        for _ in range(25):
            a, b = random_pair(rng, max_len=8)
            k = make_kernel(a, b)
            assert np.array_equal(k.h_matrix(), semilocal_h_matrix_naive(a, b)), (a, b)

    def test_h_single_entries_match_matrix(self, rng):
        a, b = random_pair(rng, max_len=7)
        k = make_kernel(a, b)
        hm = k.h_matrix()
        for i in range(len(a) + len(b) + 1):
            for j in range(len(a) + len(b) + 1):
                assert k.h(i, j) == hm[i, j]

    def test_h_out_of_range(self):
        k = make_kernel([1], [2])
        with pytest.raises(QueryError):
            k.h(-1, 0)
        with pytest.raises(QueryError):
            k.h(0, 3)

    def test_negative_entries_below_antidiagonal(self):
        # H[i, j] = j + m - i can be negative for i >> j + m
        k = make_kernel([1, 2, 3], [4, 5, 6])
        assert k.h(6, 0) == 0 + 3 - 6


class TestQuadrants:
    def test_string_substring(self, rng):
        for _ in range(10):
            a, b = random_pair(rng, max_len=7)
            k = make_kernel(a, b)
            for l in range(len(b) + 1):
                for r in range(l, len(b) + 1):
                    assert k.string_substring(l, r) == lcs_score_scalar(a, b[l:r])

    def test_substring_string(self, rng):
        for _ in range(10):
            a, b = random_pair(rng, max_len=7)
            k = make_kernel(a, b)
            for l in range(len(a) + 1):
                for r in range(l, len(a) + 1):
                    assert k.substring_string(l, r) == lcs_score_scalar(a[l:r], b)

    def test_prefix_suffix(self, rng):
        for _ in range(10):
            a, b = random_pair(rng, max_len=7)
            k = make_kernel(a, b)
            for l in range(len(a) + 1):
                for r in range(len(b) + 1):
                    assert k.prefix_suffix(l, r) == lcs_score_scalar(a[:l], b[r:])

    def test_suffix_prefix(self, rng):
        for _ in range(10):
            a, b = random_pair(rng, max_len=7)
            k = make_kernel(a, b)
            for l in range(len(a) + 1):
                for r in range(len(b) + 1):
                    assert k.suffix_prefix(l, r) == lcs_score_scalar(a[l:], b[:r])

    def test_lcs_whole(self, rng):
        a, b = random_pair(rng, max_len=10)
        assert make_kernel(a, b).lcs_whole() == lcs_score_scalar(a, b)

    def test_query_bounds(self):
        k = make_kernel([1, 2], [3])
        with pytest.raises(QueryError):
            k.string_substring(1, 0)
        with pytest.raises(QueryError):
            k.substring_string(0, 3)
        with pytest.raises(QueryError):
            k.prefix_suffix(3, 0)
        with pytest.raises(QueryError):
            k.suffix_prefix(0, 2)


class TestBatchViews:
    def test_all_string_substring(self, rng):
        a, b = random_pair(rng, max_len=6)
        k = make_kernel(a, b)
        mat = k.all_string_substring()
        for l in range(len(b) + 1):
            for r in range(l, len(b) + 1):
                assert mat[l, r] == lcs_score_scalar(a, b[l:r])

    def test_string_substring_many(self, rng):
        a, b = random_pair(rng, max_len=8)
        k = make_kernel(a, b)
        ls, rs = [], []
        for l in range(len(b) + 1):
            for r in range(l, len(b) + 1):
                ls.append(l)
                rs.append(r)
        batch = k.string_substring_many(ls, rs)
        assert batch.tolist() == [k.string_substring(l, r) for l, r in zip(ls, rs)]

    def test_string_substring_many_tree_counter(self, rng):
        a, b = random_pair(rng, max_len=8)
        k = SemiLocalKernel(iterative_combing_rowmajor(a, b), len(a), len(b))
        batch = k.string_substring_many([0, 1], [len(b), len(b)])
        assert batch.tolist() == [k.string_substring(0, len(b)), k.string_substring(1, len(b))]

    def test_string_substring_many_validation(self, rng):
        a, b = random_pair(rng, max_len=6)
        k = make_kernel(a, b)
        with pytest.raises(QueryError):
            k.string_substring_many([2], [1])
        with pytest.raises(ShapeMismatchError):
            k.string_substring_many([0, 1], [1])

    def test_string_substring_row(self, rng):
        a, b = random_pair(rng, max_len=6)
        k = make_kernel(a, b)
        r = len(b)
        row = k.string_substring_row(r)
        assert row.tolist() == [k.string_substring(l, r) for l in range(r + 1)]


class TestFlipped:
    def test_flip_swaps_roles(self, rng):
        a, b = random_pair(rng, max_len=8)
        k = make_kernel(a, b)
        kf = k.flipped()
        assert (kf.m, kf.n) == (len(b), len(a))
        assert kf.lcs_whole() == k.lcs_whole()
        assert np.array_equal(kf.kernel, iterative_combing_rowmajor(b, a))

    def test_flip_cached(self, rng):
        a, b = random_pair(rng)
        k = make_kernel(a, b)
        assert k.flipped() is k.flipped()


class TestConstruction:
    def test_order_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            SemiLocalKernel(np.arange(5), 2, 2)

    def test_from_strings_default(self):
        k = SemiLocalKernel.from_strings("abcd", "bcda")
        assert k.lcs_whole() == 3

    def test_from_strings_custom_algorithm(self):
        k = SemiLocalKernel.from_strings("abc", "abc", algorithm=iterative_combing_rowmajor)
        assert k.lcs_whole() == 3

    def test_repr(self):
        assert "m=1" in repr(make_kernel([1], [2]))
