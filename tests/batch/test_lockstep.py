"""Lockstep kernel correctness: batched combing == per-pair combing.

The lockstep comber has one kernel and takes the single-pair strand
dtype; the per-pair references below run every §4.1 blend of the
single-pair comber, and ``use_16bit=False`` shrinks the uint16 limit so
the lanes comb on int64 strands.
"""

import numpy as np
import pytest

import repro
from repro.batch.bitlockstep import comb_bit_lockstep, pack_bit_lanes
from repro.batch.lockstep import (
    comb_lockstep,
    lockstep_strand_dtype,
    pack_lanes,
    pad_codes,
)
from repro.core.bitparallel import bit_lcs
from repro.core.combing import iterative as it
from repro.core.combing.iterative import iterative_combing_antidiag_simd

#: the single-pair comber's blends (the §4.1 ablation)
BLENDS = ("where", "masked", "arith", "bitwise", "minmax")


def _ragged_pairs(rng, count=12, max_m=24, max_n=36):
    pairs = []
    for _ in range(count):
        m = int(rng.integers(1, max_m + 1))
        n = int(rng.integers(m, max_n + 1))
        pairs.append(
            (rng.integers(0, 4, m).astype(np.int64), rng.integers(0, 4, n).astype(np.int64))
        )
    return pairs


def _bucket_shape(pairs):
    M = max(ca.size for ca, _ in pairs)
    N = max(max(cb.size for _, cb in pairs), M)
    return M, N


@pytest.mark.parametrize("blend", BLENDS)
@pytest.mark.parametrize("use_16bit", [True, False])
def test_ragged_kernels_match_per_pair(rng, monkeypatch, blend, use_16bit):
    pairs = _ragged_pairs(rng)
    M, N = _bucket_shape(pairs)
    if not use_16bit:
        monkeypatch.setattr(it, "_UNSIGNED_LIMIT_16", M + N - 1)
    stacks = pack_lanes(pairs, M, N)
    out = comb_lockstep(*stacks, want="kernels")
    assert out.dtype == (np.uint16 if use_16bit else np.int64)
    for k, (ca, cb) in enumerate(pairs):
        expected = iterative_combing_antidiag_simd(
            ca, cb, blend=blend, use_16bit_when_possible=use_16bit
        )
        got = out[k, : ca.size + cb.size].astype(np.int64)
        assert np.array_equal(got, expected), (blend, use_16bit, k)


@pytest.mark.parametrize("blend", BLENDS)
def test_ragged_scores_match_lcs(rng, blend):
    pairs = _ragged_pairs(rng)
    M, N = _bucket_shape(pairs)
    stacks = pack_lanes(pairs, M, N)
    scores = comb_lockstep(*stacks, want="scores")
    assert scores.dtype == np.int64
    for k, (ca, cb) in enumerate(pairs):
        kernel = repro.SemiLocalKernel(
            iterative_combing_antidiag_simd(ca, cb, blend=blend), ca.size, cb.size
        )
        assert scores[k] == kernel.lcs_whole() == repro.lcs(ca, cb), (blend, k)


def test_uniform_batch_matches_per_pair(rng):
    pairs = [
        (rng.integers(0, 4, 10).astype(np.int64), rng.integers(0, 4, 15).astype(np.int64))
        for _ in range(6)
    ]
    a_rev, b_codes, lane_m, lane_n = pack_lanes(pairs, 10, 15)
    out = comb_lockstep(a_rev, b_codes, lane_m, lane_n, want="kernels")
    for k, (ca, cb) in enumerate(pairs):
        assert np.array_equal(
            out[k, :25].astype(np.int64), iterative_combing_antidiag_simd(ca, cb)
        )


def _sentinel_pairs(rng):
    """Ragged lanes whose letters sit at the edges of the code dtypes."""
    i16, i32, i64 = np.iinfo(np.int16), np.iinfo(np.int32), np.iinfo(np.int64)
    alphabets = [
        np.array([-3, -2, -1]),  # negative codes
        np.array([i16.min, i16.min + 1, i16.max]),
        np.array([i32.min, i32.min + 1, i32.max]),
        np.array([i64.min, 0, i64.max]),  # the pads must leave int64's low end
        np.array([i64.min + 2, i64.min + 3]),
    ]
    pairs = []
    for alphabet in alphabets:
        m = int(rng.integers(1, 14))
        n = int(rng.integers(m, 20))
        pairs.append((rng.choice(alphabet, m), rng.choice(alphabet, n)))
    return [(ca.astype(np.int64), cb.astype(np.int64)) for ca, cb in pairs]


@pytest.mark.parametrize(
    "lanes",
    [slice(0, 1), slice(1, 2), slice(2, 3), slice(3, 4), slice(4, 5), slice(None)],
    ids=["negative", "int16", "int32", "int64-min", "int64-min-plus-2", "all"],
)
def test_sentinel_padding_matches_per_pair(rng, lanes):
    """Whatever the letters, the pads are two codes no lane has and every
    lane combs as it does alone."""
    pairs = _sentinel_pairs(rng)[lanes]
    dtype, pad_a, pad_b = pad_codes(pairs)
    real = set(np.concatenate([c for pair in pairs for c in pair]).tolist())
    assert pad_a != pad_b
    assert pad_a not in real and pad_b not in real
    info = np.iinfo(dtype)
    assert all(info.min <= c <= info.max for c in real | {pad_a, pad_b})
    M = max(ca.size for ca, _ in pairs) + 2
    N = max(cb.size for _, cb in pairs) + 3
    stacks = pack_lanes(pairs, M, N)
    assert stacks[0].dtype == dtype and stacks[1].dtype == dtype
    kernels = comb_lockstep(*stacks, want="kernels")
    scores = comb_lockstep(*stacks, want="scores")
    for k, (ca, cb) in enumerate(pairs):
        expected = iterative_combing_antidiag_simd(ca, cb)
        assert np.array_equal(kernels[k, : ca.size + cb.size].astype(np.int64), expected), k
        assert scores[k] == repro.lcs(ca, cb), k


def test_dirty_alloc_memory_is_fully_initialized(rng):
    """Slab reuse hands back dirty memory; packing must not read it."""
    pairs = _ragged_pairs(rng, count=5)
    M, N = _bucket_shape(pairs)

    def dirty_alloc(shape, dtype):
        arr = np.empty(shape, dtype=dtype)
        arr[...] = ~np.zeros((), dtype=dtype) if dtype != np.bool_ else True
        return arr

    clean = comb_lockstep(*pack_lanes(pairs, M, N), want="kernels")
    dirty = comb_lockstep(*pack_lanes(pairs, M, N, alloc=dirty_alloc), want="kernels")
    assert np.array_equal(clean, dirty)


def test_strand_dtype_selection():
    assert lockstep_strand_dtype(100, 200) == np.uint16
    assert lockstep_strand_dtype(100, 200, use_16bit=False) == np.int64
    assert lockstep_strand_dtype(2**15, 2**15) == np.int64  # 2^16 > limit


def test_code_dtype_covers_extremes():
    small = [(np.array([0, 1]), np.array([2]))]
    assert pad_codes(small)[0] == np.int16
    wide = [(np.array([0, 2**20]), np.array([1]))]
    assert pad_codes(wide)[0] == np.int32
    huge = [(np.array([0, 2**40]), np.array([1]))]
    assert pad_codes(huge)[0] == np.int64
    # the pads sit just below the smallest letter and widen the dtype
    assert pad_codes([(np.array([-(2**15) + 1]), np.array([5]))])[0] == np.int32
    assert pad_codes([(np.array([7]), np.array([9]))])[1:] == (6, 5)


def test_bad_arguments_raise(rng):
    pairs = _ragged_pairs(rng, count=2)
    M, N = _bucket_shape(pairs)
    stacks = pack_lanes(pairs, M, N)
    with pytest.raises(ValueError, match="want"):
        comb_lockstep(*stacks, want="nope")
    with pytest.raises(TypeError):
        comb_lockstep(*stacks, blend="minmax")


def test_bit_lockstep_matches_bit_lcs(rng):
    pairs = []
    for _ in range(9):
        m = int(rng.integers(1, 200))
        n = int(rng.integers(1, 300))
        pairs.append(
            (rng.integers(0, 2, m).astype(np.int64), rng.integers(0, 2, n).astype(np.int64))
        )
    stacks = pack_bit_lanes(pairs)
    scores = comb_bit_lockstep(*stacks)
    for k, (ca, cb) in enumerate(pairs):
        assert scores[k] == bit_lcs(ca, cb), k


def test_bit_lockstep_score_invariant_to_extra_padding_words(rng):
    """Extra all-invalid words must not change any lane's score."""
    from repro.core.bitparallel.words import pack_a_words, pack_b_words

    ca = rng.integers(0, 2, 70).astype(np.int64)
    cb = rng.integers(0, 2, 90).astype(np.int64)
    for extra in (0, 1, 3):
        aw, av, _ = pack_a_words(ca, min_words=2 + extra)
        bw, bv, _ = pack_b_words(cb, min_words=2 + extra)
        score = comb_bit_lockstep(aw[None], av[None], bw[None], bv[None])[0]
        assert score == bit_lcs(ca, cb)
