"""The anti-diagonal kernel against the row-major reference (Listing 1).

:func:`~repro.core.combing.iterative.comb_antidiagonals` is called
directly on 1-D ``uint16`` and ``int64`` strands (one grid) and on 2-D
ragged lanes with validity masks, over every anti-diagonal of grids of
any shape — including ``m > n``, empty strings, length 1 and a unary
alphabet.
"""

import numpy as np
import pytest

from repro.alphabet import encode
from repro.batch.lockstep import _lane_kernels, pack_lanes
from repro.core.combing.iterative import (
    _antidiag_ranges,
    _extract_kernel,
    antidiag_scratch,
    comb_antidiagonals,
    iterative_combing_rowmajor,
)

_rng = np.random.default_rng(14)
CASES = [
    ("", ""),
    ("", "acg"),
    ("acg", ""),
    ("a", "a"),
    ("a", "c"),
    ("a", "acgt"),
    ("acgt", "g"),
    ("aaaa", "aaaaaaa"),
    ("aaaaaaa", "aa"),
    ("acgtgca", "cat"),
] + [
    tuple("".join("acgt"[c] for c in _rng.integers(0, 4, size)) for size in sizes)
    for sizes in ((9, 13), (13, 9), (12, 12), (17, 5), (3, 20))
]
DTYPES = [np.uint16, np.int64]


def _comb_1d(a, b, dtype, per_diagonal_scratch=False):
    ca, cb = encode(a), encode(b)
    m, n = ca.size, cb.size
    h = np.arange(m, dtype=dtype)
    v = np.arange(m, m + n, dtype=dtype)
    a_rev = np.ascontiguousarray(ca[::-1])
    if per_diagonal_scratch:
        # the parallel combers' usage: one call per anti-diagonal, one
        # scratch for the whole sweep
        scratch = antidiag_scratch(h, min(m, n))
        for diag in _antidiag_ranges(m, n):
            comb_antidiagonals(a_rev, cb, h, v, (diag,), scratch=scratch)
    else:
        comb_antidiagonals(a_rev, cb, h, v, _antidiag_ranges(m, n))
    return _extract_kernel(h, v)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("a,b", CASES)
def test_one_grid_matches_rowmajor(a, b, dtype):
    want = iterative_combing_rowmajor(a, b)
    assert np.array_equal(_comb_1d(a, b, dtype), want)
    assert np.array_equal(_comb_1d(a, b, dtype, per_diagonal_scratch=True), want)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_masked_lanes_match_rowmajor(dtype):
    pairs = [(encode(a), encode(b)) for a, b in CASES]
    M = max(ca.size for ca, _ in pairs)
    N = max(cb.size for _, cb in pairs)
    a_rev, b_codes, h_valid, b_valid, lane_m, lane_n = pack_lanes(pairs, M, N)
    assert h_valid is not None  # ragged lanes
    # padding that matches real letters: only the masks keep it from swapping
    a_rev[~h_valid] = b_codes[~b_valid] = encode("a")[0]
    B = len(pairs)
    h = np.repeat(np.arange(M, dtype=dtype)[:, None], B, axis=1)
    v = np.repeat(np.arange(M, M + N, dtype=dtype)[:, None], B, axis=1)
    comb_antidiagonals(a_rev, b_codes, h, v, _antidiag_ranges(M, N), h_valid, b_valid)
    kernels = _lane_kernels(h, v, lane_m, lane_n, M, N)
    for k, (a, b) in enumerate(CASES):
        got = kernels[k, : len(a) + len(b)].astype(np.int64)
        assert np.array_equal(got, iterative_combing_rowmajor(a, b)), (a, b)
