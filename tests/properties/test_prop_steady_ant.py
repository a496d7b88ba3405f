"""Property-based tests for sticky braid multiplication."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combing.iterative import iterative_combing_rowmajor
from repro.core.compose import compose_horizontal, compose_vertical
from repro.core.dist_matrix import distribution_matrix, sticky_multiply_dense
from repro.core.steady_ant import (
    steady_ant_combined,
    steady_ant_memory,
    steady_ant_precalc,
    steady_ant_sequential,
    steady_ant_vectorized,
)
from repro.core.steady_ant import vectorized

permutations = st.integers(0, 2**32 - 1).flatmap(
    lambda seed: st.integers(1, 48).map(
        lambda n: np.random.default_rng(seed).permutation(n)
    )
)


def pairs(max_n=48):
    return st.integers(0, 2**32 - 1).flatmap(
        lambda seed: st.integers(1, max_n).map(
            lambda n: (
                np.random.default_rng(seed).permutation(n),
                np.random.default_rng(seed + 1).permutation(n),
            )
        )
    )


@given(pairs())
@settings(max_examples=150, deadline=None)
def test_steady_ant_matches_dense(pq):
    p, q = pq
    want = sticky_multiply_dense(p, q)
    assert np.array_equal(steady_ant_sequential(p, q), want)
    assert np.array_equal(steady_ant_combined(p, q), want)


@given(pairs(max_n=32))
@settings(max_examples=60, deadline=None)
def test_all_variants_agree(pq):
    p, q = pq
    results = [
        steady_ant_sequential(p, q),
        steady_ant_precalc(p, q),
        steady_ant_memory(p, q),
        steady_ant_combined(p, q),
        steady_ant_vectorized(p, q),
    ]
    for r in results[1:]:
        assert np.array_equal(results[0], r)


def _compose_operands(seed, m, n, cut, horizontal):
    """The pair that ``compose_horizontal`` / ``compose_vertical`` hand
    to the multiply when gluing the kernels of two leaf blocks of a
    random ``m x n`` pair, cut at fraction *cut* of the glued side."""
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, 4, m), rng.integers(0, 4, n)
    captured = []

    def capture(p, q):
        captured.append((p, q))
        return steady_ant_sequential(p, q)

    if horizontal:
        k = 1 + int(cut * (n - 2))
        compose_horizontal(
            iterative_combing_rowmajor(a, b[:k]), iterative_combing_rowmajor(a, b[k:]),
            m, k, n - k, capture,
        )
    else:
        k = 1 + int(cut * (m - 2))
        compose_vertical(
            iterative_combing_rowmajor(a[:k], b), iterative_combing_rowmajor(a[k:], b),
            k, m - k, n, capture,
        )
    (pq,) = captured
    return pq


kernel_operands = st.builds(
    _compose_operands,
    st.integers(0, 2**32 - 1),
    st.integers(2, 150),
    st.integers(2, 150),
    st.floats(0.0, 1.0),
    st.booleans(),
)


@given(st.one_of(pairs(max_n=300), kernel_operands))
@settings(max_examples=60, deadline=None)
def test_vectorized_matches_sequential(pq):
    """The level-wide ant passage against the scalar recursion, with the
    staircase walked node by node where the level is narrow (the
    default) and in lockstep lanes on every level."""
    p, q = pq
    want = steady_ant_sequential(p, q)
    assert np.array_equal(steady_ant_vectorized(p, q), want)
    with mock.patch.object(vectorized, "LOCKSTEP_WALK_LANES", 1):
        assert np.array_equal(steady_ant_vectorized(p, q), want)


@given(pairs(max_n=32))
@settings(max_examples=60, deadline=None)
def test_result_is_permutation(pq):
    p, q = pq
    r = steady_ant_combined(p, q)
    assert sorted(r.tolist()) == list(range(p.size))


@given(pairs(max_n=24))
@settings(max_examples=50, deadline=None)
def test_minplus_identity_holds_pointwise(pq):
    """R_sigma(i,k) = min_j P_sigma(i,j) + Q_sigma(j,k) at every point."""
    p, q = pq
    r = steady_ant_combined(p, q)
    dp, dq, dr = distribution_matrix(p), distribution_matrix(q), distribution_matrix(r)
    n = p.size
    for i in range(0, n + 1, max(1, n // 5)):
        for k in range(0, n + 1, max(1, n // 5)):
            assert dr[i, k] == (dp[i, :] + dq[:, k]).min()


@given(permutations)
@settings(max_examples=60, deadline=None)
def test_identity_is_neutral(p):
    ident = np.arange(p.size)
    assert np.array_equal(steady_ant_combined(ident, p), p)
    assert np.array_equal(steady_ant_combined(p, ident), p)


@given(permutations)
@settings(max_examples=40, deadline=None)
def test_reverse_is_absorbing(p):
    """w0 (the reverse permutation) absorbs everything: p ⊙ w0 = w0."""
    rev = np.arange(p.size)[::-1].copy()
    assert np.array_equal(steady_ant_combined(p, rev), rev)
    assert np.array_equal(steady_ant_combined(rev, p), rev)
