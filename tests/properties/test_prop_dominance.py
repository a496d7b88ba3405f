"""Property-based tests for dominance counting and the braid model."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.braid import StickyBraid
from repro.core.combing.iterative import cut_positions
from repro.core.dist_matrix import dominance_count
from repro.core.dominance import (
    DenseCounter,
    DominanceCounter,
    WaveletCounter,
    counter_from_bytes,
    counter_to_bytes,
)

permutations = st.integers(0, 2**32 - 1).flatmap(
    lambda seed: st.integers(1, 80).map(
        lambda n: np.random.default_rng(seed).permutation(n)
    )
)


@given(permutations, st.data())
@settings(max_examples=150, deadline=None)
def test_counters_agree_with_definition(p, data):
    n = p.size
    dense = DenseCounter(p)
    tree = DominanceCounter(p)
    wavelet = WaveletCounter(p)
    i = data.draw(st.integers(0, n))
    j = data.draw(st.integers(0, n))
    want = dominance_count(p, i, j)
    assert dense.count(i, j) == want
    assert tree.count(i, j) == want
    assert wavelet.count(i, j) == want


@given(permutations, st.data())
@settings(max_examples=100, deadline=None)
def test_count_many_matches_elementwise_count(p, data):
    """One vectorized descent == a loop of scalar descents, for every
    counter kind, including out-of-range indices (clamped) and any
    integer dtype of the probe arrays."""
    n = p.size
    k = data.draw(st.integers(0, 12))
    dtype = data.draw(st.sampled_from([np.int64, np.int32, np.intp]))
    i_arr = np.asarray(
        data.draw(st.lists(st.integers(-3, n + 3), min_size=k, max_size=k)),
        dtype=dtype,
    )
    j_arr = np.asarray(
        data.draw(st.lists(st.integers(-3, n + 3), min_size=k, max_size=k)),
        dtype=dtype,
    )
    for counter in (DenseCounter(p), DominanceCounter(p), WaveletCounter(p)):
        out = counter.count_many(i_arr, j_arr)
        assert out.shape == i_arr.shape
        assert out.tolist() == [
            counter.count(int(i), int(j)) for i, j in zip(i_arr, j_arr)
        ]


@given(permutations, st.data())
@settings(max_examples=100, deadline=None)
def test_counter_bytes_round_trip(p, data):
    """A serialized wavelet matrix answers exactly like the original
    after a bytes round-trip; the reference structures have no
    serialized form."""
    n = p.size
    assert counter_to_bytes(DenseCounter(p)) is None
    assert counter_to_bytes(DominanceCounter(p)) is None
    i = data.draw(st.integers(0, n))
    j = data.draw(st.integers(0, n))
    counter = WaveletCounter(p)
    revived = counter_from_bytes(counter_to_bytes(counter))
    assert type(revived) is WaveletCounter
    assert revived.n == n
    assert revived.count(i, j) == counter.count(i, j)
    js = np.arange(n + 1, dtype=np.int64)
    assert (
        revived.count_many(np.full_like(js, i), js).tolist()
        == counter.count_many(np.full_like(js, i), js).tolist()
    )


@given(permutations)
@settings(max_examples=60, deadline=None)
def test_count_monotonicity(p):
    """count(i, j) is nonincreasing in i and nondecreasing in j."""
    tree = DominanceCounter(p)
    n = p.size
    step = max(1, n // 6)
    for i in range(0, n, step):
        for j in range(0, n, step):
            assert tree.count(i, j) <= tree.count(i, j + step)
            assert tree.count(i + step, j) <= tree.count(i, j)


@given(st.tuples(st.integers(1, 10), st.integers(1, 10)), st.data())
@settings(max_examples=120, deadline=None)
def test_cut_positions_bijective_everywhere(mn, data):
    m, n = mn
    d = data.draw(st.integers(0, m + n))
    h, v = cut_positions(d, m, n)
    assert sorted(np.concatenate([h, v]).tolist()) == list(range(m + n))


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=10),
    st.lists(st.integers(0, 1), min_size=1, max_size=10),
)
@settings(max_examples=100, deadline=None)
def test_braid_reduced_and_crossing_bound(a, b):
    braid = StickyBraid(a, b)
    assert braid.is_reduced()
    # at most one crossing per strand pair
    assert braid.crossing_count <= len(a) * len(b)
    # matches never cross
    for d in braid.decisions:
        if d.match:
            assert not d.crossed
