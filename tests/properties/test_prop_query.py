"""Property-based tests for the query tier: every query op equals a
brute-force recompute, append composition equals a from-scratch kernel
across input blends and dtypes, and the store's LRU cache mode respects
its byte budget with touch-correct eviction order."""

import tempfile
from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import semilocal_lcs
from repro.baselines.lcs_dp import lcs_score_dp
from repro.checkpoint import KernelStore, kernel_key
from repro.query import QueryEngine

seqs = st.lists(st.integers(0, 3), min_size=0, max_size=20)
nonempty = st.lists(st.integers(0, 3), min_size=1, max_size=20)
texts = st.text(alphabet="abc", min_size=1, max_size=20)


@given(seqs, nonempty, st.data())
@settings(max_examples=60, deadline=None)
def test_queries_equal_brute_force(a, b, data):
    """One cached kernel answers every op exactly like a fresh DP."""
    eng = QueryEngine()
    n = len(b)
    assert eng.lcs(a, b) == lcs_score_dp(a, b)
    assert [int(s) for s in eng.all_prefix_scores(a, b)] == [
        lcs_score_dp(a, b[:r]) for r in range(n + 1)
    ]
    assert [int(s) for s in eng.all_suffix_scores(a, b)] == [
        lcs_score_dp(a, b[l:]) for l in range(n + 1)
    ]
    w = data.draw(st.integers(1, n), label="window")
    assert [int(s) for s in eng.windowed_lcs(a, b, w)] == [
        lcs_score_dp(a, b[l : l + w]) for l in range(n - w + 1)
    ]
    # all four ops shared one combing
    assert eng.kernel_builds == 1


@given(nonempty, nonempty, st.data())
@settings(max_examples=40, deadline=None)
def test_threshold_matches_equal_brute_force(a, b, data):
    """Every reported match meets the threshold, scores match the DP, and
    matches do not overlap."""
    theta = data.draw(
        st.floats(0.1, 1.0, allow_nan=False, exclude_min=False), label="theta"
    )
    w = data.draw(st.integers(1, len(b)), label="window")
    eng = QueryEngine()
    matches = eng.substring_threshold_matches(a, b, theta, window=w)
    import math

    min_score = math.ceil(theta * w)
    prev_end = 0
    for start, end, score in matches:
        assert end - start == w
        assert score >= min_score
        assert score == lcs_score_dp(a, b[start:end])
        assert start >= prev_end  # non-overlapping, left to right
        prev_end = end


@given(seqs, seqs, nonempty)
@settings(max_examples=50, deadline=None)
def test_append_equals_from_scratch_ints(a, suffix, b):
    eng = QueryEngine()
    composite = eng.append(a, suffix, b)
    scratch = semilocal_lcs(list(a) + list(suffix), b)
    np.testing.assert_array_equal(composite.kernel, scratch.kernel)


@given(texts, st.text(alphabet="abc", max_size=8), texts)
@settings(max_examples=50, deadline=None)
def test_append_equals_from_scratch_text(a, suffix, b):
    eng = QueryEngine()
    composite = eng.append(a, suffix, b)
    scratch = semilocal_lcs(a + suffix, b)
    np.testing.assert_array_equal(composite.kernel, scratch.kernel)


@given(st.text(alphabet="abc", max_size=8), texts, texts)
@settings(max_examples=50, deadline=None)
def test_prepend_equals_from_scratch_text(prefix, a, b):
    """The Thm 3.5 mirror: prepending combs only the prefix block and
    stacks it above the cached kernel — same result as recombing."""
    eng = QueryEngine()
    composite = eng.prepend(prefix, a, b)
    scratch = semilocal_lcs(prefix + a, b)
    np.testing.assert_array_equal(composite.kernel, scratch.kernel)


@given(texts, texts)
@settings(max_examples=30, deadline=None)
def test_persisted_counter_preserves_all_answers(a, b):
    """A second engine hitting the store (permutation + counter sidecar)
    answers every array-valued op exactly like the engine that built
    everything from scratch."""
    with tempfile.TemporaryDirectory() as root:
        first = QueryEngine(store=KernelStore(root))
        n = len(b)
        want_prefix = [int(s) for s in first.all_prefix_scores(a, b)]
        want_suffix = [int(s) for s in first.all_suffix_scores(a, b)]

        second = QueryEngine(store=KernelStore(root))
        assert [int(s) for s in second.all_prefix_scores(a, b)] == want_prefix
        assert [int(s) for s in second.all_suffix_scores(a, b)] == want_suffix
        assert want_prefix == [lcs_score_dp(a, b[:r]) for r in range(n + 1)]
        assert second.kernel_builds == 0  # disk hit, no recomb


@given(
    st.lists(st.integers(0, 255), min_size=1, max_size=12),
    st.lists(st.integers(0, 255), min_size=1, max_size=6),
    st.lists(st.integers(0, 255), min_size=1, max_size=12),
    st.sampled_from([np.uint8, np.int32, np.int64]),
)
@settings(max_examples=40, deadline=None)
def test_append_across_dtypes(a, suffix, b, dtype):
    """Composition is dtype-blind: uint8 codes and int64 codes give the
    same composite kernel as the from-scratch comb."""
    ca = np.asarray(a, dtype=dtype)
    cs = np.asarray(suffix, dtype=dtype)
    cb = np.asarray(b, dtype=dtype)
    eng = QueryEngine()
    composite = eng.append(ca, cs, cb)
    scratch = semilocal_lcs(np.concatenate([ca, cs]), cb)
    np.testing.assert_array_equal(composite.kernel, scratch.kernel)


# -- LRU cache-mode properties ------------------------------------------


def _fill_keys(count: int):
    """Distinct store keys for same-shape artifacts (equal byte sizes, so
    a byte budget behaves like a fixed-capacity LRU)."""
    return [kernel_key(np.arange(4), np.arange(4), f"algo{i}") for i in range(count)]


def _put(store, key):
    store.put(key, np.arange(8, dtype=np.int64), algorithm="a", m=4, n=4)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=24))
@settings(max_examples=30, deadline=None)
def test_lru_never_exceeds_max_bytes(puts):
    keys = _fill_keys(6)
    with tempfile.TemporaryDirectory() as probe_dir:
        probe = KernelStore(probe_dir)
        _put(probe, keys[0])
        size = probe._artifact_bytes(keys[0])
    budget = 3 * size + size // 2
    with tempfile.TemporaryDirectory() as root:
        store = KernelStore(root, max_bytes=budget)
        for i in puts:
            _put(store, keys[i])
            assert store.total_bytes() <= budget


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(0, 5)), min_size=1, max_size=30
    )
)
@settings(max_examples=30, deadline=None)
def test_touch_correct_eviction_order(ops):
    """Replaying random put/get traffic, the store holds exactly what a
    model capacity-3 LRU holds — gets refresh recency exactly like puts."""
    keys = _fill_keys(6)
    with tempfile.TemporaryDirectory() as probe_dir:
        probe = KernelStore(probe_dir)
        _put(probe, keys[0])
        size = probe._artifact_bytes(keys[0])
    capacity = 3
    with tempfile.TemporaryDirectory() as root:
        store = KernelStore(root, max_bytes=capacity * size + size // 2)
        model: "OrderedDict[str, bool]" = OrderedDict()
        for is_get, i in ops:
            key = keys[i]
            if is_get:
                got = store.get(key)
                if key in model:
                    assert got is not None
                    model.move_to_end(key)
                else:
                    assert got is None
            else:
                _put(store, key)
                model[key] = True
                model.move_to_end(key)
                while len(model) > capacity:
                    model.popitem(last=False)
            assert set(store.keys()) == set(model)
