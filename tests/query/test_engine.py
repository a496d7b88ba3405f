"""QueryEngine: one cached kernel, many queries, two memoization levels."""

import numpy as np
import pytest

from repro import semilocal_lcs
from repro.baselines.lcs_dp import lcs_score_dp
from repro.checkpoint import KernelStore
from repro.errors import QueryError
from repro.query import QUERY_ALGORITHM, QueryEngine

A, B = "dynamicprogramming", "programmingdynamics"


class TestQueryCorrectness:
    def test_lcs_matches_dp(self):
        eng = QueryEngine()
        assert eng.lcs(A, B) == lcs_score_dp(A, B)

    def test_windowed_lcs_matches_dp(self):
        eng = QueryEngine()
        w = 5
        out = eng.windowed_lcs(A, B, w)
        assert len(out) == len(B) - w + 1
        for l, score in enumerate(out):
            assert score == lcs_score_dp(A, B[l : l + w])

    def test_all_prefix_scores_match_dp(self):
        eng = QueryEngine()
        out = eng.all_prefix_scores(A, B)
        assert [int(s) for s in out] == [
            lcs_score_dp(A, B[:r]) for r in range(len(B) + 1)
        ]

    def test_all_suffix_scores_match_dp(self):
        eng = QueryEngine()
        out = eng.all_suffix_scores(A, B)
        assert [int(s) for s in out] == [
            lcs_score_dp(A, B[l:]) for l in range(len(B) + 1)
        ]

    def test_threshold_matches_against_find_matches(self):
        from repro.apps.approximate_matching import find_matches

        eng = QueryEngine()
        got = eng.substring_threshold_matches("abcab", "zzabcabzzabcab", 0.8)
        want = [
            (m.start, m.end, m.score)
            for m in find_matches("abcab", "zzabcabzzabcab", 4, window=5)
        ]
        assert got == want and got

    def test_window_validation(self):
        eng = QueryEngine()
        with pytest.raises(QueryError):
            eng.windowed_lcs(A, B, 0)
        with pytest.raises(QueryError):
            eng.windowed_lcs(A, B, len(B) + 1)
        with pytest.raises(QueryError):
            eng.substring_threshold_matches(A, B, 1.5)

    def test_unknown_op_rejected(self):
        with pytest.raises(QueryError, match="unknown query op"):
            QueryEngine().answer("frobnicate", "a", "b")


class TestMemoization:
    def test_one_kernel_serves_many_ops(self):
        """The acceptance-criterion shape: >= 4 query types, one build."""
        eng = QueryEngine()
        eng.lcs(A, B)
        eng.windowed_lcs(A, B, 4)
        eng.all_prefix_scores(A, B)
        eng.all_suffix_scores(A, B)
        eng.substring_threshold_matches(A, B, 0.5, window=6)
        assert eng.kernel_builds == 1
        assert eng.kernel_misses == 1
        assert eng.kernel_hits == 4
        assert eng.hit_rate == pytest.approx(0.8)

    def test_memory_lru_caps_live_kernels(self):
        eng = QueryEngine(max_kernels=2)
        for i in range(5):
            eng.lcs("ab" * (i + 1), B)
        assert len(eng._mem) == 2
        # most recent pair is still a hit
        hits = eng.kernel_hits
        eng.lcs("ab" * 5, B)
        assert eng.kernel_hits == hits + 1

    def test_store_shared_across_engines(self, tmp_path):
        store = KernelStore(tmp_path / "cache")
        eng1 = QueryEngine(store=store)
        eng1.lcs(A, B)
        eng2 = QueryEngine(store=KernelStore(tmp_path / "cache"))
        assert eng2.cached(A, B)
        assert eng2.lcs(A, B) == lcs_score_dp(A, B)
        assert eng2.kernel_builds == 0
        assert eng2.kernel_hits == 1

    def test_extensions_read_the_store(self, tmp_path):
        """A second engine over the same store (a restarted daemon, or
        one whose memory LRU evicted the pair) answers append and
        prepend from the stored extended kernels: nothing re-extended,
        nothing rewritten."""
        first = QueryEngine(store=KernelStore(tmp_path / "cache"))
        first.append(A, "XYZ", B)
        first.prepend("XYZ", A, B)
        store = KernelStore(tmp_path / "cache")
        second = QueryEngine(store=store)
        assert second.cached(A + "XYZ", B) and second.cached("XYZ" + A, B)
        assert second.append(A, "XYZ", B).lcs_whole() == lcs_score_dp(A + "XYZ", B)
        assert second.prepend("XYZ", A, B).lcs_whole() == lcs_score_dp("XYZ" + A, B)
        assert second.appends == second.prepends == 0
        assert second.kernel_hits == 2
        assert store.writes == 0

    def test_corrupt_store_entry_is_rebuilt(self, tmp_path):
        store = KernelStore(tmp_path / "cache")
        eng = QueryEngine(store=store)
        eng.lcs(A, B)
        key = eng.key_of(A, B)
        # flip bytes in the payload behind the store's back
        payload = store._payload_path(key)
        payload.write_bytes(b"garbage" * 10)
        fresh = QueryEngine(store=KernelStore(tmp_path / "cache"))
        assert fresh.lcs(A, B) == lcs_score_dp(A, B)
        assert fresh.kernel_builds == 1

    def test_install_kernel_adopts_external_build(self):
        eng = QueryEngine()
        perm = semilocal_lcs(A, B).kernel
        eng.install_kernel(A, B, perm)
        assert eng.cached(A, B)
        assert eng.lcs(A, B) == lcs_score_dp(A, B)
        assert eng.kernel_builds == 0

    def test_max_kernels_validation(self):
        with pytest.raises(QueryError):
            QueryEngine(max_kernels=0)


class TestAppend:
    def test_append_equals_from_scratch(self):
        eng = QueryEngine()
        composite = eng.append(A, "XYZing", B)
        scratch = semilocal_lcs(A + "XYZing", B)
        np.testing.assert_array_equal(composite.kernel, scratch.kernel)
        assert eng.appends == 1

    def test_append_caches_extended_pair(self):
        eng = QueryEngine()
        eng.append(A, "XYZ", B)
        assert eng.cached(A + "XYZ", B)
        builds = eng.kernel_builds
        assert eng.lcs(A + "XYZ", B) == lcs_score_dp(A + "XYZ", B)
        assert eng.kernel_builds == builds  # plain hit, no recomb

    def test_empty_suffix_is_base_kernel(self):
        eng = QueryEngine()
        assert eng.append(A, "", B).lcs_whole() == lcs_score_dp(A, B)
        assert eng.appends == 0

    def test_answer_append_returns_score(self):
        eng = QueryEngine()
        got = eng.answer("append", A, B, suffix="XYZ")
        assert got == lcs_score_dp(A + "XYZ", B)


class TestPrepend:
    def test_prepend_equals_from_scratch(self):
        eng = QueryEngine()
        composite = eng.prepend("XYZing", A, B)
        scratch = semilocal_lcs("XYZing" + A, B)
        np.testing.assert_array_equal(composite.kernel, scratch.kernel)
        assert eng.prepends == 1

    def test_prepend_caches_extended_pair(self):
        eng = QueryEngine()
        eng.prepend("XYZ", A, B)
        assert eng.cached("XYZ" + A, B)
        builds = eng.kernel_builds
        assert eng.lcs("XYZ" + A, B) == lcs_score_dp("XYZ" + A, B)
        assert eng.kernel_builds == builds  # plain hit, no recomb

    def test_empty_prefix_is_base_kernel(self):
        eng = QueryEngine()
        assert eng.prepend("", A, B).lcs_whole() == lcs_score_dp(A, B)
        assert eng.prepends == 0

    def test_answer_prepend_returns_score(self):
        eng = QueryEngine()
        got = eng.answer("prepend", A, B, prefix="XYZ")
        assert got == lcs_score_dp("XYZ" + A, B)

    def test_prepend_then_append_compose(self):
        eng = QueryEngine()
        eng.append(A, "tail", B)
        eng.prepend("head", A + "tail", B)
        assert eng.cached("head" + A + "tail", B)
        assert eng.lcs("head" + A + "tail", B) == lcs_score_dp("head" + A + "tail", B)


class TestCounterPersistence:
    """The tentpole regression: a KernelStore disk hit must answer
    array-valued queries without re-running the O(n log n) counter
    build (``kernel.counter_builds`` pinned at zero on the second
    engine). ``dense_threshold=4`` forces the persistable wavelet
    counter on these short test strings."""

    def test_store_hit_skips_counter_build(self, tmp_path):
        from repro.obs.metrics import get_metrics

        first = QueryEngine(store=KernelStore(tmp_path / "c"), dense_threshold=4)
        baseline = [int(s) for s in first.all_prefix_scores(A, B)]

        builds = get_metrics().counter("kernel.counter_builds")
        before = builds.value
        second = QueryEngine(store=KernelStore(tmp_path / "c"), dense_threshold=4)
        out = [int(s) for s in second.all_prefix_scores(A, B)]
        assert out == baseline
        assert out == [lcs_score_dp(A, B[:r]) for r in range(len(B) + 1)]
        assert builds.value == before  # deserialized sidecar, no rebuild
        assert second.kernel_builds == 0  # and no recomb either

    def test_pre_sidecar_artifact_still_loads(self, tmp_path):
        """Artifacts written before counter sidecars existed (no
        ``counter_sha256`` in the manifest) keep answering queries —
        the counter is simply rebuilt."""
        store = KernelStore(tmp_path / "c")
        eng = QueryEngine(store=store, dense_threshold=4)
        key = eng.key_of(A, B)
        perm = eng.kernel(A, B).kernel
        store.put(key, perm, algorithm=QUERY_ALGORITHM, m=len(A), n=len(B))
        assert not store._counter_path(key).exists()

        fresh = QueryEngine(store=KernelStore(tmp_path / "c"), dense_threshold=4)
        out = [int(s) for s in fresh.all_prefix_scores(A, B)]
        assert out == [lcs_score_dp(A, B[:r]) for r in range(len(B) + 1)]
        assert fresh.kernel_builds == 0  # permutation still a disk hit

    def test_corrupt_sidecar_never_poisons_answers(self, tmp_path):
        store = KernelStore(tmp_path / "c")
        QueryEngine(store=store, dense_threshold=4).lcs(A, B)
        key = QueryEngine().key_of(A, B)
        sidecar = store._counter_path(key)
        assert sidecar.exists()
        sidecar.write_bytes(b"garbage")

        fresh = QueryEngine(store=KernelStore(tmp_path / "c"), dense_threshold=4)
        assert fresh.lcs(A, B) == lcs_score_dp(A, B)

    def test_counter_kind_is_threaded(self, tmp_path):
        eng = QueryEngine(
            store=KernelStore(tmp_path / "c"),
            dense_threshold=4,
            counter_kind="merge-sort-tree",
        )
        assert eng.kernel(A, B).counter_kind == "merge-sort-tree"
        # the persisted sidecar revives as the same kind on a new engine
        second = QueryEngine(
            store=KernelStore(tmp_path / "c"),
            dense_threshold=4,
            counter_kind="merge-sort-tree",
        )
        kern = second.kernel(A, B)
        assert kern.counter_kind == "merge-sort-tree"
        assert kern._counter.kind == "merge-sort-tree"


class TestStats:
    def test_stats_document(self, tmp_path):
        eng = QueryEngine(store=KernelStore(tmp_path / "c"))
        eng.lcs(A, B)
        eng.lcs(A, B)
        doc = eng.stats()
        assert doc["requests"] == 2
        assert doc["kernel_builds"] == 1
        assert doc["memory_kernels"] == 1
        assert 0.0 <= doc["hit_rate"] <= 1.0
        assert "store" in doc and doc["store"]["writes"] == 1

    def test_store_label_is_canonical(self, tmp_path):
        store = KernelStore(tmp_path / "c")
        eng = QueryEngine(store=store)
        eng.lcs(A, B)
        (manifest,) = list(store.entries())
        assert manifest["algorithm"] == QUERY_ALGORITHM
