"""Tests for the precalc table (packed small-permutation products)."""

import numpy as np
import pytest
from itertools import permutations

from repro.core.dist_matrix import sticky_multiply_dense
from repro.core.steady_ant.precalc import (
    PrecalcTable,
    get_precalc_table,
    pack,
    steady_ant_precalc,
    unpack,
)


class TestPacking:
    def test_roundtrip(self):
        for perm in permutations(range(4)):
            assert unpack(pack(perm), 4).tolist() == list(perm)

    def test_paper_packing_format(self):
        """k-th tetrade holds the column of the nonzero in row k."""
        word = pack([2, 0, 1])
        assert (word >> 0) & 0xF == 2
        assert (word >> 4) & 0xF == 0
        assert (word >> 8) & 0xF == 1

    def test_max_order_8(self):
        p = list(range(8))[::-1]
        assert unpack(pack(p), 8).tolist() == p


class TestTable:
    def test_small_table_sizes(self):
        t = PrecalcTable(max_order=3)
        # 1!^2 + 2!^2 + 3!^2 = 1 + 4 + 36
        assert len(t) == 41

    def test_paper_table_size(self):
        t = get_precalc_table(5)
        # paper footnote 6: (5!)^2 = 14400 pairs at order 5
        assert len(t) == 1 + 4 + 36 + 576 + 14400

    def test_all_order3_products_correct(self):
        t = PrecalcTable(max_order=3)
        for p in permutations(range(3)):
            for q in permutations(range(3)):
                pa = np.asarray(p)
                qa = np.asarray(q)
                assert np.array_equal(t.multiply(pa, qa), sticky_multiply_dense(pa, qa))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            PrecalcTable(max_order=0)
        with pytest.raises(ValueError):
            PrecalcTable(max_order=9)

    def test_shared_table_cached(self):
        assert get_precalc_table(4) is get_precalc_table(4)


class TestWarmOnce:
    def test_builds_exactly_once_per_process(self, monkeypatch):
        from repro.core.steady_ant import precalc as mod
        from repro.obs import get_metrics

        monkeypatch.setattr(mod, "_shared_tables", {})
        metrics = get_metrics()
        builds0 = metrics.get("steady_ant.precalc_builds").value
        hits0 = metrics.get("steady_ant.precalc_hits").value
        first = get_precalc_table(5)
        for _ in range(4):
            assert get_precalc_table(5) is first
        assert metrics.get("steady_ant.precalc_builds").value - builds0 == 1
        assert metrics.get("steady_ant.precalc_hits").value - hits0 == 4

    def test_worker_cache_hits_collected_from_processes(self):
        """Pool workers serving many steady-ant tasks must warm the table
        once each and answer the rest from cache; the hit counter rides
        home in the round's metric delta."""
        from repro.obs import get_metrics
        from repro.parallel import ProcessMachine

        metrics = get_metrics()
        hits_before = metrics.get("steady_ant.precalc_hits").value
        rng = np.random.default_rng(3)
        specs = [
            (steady_ant_precalc, (rng.permutation(40), rng.permutation(40)), {})
            for _ in range(8)
        ]
        prev = metrics.remote_collection
        metrics.remote_collection = True
        try:
            with ProcessMachine(workers=2) as machine:
                results = machine.run_round(specs)
        finally:
            metrics.remote_collection = prev
        assert len(results) == 8
        # 8 tasks across <= 2 fresh workers: at least 6 lookups were
        # answered by an already-built table, merged back via the delta
        assert metrics.get("steady_ant.precalc_hits").value - hits_before >= 6


class TestPrecalcMultiply:
    def test_matches_dense_with_order4_table(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 30))
            p, q = rng.permutation(n), rng.permutation(n)
            got = steady_ant_precalc(p, q, max_order=4)
            assert np.array_equal(got, sticky_multiply_dense(p, q))

    def test_empty(self):
        assert steady_ant_precalc(np.array([], dtype=int), np.array([], dtype=int)).size == 0
