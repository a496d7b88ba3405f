"""Strand-compaction boundary behaviour.

Strand labels and the grid's transported kernels are ``uint16`` only
while every value provably fits; at the 16-bit threshold the code
must fall back to ``int64`` rather than silently wrap. The end-to-end
tests shrink the threshold so the grid, the single-pair default and
lockstep straddle it both ways.
"""

import numpy as np

from repro.batch.lockstep import comb_lockstep, lockstep_strand_dtype, pack_lanes
from repro.core.combing import iterative as it
from repro.core.combing import parallel as par
from repro.core.combing.hybrid import hybrid_combing_grid
from repro.core.combing.iterative import _UNSIGNED_LIMIT_16, strand_dtype
from repro.core.combing.parallel import _compact_perm, parallel_hybrid_combing_grid
from repro.parallel import SerialMachine, ThreadMachine


class TestDtypeChoice:
    def test_at_the_limit_stays_uint16(self):
        m = _UNSIGNED_LIMIT_16 // 2
        assert strand_dtype(m, _UNSIGNED_LIMIT_16 - m, True) == np.uint16

    def test_over_the_limit_falls_back(self):
        m = _UNSIGNED_LIMIT_16 // 2
        assert strand_dtype(m, _UNSIGNED_LIMIT_16 - m + 1, True) == np.int64

    def test_opt_out_is_always_wide(self):
        assert strand_dtype(4, 4, False) == np.int64


class TestCompactPerm:
    def test_at_the_limit_compacts_losslessly(self):
        perm = np.arange(_UNSIGNED_LIMIT_16, dtype=np.int64)[::-1].copy()
        got = _compact_perm(perm)
        assert got.dtype == np.uint16
        assert np.array_equal(got.astype(np.int64), perm)

    def test_over_the_limit_stays_int64(self):
        perm = np.arange(_UNSIGNED_LIMIT_16 + 1, dtype=np.int64)
        got = _compact_perm(perm)
        assert got.dtype == np.int64
        assert got is perm


class TestEndToEndAtShrunkenLimit:
    """Monkeypatch the threshold to straddle it with toy inputs: kernels
    just under it compact, just over it ride int64 — identical values
    either way, proving the fallback is overflow-free."""

    def _patched(self, monkeypatch, limit):
        monkeypatch.setattr(par, "_UNSIGNED_LIMIT_16", limit)
        monkeypatch.setattr(it, "_UNSIGNED_LIMIT_16", limit)

    def test_grid_straddling_the_limit(self, monkeypatch, rng):
        a = "".join("abcd"[i] for i in rng.integers(0, 4, 40))
        b = "".join("abcd"[i] for i in rng.integers(0, 4, 36))
        want = np.asarray(hybrid_combing_grid(a, b, 3), dtype=np.int64)
        for limit in (30, 75, 76, 200):  # m+n=76: below, at, above
            self._patched(monkeypatch, limit)
            for machine in (SerialMachine(), ThreadMachine(workers=2)):
                got = parallel_hybrid_combing_grid(a, b, machine, n_tasks=4)
                close = getattr(machine, "close", None)
                if close:
                    close()
                assert np.array_equal(np.asarray(got, dtype=np.int64), want), limit

    def test_single_pair_and_lockstep_straddling_the_limit(self, monkeypatch, rng):
        a = rng.integers(0, 4, 36)
        b = rng.integers(0, 4, 40)
        short_a, short_b = a[:20], b[:30]
        want = it.iterative_combing_rowmajor(a, b)
        want_short = it.iterative_combing_rowmajor(short_a, short_b)
        seen = []
        kernel = it.comb_antidiagonals

        def spy(a_rev, b_codes, h, *args, **kwargs):
            seen.append(h.dtype)
            return kernel(a_rev, b_codes, h, *args, **kwargs)

        monkeypatch.setattr(it, "comb_antidiagonals", spy)
        for limit in (30, 75, 76, 200):  # m+n=76: below, at, above
            self._patched(monkeypatch, limit)
            dt = np.dtype(np.uint16 if 76 <= limit else np.int64)
            assert lockstep_strand_dtype(36, 40) == dt, limit
            seen.clear()
            assert np.array_equal(it.iterative_combing_antidiag_simd(a, b), want), limit
            # one ragged lane exercises the padding
            stacks = pack_lanes([(a, b), (short_a, short_b)], 36, 40)
            got = comb_lockstep(*stacks)
            assert np.array_equal(got[0].astype(np.int64), want), limit
            assert np.array_equal(got[1, :50].astype(np.int64), want_short), limit
            assert seen == [dt, dt], limit

    def test_compact_respects_patched_limit(self, monkeypatch):
        self._patched(monkeypatch, 10)
        small = np.arange(10, dtype=np.int64)
        big = np.arange(11, dtype=np.int64)
        assert par._compact_perm(small).dtype == np.uint16
        assert par._compact_perm(big).dtype == np.int64
