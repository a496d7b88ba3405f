"""Unit tests for the level-vectorized steady ant.

The vectorized engine must be *bit-identical* to the scalar recursion:
its level-wide ant passage walks each staircase node by node on narrow
levels and in lockstep lanes on wide ones, and either walk must give the
scalar product. Its batched dense base product must match the per-pair
dense reference lane by lane.
"""

import numpy as np
import pytest

from repro.core.dist_matrix import sticky_multiply_dense
from repro.core.steady_ant import steady_ant_sequential, steady_ant_vectorized, vectorized
from repro.core.steady_ant.vectorized import batch_sticky_multiply, build_precalc_products


def _pairs(rng, n, count):
    return [(rng.permutation(n), rng.permutation(n)) for _ in range(count)]


class TestBatchedBaseProduct:
    def test_matches_dense_lane_by_lane(self, rng):
        for n in (1, 2, 3, 5, 8, 13, 16, 21):
            pairs = _pairs(rng, n, 7)
            got = batch_sticky_multiply(
                np.stack([p for p, _ in pairs]), np.stack([q for _, q in pairs])
            )
            for lane, (p, q) in enumerate(pairs):
                assert np.array_equal(got[lane], sticky_multiply_dense(p, q)), (n, lane)

    def test_empty_order(self):
        got = batch_sticky_multiply(
            np.empty((3, 0), dtype=np.int64), np.empty((3, 0), dtype=np.int64)
        )
        assert got.shape == (3, 0)

    def test_shape_mismatch_raises(self, rng):
        from repro.errors import ShapeMismatchError

        with pytest.raises(ShapeMismatchError):
            batch_sticky_multiply(
                np.stack([rng.permutation(4)]), np.stack([rng.permutation(5)])
            )


class TestVectorizedEngine:
    def test_matches_scalar_across_sizes(self, rng):
        for n in (1, 2, 7, 16, 17, 33, 64, 100, 257):
            p, q = rng.permutation(n), rng.permutation(n)
            assert np.array_equal(
                steady_ant_vectorized(p, q), steady_ant_sequential(p, q)
            ), n

    def test_base_order_is_a_real_knob(self, rng):
        p, q = rng.permutation(90), rng.permutation(90)
        want = steady_ant_sequential(p, q)
        for base_order in (2, 5, 16, 128):
            assert np.array_equal(
                steady_ant_vectorized(p, q, base_order=base_order), want
            ), base_order


class TestWalkCrossover:
    def _spy(self, monkeypatch, calls):
        for name in ("_walk_scalar", "_walk_lockstep"):
            real = getattr(vectorized, name)

            def walk(rc, rl, cr, cl, real=real, name=name):
                calls.append((name, rc.shape[0]))
                return real(rc, rl, cr, cl)

            monkeypatch.setattr(vectorized, name, walk)

    def test_one_product_runs_both_walks(self, monkeypatch, rng):
        # order 300 splits into groups of 1, 2, 4, 4+4 and 4+12 nodes:
        # at a crossover of 8 lanes only the 12-node group walks in lockstep
        monkeypatch.setattr(vectorized, "LOCKSTEP_WALK_LANES", 8)
        calls = []
        self._spy(monkeypatch, calls)
        p, q = rng.permutation(300), rng.permutation(300)
        assert np.array_equal(steady_ant_vectorized(p, q), steady_ant_sequential(p, q))
        assert {name for name, _ in calls} == {"_walk_scalar", "_walk_lockstep"}
        for name, lanes in calls:
            assert (name == "_walk_lockstep") == (lanes >= 8), (name, lanes)


class TestPrecalcBuilds:
    def test_build_products_match_dense(self):
        from itertools import permutations as iperm

        from repro.core.steady_ant.precalc import pack

        for n, packed_p, packed_q, packed_r in build_precalc_products(4):
            perms = {pack(np.asarray(p, dtype=np.int64)): np.asarray(p) for p in iperm(range(n))}
            for pp, qp, rp in zip(packed_p.tolist(), packed_q.tolist(), packed_r.tolist()):
                want = sticky_multiply_dense(perms[pp], perms[qp])
                assert rp == pack(want)
