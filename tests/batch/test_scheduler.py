"""BatchScheduler planning and dispatch over real machines."""

import numpy as np
import pytest

import repro
from repro.batch import BatchScheduler, batch_lcs, batch_semilocal_lcs
from repro.batch.scheduler import _ceil_pow2
from repro.obs import get_metrics
from repro.parallel import ProcessMachine, make_machine, shared_memory_available

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)


def _pairs(rng, count=20, max_len=40):
    pairs = []
    for _ in range(count):
        m = int(rng.integers(0, max_len))
        n = int(rng.integers(0, max_len))
        pairs.append(
            (rng.integers(0, 4, m).astype(np.int64), rng.integers(0, 4, n).astype(np.int64))
        )
    return pairs


def _reference(pairs):
    return [repro.semilocal_lcs(a, b) for a, b in pairs]


def _assert_equal(kernels, reference):
    for got, ref in zip(kernels, reference):
        assert got.m == ref.m and got.n == ref.n
        assert np.array_equal(got.kernel, ref.kernel)


def test_ceil_pow2_floor():
    assert _ceil_pow2(1, 16) == 16
    assert _ceil_pow2(17, 16) == 32
    assert _ceil_pow2(64, 16) == 64
    assert _ceil_pow2(65, 16) == 128


def test_algorithm_argument_rejected():
    """Every pair is combed in lockstep: there is no algorithm to pick."""
    pairs = [("abc", "abd")]
    with pytest.raises(TypeError):
        BatchScheduler(None, algorithm="semi_rowmajor")
    with pytest.raises(TypeError):
        batch_lcs(pairs, algorithm="semi_antidiag_simd")
    with pytest.raises(TypeError):
        batch_semilocal_lcs(pairs, algorithm="semi_antidiag_simd")
    with pytest.raises(TypeError):
        batch_lcs(pairs, "semi_antidiag_simd")
    with pytest.raises(TypeError):
        BatchScheduler(None, blend="minmax")


def test_in_process_kernels_and_scores(rng):
    pairs = _pairs(rng)
    ref = _reference(pairs)
    _assert_equal(batch_semilocal_lcs(pairs), ref)
    scores = batch_lcs(pairs)
    assert list(scores) == [k.lcs_whole() for k in ref]


def test_empty_and_trivial_pairs(rng):
    pairs = [("", ""), ("", "ABC"), ("ABC", ""), ("A", "A")]
    ref = _reference(pairs)
    _assert_equal(batch_semilocal_lcs(pairs), ref)
    assert list(batch_lcs(pairs)) == [0, 0, 0, 1]


def test_orientation_flip_restored(rng):
    # m > n pairs comb transposed and must flip back losslessly
    pairs = [
        (rng.integers(0, 4, 30).astype(np.int64), rng.integers(0, 4, 7).astype(np.int64)),
        (rng.integers(0, 4, 7).astype(np.int64), rng.integers(0, 4, 30).astype(np.int64)),
    ]
    _assert_equal(batch_semilocal_lcs(pairs), _reference(pairs))


def test_max_lanes_splits_megabatches(rng):
    pairs = [
        (rng.integers(0, 4, 12).astype(np.int64), rng.integers(0, 4, 12).astype(np.int64))
        for _ in range(10)
    ]
    before = get_metrics().get("batch.megabatches").value
    sched = BatchScheduler(None, max_lanes=3)
    sched.run(pairs, want="scores")
    added = get_metrics().get("batch.megabatches").value - before
    assert added == 4  # ceil(10 / 3) megabatches in the one shared bucket


def test_megabatch_padded_to_its_own_lanes(rng):
    """Each megabatch is padded to the largest oriented ``m`` and ``n`` of
    its own lanes, not to its power-of-two bucket key."""
    small = [(int(rng.integers(5, 40)), int(rng.integers(5, 40))) for _ in range(7)]
    large = [(int(rng.integers(130, 150)), int(rng.integers(200, 250))) for _ in range(3)]
    shapes = small + [(n, m) for m, n in large[:1]] + large[1:]  # one flipped lane
    pairs = [
        (rng.integers(0, 4, m).astype(np.int64), rng.integers(0, 4, n).astype(np.int64))
        for m, n in shapes
    ]
    expected = sum(
        max(min(s) for s in group) * max(max(s) for s in group) * len(group)
        for group in (small, large)
    )
    before = get_metrics().get("batch.padded_cells").value
    sched = BatchScheduler(None)
    scores = sched.run(pairs, want="scores")
    assert sched.last_stats["lanes"] == [len(small), len(large)]
    assert sched.last_stats["padded"] == expected
    assert get_metrics().get("batch.padded_cells").value - before == expected
    assert scores == [repro.lcs(a, b) for a, b in pairs]


def test_fallback_algorithms_match(rng):
    """The algorithms once served pair by pair agree with the lockstep comb,
    and every pair's cells are now combed in lockstep."""
    pairs = _pairs(rng, count=8, max_len=16)
    before = get_metrics().get("batch.real_cells").value
    got = batch_semilocal_lcs(pairs)
    assert get_metrics().get("batch.real_cells").value - before == sum(
        a.size * b.size for a, b in pairs
    )
    for algorithm in ("semi_rowmajor", "semi_recursive"):
        _assert_equal(
            got, [repro.semilocal_lcs(a, b, algorithm=algorithm) for a, b in pairs]
        )
    assert list(batch_lcs(pairs)) == [k.lcs_whole() for k in got]


def test_unsupported_kwargs_force_fallback(rng):
    """A strand dtype the lockstep comb does not take changes no kernel:
    the batch equals the per-pair comb run with that dtype."""
    pairs = _pairs(rng, count=4, max_len=10)
    ref = [
        repro.semilocal_lcs(a, b, algorithm="semi_antidiag_simd", dtype=np.int64)
        for a, b in pairs
    ]
    _assert_equal(batch_semilocal_lcs(pairs), ref)
    with pytest.raises(TypeError):
        batch_semilocal_lcs(pairs, dtype=np.int64)


@needs_shm
def test_process_machine_shm_round_trip(rng):
    pairs = _pairs(rng, count=25)
    ref = _reference(pairs)
    with ProcessMachine(workers=2, transport="shm") as machine:
        _assert_equal(batch_semilocal_lcs(pairs, machine=machine), ref)
        scores = batch_lcs(pairs, machine=machine)
        assert list(scores) == [k.lcs_whole() for k in ref]


@needs_shm
def test_slab_pool_reused_across_batches(rng):
    pairs = [
        (rng.integers(0, 4, 20).astype(np.int64), rng.integers(0, 4, 20).astype(np.int64))
        for _ in range(6)
    ]
    with ProcessMachine(workers=2, transport="shm") as machine:
        batch_lcs(pairs, machine=machine)
        first = machine.transport_stats()["arena"]
        assert first["slabs_free"] > 0 and first["slabs_used"] == 0
        before_allocs = get_metrics().get("transport.slab_allocs").value
        batch_lcs(pairs, machine=machine)
        second = machine.transport_stats()["arena"]
        # steady state: same segments recycled, nothing newly allocated
        assert second["segments"] == first["segments"]
        assert get_metrics().get("transport.slab_allocs").value == before_allocs
        reuses = get_metrics().get("transport.slab_reuses").value
        assert reuses > 0


@needs_shm
def test_pool_batch_is_one_round_largest_first(rng):
    """A batch on a pool is one round of one task per megabatch, the
    largest (``M * N * lanes``) submitted first."""
    shapes = [(100, 120)] * 5 + [(200, 250)] * 2 + [(300, 700)]  # three buckets
    pairs = [(rng.integers(0, 4, m), rng.integers(0, 4, n)) for m, n in shapes]
    submitted = []
    metrics = get_metrics()
    with ProcessMachine(workers=2, transport="shm") as machine:
        run = machine.run_round

        def spy(specs, **kw):
            submitted.append(
                [a.shape[0] * b.shape[0] * a.shape[1] for _, (a, b, _, _), _ in specs]
            )
            return run(specs, **kw)

        machine.run_round = spy
        before = {name: metrics.get(name).value for name in ("machine.rounds", "machine.tasks")}
        scores = batch_lcs(pairs, machine=machine)
        assert metrics.get("machine.rounds").value - before["machine.rounds"] == 1
        assert metrics.get("machine.tasks").value - before["machine.tasks"] == 3
    assert submitted == [[300 * 700, 200 * 250 * 2, 100 * 120 * 5]]
    assert list(scores) == [repro.lcs(a, b) for a, b in pairs]


def test_pickle_process_machine_round_trip(rng):
    pairs = _pairs(rng, count=6, max_len=12)
    ref = _reference(pairs)
    machine = make_machine("processes", workers=2)
    try:
        _assert_equal(batch_semilocal_lcs(pairs, machine=machine), ref)
        assert list(batch_lcs(pairs, machine=machine)) == [k.lcs_whole() for k in ref]
    finally:
        machine.close()


def test_serial_machine_supported(rng):
    pairs = _pairs(rng, count=6)
    machine = make_machine("serial")
    _assert_equal(batch_semilocal_lcs(pairs, machine=machine), _reference(pairs))


def test_invalid_want_and_lanes():
    with pytest.raises(ValueError, match="want"):
        BatchScheduler(None).run([("A", "B")], want="nope")
    with pytest.raises(ValueError, match="max_lanes"):
        BatchScheduler(None, max_lanes=0)


def test_metrics_accumulate(rng):
    pairs = _pairs(rng, count=5, max_len=10)
    metrics = get_metrics()
    before = {
        name: metrics.get(name).value
        for name in ("batch.pairs", "batch.megabatches", "batch.real_cells")
    }
    batch_lcs(pairs)
    assert metrics.get("batch.pairs").value - before["batch.pairs"] == len(pairs)
    assert metrics.get("batch.megabatches").value >= before["batch.megabatches"]
    real = sum(a.size * b.size for a, b in pairs)
    assert metrics.get("batch.real_cells").value - before["batch.real_cells"] == real
