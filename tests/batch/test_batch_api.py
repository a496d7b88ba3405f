"""Property: the batch API is indistinguishable from the per-pair loop.

The kernel is unique, so the lockstep batch must return exactly what
``[semilocal_lcs(a, b, algorithm) for a, b in pairs]`` does for every
algorithm, blend and strand dtype of the per-pair combers — and keep
doing so under injected faults and transport degradation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import batch_bit_lcs, batch_lcs, batch_semilocal_lcs, semilocal_lcs
from repro.batch import scheduler
from repro.parallel import make_machine, shared_memory_available

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)


@pytest.fixture(autouse=True, scope="module")
def small_buckets():
    """A bucket floor of 4 spreads these short pairs over several buckets,
    so one batch runs several megabatches of different shapes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "MIN_SIDE", 4)
        yield


# ragged batches: lengths 0..18 including empties, ternary alphabet
ragged_batches = st.lists(
    st.tuples(
        st.lists(st.integers(0, 2), min_size=0, max_size=18),
        st.lists(st.integers(0, 2), min_size=0, max_size=18),
    ),
    min_size=1,
    max_size=8,
)


def _codes(batch):
    return [
        (np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)) for a, b in batch
    ]


def _check(pairs, algorithms=("semi_antidiag_simd",), *, machine=None, **kwargs):
    """Batch kernels == ``semilocal_lcs(a, b, alg, **kwargs)`` for each alg."""
    got = batch_semilocal_lcs(pairs, machine=machine)
    for algorithm in algorithms:
        for (a, b), kern in zip(pairs, got):
            ref = semilocal_lcs(a, b, algorithm=algorithm, **kwargs)
            assert kern.m == ref.m and kern.n == ref.n
            assert np.array_equal(kern.kernel, ref.kernel), algorithm


@given(ragged_batches)
@settings(max_examples=40, deadline=None)
def test_batch_equals_loop_every_algorithm(batch):
    _check(_codes(batch), sorted(repro.SEMILOCAL_ALGORITHMS))


@given(
    ragged_batches,
    st.sampled_from(["where", "masked", "arith", "bitwise", "minmax"]),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_batch_equals_loop_every_blend_and_dtype(batch, blend, use_16bit):
    pairs = _codes(batch)
    _check(pairs, blend=blend, use_16bit_when_possible=use_16bit)
    scores = batch_lcs(pairs)
    assert list(scores) == [repro.lcs(a, b) for a, b in pairs]


@given(ragged_batches)
@settings(max_examples=20, deadline=None)
def test_batch_bit_lcs_equals_loop(batch):
    pairs = [
        (np.clip(np.asarray(a, dtype=np.int64), 0, 1), np.clip(np.asarray(b, dtype=np.int64), 0, 1))
        for a, b in batch
    ]
    scores = batch_bit_lcs(pairs)
    assert list(scores) == [repro.bit_lcs(a, b) for a, b in pairs]


@given(ragged_batches, st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_batch_equals_loop_under_chaos(batch, seed):
    """Injected task failures must be absorbed, never change results."""
    import warnings

    pairs = _codes(batch)
    machine = make_machine(
        "serial", policy=True, chaos={"fail_rate": 0.4, "seed": seed}
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _check(pairs, machine=machine)


@needs_shm
def test_batch_equals_loop_processes_resilient_chaos(rng):
    import warnings

    pairs = [
        (rng.integers(0, 4, int(rng.integers(0, 30))), rng.integers(0, 4, int(rng.integers(0, 30))))
        for _ in range(15)
    ]
    machine = make_machine(
        "processes",
        workers=2,
        transport="shm",
        policy=True,
        chaos={"fail_rate": 0.3, "seed": 5},
    )
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _check(pairs, machine=machine)
    finally:
        machine.close()


@needs_shm
def test_batch_survives_shm_loss_pickle_fallback(rng):
    """Mid-run shared-memory outage degrades to pickle, results intact."""
    import warnings

    pairs = [
        (rng.integers(0, 4, 20), rng.integers(0, 4, 25)) for _ in range(12)
    ]
    machine = make_machine("processes", workers=2, transport="shm")
    # the one megabatch packs two slabs: the outage lands on the second
    machine.inject_shm_loss(1)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scores = batch_lcs(pairs, machine=machine)
        assert list(scores) == [repro.lcs(a, b) for a, b in pairs]
        assert machine.transport_stats()["transport_fallbacks"] > 0
    finally:
        machine.close()
