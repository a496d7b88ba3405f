"""Crash/resume properties of checkpointed grid combing.

The acceptance property: interrupting a run after *any* prefix of
completed blocks and resuming in a new process yields a bit-identical
kernel — including when the interrupting fault is injected by
:class:`~repro.parallel.chaos.ChaosMachine` at a 20% rate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import GridCheckpointer, KernelStore
from repro.core.combing.hybrid import hybrid_combing_grid
from repro.core.combing.iterative import iterative_combing_rowmajor
from repro.core.combing.parallel import parallel_hybrid_combing_grid
from repro.parallel import (
    ChaosMachine,
    ChaosProcessDeath,
    FaultPolicy,
    ResilientMachine,
    SerialMachine,
    ThreadMachine,
)

from ..conftest import random_codes


class Interrupted(BaseException):
    """Stand-in for a crash: escapes the library like a real SIGKILL."""


def checkpointer(tmp_path, **kwargs):
    store = KernelStore(tmp_path / "store")
    # order-0 threshold: persist every compose, so tiny test grids
    # exercise the reduction-tree checkpoints too
    return store, GridCheckpointer(store, compose_min_order=0, **kwargs)


def interrupt_after(k):
    """An ``on_leaf`` callback raising after *k* completed leaves."""
    seen = []

    def on_leaf(m, n):
        seen.append((m, n))
        if len(seen) >= k:
            raise Interrupted(f"crash after {k} leaves")

    return on_leaf


codes = st.lists(st.integers(0, 3), min_size=1, max_size=24).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


class TestSerialCheckpointing:
    def test_checkpointed_equals_plain(self, tmp_path, rng):
        a, b = random_codes(rng, 21), random_codes(rng, 17)
        _, ckpt = checkpointer(tmp_path)
        got = hybrid_combing_grid(a, b, 6, checkpoint=ckpt)
        assert np.array_equal(got, hybrid_combing_grid(a, b, 6))

    def test_completed_run_resumes_as_one_hit(self, tmp_path, rng):
        a, b = random_codes(rng, 21), random_codes(rng, 17)
        store, ckpt = checkpointer(tmp_path)
        first = hybrid_combing_grid(a, b, 6, checkpoint=ckpt)
        store2 = KernelStore(tmp_path / "store")
        got = hybrid_combing_grid(
            a, b, 6, checkpoint=GridCheckpointer(store2, compose_min_order=0)
        )
        assert np.array_equal(got, first)
        assert store2.stats() == {"hits": 1, "misses": 0, "corrupt": 0, "writes": 0, "evictions": 0}

    def test_resume_false_recomputes_everything(self, tmp_path, rng):
        a, b = random_codes(rng, 21), random_codes(rng, 17)
        store, ckpt = checkpointer(tmp_path)
        hybrid_combing_grid(a, b, 6, checkpoint=ckpt)
        store2 = KernelStore(tmp_path / "store")
        ckpt2 = GridCheckpointer(store2, compose_min_order=0, resume=False)
        hybrid_combing_grid(a, b, 6, checkpoint=ckpt2)
        assert store2.stats()["hits"] == 0
        assert store2.stats()["writes"] > 0

    def test_different_grid_shape_reuses_root(self, tmp_path, rng):
        """The root artifact is shape-independent: a resumed run with a
        different task count still short-circuits."""
        a, b = random_codes(rng, 21), random_codes(rng, 17)
        _, ckpt = checkpointer(tmp_path)
        first = hybrid_combing_grid(a, b, 4, checkpoint=ckpt)
        store2 = KernelStore(tmp_path / "store")
        got = hybrid_combing_grid(
            a, b, 9, checkpoint=GridCheckpointer(store2, compose_min_order=0)
        )
        assert np.array_equal(got, first)
        assert store2.stats()["hits"] == 1

    @settings(max_examples=25, deadline=None)
    @given(a=codes, b=codes, prefix=st.integers(0, 35))
    def test_crash_after_any_prefix_resumes_bit_identical(
        self, tmp_path_factory, a, b, prefix
    ):
        """THE acceptance property (serial path): crash after any prefix
        of completed leaves, resume, get the bit-identical kernel."""
        tmp_path = tmp_path_factory.mktemp("ckpt")
        reference = iterative_combing_rowmajor(a, b)
        store, ckpt = checkpointer(tmp_path)
        try:
            hybrid_combing_grid(
                a, b, 6, checkpoint=ckpt, on_leaf=interrupt_after(prefix + 1)
            )
        except Interrupted:
            ckpt.flush()
        store2 = KernelStore(tmp_path / "store")
        got = hybrid_combing_grid(
            a, b, 6, checkpoint=GridCheckpointer(store2, compose_min_order=0)
        )
        assert np.array_equal(got, reference)

    def test_resume_reuses_the_crashed_runs_work(self, tmp_path, rng):
        a, b = random_codes(rng, 24), random_codes(rng, 24)
        store, ckpt = checkpointer(tmp_path)
        with pytest.raises(Interrupted):
            hybrid_combing_grid(a, b, 9, checkpoint=ckpt, on_leaf=interrupt_after(4))
        assert store.stats()["writes"] >= 4
        store2 = KernelStore(tmp_path / "store")
        got = hybrid_combing_grid(
            a, b, 9, checkpoint=GridCheckpointer(store2, compose_min_order=0)
        )
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))
        assert store2.stats()["hits"] >= 4  # the crashed run's leaves


class TestParallelCheckpointing:
    def test_parallel_checkpointed_equals_reference(self, tmp_path, rng):
        a, b = random_codes(rng, 24), random_codes(rng, 20)
        _, ckpt = checkpointer(tmp_path)
        got = parallel_hybrid_combing_grid(
            a, b, SerialMachine(), n_tasks=6, checkpoint=ckpt
        )
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))

    def test_levels_store_every_node(self, tmp_path, rng):
        """The checkpointed run walks the same plan levels as the plain
        grid: every leaf and every compose becomes one store entry (the
        root compose's entry doubles as the finished-run key)."""
        a, b = random_codes(rng, 26), random_codes(rng, 22)
        store, ckpt = checkpointer(tmp_path)
        got = parallel_hybrid_combing_grid(
            a, b, SerialMachine(), n_tasks=6, checkpoint=ckpt
        )
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))
        n_leaves = 6  # optimal_split(26, 22, 6) is a 3x2 grid
        assert store.stats()["writes"] == n_leaves + (n_leaves - 1)

    def test_threads_checkpointed(self, tmp_path, rng):
        a, b = random_codes(rng, 24), random_codes(rng, 20)
        _, ckpt = checkpointer(tmp_path)
        got = parallel_hybrid_combing_grid(
            a, b, ThreadMachine(workers=3), n_tasks=6, checkpoint=ckpt
        )
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))

    def test_process_death_then_resume(self, tmp_path, rng):
        """ChaosProcessDeath rips through the resilience layer mid-run;
        the next process resumes from the store, bit-identical."""
        a, b = random_codes(rng, 28), random_codes(rng, 28)
        store, ckpt = checkpointer(tmp_path)
        machine = ResilientMachine(
            ChaosMachine(SerialMachine(), abort_after=3, seed=1),
            FaultPolicy(max_retries=2),
            sleep=lambda s: None,
        )
        with pytest.raises(ChaosProcessDeath):
            parallel_hybrid_combing_grid(a, b, machine, n_tasks=9, checkpoint=ckpt)
        ckpt.flush()
        assert store.stats()["writes"] >= 3
        store2 = KernelStore(tmp_path / "store")
        got = parallel_hybrid_combing_grid(
            a,
            b,
            SerialMachine(),
            n_tasks=9,
            checkpoint=GridCheckpointer(store2, compose_min_order=0),
        )
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))
        assert store2.stats()["hits"] >= 3

    def test_crash_mid_level_resumes(self, tmp_path, rng):
        """A run dying inside a reduction level — every leaf and one
        compose of the level done — resumes with all of them as store
        hits, on a different machine."""
        a, b = random_codes(rng, 28), random_codes(rng, 28)
        store, ckpt = checkpointer(tmp_path)
        n_leaves = 6  # optimal_split(28, 28, 6) is a 3x2 grid
        machine = ResilientMachine(
            ChaosMachine(SerialMachine(), abort_after=n_leaves + 1, seed=1),
            FaultPolicy(max_retries=2),
            sleep=lambda s: None,
        )
        with pytest.raises(ChaosProcessDeath):
            parallel_hybrid_combing_grid(a, b, machine, n_tasks=6, checkpoint=ckpt)
        ckpt.flush()
        assert store.stats()["writes"] == n_leaves + 1
        store2 = KernelStore(tmp_path / "store")
        with ThreadMachine(workers=2) as resume_machine:
            got = parallel_hybrid_combing_grid(
                a, b, resume_machine, n_tasks=6,
                checkpoint=GridCheckpointer(store2, compose_min_order=0),
            )
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))
        # the crashed run's leaves and its one finished compose (finish()
        # adds one more hit: the root compose already stored the root key)
        assert store2.stats()["hits"] == n_leaves + 2

    @settings(max_examples=10, deadline=None)
    @given(a=codes, b=codes, abort_after=st.integers(0, 20), seed=st.integers(0, 99))
    def test_chaotic_crash_resume_property(self, tmp_path_factory, a, b, abort_after, seed):
        """THE acceptance property under fault injection: a run that
        dies after any number of completed tasks — while also suffering
        20% injected task failures — resumes bit-identical under a
        further 20% fault rate."""
        tmp_path = tmp_path_factory.mktemp("chaos")
        reference = iterative_combing_rowmajor(a, b)
        store, ckpt = checkpointer(tmp_path)
        machine = ResilientMachine(
            ChaosMachine(SerialMachine(), fail_rate=0.2, abort_after=abort_after, seed=seed),
            FaultPolicy(max_retries=4),
            sleep=lambda s: None,
        )
        try:
            parallel_hybrid_combing_grid(a, b, machine, n_tasks=6, checkpoint=ckpt)
        except ChaosProcessDeath:
            ckpt.flush()
        store2 = KernelStore(tmp_path / "store")
        resume_machine = ResilientMachine(
            ChaosMachine(SerialMachine(), fail_rate=0.2, seed=seed + 1),
            FaultPolicy(max_retries=4),
            sleep=lambda s: None,
        )
        got = parallel_hybrid_combing_grid(
            a,
            b,
            resume_machine,
            n_tasks=6,
            checkpoint=GridCheckpointer(store2, compose_min_order=0),
        )
        assert np.array_equal(got, reference)

    def test_durable_recovery_reads_disk_not_recompute(self, tmp_path, rng):
        """After a failed round, ResilientMachine recovers tasks that
        already persisted by re-reading the ledger (durable_recoveries),
        not by re-running them."""
        from repro.checkpoint import CheckpointedThunk

        store = KernelStore(tmp_path / "store")
        perm = np.array([2, 0, 3, 1], dtype=np.int64)
        key = store.key(np.arange(2), np.arange(2), "algo")
        store.put(key, perm, algorithm="algo", m=2, n=2)

        def explode():
            raise RuntimeError("task always fails in-process")

        # read=False: the thunk cannot take the cache-hit path up front,
        # so only recover() can save it
        thunk = CheckpointedThunk(
            store, key, explode, algorithm="algo", m=2, n=2, read=False
        )
        machine = ResilientMachine(
            SerialMachine(), FaultPolicy(max_retries=1), sleep=lambda s: None
        )
        (got,) = machine.run_round([thunk])
        assert np.array_equal(got, perm)
        assert machine.durable_recoveries == 1

    def test_unpersisted_task_still_retries_normally(self, tmp_path):
        from repro.checkpoint import CheckpointedThunk

        store = KernelStore(tmp_path / "store")
        key = store.key(np.arange(2), np.arange(2), "algo")
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return np.array([2, 0, 3, 1], dtype=np.int64)

        thunk = CheckpointedThunk(store, key, flaky, algorithm="algo", m=2, n=2)
        machine = ResilientMachine(
            SerialMachine(), FaultPolicy(max_retries=2), sleep=lambda s: None
        )
        (got,) = machine.run_round([thunk])
        assert got is not None and machine.durable_recoveries == 0
        assert len(calls) == 2
