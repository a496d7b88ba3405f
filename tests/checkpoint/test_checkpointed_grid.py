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

from repro.checkpoint import GRID_ALGORITHM, GridCheckpointer, KernelStore
from repro.core.combing import parallel as grid_module
from repro.core.combing.hybrid import hybrid_combing_grid
from repro.core.combing.iterative import iterative_combing_rowmajor
from repro.core.combing.parallel import parallel_hybrid_combing_grid
from repro.obs import get_metrics
from repro.parallel import (
    ChaosError,
    ChaosMachine,
    ChaosProcessDeath,
    FaultPolicy,
    ProcessMachine,
    ResilientMachine,
    SerialMachine,
    ThreadMachine,
    shared_memory_available,
)

from ..conftest import random_codes


PERM = np.array([2, 0, 3, 1], dtype=np.int64)
STALE = np.array([0, 1, 2, 3], dtype=np.int64)


class CommitThenFailStore(KernelStore):
    """A store whose first put commits the artifact and then raises, like
    a worker that dies right after its write."""

    failed = False

    def put(self, key, perm, **kwargs):
        super().put(key, perm, **kwargs)
        if not self.failed:
            self.failed = True
            raise RuntimeError("crash after commit")


def checkpointer(tmp_path, **kwargs):
    store = KernelStore(tmp_path / "store")
    # order-0 threshold: persist every compose, so tiny test grids
    # exercise the reduction-tree checkpoints too
    return store, GridCheckpointer(store, compose_min_order=0, **kwargs)


def dying_after(k):
    """A serial machine whose process "dies" once *k* tasks completed."""
    return ChaosMachine(SerialMachine(), abort_after=k)


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
        of completed tasks, leaves or composes, resume, get the
        bit-identical kernel."""
        tmp_path = tmp_path_factory.mktemp("ckpt")
        reference = iterative_combing_rowmajor(a, b)
        store, ckpt = checkpointer(tmp_path)
        try:
            parallel_hybrid_combing_grid(
                a, b, dying_after(prefix), n_tasks=6, checkpoint=ckpt
            )
        except ChaosProcessDeath:
            ckpt.flush()
        store2 = KernelStore(tmp_path / "store")
        got = hybrid_combing_grid(
            a, b, 6, checkpoint=GridCheckpointer(store2, compose_min_order=0)
        )
        assert np.array_equal(got, reference)

    def test_resume_reuses_the_crashed_runs_work(self, tmp_path, rng):
        a, b = random_codes(rng, 24), random_codes(rng, 24)
        store, ckpt = checkpointer(tmp_path)
        with pytest.raises(ChaosProcessDeath):
            parallel_hybrid_combing_grid(
                a, b, dying_after(4), n_tasks=9, checkpoint=ckpt
            )
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
        # the crashed run's leaves and its one finished compose
        assert store2.stats()["hits"] == n_leaves + 1

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

    def test_durable_recovery_reads_disk_not_recompute(self, tmp_path):
        """A task that commits its kernel and then fails is retried from
        the store, not recomputed, on resumed and fresh runs alike; the
        fresh run still ignores the artifact an earlier run left."""
        ca = cb = np.arange(2)
        for resume in (True, False):
            root = tmp_path / f"resume-{resume}"
            if not resume:  # an earlier run's artifact under the same key
                earlier = KernelStore(root)
                earlier.put(earlier.key(ca, cb, GRID_ALGORITHM), STALE,
                            algorithm=GRID_ALGORITHM, m=2, n=2)
            store = CommitThenFailStore(root)
            ckpt = GridCheckpointer(store, resume=resume)
            assert ckpt.begin(ca, cb, [2], [2]) is None
            calls = []

            def compute():
                calls.append(1)
                return PERM

            fn, args, _ = ckpt.node(compute, (), ca, cb, leaf=True)
            machine = ResilientMachine(
                SerialMachine(), FaultPolicy(max_retries=1), sleep=lambda s: None
            )
            (got,) = machine.run_round([(fn, args, {})])
            ckpt.finish()
            assert np.array_equal(got, PERM)
            assert len(calls) == 1 and machine.retries == 1
            assert store.stats()["hits"] == 1 and store.stats()["writes"] == 1

    def test_unpersisted_task_still_retries_normally(self, tmp_path):
        """A task that fails before committing is computed again."""
        store = KernelStore(tmp_path / "store")
        ckpt = GridCheckpointer(store)
        ca = cb = np.arange(2)
        ckpt.begin(ca, cb, [2], [2])
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return PERM

        fn, args, _ = ckpt.node(flaky, (), ca, cb, leaf=True)
        machine = ResilientMachine(
            SerialMachine(), FaultPolicy(max_retries=2), sleep=lambda s: None
        )
        (got,) = machine.run_round([(fn, args, {})])
        ckpt.finish()
        assert np.array_equal(got, PERM)
        assert len(calls) == 2
        assert store.stats()["hits"] == 0 and store.stats()["writes"] == 1

    @pytest.mark.skipif(not shared_memory_available(), reason="no shared memory")
    def test_pool_crash_mid_level_recovers_from_store(self, tmp_path, rng):
        """A worker crash inside a compose level on a real shm pool: the
        pool is rebuilt, the round's retried node that had committed
        comes back as a store hit in a worker, and no node is written
        twice."""
        a, b = random_codes(rng, 600), random_codes(rng, 600)
        _, ckpt = checkpointer(tmp_path)
        inner = ChaosMachine(ProcessMachine(2, transport="shm"), crash_rate=0.3, seed=10)
        machine = ResilientMachine(inner, FaultPolicy(max_retries=2), sleep=lambda s: None)
        metrics = get_metrics()
        before = {k: metrics.get(f"checkpoint.{k}").value for k in ("hits", "writes")}
        prev_remote, metrics.remote_collection = metrics.remote_collection, True
        try:
            with machine:
                got = parallel_hybrid_combing_grid(a, b, machine, n_tasks=4, checkpoint=ckpt)
        finally:
            metrics.remote_collection = prev_remote
        delta = {k: metrics.get(f"checkpoint.{k}").value - v for k, v in before.items()}
        # seed 10 crashes only the sixth spec submitted: after 4 leaves,
        # the second compose of level 1 (its first compose has committed)
        assert inner.fault_log == [(5, 1, "crash")]
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))
        assert machine.pool_rebuilds >= 1
        assert delta["hits"] >= 1
        assert delta["writes"] <= 4 + 2 + 1  # leaves, level 1, root


class TestJournalClosedOnError:
    """A checkpointed grid call that raises closes its journal without
    marking the run done (no descriptor left for garbage collection)."""

    def test_parallel_grid_task_error(self, tmp_path, rng):
        a, b = random_codes(rng, 40), random_codes(rng, 30)
        _, ckpt = checkpointer(tmp_path)
        with ThreadMachine(2) as pool:
            with pytest.raises(ChaosError):
                parallel_hybrid_combing_grid(
                    a, b, ChaosMachine(pool, fail_rate=1.0), checkpoint=ckpt
                )
        assert ckpt.journal._fh is None
        assert not ckpt.journal.done

    def test_serial_grid_compose_error(self, tmp_path, rng, monkeypatch):
        a, b = random_codes(rng, 40), random_codes(rng, 30)
        _, ckpt = checkpointer(tmp_path)

        def broken_multiply(p, q):
            raise RuntimeError("multiply failed")

        # fails every compose task; the leaf round runs as usual
        monkeypatch.setattr(grid_module, "steady_ant_vectorized", broken_multiply)
        with pytest.raises(RuntimeError, match="multiply failed"):
            hybrid_combing_grid(a, b, 4, checkpoint=ckpt)
        assert ckpt.journal._fh is None
        assert not ckpt.journal.done

