"""Tests for the zero-copy shared-memory transport (PR 3).

Covers the :class:`~repro.parallel.transport.SharedArena` lifecycle (no
leaked ``/dev/shm`` segments after close, rebuild, worker crash or
SIGTERM), handle round-trips across dtypes/shapes/slices (hypothesis),
transport equality of every parallel entry point against the sequential
oracles, the chaos-injected shared-memory-loss fallback, workers dropping
their attachments to unlinked segments, and the uint16 strand/kernel
compaction.
"""

import glob
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    SharedMemoryUnavailableError,
    TransportFallbackWarning,
    WorkerCrashError,
)
from repro.parallel import (
    ArrayHandle,
    ChaosMachine,
    ChaosSharedMemoryLoss,
    FaultPolicy,
    ProcessMachine,
    ResilientMachine,
    SerialMachine,
    SharedArena,
    make_machine,
    shared_memory_available,
)
from repro.parallel.transport import (
    machine_broadcast,
    machine_localize,
    machine_release,
    resolve,
    run_array_round,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no multiprocessing.shared_memory"
)


def _segments() -> list[str]:
    return glob.glob("/dev/shm/repro*")


def _double(a, k):
    return a * k


def _die():
    os._exit(1)


def _attachments():
    from repro.parallel import transport

    return os.getpid(), len(transport._ATTACHED)


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = set(_segments())
    yield
    leaked = set(_segments()) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


# ---------------------------------------------------------------------------
# SharedArena unit behaviour
# ---------------------------------------------------------------------------


class TestSharedArena:
    def test_put_returns_equal_view(self):
        with SharedArena() as arena:
            arr = np.arange(1000, dtype=np.int64)
            view = arena.put(arr)
            assert np.array_equal(view, arr)
            assert arena.handle_of(view) is not None

    def test_handle_of_contiguous_slice(self):
        with SharedArena() as arena:
            view = arena.put(np.arange(1000, dtype=np.int64))
            handle = arena.handle_of(view[100:900])
            assert handle is not None
            assert handle.shape == (800,)
            assert np.array_equal(resolve(handle), view[100:900])

    def test_handle_of_foreign_array_is_none(self):
        with SharedArena() as arena:
            assert arena.handle_of(np.arange(10)) is None

    def test_handle_of_noncontiguous_is_none(self):
        with SharedArena() as arena:
            view = arena.put(np.arange(1000, dtype=np.int64))
            assert arena.handle_of(view[::2]) is None

    def test_release_refcounts(self):
        with SharedArena() as arena:
            view = arena.put(np.arange(100))
            name = arena.handle_of(view).name
            arena.retain(name)
            arena.release(name)  # back to 1: still resolvable
            assert arena.handle_of(view) is not None
            del view
            arena.release(name)  # 0: unlinked
            assert not any(name in s for s in _segments())

    def test_close_idempotent_and_sweeps(self):
        arena = SharedArena()
        arena.put(np.arange(5000, dtype=np.int64))
        assert any(s.startswith("/dev/shm/" + arena.prefix) for s in _segments())
        arena.close()
        arena.close()
        assert not any(arena.prefix in s for s in _segments())

    def test_closed_arena_refuses_put(self):
        arena = SharedArena()
        arena.close()
        with pytest.raises(SharedMemoryUnavailableError):
            arena.put(np.arange(10))

    def test_fail_after_raises_chaos_loss(self):
        with SharedArena(fail_after=1) as arena:
            arena.put(np.arange(10))
            with pytest.raises(ChaosSharedMemoryLoss):
                arena.put(np.arange(10))


_DTYPES = st.sampled_from(["<i8", "<i4", "<u2", "<u8", "<f8", "<f4", "u1"])


class TestHandleRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        dtype=_DTYPES,
        shape=st.one_of(
            st.integers(1, 300).map(lambda n: (n,)),
            st.tuples(st.integers(1, 24), st.integers(1, 24)),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_put_resolve_roundtrip(self, dtype, shape, seed):
        rng = np.random.default_rng(seed)
        arr = (rng.integers(0, 250, size=shape)).astype(np.dtype(dtype))
        with SharedArena() as arena:
            view = arena.put(arr)
            handle = arena.handle_of(view)
            assert handle is not None
            back = resolve(handle)
            assert back.dtype == arr.dtype
            assert back.shape == arr.shape
            assert np.array_equal(back, arr)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 500),
        data=st.data(),
    )
    def test_slice_handles_view_same_memory(self, n, data):
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
        with SharedArena() as arena:
            view = arena.put(np.arange(n, dtype=np.int64))
            handle = arena.handle_of(view[lo:hi])
            assert handle is not None
            sliced = resolve(handle)
            assert np.array_equal(sliced, np.arange(lo, hi))
            # same backing memory: a write through the view is seen
            view[lo] = -7
            assert sliced[0] == -7


# ---------------------------------------------------------------------------
# ProcessMachine transport behaviour
# ---------------------------------------------------------------------------


class TestProcessTransport:
    def test_shm_round_trip_and_byte_accounting(self):
        x = np.arange(20_000, dtype=np.int64)
        with ProcessMachine(workers=2, transport="shm") as m:
            (bx,) = machine_broadcast(m, x)
            out = run_array_round(
                m, [(_double, (bx[i * 5000 : (i + 1) * 5000], 2), {}) for i in range(4)]
            )
            got = np.concatenate([machine_localize(m, o) for o in out])
            machine_release(m, *out)
            machine_release(m, bx)
            stats = m.transport_stats()
        assert np.array_equal(got, x * 2)
        assert stats["transport_active"] == "shm"
        # handles only: a fraction of the 160 KB the arrays would pickle to
        assert 0 < stats["bytes_shipped"] < 20_000

    def test_pickle_round_matches_and_ships_more(self):
        x = np.arange(20_000, dtype=np.int64)
        with ProcessMachine(workers=2, transport="pickle") as m:
            out = run_array_round(
                m, [(_double, (x[i * 5000 : (i + 1) * 5000], 2), {}) for i in range(4)]
            )
            assert np.array_equal(np.concatenate(out), x * 2)
            assert m.transport_stats()["bytes_shipped"] > x.nbytes

    def test_invalid_transport_rejected(self):
        from repro.errors import BackendError

        with pytest.raises(BackendError):
            ProcessMachine(workers=1, transport="carrier-pigeon")

    def test_rebuild_keeps_transport(self):
        x = np.arange(5000, dtype=np.int64)
        with ProcessMachine(workers=2, transport="shm") as m:
            out = run_array_round(m, [(_double, (x, 2), {})])
            assert np.array_equal(machine_localize(m, out[0]), x * 2)
            machine_release(m, *out)
            m.rebuild()
            out = run_array_round(m, [(_double, (x, 3), {})])
            assert np.array_equal(machine_localize(m, out[0]), x * 3)
            machine_release(m, *out)
            assert m.transport_active == "shm"

    def test_worker_crash_leaves_no_segments(self):
        with ProcessMachine(workers=2, transport="shm") as m:
            x = np.arange(5000, dtype=np.int64)
            (bx,) = machine_broadcast(m, x)
            with pytest.raises((WorkerCrashError, Exception)):
                run_array_round(m, [(_die, (), {})])
            m.rebuild()
            # machine still usable after the crash, same broadcast segment
            out = run_array_round(m, [(_double, (bx, 2), {})])
            assert np.array_equal(machine_localize(m, out[0]), x * 2)
        # the autouse fixture asserts nothing leaked after close()

    def test_worker_attachments_stay_bounded(self):
        # every grid call broadcasts fresh inputs and ships fresh leaf and
        # level kernels; once the parent unlinks them a worker must drop
        # its attachments instead of mapping their pages for good
        from repro.core.combing.parallel import parallel_hybrid_combing_grid

        rng = np.random.default_rng(3)
        a, b = rng.integers(0, 4, 600), rng.integers(0, 4, 700)
        with ProcessMachine(workers=2, transport="shm") as m:
            for _ in range(20):
                parallel_hybrid_combing_grid(a, b, m)
            counts = dict(run_array_round(m, [(_attachments, (), {})] * 8))
        # at most one call's segments (without the sweep: ~2 per call)
        assert max(counts.values()) <= 8, counts

    def test_round_deadline_shared_across_tasks(self):
        # 4 x 0.2s sleeps on 1 worker: per-task waits would pass a 0.3s
        # timeout individually, a shared round deadline must not
        from repro.errors import TaskTimeoutError

        with ProcessMachine(workers=1, transport="pickle") as m:
            with pytest.raises(TaskTimeoutError):
                m.run_round_spec(
                    [(__import__("time").sleep, (0.2,), {}) for _ in range(4)],
                    timeout=0.3,
                )

    def test_injected_loss_falls_back_with_warning(self):
        x = np.arange(20_000, dtype=np.int64)
        with ProcessMachine(workers=2, transport="shm") as m:
            m.inject_shm_loss(0)
            with pytest.warns(TransportFallbackWarning):
                (bx,) = machine_broadcast(m, x)
            out = run_array_round(m, [(_double, (bx, 2), {})])
            assert np.array_equal(out[0], x * 2)
            assert m.transport_active == "pickle"
            assert m.transport_stats()["transport_fallbacks"] >= 1


class TestChaosSharedMemoryLoss:
    def test_chaos_knob_requires_shm_machine(self):
        from repro.errors import BackendError

        with pytest.raises(BackendError):
            ChaosMachine(SerialMachine(), shm_loss_after=1)

    def test_chaos_loss_mid_run_degrades_not_corrupts(self):
        x = np.arange(20_000, dtype=np.int64)
        inner = ProcessMachine(workers=2, transport="shm")
        with pytest.warns(TransportFallbackWarning):
            with ChaosMachine(inner, shm_loss_after=1) as chaos:
                arrs = chaos.broadcast(x, x[:5000])
                outs = chaos.run_round_arrays(
                    [(_double, (arrs[0][:5000], 2), {}), (_double, (arrs[1], 3), {})]
                )
                assert np.array_equal(chaos.localize(outs[0]), x[:5000] * 2)
                assert np.array_equal(chaos.localize(outs[1]), x[:5000] * 3)
                assert inner.transport_active == "pickle"

    def test_make_machine_wires_transport_and_chaos(self):
        m = make_machine(
            "processes",
            workers=2,
            transport="shm",
            chaos={"shm_loss_after": 0},
            policy=True,
        )
        try:
            x = np.arange(20_000, dtype=np.int64)
            with pytest.warns(TransportFallbackWarning):
                (bx,) = m.broadcast(x)
            out = m.run_round_arrays([(_double, (bx, 2), {})])
            assert np.array_equal(m.localize(out[0]), x * 2)
        finally:
            m.close()


# ---------------------------------------------------------------------------
# Process-death and SIGTERM lifecycle (subprocess-driven)
# ---------------------------------------------------------------------------


_SIGTERM_SCRIPT = textwrap.dedent(
    """
    import numpy as np, os, signal, sys
    from repro.checkpoint import cleanup_on_signals
    from repro.parallel import ProcessMachine, release_all_arenas
    from repro.parallel.transport import machine_broadcast

    m = ProcessMachine(workers=2, transport="shm")
    with cleanup_on_signals(release_all_arenas):
        machine_broadcast(m, np.arange(100_000, dtype=np.int64))
        print("READY", flush=True)
        os.kill(os.getpid(), signal.SIGTERM)
        sys.exit(3)  # unreachable: the handler exits 128+15
    """
)


class TestSignalCleanup:
    def test_sigterm_releases_segments(self):
        before = set(_segments())
        proc = subprocess.run(
            [sys.executable, "-c", _SIGTERM_SCRIPT],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        )
        assert "READY" in proc.stdout, proc.stderr
        assert proc.returncode == 128 + signal.SIGTERM, (proc.returncode, proc.stderr)
        assert set(_segments()) - before == set()


# ---------------------------------------------------------------------------
# Transport equality: every parallel entry point vs its sequential oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ab():
    rng = np.random.default_rng(11)
    return rng.integers(0, 4, 500), rng.integers(0, 4, 700)


class TestTransportEquality:
    @pytest.mark.parametrize("transport", ["pickle", "shm"])
    def test_grid_matches_oracle(self, ab, transport):
        from repro.core.combing.iterative import iterative_combing_antidiag_simd
        from repro.core.combing.parallel import parallel_hybrid_combing_grid

        a, b = ab
        oracle = iterative_combing_antidiag_simd(a, b)
        with ProcessMachine(workers=2, transport=transport) as m:
            got = parallel_hybrid_combing_grid(a, b, m, n_tasks=6)
        assert got.dtype == np.int64
        assert np.array_equal(got, oracle)

    def test_grid_under_forced_fallback_matches_oracle(self, ab):
        from repro.core.combing.iterative import iterative_combing_antidiag_simd
        from repro.core.combing.parallel import parallel_hybrid_combing_grid

        a, b = ab
        oracle = iterative_combing_antidiag_simd(a, b)
        inner = ProcessMachine(workers=2, transport="shm")
        with pytest.warns(TransportFallbackWarning):
            with ChaosMachine(inner, shm_loss_after=1) as chaos:
                machine = ResilientMachine(chaos, FaultPolicy(max_retries=1))
                got = parallel_hybrid_combing_grid(a, b, machine, n_tasks=6)
        assert np.array_equal(got, oracle)
        assert inner.transport_active == "pickle"

    @pytest.mark.parametrize("transport", ["pickle", "shm"])
    def test_steady_ant_matches_oracle(self, transport):
        from repro.core.steady_ant import steady_ant_multiply
        from repro.core.steady_ant.parallel import steady_ant_parallel

        rng = np.random.default_rng(5)
        p, q = rng.permutation(1200).astype(np.int64), rng.permutation(1200).astype(np.int64)
        oracle = steady_ant_multiply(p, q)
        with ProcessMachine(workers=2, transport=transport) as m:
            got = steady_ant_parallel(p, q, machine=m, depth=2)
        assert got.dtype == np.int64
        assert np.array_equal(got, oracle)

    @pytest.mark.parametrize("transport", ["pickle", "shm"])
    @pytest.mark.parametrize("variant", ["old", "new2"])
    def test_bit_lcs_matches_oracle(self, transport, variant):
        from repro.core.bitparallel.bitlcs import bit_lcs
        from repro.core.bitparallel.parallel import bit_lcs_parallel

        rng = np.random.default_rng(7)
        a, b = rng.integers(0, 2, 2000), rng.integers(0, 2, 1700)
        expected = bit_lcs(a, b)
        with ProcessMachine(workers=2, transport=transport) as m:
            got = bit_lcs_parallel(a, b, m, variant=variant, w=16)
        assert got == expected


# ---------------------------------------------------------------------------
# uint16 compaction equality
# ---------------------------------------------------------------------------


class TestUint16Compaction:
    @pytest.mark.parametrize(
        "fn_name", ["parallel_iterative_combing", "parallel_load_balanced_combing"]
    )
    def test_16bit_strands_match_int64(self, ab, fn_name):
        from repro.core.combing import parallel as cp

        a, b = ab
        fn = getattr(cp, fn_name)
        k16 = fn(a, b, SerialMachine(), use_16bit=True)
        k64 = fn(a, b, SerialMachine(), use_16bit=False)
        assert k16.dtype == np.int64
        assert np.array_equal(k16, k64)

    @pytest.mark.parametrize("use_16bit", [True, False])
    def test_grid_16bit_ships_fewer_bytes_same_kernel(self, ab, use_16bit):
        from repro.core.combing.iterative import iterative_combing_antidiag_simd
        from repro.core.combing.parallel import parallel_hybrid_combing_grid

        a, b = ab
        oracle = iterative_combing_antidiag_simd(a, b)
        with ProcessMachine(workers=2, transport="pickle") as m:
            got = parallel_hybrid_combing_grid(a, b, m, n_tasks=6, use_16bit=use_16bit)
            shipped = m.transport_stats()["bytes_returned"]
        assert np.array_equal(got, oracle)
        if use_16bit:
            # uint16 kernels halve the bytes coming back over the pipe
            assert shipped < oracle.size * 8 * 6
