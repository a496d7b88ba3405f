"""Real process-pool machine for coarse-grained tasks.

Bypasses the GIL with OS processes. Tasks must be picklable — the
coarse-grained call sites (steady-ant subtasks, hybrid sub-grid combing)
submit module-level functions with NumPy-array arguments.

Two transports move array data (``transport=`` constructor knob):

- ``"pickle"`` — every argument and result is serialized per task,
  paying O(task data) both ways on every round (the historical default);
- ``"shm"`` — a :class:`~repro.parallel.transport.SharedArena` holds the
  arrays in named shared-memory segments; :meth:`broadcast` places the
  encoded inputs once, tasks ship compact
  :class:`~repro.parallel.transport.ArrayHandle` slices, and workers
  publish large results as fresh segments the parent adopts. Falls back
  to pickle transport (with a :class:`~repro.errors.TransportFallbackWarning`,
  once) when shared memory is unavailable or chaos-injected away.

Either way, :meth:`run_round` submits one future per spec, so
the executor hands the next task to whichever worker frees up first, and
counts the exact serialized bytes shipped to (``bytes_shipped``) and
returned from (``bytes_returned``) the workers.

Failure semantics (the contract the resilience layer builds on):

- the first failing task cancels every still-pending future of its
  round (fail fast, no dangling siblings);
- a dead worker process (``BrokenExecutor``) is wrapped as
  :class:`~repro.errors.WorkerCrashError`, and a result wait exceeding
  the *round deadline* (``timeout`` seconds after the round started,
  shared across the in-order waits — not per-task, which would let a
  k-task round wait k x timeout) as
  :class:`~repro.errors.TaskTimeoutError`. Both carry the failing task's
  index; genuine task exceptions propagate unchanged (annotated with the
  task index);
- :meth:`rebuild` replaces a broken executor with a fresh one (the
  arena and its segments survive — workers re-attach lazily);
- :meth:`close` is idempotent, cancels queued work and unlinks every
  arena segment;
- once a round has overrun its deadline, :meth:`close` and
  :meth:`rebuild` terminate the workers instead of waiting for the late
  task to finish.
"""

from __future__ import annotations

import pickle
import time
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Sequence

import numpy as np

from ..errors import (
    BackendError,
    SharedMemoryUnavailableError,
    TaskTimeoutError,
    TransportFallbackWarning,
    WorkerCrashError,
)
from ..obs import get_metrics, get_tracer
from .api import Machine, Spec, note_task
from .transport import ARENA_MIN_BYTES, ArrayHandle, SharedArena, run_chunk


class ProcessMachine(Machine):
    """Executes rounds of picklable ``(fn, args, kwargs)`` specs on a
    shared ``ProcessPoolExecutor`` (prefer module-level functions and
    ``functools.partial`` over closures). ``timeout`` bounds the whole
    round (seconds from submission).
    """

    #: advertises preemptive per-task timeouts to the resilience layer
    supports_task_timeout = True
    #: tasks run in worker processes: results cannot be captured in-process
    remote_tasks = True

    def __init__(self, workers: int = 2, *, transport: str = "pickle"):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if transport not in ("pickle", "shm"):
            raise BackendError(f"unknown transport {transport!r}; use 'shm' or 'pickle'")
        self.workers = workers
        self.transport = transport
        self._pool: ProcessPoolExecutor | None = ProcessPoolExecutor(max_workers=workers)
        self._arena: SharedArena | None = None
        self._shm_lost = False
        self._fallback_warned = False
        self._shm_fail_after: int | None = None
        #: a round overran its deadline: its late task may still hold a worker
        self._overran = False
        self._elapsed = 0.0
        self.rounds = 0
        self.tasks = 0
        self.bytes_shipped = 0
        self.bytes_returned = 0
        self.transport_fallbacks = 0

    # -- transport -----------------------------------------------------

    @property
    def transport_active(self) -> str:
        """The transport actually in use (``"shm"`` may have degraded)."""
        if self.transport == "shm" and not self._shm_lost:
            return "shm"
        return "pickle"

    def _arena_or_none(self) -> SharedArena | None:
        """The live arena, creating it lazily; ``None`` once degraded."""
        if self.transport != "shm" or self._shm_lost:
            return None
        if self._arena is None:
            try:
                self._arena = SharedArena(fail_after=self._shm_fail_after)
            except SharedMemoryUnavailableError as exc:
                self._lose_shm(exc)
                return None
        return self._arena

    def _lose_shm(self, exc: Exception) -> None:
        """Degrade to pickle transport; existing arena views stay valid."""
        self._shm_lost = True
        self.transport_fallbacks += 1
        get_metrics().inc("transport.fallbacks", 1)
        if not self._fallback_warned:
            self._fallback_warned = True
            warnings.warn(
                f"shared-memory transport unavailable ({exc}); "
                "falling back to pickle transport",
                TransportFallbackWarning,
                stacklevel=4,
            )

    def inject_shm_loss(self, after: int) -> None:
        """Arm the chaos fault: shared memory 'disappears' after *after*
        successful segment allocations (see ``ChaosMachine``)."""
        self._shm_fail_after = after
        if self._arena is not None:
            self._arena.fail_after = after

    def broadcast(self, *arrays: np.ndarray) -> tuple:
        """Place *arrays* into shared memory once; return arena-backed
        views whose (slices') handles ship for free. Identity under
        pickle transport or after shared-memory loss."""
        arena = self._arena_or_none()
        if arena is None:
            return arrays
        out = []
        for arr in arrays:
            try:
                out.append(arena.put(np.asarray(arr)))
            except SharedMemoryUnavailableError as exc:
                self._lose_shm(exc)
                out.append(arr)
        return tuple(out)

    def localize(self, arr):
        """Copy *arr* out of the arena (it would die with :meth:`close`)."""
        if (
            isinstance(arr, np.ndarray)
            and self._arena is not None
            and self._arena.handle_of(arr) is not None
        ):
            return np.array(arr)
        return arr

    def release_arrays(self, arrays) -> None:
        """Refcounted release of the segments backing *arrays* (no-op for
        local arrays). Call only when no later round ships them again."""
        if self._arena is None:
            return
        for arr in arrays:
            if isinstance(arr, np.ndarray):
                self._arena.release_array(arr)

    def slab(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A reusable scratch array from the arena's slab pool (see
        :meth:`~repro.parallel.transport.SharedArena.slab`). Falls back to
        a plain local array under pickle transport or after shared-memory
        loss. Contents are uninitialized either way."""
        arena = self._arena_or_none()
        if arena is not None:
            try:
                return arena.slab(shape, dtype)
            except SharedMemoryUnavailableError as exc:
                self._lose_shm(exc)
        return np.empty(shape, dtype=dtype)

    def recycle_slabs(self, arrays) -> None:
        """Return slab-backed *arrays* to the pool for reuse (no-op for
        plain arrays). Only recycle once every round reading them drained."""
        if self._arena is None:
            return
        for arr in arrays:
            if isinstance(arr, np.ndarray):
                self._arena.recycle(arr)

    def transport_stats(self) -> dict:
        """Byte counters exposing the data-movement cost of the run."""
        stats = {
            "transport": self.transport,
            "transport_active": self.transport_active,
            "bytes_shipped": self.bytes_shipped,
            "bytes_returned": self.bytes_returned,
            "transport_fallbacks": self.transport_fallbacks,
        }
        if self._arena is not None:
            stats["arena"] = self._arena.stats()
        return stats

    # -- execution -----------------------------------------------------

    def _require_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            raise BackendError("machine is closed")
        return self._pool

    def _collect(self, futures: list, timeout: float | None, unpack) -> list:
        """Gather results in order against a single round deadline; on the
        first failure cancel every remaining future and raise a wrapped
        error that names the failing task.

        ``timeout`` is the budget for the *round*: the deadline is fixed
        when collection starts and shared across the in-order waits, so a
        round of k tasks can never wait k x timeout. ``unpack(i, result)``
        turns each result into the returned value as it arrives; an error
        it raises fails the round the same way.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        results = []
        try:
            for i, f in enumerate(futures):
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                try:
                    result = f.result(timeout=remaining)
                except BrokenExecutor as exc:
                    raise WorkerCrashError(
                        f"worker process died while executing task {i}", task_index=i
                    ) from exc
                except FutureTimeoutError as exc:
                    self._overran = True
                    raise TaskTimeoutError(
                        f"task {i} result not ready within the round deadline "
                        f"({timeout}s)",
                        task_index=i,
                    ) from exc
                except Exception as exc:
                    note_task(exc, i, len(futures))
                    raise
                results.append(unpack(i, result))
        except BaseException:
            for f in futures:
                f.cancel()
            raise
        return results

    # -- rounds --------------------------------------------------------

    def _pack_arg(self, obj, arena: SharedArena | None, ephemerals: list[str]):
        """Replace a large array argument with a shared-memory handle.

        Arena-backed views (broadcast slices, adopted results) map to
        handles for free; other large arrays are copied into ephemeral
        segments released when the round ends. Small arrays and
        non-array values ship pickled.
        """
        if arena is None or not isinstance(obj, np.ndarray):
            return obj
        handle = arena.handle_of(obj)
        if handle is not None:
            return handle
        if obj.nbytes < ARENA_MIN_BYTES:
            return obj
        view = arena.put(obj)
        handle = arena.handle_of(view)
        ephemerals.append(handle.name)
        return handle

    def run_round(
        self,
        specs: Sequence[Spec],
        *,
        items: Sequence[int] | None = None,
        timeout: float | None = None,
    ) -> list:
        """One round of ``(fn, args, kwargs)`` specs on the worker pool.

        Array arguments travel as shared-memory handles (shm transport)
        or serialized values (pickle transport / after fallback); each
        spec is pickled as its own payload and submitted as its own
        future, in spec order, and large array results come back as
        adopted shared segments. ``timeout`` (seconds) bounds the whole
        round (one deadline shared by the in-order waits); ``items`` is
        ignored. Thread-safety: machines are driven from one thread;
        counters are plain ints.

        When tracing is enabled (or ``--metrics-out`` requested remote
        collection), each payload carries an observability request:
        workers record spans parented under this round's
        ``machine.round`` span and ship back per-task metric
        deltas, which are folded into the parent's tracer/registry here
        (see ``repro.obs``). The obs slot is absent by default, so the
        bytes-shipped accounting of an unobserved run is unchanged.
        """
        pool = self._require_pool()
        specs = list(specs)
        tracer = get_tracer()
        metrics = get_metrics()
        start = time.perf_counter()
        shipped = returned = 0
        ephemerals: list[str] = []
        futures: list = []
        try:
            with tracer.span("machine.round", args={"tasks": len(specs)}):
                obs_req = None
                if tracer.enabled or metrics.remote_collection:
                    obs_req = {
                        "ctx": tracer.current_context() if tracer.enabled else None,
                        "metrics": metrics.remote_collection,
                    }
                arena = self._arena_or_none()
                packed = []
                for fn, args, kwargs in specs:
                    try:
                        packed.append(
                            (
                                fn,
                                tuple(self._pack_arg(a, arena, ephemerals) for a in args),
                                {
                                    k: self._pack_arg(v, arena, ephemerals)
                                    for k, v in kwargs.items()
                                },
                            )
                        )
                    except SharedMemoryUnavailableError as exc:
                        self._lose_shm(exc)
                        arena = None
                        packed.append((fn, tuple(args), dict(kwargs)))
                share_prefix = arena.prefix if arena is not None else None
                for spec in packed:
                    if obs_req is None:
                        payload = pickle.dumps((spec, share_prefix))
                    else:
                        payload = pickle.dumps((spec, share_prefix, obs_req))
                    shipped += len(payload)
                    futures.append(pool.submit(run_chunk, payload))

                def unpack(i: int, blob: bytes):
                    nonlocal returned
                    returned += len(blob)
                    status, value, *obs = pickle.loads(blob)
                    if status == "err":
                        note_task(value, i, len(specs))
                        raise value
                    if obs:
                        events, delta = obs[0]
                        if events:
                            tracer.adopt(events)
                        if delta:
                            metrics.merge(delta)
                    if isinstance(value, ArrayHandle):
                        value = self._arena.adopt(value)
                    return value

                return self._collect(futures, timeout, unpack)
        except BaseException:
            for f in futures:
                f.cancel()
            raise
        finally:
            if self._arena is not None:
                for name in ephemerals:
                    self._arena.release(name)
            self.bytes_shipped += shipped
            self.bytes_returned += returned
            self._elapsed += time.perf_counter() - start
            self.rounds += 1
            self.tasks += len(specs)
            metrics.inc("transport.bytes_shipped", shipped)
            metrics.inc("transport.bytes_returned", returned)
            # rounds are few: live metric increments fit the overhead budget
            metrics.inc("machine.rounds", 1)
            metrics.inc("machine.tasks", len(specs))

    @property
    def elapsed(self) -> float:
        """Accumulated wall-clock time of all rounds, in seconds."""
        return self._elapsed

    def reset(self) -> None:
        """Zero the per-run counters (elapsed seconds, rounds, tasks and
        byte totals). ``transport_fallbacks`` is deliberately *not*
        reset: like the degraded-transport state itself, it describes
        the machine's lifetime, not one run."""
        self._elapsed = 0.0
        self.rounds = 0
        self.tasks = 0
        self.bytes_shipped = 0
        self.bytes_returned = 0

    def rebuild(self) -> bool:
        """Replace the executor (e.g. after a ``BrokenProcessPool``);
        returns ``True``.

        The arena and its segments survive: live handles stay resolvable
        and the fresh workers re-attach lazily. (Mappings held by the old
        workers die with their processes.) Every counter — rounds, tasks,
        byte totals, elapsed — is preserved: a rebuild replaces workers,
        not the machine's history, so long-run totals stay honest.
        Calling :meth:`rebuild` on a closed machine revives it with a
        fresh pool (the arena is recreated lazily on first broadcast).
        """
        get_metrics().inc("machine.rebuilds", 1)
        self._stop_pool()
        self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return True

    def _stop_pool(self) -> None:
        """Shut the executor down, cancelling queued work. A shutdown
        joins the workers, so after a round overran its deadline the
        workers are terminated first rather than waited for (the executor
        has no public way to do that before Python 3.14)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if self._overran:
            for proc in list((pool._processes or {}).values()):
                proc.terminate()
            self._overran = False
        pool.shutdown(cancel_futures=True)

    def close(self) -> None:
        """Shut down the pool and release every shared-memory segment.

        Idempotent; :meth:`rebuild` revives a closed machine."""
        self._stop_pool()
        if self._arena is not None:
            self._arena.close()
            self._arena = None
