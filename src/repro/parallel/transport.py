"""Zero-copy shared-memory transport for process-backed machines.

:class:`~repro.parallel.processes.ProcessMachine` historically pickled
every NumPy argument per task, so each round of hybrid grid combing,
parallel steady ant or bit-parallel wavefronts paid O(task data)
serialization both ways. The paper's parallel wins (Figs. 4b, 7, 8) come
from cheap shared-memory access across OpenMP threads; this module is
the Python analogue:

- :class:`SharedArena` places NumPy arrays into named
  ``multiprocessing.shared_memory`` segments and addresses them with a
  compact picklable :class:`ArrayHandle` ``(name, dtype, shape,
  offset)``. Any *contiguous view* of arena-backed memory (e.g. a slice
  of a broadcast sequence) maps back to a handle without copying — tasks
  ship slice handles instead of array copies.
- Workers resolve handles by attaching to the segment once per process
  (:func:`resolve`; attachments are cached) and can publish large array
  *results* as fresh segments (:func:`share_result`) that the parent
  adopts, so reduction rounds consume the previous round's outputs
  without the arrays ever crossing a pipe.
- :func:`run_chunk` executes a *batch* of ``(fn, args, kwargs)`` specs
  per worker task (one future per chunk) and returns the results as one
  pickled payload, amortizing executor overhead and giving the machine
  exact bytes-shipped accounting for both transports.

Lifecycle: the arena owns (or adopts) every segment it names, refcounts
them (:meth:`SharedArena.retain` / :meth:`SharedArena.release`), and
:meth:`SharedArena.close` unlinks everything — including a sweep for
stray worker-created segments left behind by a crashed worker. Live
arenas register in a module-level weak set so signal handlers and
``atexit`` can reclaim segments on SIGINT/SIGTERM (see
:func:`release_all_arenas` and :mod:`repro.checkpoint.signals`).

Every attach unregisters itself from ``multiprocessing.resource_tracker``
(which on Python <= 3.12 registers attachments as if they were creations)
so exactly one process — the arena's owner — is responsible for each
segment and no spurious "leaked shared_memory" warnings are emitted.

When shared memory is unavailable (platform, permissions, or the
chaos-injected :class:`~repro.parallel.chaos.ChaosSharedMemoryLoss`),
machines degrade transparently to pickle transport: handles simply never
come into existence and the same specs ship by value.
"""

from __future__ import annotations

import atexit
import os
import pickle
import uuid
import warnings
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from ..errors import SharedMemoryUnavailableError
from ..obs.metrics import inc as _metric_inc

try:  # pragma: no cover - import failure is platform dependent
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None
    resource_tracker = None

#: arrays smaller than this ship pickled — a 4 KiB segment per tiny
#: array would cost more than the copy it saves
ARENA_MIN_BYTES = 2048

#: worker results at least this large are published as shared segments
SHARE_MIN_BYTES = 2048

_SHM_DIR = "/dev/shm"


@dataclass(frozen=True)
class ArrayHandle:
    """A compact, picklable address of an array inside a shared segment.

    ``dtype`` is the NumPy dtype string (e.g. ``'<i8'``), ``offset`` the
    byte offset of the (C-contiguous) array data within the segment.
    """

    name: str
    dtype: str
    shape: tuple
    offset: int

    @property
    def nbytes(self) -> int:
        """Payload size in bytes (product of shape times itemsize)."""
        count = 1
        for s in self.shape:
            count *= s
        return count * np.dtype(self.dtype).itemsize


def shared_memory_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` can be used here."""
    return shared_memory is not None


# Resource-tracker discipline: on Python <= 3.12 every ``SharedMemory``
# init — attach included — registers the name with the resource tracker.
# All multiprocessing children (fork- and spawn-started alike) share the
# parent's tracker daemon, whose per-type cache is a *set* of names, so
# duplicate registrations collapse to one entry and calling
# ``resource_tracker.unregister`` anywhere removes the single shared
# entry. We therefore never unregister manually: each segment's one
# entry is consumed by the one ``unlink()`` the owning arena eventually
# performs, and a segment orphaned by a crash is unlinked by the tracker
# at shutdown instead of leaking.


class SharedArena:
    """Owns named shared-memory segments holding NumPy arrays.

    The creating process is the *owner*: it allocates segments
    (:meth:`put`), adopts worker-created result segments
    (:meth:`adopt`), maps arbitrary contiguous views of arena memory
    back to handles (:meth:`handle_of`), and unlinks everything on
    :meth:`close`. Segments are refcounted; :meth:`release` at zero
    unlinks the name immediately (the backing pages survive until every
    process unmaps, so parent-side views stay readable).

    ``fail_after`` arms a deterministic chaos fault: after that many
    successful :meth:`put` calls, the next one raises
    :class:`~repro.parallel.chaos.ChaosSharedMemoryLoss` — used to prove
    the degraded-to-pickle path instead of assuming it.
    """

    def __init__(self, *, prefix: str | None = None, fail_after: int | None = None):
        if shared_memory is None:  # pragma: no cover - platform dependent
            raise SharedMemoryUnavailableError(
                "multiprocessing.shared_memory is not available on this platform"
            )
        self.prefix = prefix or f"repro{os.getpid()}x{uuid.uuid4().hex[:8]}"
        self._owner_pid = os.getpid()
        self.fail_after = fail_after
        self._puts = 0
        self._counter = 0
        self._segments: dict[str, Any] = {}  # name -> SharedMemory (owned/adopted)
        self._refs: dict[str, int] = {}
        self._ranges: dict[str, tuple[int, int]] = {}  # name -> (base addr, size)
        self._deferred: dict[str, Any] = {}  # unlinked but still mapped
        self._slab_free: dict[str, int] = {}  # reusable slab name -> capacity
        self._slab_used: dict[str, int] = {}  # checked-out slab name -> capacity
        self.closed = False
        # probe: fail fast (and fall back) when segments cannot be created
        probe = shared_memory.SharedMemory(
            name=f"{self.prefix}probe", create=True, size=16
        )
        probe.close()
        probe.unlink()
        _LIVE_ARENAS.add(self)

    # -- allocation ----------------------------------------------------

    def _new_segment(self, size: int):
        self._counter += 1
        name = f"{self.prefix}s{self._counter}"
        return shared_memory.SharedMemory(name=name, create=True, size=size)

    def _register(self, shm) -> None:
        base = np.ndarray((shm.size,), dtype=np.uint8, buffer=shm.buf).__array_interface__[
            "data"
        ][0]
        self._segments[shm.name] = shm
        self._refs[shm.name] = 1
        self._ranges[shm.name] = (base, shm.size)

    def put(self, arr: np.ndarray) -> np.ndarray:
        """Copy *arr* into a fresh segment; return the arena-backed view.

        The view (and any contiguous sub-view of it) maps back to a
        handle via :meth:`handle_of` without further copies.
        """
        if self.closed:
            raise SharedMemoryUnavailableError("arena is closed")
        if self.fail_after is not None and self._puts >= self.fail_after:
            from .chaos import ChaosSharedMemoryLoss

            raise ChaosSharedMemoryLoss(
                f"chaos: shared memory lost after {self._puts} segment(s)"
            )
        arr = np.ascontiguousarray(arr)
        shm = self._new_segment(max(1, arr.nbytes))
        self._register(shm)
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        self._puts += 1
        return view

    def adopt(self, handle: ArrayHandle) -> np.ndarray:
        """Attach a worker-created segment, taking ownership of its
        lifetime, and return the array view it holds."""
        if self.closed:
            raise SharedMemoryUnavailableError("arena is closed")
        shm = self._segments.get(handle.name)
        if shm is None:
            # NOTE: the attach registers with the resource tracker (3.11
            # registers on every init); we deliberately leave that entry in
            # place — release()'s unlink() consumes it, and if this process
            # dies first the tracker unlinks the stray segment for us
            shm = shared_memory.SharedMemory(name=handle.name)
            self._register(shm)
        return np.ndarray(
            handle.shape, dtype=np.dtype(handle.dtype), buffer=shm.buf, offset=handle.offset
        )

    # -- slab pool -----------------------------------------------------

    def slab(self, shape: tuple, dtype) -> np.ndarray:
        """Check out a reusable scratch segment shaped ``(shape, dtype)``.

        Unlike :meth:`put`, slabs are meant to be written in place, shipped
        (their views map to handles via :meth:`handle_of`), and *returned to
        the pool* with :meth:`recycle` / :meth:`reset` instead of released —
        a steady-state round pipeline reuses the same few segments forever
        instead of churning one arena segment per round. Capacities are
        rounded up to powers of two so ragged shape buckets share slabs.

        Slab contents are NOT zeroed on reuse; callers must fully
        initialize whatever cells they read.
        """
        if self.closed:
            raise SharedMemoryUnavailableError("arena is closed")
        if self.fail_after is not None and self._puts >= self.fail_after:
            from .chaos import ChaosSharedMemoryLoss

            raise ChaosSharedMemoryLoss(
                f"chaos: shared memory lost after {self._puts} segment(s)"
            )
        dtype = np.dtype(dtype)
        count = 1
        for s in shape:
            count *= int(s)
        need = max(1, count * dtype.itemsize)
        best = None
        for name, cap in self._slab_free.items():
            if cap >= need and (best is None or cap < self._slab_free[best]):
                best = name
        if best is not None:
            self._slab_used[best] = self._slab_free.pop(best)
            shm = self._segments[best]
            _metric_inc("transport.slab_reuses", 1)
        else:
            cap = max(ARENA_MIN_BYTES, 1 << (need - 1).bit_length())
            shm = self._new_segment(cap)
            self._register(shm)
            self._slab_used[shm.name] = cap
            _metric_inc("transport.slab_allocs", 1)
        self._puts += 1
        return np.ndarray(shape, dtype=dtype, buffer=shm.buf)

    def recycle(self, arr: np.ndarray) -> bool:
        """Return the slab backing *arr* to the free pool. Safe to call
        only once no in-flight round still reads the slab. Returns whether
        *arr* was slab-backed (no-op, ``False`` otherwise)."""
        handle = self.handle_of(arr) if isinstance(arr, np.ndarray) else None
        if handle is None or handle.name not in self._slab_used:
            return False
        self._slab_free[handle.name] = self._slab_used.pop(handle.name)
        return True

    def reset(self) -> None:
        """Return every checked-out slab to the free pool (round-boundary
        bulk recycle). Segments stay allocated and mapped — only their
        availability changes; :meth:`close` still unlinks them."""
        self._slab_free.update(self._slab_used)
        self._slab_used.clear()

    # -- handle mapping ------------------------------------------------

    def handle_of(self, arr: np.ndarray) -> ArrayHandle | None:
        """Map an arena-backed contiguous (view of an) array to a handle."""
        if not isinstance(arr, np.ndarray) or not arr.flags["C_CONTIGUOUS"]:
            return None
        ptr = arr.__array_interface__["data"][0]
        for name, (base, size) in self._ranges.items():
            if base <= ptr and ptr + arr.nbytes <= base + size:
                return ArrayHandle(name, arr.dtype.str, arr.shape, ptr - base)
        return None

    # -- lifecycle -----------------------------------------------------

    def retain(self, name: str) -> None:
        """Add one reference to segment *name* (pairs with release)."""
        if name in self._refs:
            self._refs[name] += 1

    def release(self, name: str) -> None:
        """Drop one reference; at zero, unlink the segment name.

        Parent-side views remain readable (the mapping is only closed
        once no NumPy view exports it any more), but the name disappears
        from ``/dev/shm`` immediately and workers can no longer attach.
        """
        if name not in self._refs:
            return
        self._refs[name] -= 1
        if self._refs[name] > 0:
            return
        shm = self._segments.pop(name)
        del self._refs[name]
        del self._ranges[name]
        self._slab_free.pop(name, None)
        self._slab_used.pop(name, None)
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already swept
            pass
        try:
            shm.close()
        except BufferError:
            # a live NumPy view still exports the buffer; keep the
            # mapping around and retry at close()
            self._deferred[name] = shm

    def release_array(self, arr: np.ndarray) -> bool:
        """Release the segment backing *arr*, if any. Returns whether a
        segment was found (no-op for ordinary local arrays)."""
        handle = self.handle_of(arr)
        if handle is None:
            return False
        self.release(handle.name)
        return True

    def stats(self) -> dict:
        """Live segment count, resident bytes and total put() calls."""
        return {
            "segments": len(self._segments),
            "bytes": sum(size for _, size in self._ranges.values()),
            "puts": self._puts,
            "slabs_free": len(self._slab_free),
            "slabs_used": len(self._slab_used),
        }

    def close(self) -> None:
        """Unlink every owned segment and sweep strays left by crashed
        workers (segments carrying this arena's prefix whose handles
        never made it back to the parent). Idempotent.

        Only the owning process may unlink: a forked worker inheriting
        this object (and its ``atexit`` hook) must not tear down
        segments the parent still uses."""
        if self.closed:
            return
        if os.getpid() != self._owner_pid:  # pragma: no cover - worker side
            _LIVE_ARENAS.discard(self)
            return
        self.closed = True
        for name in list(self._segments):
            self._refs[name] = 1
            self.release(name)
        for name, shm in list(self._deferred.items()):
            try:
                shm.close()
                del self._deferred[name]
            except BufferError:  # pragma: no cover - caller still holds views
                pass
        self._sweep_strays()
        _LIVE_ARENAS.discard(self)

    def _sweep_strays(self) -> None:
        if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux
            return
        try:
            names = os.listdir(_SHM_DIR)
        except OSError:  # pragma: no cover
            return
        for name in names:
            if name.startswith(self.prefix):
                try:
                    os.unlink(os.path.join(_SHM_DIR, name))
                except OSError:  # pragma: no cover - raced with tracker
                    continue
                if resource_tracker is not None:
                    # the name is truly gone: drop the shared tracker
                    # entry so it does not warn (and re-unlink) at exit
                    try:
                        resource_tracker.unregister("/" + name, "shared_memory")
                    except Exception:  # pragma: no cover - best effort
                        pass

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: every live arena, so signal handlers / atexit can reclaim segments
_LIVE_ARENAS: "weakref.WeakSet[SharedArena]" = weakref.WeakSet()


def release_all_arenas() -> None:
    """Close every live arena (segment cleanup for SIGINT/SIGTERM paths)."""
    for arena in list(_LIVE_ARENAS):
        arena.close()


atexit.register(release_all_arenas)


# ---------------------------------------------------------------------------
# Worker side: handle resolution and result publication
# ---------------------------------------------------------------------------

#: per-process cache of attached segments (never unlinked here; the
#: owning arena controls lifetime). :func:`run_chunk` closes the
#: attachments of segments the owner has since unlinked.
_ATTACHED: dict[str, Any] = {}


def _drop_unlinked_attachments() -> None:
    """Close and forget every cached attachment whose segment name is
    gone from ``/dev/shm``: the owner released it, so no future handle
    names it, and keeping the mapping would pin its pages for the life
    of the worker. A mapping a live view still exports stays cached
    until a later sweep."""
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux
        return
    for name in [n for n in _ATTACHED if not os.path.exists(os.path.join(_SHM_DIR, n))]:
        try:
            _ATTACHED[name].close()
        except BufferError:
            continue
        del _ATTACHED[name]


def resolve(obj: Any) -> Any:
    """Turn an :class:`ArrayHandle` into an array view; pass anything
    else through. Attachments are cached per process; the arena that
    owns the segment (same process) is consulted first."""
    if not isinstance(obj, ArrayHandle):
        return obj
    for arena in _LIVE_ARENAS:
        shm = arena._segments.get(obj.name)
        if shm is not None:
            return np.ndarray(
                obj.shape, dtype=np.dtype(obj.dtype), buffer=shm.buf, offset=obj.offset
            )
    shm = _ATTACHED.get(obj.name)
    if shm is None:
        # attach re-registers with the shared tracker — an idempotent
        # set-add; see the resource-tracker discipline note above
        shm = shared_memory.SharedMemory(name=obj.name)
        _ATTACHED[obj.name] = shm
    return np.ndarray(
        obj.shape, dtype=np.dtype(obj.dtype), buffer=shm.buf, offset=obj.offset
    )


def share_result(arr: np.ndarray, prefix: str) -> ArrayHandle:
    """Publish *arr* as a fresh shared segment (worker side).

    The parent adopts the segment — and with it the unlink duty — when
    the handle arrives; until then the shared resource tracker covers it
    (a crashed worker's segment is swept by the arena's prefix sweep or,
    failing that, unlinked by the tracker at shutdown).
    """
    arr = np.ascontiguousarray(arr)
    name = f"{prefix}w{os.getpid()}r{uuid.uuid4().hex[:8]}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=max(1, arr.nbytes))
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    handle = ArrayHandle(name, arr.dtype.str, arr.shape, 0)
    del view
    shm.close()
    return handle


def _resolve_spec(spec: tuple[Callable, tuple, dict]):
    fn, args, kwargs = spec
    return fn(*[resolve(a) for a in args], **{k: resolve(v) for k, v in kwargs.items()})


def _run_specs(specs, share_prefix):
    out = []
    for i, spec in enumerate(specs):
        try:
            result = _resolve_spec(spec)
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            return ("err", i, exc)
        if (
            share_prefix is not None
            and isinstance(result, np.ndarray)
            and result.nbytes >= SHARE_MIN_BYTES
        ):
            result = share_result(result, share_prefix)
        out.append(result)
    return ("ok", out)


def run_chunk(payload: bytes) -> bytes:
    """Execute one pickled chunk of specs; return one pickled payload.

    The payload is ``(specs, share_prefix)`` or, when the parent
    requested observability, ``(specs, share_prefix, obs_req)`` with
    ``obs_req = {"ctx": (trace_id, span_id) | None, "metrics": bool}``.
    Results that are large arrays are published as shared segments when
    *share_prefix* is set (shm transport); the first failing spec
    short-circuits the chunk and is reported with its chunk-local index
    so the parent can attribute the round-global task index.

    Success payloads are ``("ok", out)`` — or ``("ok", out, obs_blob)``
    with ``obs_blob = (span_events, metrics_delta)`` when *obs_req* was
    present, so worker spans re-parent under the submitting round and
    worker metric deltas merge into the parent registry (see
    ``repro.obs``). Failure payloads are always ``("err", i, exc)``.

    Each chunk first closes the worker's cached attachments to segments
    the parent has unlinked since, so their pages are freed.
    """
    _drop_unlinked_attachments()
    loaded = pickle.loads(payload)
    specs, share_prefix = loaded[0], loaded[1]
    obs_req = loaded[2] if len(loaded) > 2 else None
    if obs_req is None:
        status = _run_specs(specs, share_prefix)
    else:
        from ..obs import diff_snapshots, get_metrics, get_tracer

        tracer = get_tracer()
        metrics = get_metrics()
        before = metrics.snapshot() if obs_req.get("metrics") else None
        with tracer.collect_remote(obs_req.get("ctx")) as events:
            with tracer.span("worker.chunk", args={"tasks": len(specs)}):
                status = _run_specs(specs, share_prefix)
        delta = (
            diff_snapshots(metrics.snapshot(), before) if before is not None else None
        )
        if status[0] == "ok":
            status = ("ok", status[1], (events, delta))
    try:
        return pickle.dumps(status)
    except Exception:  # unpicklable exception: ship the repr
        if status[0] == "err":
            return pickle.dumps(("err", status[1], RuntimeError(repr(status[2]))))
        raise


# ---------------------------------------------------------------------------
# Call-site helpers: transport-agnostic machine access
# ---------------------------------------------------------------------------


def machine_broadcast(machine, *arrays: np.ndarray) -> tuple:
    """One-time broadcast of *arrays* to the machine's workers.

    Shared-memory machines copy each array into the arena once and
    return arena-backed views (whose slices ship as handles); everything
    else returns the arrays unchanged.
    """
    bc = getattr(machine, "broadcast", None)
    if bc is None:
        return arrays
    return bc(*arrays)


def run_array_round(machine, specs: Sequence[tuple[Callable, tuple, dict]]) -> list:
    """Run one round of ``(fn, args, kwargs)`` specs on any machine.

    Machines with an array transport ship handles for arena-backed args;
    in-process machines execute the specs as plain thunks.
    """
    rr = getattr(machine, "run_round_arrays", None)
    if rr is not None:
        return rr(specs)
    rs = getattr(machine, "run_round_spec", None)
    if rs is not None:
        return rs(specs)
    from functools import partial

    return machine.run_round([partial(fn, *args, **kwargs) for fn, args, kwargs in specs])


def machine_submit_round(machine, specs: Sequence[tuple[Callable, tuple, dict]]):
    """Submit one array round without waiting for its results.

    Machines with a pipelined transport (``submit_round_arrays`` /
    ``drain_round``, i.e. :class:`~repro.parallel.processes.ProcessMachine`
    and wrappers that delegate it) return immediately with the round in
    flight, so the caller can pack the next round while this one computes.
    Everything else degrades to a synchronous :func:`run_array_round`.

    Returns an opaque token for :func:`machine_drain_round`.
    """
    specs = list(specs)
    sub = getattr(machine, "submit_round_arrays", None)
    if sub is None:
        return ("done", run_array_round(machine, specs))
    return ("pending", machine, sub(specs))


def machine_drain_round(token) -> list:
    """Wait for a round submitted by :func:`machine_submit_round` and
    return its results (in spec order)."""
    if token[0] == "done":
        return token[1]
    _, machine, pending = token
    return machine.drain_round(pending)


def machine_slab(machine, shape: tuple, dtype) -> np.ndarray:
    """A reusable scratch array from the machine's slab pool, or a plain
    local array when the machine has no shared-memory slabs. Contents are
    uninitialized either way."""
    slab = getattr(machine, "slab", None)
    if slab is None:
        return np.empty(shape, dtype=dtype)
    return slab(shape, dtype)


def machine_recycle_slabs(machine, arrays) -> None:
    """Return slab-backed *arrays* to the machine's pool (no-op for plain
    arrays or machines without a slab pool). Call only after every round
    reading the slabs has been drained."""
    rec = getattr(machine, "recycle_slabs", None)
    if rec is not None:
        rec(arrays)


def machine_localize(machine, arr):
    """Copy *arr* out of the machine's arena (if it lives there) so it
    survives ``machine.close()``; identity otherwise."""
    loc = getattr(machine, "localize", None)
    if loc is None:
        return arr
    return loc(arr)


def machine_release(machine, *arrays) -> None:
    """Release the shared segments backing *arrays*, if any. Call only
    once no future round will ship these arrays again."""
    rel = getattr(machine, "release_arrays", None)
    if rel is not None:
        rel(arrays)
