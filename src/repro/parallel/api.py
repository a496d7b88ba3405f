"""The machine layer: one round primitive and one transport surface.

The paper's parallel algorithms are bulk-synchronous: a sequence of
rounds, each a set of independent tasks followed by a barrier (the
``#pragma sync`` in Listings 4-7; Tiskin's BSP superstep). Every machine
runs a round the same way: :meth:`Machine.run_round` takes
``(fn, args, kwargs)`` *specs*, runs ``fn(*args, **kwargs)`` for each,
and returns the results in spec order. A spec whose ``fn`` is a
module-level function pickles, so the same round runs serially, on the
deterministic simulator, on threads or on a process pool without code
changes.

``items=`` gives each spec a count of identical-cost work items (the
cells of an anti-diagonal, the blocks of a block-anti-diagonal). Only
:class:`~repro.parallel.simulator.SimulatedMachine` reads it: a p-worker
machine would split those items evenly, so the simulator divides the
measured batch time accordingly; every other machine ignores it.

:class:`Machine` also carries the transport surface (``broadcast``,
``localize``, ``release_arrays``, ``slab``, ``recycle_slabs``,
``transport_stats``, ``close``, ``rebuild``) with identity or no-op
defaults, so call sites use it on any machine without probing;
:class:`~repro.parallel.processes.ProcessMachine` overrides it with its
shared-memory transport, and :class:`MachineWrapper` passes it through to
the machine it wraps.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

import numpy as np

#: one task of a round: ``fn(*args, **kwargs)``
Spec = tuple[Callable[..., Any], tuple, dict]


def note_task(exc: BaseException, index: int, n_tasks: int) -> None:
    """Annotate a task's own exception with the task that raised it.

    Appends to ``exc.__notes__`` as ``add_note`` does on Python 3.11+,
    so the note is there on every supported version."""
    note = f"raised by task {index} of a {n_tasks}-task round"
    exc.__notes__ = [*getattr(exc, "__notes__", ()), note]


def call_spec(spec: Spec, index: int, n_tasks: int):
    """Run one spec in this process; its error names the task."""
    fn, args, kwargs = spec
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        note_task(exc, index, n_tasks)
        raise


class Machine:
    """Runs rounds of independent ``(fn, args, kwargs)`` specs and
    accounts elapsed time (see the module docstring).

    Subclasses implement :meth:`run_round`, :attr:`elapsed` and
    :meth:`reset`; the transport surface defaults to identities and
    no-ops. Pool machines (``supports_task_timeout``) also accept
    ``run_round(..., timeout=seconds)``, a deadline for the whole round.
    """

    #: number of workers the machine models / uses
    workers: int = 1
    #: tasks run in worker processes: their side effects on arguments
    #: never reach this process, and closures cannot be shipped
    remote_tasks: bool = False
    #: ``run_round`` takes ``timeout=`` and enforces it preemptively
    supports_task_timeout: bool = False

    def run_round(self, specs: Sequence[Spec], *, items: Sequence[int] | None = None) -> list:
        """Run every spec (a parallel region + barrier); return their
        results in order. ``items`` (one count per spec) weighs uniform
        work for the simulator."""
        raise NotImplementedError

    @property
    def elapsed(self) -> float:
        """Accounted running time in seconds."""
        raise NotImplementedError

    def reset(self) -> None:
        """Zero the accounting."""
        raise NotImplementedError

    # -- transport surface (identities / no-ops without a transport) ----

    def broadcast(self, *arrays: np.ndarray) -> tuple:
        """Place *arrays* where every worker reads them without a copy per
        task; returns the arrays to ship (slices of them ship cheaply)."""
        return arrays

    def localize(self, arr):
        """*arr* as an array that outlives :meth:`close`."""
        return arr

    def release_arrays(self, arrays) -> None:
        """Free the transport memory behind *arrays*; call only once no
        later round ships them again."""

    def slab(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A reusable scratch array to pack task inputs into; contents are
        uninitialized."""
        return np.empty(shape, dtype=dtype)

    def recycle_slabs(self, arrays) -> None:
        """Hand slab-backed *arrays* back for reuse once no round reads
        them."""

    def transport_stats(self) -> dict:
        """Data-movement counters of the run (``{}`` without a transport)."""
        return {}

    def close(self) -> None:
        """Release workers and transport memory (idempotent)."""

    def rebuild(self) -> bool:
        """Replace broken workers; counters survive. Returns whether the
        machine had workers to replace (``False`` here: its tasks run on
        the calling thread)."""
        return False

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MachineWrapper(Machine):
    """A machine around an *inner* one (``SerialMachine`` by default).

    Workers, capabilities, accounting and the whole transport surface
    pass straight through; subclasses override :meth:`run_round` and
    whatever else they add to.
    """

    def __init__(self, inner: Machine | None = None):
        self.inner = inner if inner is not None else SerialMachine()
        self.workers = self.inner.workers
        self.remote_tasks = self.inner.remote_tasks
        self.supports_task_timeout = self.inner.supports_task_timeout

    @property
    def elapsed(self) -> float:
        """The inner machine's accounted seconds."""
        return self.inner.elapsed

    def reset(self) -> None:
        """Zero the inner machine's accounting."""
        self.inner.reset()

    def broadcast(self, *arrays: np.ndarray) -> tuple:
        """The inner machine's :meth:`Machine.broadcast`."""
        return self.inner.broadcast(*arrays)

    def localize(self, arr):
        """The inner machine's :meth:`Machine.localize`."""
        return self.inner.localize(arr)

    def release_arrays(self, arrays) -> None:
        """The inner machine's :meth:`Machine.release_arrays`."""
        self.inner.release_arrays(arrays)

    def slab(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        """The inner machine's :meth:`Machine.slab`."""
        return self.inner.slab(shape, dtype)

    def recycle_slabs(self, arrays) -> None:
        """The inner machine's :meth:`Machine.recycle_slabs`."""
        self.inner.recycle_slabs(arrays)

    def transport_stats(self) -> dict:
        """The inner machine's :meth:`Machine.transport_stats`."""
        return self.inner.transport_stats()

    def close(self) -> None:
        """Close the inner machine."""
        self.inner.close()

    def rebuild(self) -> bool:
        """Rebuild the inner machine's workers; every counter survives."""
        return self.inner.rebuild()


class SerialMachine(Machine):
    """Sequential execution; ``elapsed`` is plain wall-clock time.

    The cheapest Machine: every round runs its specs in submission
    order on the calling thread. ``rounds`` / ``tasks`` are plain int
    attributes (one round per call, one task per spec) — deliberately
    *not* live metrics, because algorithms such as the anti-diagonal
    wavefront submit one round per diagonal and the per-round cost must
    stay a couple of attribute increments.
    :func:`repro.obs.collect_machine` folds the final values into the
    ``machine.inproc_*`` gauges at run end. Not thread-safe: one
    SerialMachine belongs to one driving thread.
    """

    def __init__(self) -> None:
        self.workers = 1
        self._elapsed = 0.0
        self.rounds = 0
        self.tasks = 0

    def run_round(self, specs: Sequence[Spec], *, items: Sequence[int] | None = None) -> list:
        """Run *specs* sequentially; returns their results in order.

        Accumulates the wall-clock cost of the whole round into
        :attr:`elapsed` (seconds); ``items`` is ignored.
        """
        start = time.perf_counter()
        n = len(specs)
        results = [call_spec(spec, i, n) for i, spec in enumerate(specs)]
        self._elapsed += time.perf_counter() - start
        self.rounds += 1
        self.tasks += n
        return results

    @property
    def elapsed(self) -> float:
        """Accumulated wall-clock time of all rounds, in seconds."""
        return self._elapsed

    def reset(self) -> None:
        """Zero ``elapsed``, ``rounds`` and ``tasks``."""
        self._elapsed = 0.0
        self.rounds = 0
        self.tasks = 0
