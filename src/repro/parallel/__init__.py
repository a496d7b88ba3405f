"""Parallel execution substrate.

The paper's algorithms are parallelized with OpenMP threads + AVX SIMD.
CPython's GIL makes thread-level parallelism useless for compute-bound
Python, so this package offers interchangeable *machines* behind one
base class (:class:`repro.parallel.api.Machine`) with one round
primitive: ``run_round(specs, *, items=None)`` runs a bulk-synchronous
round of ``(fn, args, kwargs)`` specs and returns their results in
order. ``items`` weighs identical-cost work for the simulator alone;
the transport surface (``broadcast``, ``localize``, ``release_arrays``,
``slab``, ``recycle_slabs``, ``transport_stats``, ``close``,
``rebuild``) is an identity or a no-op everywhere but on the
shared-memory process pool, so call sites never probe a machine:

- :class:`~repro.parallel.api.SerialMachine` — sequential execution,
  wall-clock accounting (the 1-thread baseline);
- :class:`~repro.parallel.simulator.SimulatedMachine` — executes every
  task sequentially but *accounts* time as a p-worker schedule (greedy
  list scheduling of the measured per-task durations, plus explicit
  barrier-synchronization and task-spawn overheads). Deterministic,
  GIL-free reproduction of the paper's thread-scaling figures: load
  imbalance, synchronization costs and saturation emerge from the real
  measured task durations;
- :class:`~repro.parallel.threads.ThreadMachine` — a thread pool;
- :class:`~repro.parallel.processes.ProcessMachine` — a real
  ``multiprocessing`` pool for coarse-grained tasks (steady-ant subtasks,
  hybrid sub-grids, batch megabatches), shipping specs by pickle or over
  shared memory (:mod:`repro.parallel.transport`). Its tasks run in
  other processes (``remote_tasks``), so the in-place wavefront combers
  refuse it.

Two wrappers (:class:`~repro.parallel.api.MachineWrapper`) add fault
tolerance on top of any inner machine (see ``DESIGN.md`` § Fault
tolerance):

- :class:`~repro.parallel.resilient.ResilientMachine` enforces a
  :class:`~repro.parallel.resilient.FaultPolicy` — per-task timeouts,
  bounded retries with backoff, pool rebuilds, and graceful degradation
  to serial execution;
- :class:`~repro.parallel.chaos.ChaosMachine` deterministically injects
  task failures, delays and simulated worker crashes for testing.

:func:`make_machine` builds any of the above from names and knobs.

SIMD parallelism maps to NumPy-vectorized inner loops throughout the
core algorithms and needs no machinery here.
"""

from __future__ import annotations

from ..errors import BackendError
from .api import Machine, SerialMachine
from .chaos import ChaosError, ChaosMachine, ChaosProcessDeath, ChaosSharedMemoryLoss
from .processes import ProcessMachine
from .resilient import FaultPolicy, ResilientMachine
from .simulator import SimulatedMachine
from .threads import ThreadMachine
from .transport import (
    ArrayHandle,
    SharedArena,
    release_all_arenas,
    shared_memory_available,
)

#: backend name -> constructor used by :func:`make_machine`
MACHINE_KINDS = ("serial", "threads", "processes", "simulated")


def make_machine(
    kind: str = "serial",
    workers: int | None = None,
    *,
    policy: FaultPolicy | bool | None = None,
    chaos: dict | None = None,
    **kwargs,
) -> Machine:
    """Build an execution machine by name, optionally fault-wrapped.

    *kind* is one of :data:`MACHINE_KINDS`. Extra ``kwargs`` go to the
    backend constructor (e.g. ``schedule=`` for the simulator, or
    ``transport="shm"`` for the zero-copy shared-memory transport of
    :class:`~repro.parallel.processes.ProcessMachine`).

    - ``chaos`` — keyword arguments for
      :class:`~repro.parallel.chaos.ChaosMachine` (``fail_rate``,
      ``crash_rate``, ``delay_rate``, ``delay``, ``seed``); the fault
      injector wraps the backend;
    - ``policy`` — a :class:`~repro.parallel.resilient.FaultPolicy`
      (or ``True`` for the defaults); the resulting
      :class:`~repro.parallel.resilient.ResilientMachine` wraps
      everything below it:  ``ResilientMachine(ChaosMachine(backend))``.
    """
    kind = kind.lower()
    if workers is None:
        workers = 1 if kind == "serial" else 2
    if kind == "serial":
        machine: Machine = SerialMachine(**kwargs)
    elif kind == "threads":
        machine = ThreadMachine(workers=workers, **kwargs)
    elif kind == "processes":
        machine = ProcessMachine(workers=workers, **kwargs)
    elif kind == "simulated":
        machine = SimulatedMachine(workers=workers, **kwargs)
    else:
        raise BackendError(f"unknown machine kind {kind!r}; available: {MACHINE_KINDS}")
    if chaos:
        machine = ChaosMachine(machine, **chaos)
    if policy:
        machine = ResilientMachine(machine, FaultPolicy() if policy is True else policy)
    return machine


__all__ = [
    "Machine",
    "SerialMachine",
    "SimulatedMachine",
    "ThreadMachine",
    "ProcessMachine",
    "ResilientMachine",
    "FaultPolicy",
    "ChaosMachine",
    "ChaosError",
    "ChaosProcessDeath",
    "ChaosSharedMemoryLoss",
    "SharedArena",
    "ArrayHandle",
    "shared_memory_available",
    "release_all_arenas",
    "MACHINE_KINDS",
    "make_machine",
]
