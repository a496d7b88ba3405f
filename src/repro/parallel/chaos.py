"""Deterministic fault injection for testing the resilience layer.

:class:`ChaosMachine` wraps any in-process machine and, with seeded
probabilities, makes tasks fail (:class:`ChaosError`), stall
(``time.sleep``) or take their "worker" down with them
(:class:`~repro.errors.WorkerCrashError`) — so the retry / rebuild /
degradation paths of :class:`~repro.parallel.resilient.ResilientMachine`
are exercised without real crashes.

All random draws happen up front in submission order (two draws per
task), so a given seed produces the same fault pattern regardless of how
the inner machine schedules the tasks, and re-executing a failed task
consumes fresh draws — transient faults clear on retry, exactly like
real stragglers.

The injected faults are raised *instead of* running the task, so a
faulted task never half-applies its work. Wrap in-process machines only
(``SerialMachine``, ``SimulatedMachine``, ``ThreadMachine``): the fault
closures are not picklable.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Sequence

from ..errors import BackendError, SharedMemoryUnavailableError, WorkerCrashError
from ..obs.metrics import inc as _metric_inc
from .api import SerialMachine, Thunk


class ChaosError(BackendError):
    """An artificially injected task failure."""

    def __init__(self, message: str = "chaos: injected failure", *, task_index: int | None = None):
        super().__init__(message)
        self.task_index = task_index


class ChaosSharedMemoryLoss(SharedMemoryUnavailableError):
    """An injected shared-memory outage.

    Raised by a :class:`~repro.parallel.transport.SharedArena` armed with
    ``fail_after`` (see :meth:`ChaosMachine`'s ``shm_loss_after`` and
    ``ProcessMachine.inject_shm_loss``) the moment the configured number
    of segment allocations is exceeded. Because it subclasses
    :class:`~repro.errors.SharedMemoryUnavailableError`, the machine's
    normal fallback catches it and degrades to pickle transport — the
    tests assert the degraded path produces identical kernels rather
    than assuming it.
    """


class ChaosProcessDeath(BaseException):
    """A simulated abrupt process death (crash mid-run).

    Deliberately a :class:`BaseException`: like a real SIGKILL it must
    escape the resilience layer (which catches :class:`Exception`) and
    abort the whole run. The checkpoint tests use it to interrupt a grid
    combing run after an arbitrary prefix of completed tasks and then
    prove resume-from-disk is bit-identical.
    """


def _raise_chaos(index: int):
    """Picklable stand-in for a spec task fated to fail."""
    raise ChaosError(f"chaos: injected failure in task {index}", task_index=index)


def _raise_worker_crash(index: int):
    """Picklable stand-in for a spec task fated to crash its worker."""
    raise WorkerCrashError(f"chaos: simulated worker crash in task {index}", task_index=index)


class ChaosMachine:
    """Injects seeded faults around an inner machine's task execution.

    - ``fail_rate`` — probability a task raises :class:`ChaosError`;
    - ``crash_rate`` — probability a task raises
      :class:`~repro.errors.WorkerCrashError` (a simulated dead worker);
    - ``delay_rate`` / ``delay`` — probability and duration of an
      injected stall (for exercising timeouts);
    - ``abort_after`` — after this many tasks have *completed*, the next
      task raises :class:`ChaosProcessDeath` — a crash-mid-run fault
      that (being a ``BaseException``) rips through retries and
      degradation like a real process death, for checkpoint/resume
      testing;
    - ``shm_loss_after`` — arm the inner machine's shared-memory
      transport (it must expose ``inject_shm_loss``, i.e. be a
      ``ProcessMachine`` or wrap one) to raise
      :class:`ChaosSharedMemoryLoss` after that many segment
      allocations, forcing the degraded-to-pickle transport path;
    - ``seed`` — the deterministic fault stream.

    Spec rounds (``run_round_arrays``) ship to worker processes, so
    faults are injected by *substituting* a module-level raiser for the
    task's function — ``fail`` and ``crash`` are supported there,
    ``delay`` and ``abort_after`` apply to in-process thunk rounds only.

    ``fault_log`` records ``(execution_index, task_index, kind)`` for
    every injected fault, for determinism assertions in tests.
    """

    def __init__(
        self,
        inner=None,
        *,
        fail_rate: float = 0.0,
        crash_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay: float = 0.01,
        abort_after: int | None = None,
        shm_loss_after: int | None = None,
        seed: int = 0,
    ):
        for name, rate in (
            ("fail_rate", fail_rate),
            ("crash_rate", crash_rate),
            ("delay_rate", delay_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if fail_rate + crash_rate > 1.0:
            raise ValueError("fail_rate + crash_rate must be <= 1")
        if abort_after is not None and abort_after < 0:
            raise ValueError("abort_after must be >= 0 (or None)")
        if shm_loss_after is not None and shm_loss_after < 0:
            raise ValueError("shm_loss_after must be >= 0 (or None)")
        self.abort_after = abort_after
        self._completed = 0
        self.inner = inner if inner is not None else SerialMachine()
        self.workers = self.inner.workers
        self.remote_tasks = getattr(self.inner, "remote_tasks", False)
        self.supports_task_timeout = getattr(self.inner, "supports_task_timeout", False)
        if shm_loss_after is not None:
            inject = getattr(self.inner, "inject_shm_loss", None)
            if inject is None:
                raise BackendError(
                    "shm_loss_after requires an inner machine with a "
                    "shared-memory transport (ProcessMachine(transport='shm'))"
                )
            inject(shm_loss_after)
        self.shm_loss_after = shm_loss_after
        self.fail_rate = fail_rate
        self.crash_rate = crash_rate
        self.delay_rate = delay_rate
        self.delay = delay
        self._rng = random.Random(seed)
        self._executions = 0
        self.injected_failures = 0
        self.injected_crashes = 0
        self.injected_delays = 0
        self.fault_log: list[tuple[int, int, str]] = []

    # -- fault planning ------------------------------------------------

    def _plan(self, index: int) -> tuple[str | None, bool]:
        """Decide task *index*'s fate: (fault kind or None, delayed?)."""
        r = self._rng.random()
        d = self._rng.random() < self.delay_rate
        if r < self.crash_rate:
            return "crash", d
        if r < self.crash_rate + self.fail_rate:
            return "fail", d
        return None, d

    def _wrap(self, thunk: Thunk, index: int) -> Thunk:
        fault, delayed = self._plan(index)
        execution = self._executions
        self._executions += 1

        def chaotic():
            if self.abort_after is not None and self._completed >= self.abort_after:
                self.fault_log.append((execution, index, "death"))
                raise ChaosProcessDeath(
                    f"chaos: simulated process death after {self._completed} completed task(s)"
                )
            if delayed:
                self.injected_delays += 1
                _metric_inc("chaos.injected_delays", 1)
                self.fault_log.append((execution, index, "delay"))
                time.sleep(self.delay)
            if fault == "crash":
                self.injected_crashes += 1
                _metric_inc("chaos.injected_crashes", 1)
                self.fault_log.append((execution, index, "crash"))
                raise WorkerCrashError(
                    f"chaos: simulated worker crash in task {index}", task_index=index
                )
            if fault == "fail":
                self.injected_failures += 1
                _metric_inc("chaos.injected_failures", 1)
                self.fault_log.append((execution, index, "fail"))
                raise ChaosError(
                    f"chaos: injected failure in task {index}", task_index=index
                )
            result = thunk()
            self._completed += 1
            return result

        return chaotic

    def _wrap_spec(self, spec, index: int):
        """Fault-inject a ``(fn, args, kwargs)`` spec by substituting a
        picklable module-level raiser (spec rounds run out-of-process, so
        closures cannot carry the fault)."""
        fault, _ = self._plan(index)
        execution = self._executions
        self._executions += 1
        if fault == "crash":
            self.injected_crashes += 1
            _metric_inc("chaos.injected_crashes", 1)
            self.fault_log.append((execution, index, "crash"))
            return (_raise_worker_crash, (index,), {})
        if fault == "fail":
            self.injected_failures += 1
            _metric_inc("chaos.injected_failures", 1)
            self.fault_log.append((execution, index, "fail"))
            return (_raise_chaos, (index,), {})
        return spec

    # -- protocol ------------------------------------------------------

    def run_round(self, thunks: Sequence[Thunk], **kw) -> list:
        """Run the round with each thunk wrapped in fault injection."""
        return self.inner.run_round([self._wrap(t, i) for i, t in enumerate(thunks)], **kw)

    def run_uniform_round(self, tasks: Sequence[tuple[Thunk, int]]) -> list:
        """Uniform-round variant with the same fault injection."""
        return self.inner.run_uniform_round(
            [(self._wrap(t, i), n) for i, (t, n) in enumerate(tasks)]
        )

    #: transport surface passed straight through to the inner machine;
    #: resolved via ``__getattr__`` so capability probes (``hasattr``)
    #: reflect what the inner machine actually supports
    _PASSTHROUGH = (
        "broadcast",
        "localize",
        "release_arrays",
        "inject_shm_loss",
        "transport_active",
        "transport_stats",
        "bytes_shipped",
        "bytes_returned",
        "slab",
        "recycle_slabs",
    )

    def __getattr__(self, name):
        if name == "inner":  # guard against recursion during __init__
            raise AttributeError(name)
        # the substituted raiser ships with the round and fires in the
        # worker, exactly where a real in-flight fault would surface
        if name == "run_round_arrays":
            inner_fn = self.inner.run_round_arrays  # AttributeError: capability absent

            def fault_injected(specs, **kw):
                return inner_fn([self._wrap_spec(s, i) for i, s in enumerate(specs)], **kw)

            return fault_injected
        if name in self._PASSTHROUGH:
            return getattr(self.inner, name)
        raise AttributeError(name)

    def run_serial(self, thunk: Thunk):
        """Run a sequential section (also subject to fault injection)."""
        return self.inner.run_serial(self._wrap(thunk, 0))

    @property
    def elapsed(self) -> float:
        """The wrapped machine's accounted seconds (delays included)."""
        return self.inner.elapsed

    def reset(self) -> None:
        """Zero the inner accounting. The fault stream and injection
        counters are *not* rewound — reseed by constructing a new
        machine."""
        self.inner.reset()

    def rebuild(self) -> None:
        """Pass a pool rebuild through to the inner machine, if any.

        All counters — this machine's ``injected_*`` totals and
        ``fault_log``, and the inner machine's rounds/tasks/byte
        counters — are preserved: rebuilding replaces the inner worker
        pool, never the accounting.
        """
        rebuild = getattr(self.inner, "rebuild", None)
        if rebuild is not None:
            rebuild()

    def close(self) -> None:
        """Close the wrapped machine (if it has a ``close``)."""
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "ChaosMachine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
