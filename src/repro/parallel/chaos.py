"""Deterministic fault injection for testing the resilience layer.

:class:`ChaosMachine` wraps any machine and, with seeded
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
faulted task never half-applies its work. On a process pool the faulted
task's function is replaced by a picklable raiser that fires in the
worker, exactly where a real in-flight fault would surface.
"""

from __future__ import annotations

import random
import time
from typing import Sequence

from ..errors import BackendError, SharedMemoryUnavailableError, WorkerCrashError
from ..obs.metrics import inc as _metric_inc
from .api import Machine, MachineWrapper, Spec


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


class ChaosMachine(MachineWrapper):
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

    On a machine whose tasks run in worker processes (``remote_tasks``)
    faults are injected by *substituting* a module-level raiser for the
    task's function, so the fault fires in the worker — ``fail`` and
    ``crash`` are supported there, ``delay`` and ``abort_after`` apply to
    in-process machines only. The transport surface and the accounting
    pass through to the inner machine
    (:class:`~repro.parallel.api.MachineWrapper`); :meth:`reset` does not
    rewind the fault stream.

    ``fault_log`` records ``(execution_index, task_index, kind)`` for
    every injected fault, for determinism assertions in tests.
    """

    def __init__(
        self,
        inner: Machine | None = None,
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
        super().__init__(inner)
        self.abort_after = abort_after
        self._completed = 0
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

    def _wrap(self, spec: Spec, index: int) -> Spec:
        """Fault-inject an in-process task: the fault (or delay) fires
        when the task would run, instead of running it."""
        fn, args, kwargs = spec
        fault, delayed = self._plan(index)
        execution = self._executions
        self._executions += 1

        def chaotic(*args, **kwargs):
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
            result = fn(*args, **kwargs)
            self._completed += 1
            return result

        return chaotic, args, kwargs

    def _wrap_remote(self, spec: Spec, index: int) -> Spec:
        """Fault-inject a task bound for a worker process by substituting
        a picklable module-level raiser (closures cannot carry the fault
        across the process boundary)."""
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

    def rebuild(self) -> bool:
        """Rebuild the inner machine's workers; returns ``True`` whatever
        the inner machine: an injected crash stands for a worker that
        died, and a rebuild replaces it. Every counter survives."""
        self.inner.rebuild()
        return True

    def run_round(self, specs: Sequence[Spec], **kw) -> list:
        """Run the round on the inner machine with every task
        fault-injected; keyword arguments (``items``, ``timeout``) pass
        through."""
        wrap = self._wrap_remote if self.remote_tasks else self._wrap
        return self.inner.run_round([wrap(s, i) for i, s in enumerate(specs)], **kw)
