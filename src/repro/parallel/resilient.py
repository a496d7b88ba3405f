"""Fault-tolerant execution over any :class:`~repro.parallel.api.Machine`.

The paper's algorithms are bulk-synchronous: a failed task poisons its
whole round, and on real backends (:class:`ProcessMachine`) a single
pickling error or dead worker used to kill an entire O(n log n)
multiplication mid-flight. :class:`ResilientMachine` wraps any inner
machine, runs the same ``(fn, args, kwargs)`` spec rounds on it, and
enforces a :class:`FaultPolicy`:

- a failed round is recovered task by task, each unfinished task retried
  on its own up to ``max_retries`` times with exponential backoff +
  deterministic jitter (pool rounds keep no completion ledger, so every
  task of a failed pool round is retried — a failed batch round is
  re-run megabatch by megabatch);
- timeouts are enforced preemptively on pool-backed machines
  (``supports_task_timeout``), as the deadline of a whole round, and
  post hoc per task on in-process machines;
- a broken process pool is rebuilt (``inner.rebuild()``) before retrying;
- when a round still cannot complete, execution degrades to an internal
  :class:`~repro.parallel.api.SerialMachine` for that round — emitting
  :class:`~repro.errors.DegradedExecutionWarning` exactly once — and
  permanently once ``max_round_failures`` rounds have degraded.

The degradation ladder is therefore::

    inner machine  ->  per-task retries on inner  ->  serial fallback

**Exactly-once on in-process backends.** For inner machines whose tasks
run in this process (everything except :class:`ProcessMachine`), each
task is wrapped to record its result the moment it completes; recovery
and the serial fallback then re-execute only tasks that never finished,
so even non-idempotent tasks (the in-place anti-diagonal combing
kernels) survive injected faults without double-applying work. Tasks
shipped to worker *processes* cannot be captured this way
(``remote_tasks``); those call sites submit pure functions, which the
retry path may safely re-execute, and the in-place kernels refuse such
machines up front. A checkpointed grid task
(:func:`repro.checkpoint.grid.run_node`) persists its kernel from inside
the task, so re-executing it after it committed reads the stored kernel
back instead of recomputing it.
"""

from __future__ import annotations

import random
import threading
import time
import warnings
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..errors import (
    DegradedExecutionWarning,
    RoundFailedError,
    TaskTimeoutError,
    WorkerCrashError,
)
from ..obs.metrics import inc as _metric_inc
from .api import Machine, MachineWrapper, SerialMachine, Spec


@dataclass(frozen=True)
class FaultPolicy:
    """Knobs governing retry, timeout and degradation behaviour.

    - ``task_timeout`` — seconds allowed per attempt (``None`` = no
      limit). Machines advertising ``supports_task_timeout`` (the
      process pool) enforce it preemptively as the deadline of a whole
      round, not of each task in it: a batch on a pool is one round, so
      it bounds the whole batch, and each retried task gets it afresh.
      In-process machines check it post hoc on each retried task.
    - ``max_retries`` — per-task re-executions after a round fails
      (``0`` disables the per-task recovery pass entirely).
    - ``backoff_base * backoff_factor ** (attempt-1)`` — delay before
      retry *attempt*, capped at ``backoff_max`` and spread by a
      deterministic ``jitter`` fraction (seeded by ``seed``).
    - ``max_round_failures`` — degraded rounds tolerated before the
      machine switches to serial execution permanently.
    - ``degrade_to_serial`` — whether falling back to serial is allowed
      at all; when ``False`` an unrecoverable round raises
      :class:`~repro.errors.RoundFailedError`.
    """

    task_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    jitter: float = 0.1
    max_round_failures: int = 3
    degrade_to_serial: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.max_round_failures < 1:
            raise ValueError("max_round_failures must be >= 1")

    def backoff_delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Delay in seconds before retry *attempt* (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(self.backoff_max, self.backoff_base * self.backoff_factor ** (attempt - 1))
        if rng is not None and self.jitter > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)


def _recorded(result):
    """Stand-in task for one whose result the ledger already holds."""
    return result


class ResilientMachine(MachineWrapper):
    """A :class:`~repro.parallel.api.Machine` that survives backend faults.

    Runs the same ``(fn, args, kwargs)`` spec rounds as the machine it
    wraps (see :class:`~repro.parallel.api.MachineWrapper` for the
    transport surface it passes through), so every parallel call site
    works unchanged.

    ``sleep`` is injectable so tests can skip real backoff delays.
    """

    def __init__(
        self,
        inner: Machine | None = None,
        policy: FaultPolicy | None = None,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ):
        super().__init__(inner)
        self.policy = policy if policy is not None else FaultPolicy()
        self._serial = SerialMachine()
        self._sleep = sleep
        self._rng = random.Random(self.policy.seed)
        self._permanent_serial = False
        self._warned = False
        self._close_lock = threading.Lock()
        self._closed = False
        self.retries = 0
        self.task_failures = 0
        self.timeouts = 0
        self.recovered_rounds = 0
        self.degraded_rounds = 0
        self.pool_rebuilds = 0

    # -- protocol ------------------------------------------------------

    def run_round(self, specs: Sequence[Spec], *, items: Sequence[int] | None = None) -> list:
        """Run a round with retries, per-task recovery and (policy
        permitting) graceful degradation to serial.

        One try of the whole round on the inner machine; on failure each
        unfinished task is retried on its own; a task that still fails
        degrades the round to the internal serial machine (or raises
        :class:`~repro.errors.RoundFailedError` when degradation is off).
        """
        specs = list(specs)
        if self._permanent_serial:
            return self._serial.run_round(specs)
        n = len(specs)
        # exactly-once ledger: index -> result of every finished task
        done: dict[int, Any] = {}
        try:
            return self._inner_round(
                specs if self.remote_tasks else self._captured(specs, done), items
            )
        except Exception as exc:  # noqa: BLE001 — any backend/task fault
            self._count_failure(exc)
            if self.policy.max_retries > 0 and n > 0:
                try:
                    for i in range(n):
                        if i not in done:
                            # record retry successes in the ledger too, so a
                            # later degradation in this round skips them
                            done[i] = self._retry_task(specs, items, i)
                except RoundFailedError:
                    if not self.policy.degrade_to_serial:
                        raise
                    return self._degrade(specs, done)
                self._bump("recovered_rounds")
                return [done[i] for i in range(n)]
            if not self.policy.degrade_to_serial:
                raise RoundFailedError(
                    f"round of {n} task(s) failed and retries are disabled"
                ) from exc
            return self._degrade(specs, done)

    @property
    def elapsed(self) -> float:
        """Accounted time including wasted (failed / retried) attempts and
        any serial-fallback execution."""
        return self.inner.elapsed + self._serial.elapsed

    def reset(self) -> None:
        """Zero the accounting and fault counters. The degradation state
        (``permanently_degraded`` and the once-only warning latch) reflects
        backend health and survives a reset."""
        self.inner.reset()
        self._serial.reset()
        self.retries = 0
        self.task_failures = 0
        self.timeouts = 0
        self.recovered_rounds = 0
        self.degraded_rounds = 0
        self.pool_rebuilds = 0

    def close(self) -> None:
        """Close the wrapped backend.

        Idempotent and thread-safe: long-lived processes may race a
        signal handler's close against a ``finally`` block's (or receive
        SIGTERM twice mid-drain) — the backend teardown runs exactly
        once, and concurrent callers block until it has finished.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            self.inner.close()

    def rebuild(self) -> bool:
        """Replace the wrapped machine's worker pool with a fresh one.

        Delegates to ``inner.rebuild()`` and, when that reports workers
        replaced, counts the event in ``pool_rebuilds`` and revives a
        closed machine (a serial or simulated backend has no pool, so
        nothing is counted); returns the inner report. Every counter —
        this machine's fault counters and the inner machine's
        rounds/tasks/byte totals — is preserved across the rebuild: a
        rebuild replaces workers, never history, so long-run totals stay
        honest (they are additionally mirrored into the global
        ``resilience.*`` / ``machine.*`` metrics).
        """
        if not self.inner.rebuild():
            return False
        with self._close_lock:
            self._closed = False  # a rebuild revives a closed machine
        self._bump("pool_rebuilds")
        return True

    # -- health --------------------------------------------------------

    @property
    def permanently_degraded(self) -> bool:
        """True once the machine has latched into serial-only execution
        (an unrecoverable backend failure with degradation allowed)."""
        return self._permanent_serial

    def health(self) -> dict:
        """Counters describing how much fault handling the run needed."""
        return {
            "retries": self.retries,
            "task_failures": self.task_failures,
            "timeouts": self.timeouts,
            "recovered_rounds": self.recovered_rounds,
            "degraded_rounds": self.degraded_rounds,
            "pool_rebuilds": self.pool_rebuilds,
            "permanently_degraded": self._permanent_serial,
        }

    # -- execution core ------------------------------------------------

    def _bump(self, name: str) -> None:
        """Increment fault counter *name* and mirror it into the global
        ``resilience.*`` metric of the same name, so long-run totals
        survive machine resets and pool rebuilds (see docs/metrics.md)."""
        setattr(self, name, getattr(self, name) + 1)
        _metric_inc(f"resilience.{name}", 1)

    def _count_failure(self, exc: Exception) -> None:
        """Count a failed attempt (and its timeout); replace a broken
        worker pool before the next attempt."""
        self._bump("task_failures")
        if isinstance(exc, TaskTimeoutError):
            self._bump("timeouts")
        if isinstance(exc, (WorkerCrashError, BrokenExecutor)):
            self.rebuild()

    @staticmethod
    def _captured(specs: Sequence[Spec], done: dict[int, Any]) -> list[Spec]:
        """Wrap *specs* so each records its result the moment it
        completes — the exactly-once ledger recovery consults. In-process
        machines only: the closures neither pickle nor report back from
        a worker process."""

        def wrap(i: int, fn: Callable) -> Callable:
            def capturing(*args, **kwargs):
                done[i] = result = fn(*args, **kwargs)
                return result

            return capturing

        return [(wrap(i, fn), args, kwargs) for i, (fn, args, kwargs) in enumerate(specs)]

    def _serial_fill(self, specs: Sequence[Spec], done: dict[int, Any]) -> list:
        """Serial fallback: the round again on the internal serial
        machine, every task with a recorded result replaced by that
        result (so only unfinished tasks execute, under their own
        indices)."""
        return self._serial.run_round(
            [(_recorded, (done[i],), {}) if i in done else s for i, s in enumerate(specs)]
        )

    def _inner_round(self, specs: Sequence[Spec], items) -> list:
        if self.supports_task_timeout and self.policy.task_timeout is not None:
            return self.inner.run_round(specs, items=items, timeout=self.policy.task_timeout)
        return self.inner.run_round(specs, items=items)

    def _retry_task(self, specs: Sequence[Spec], items, i: int):
        """Re-execute task *i* alone up to ``max_retries`` times with
        backoff."""
        policy = self.policy
        one_item = None if items is None else [items[i]]
        last: Exception | None = None
        for attempt in range(1, policy.max_retries + 1):
            self._sleep(policy.backoff_delay(attempt, self._rng))
            self._bump("retries")
            start = time.perf_counter()
            try:
                (result,) = self._inner_round([specs[i]], one_item)
            except Exception as exc:  # noqa: BLE001
                self._count_failure(exc)
                last = exc
                continue
            duration = time.perf_counter() - start
            if (
                policy.task_timeout is not None
                and not self.supports_task_timeout
                and duration > policy.task_timeout
            ):
                # in-process machines cannot be preempted: detect the
                # overrun after the fact and treat the attempt as failed
                last = TaskTimeoutError(
                    f"task {i} ran {duration:.3f}s > timeout {policy.task_timeout}s",
                    task_index=i,
                )
                self._count_failure(last)
                continue
            return result
        raise RoundFailedError(
            f"task {i} failed after {policy.max_retries} retries", task_index=i
        ) from last

    def _degrade(self, specs: Sequence[Spec], done: dict[int, Any]) -> list:
        self._bump("degraded_rounds")
        if not self._warned:
            self._warned = True
            warnings.warn(
                "parallel backend unhealthy: falling back to serial execution",
                DegradedExecutionWarning,
                stacklevel=3,
            )
        if self.degraded_rounds >= self.policy.max_round_failures:
            self._permanent_serial = True
        return self._serial_fill(specs, done)
