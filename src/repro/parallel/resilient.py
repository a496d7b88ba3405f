"""Fault-tolerant execution over any :class:`~repro.parallel.api.Machine`.

The paper's algorithms are bulk-synchronous: a failed task poisons its
whole round, and on real backends (:class:`ProcessMachine`) a single
pickling error or dead worker used to kill an entire O(n log n)
multiplication mid-flight. :class:`ResilientMachine` wraps any inner
machine and enforces a :class:`FaultPolicy`:

- a failed round is recovered task by task, each unfinished task retried
  up to ``max_retries`` times with exponential backoff + deterministic
  jitter (array rounds keep no completion ledger, so every task of a
  failed array round is retried — a failed batch round is re-run
  megabatch by megabatch);
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
so even non-idempotent thunks (the in-place anti-diagonal combing
kernels) survive injected faults without double-applying work. Tasks
shipped to worker *processes* cannot be captured this way
(``remote_tasks``); those call sites submit pure functions, which the
retry path may safely re-execute. A checkpointed grid task
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
from functools import partial
from typing import Any, Callable, Sequence

from ..errors import (
    DegradedExecutionWarning,
    RoundFailedError,
    TaskTimeoutError,
    WorkerCrashError,
)
from ..obs.metrics import inc as _metric_inc
from .api import SerialMachine, Thunk


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


class ResilientMachine:
    """A :class:`~repro.parallel.api.Machine` that survives backend faults.

    Satisfies the same protocol as the machine it wraps (including
    ``run_round_arrays``, synthesized from ``run_round`` when the inner
    machine lacks it), so all parallel call sites work unchanged.

    ``sleep`` is injectable so tests can skip real backoff delays.
    """

    def __init__(
        self,
        inner=None,
        policy: FaultPolicy | None = None,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.inner = inner if inner is not None else SerialMachine()
        self.policy = policy if policy is not None else FaultPolicy()
        self.workers = self.inner.workers
        self._serial = SerialMachine()
        self._sleep = sleep
        self._rng = random.Random(self.policy.seed)
        self._preemptive_timeout = bool(getattr(self.inner, "supports_task_timeout", False))
        self.remote_tasks = bool(getattr(self.inner, "remote_tasks", False))
        self._can_capture = not self.remote_tasks
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

    def run_round(self, thunks: Sequence[Thunk]) -> list:
        """Run a round with retries, per-task recovery and (policy
        permitting) graceful degradation to serial."""
        thunks = list(thunks)
        done: dict[int, Any] = {}
        submit = self._captured(thunks, done) if self._can_capture else thunks
        return self._execute(
            whole=lambda: self._inner_round(submit),
            single=lambda i: self._inner_round([thunks[i]])[0],
            serial=lambda: self._serial_fill(thunks, done),
            n=len(thunks),
            done=done,
        )

    def run_uniform_round(self, tasks: Sequence[tuple[Thunk, int]]) -> list:
        """Uniform-round variant of :meth:`run_round` (same fault policy)."""
        tasks = [(t, n) for t, n in tasks]
        thunks = [t for t, _ in tasks]
        done: dict[int, Any] = {}
        if self._can_capture:
            submit = [(w, n) for w, (_, n) in zip(self._captured(thunks, done), tasks)]
        else:
            submit = tasks
        return self._execute(
            whole=lambda: self.inner.run_uniform_round(submit),
            single=lambda i: self.inner.run_uniform_round([tasks[i]])[0],
            serial=lambda: self._serial_fill(thunks, done),
            n=len(tasks),
            done=done,
        )

    def run_round_arrays(self, specs: Sequence[tuple[Callable, tuple, dict]]) -> list:
        """Run pure ``(fn, args, kwargs)`` specs under the fault policy
        (zero-copy transport when the backend has one); backends without
        array rounds run them as plain thunks."""
        specs = list(specs)
        if not hasattr(self.inner, "run_round_arrays"):
            return self.run_round([partial(fn, *args, **kwargs) for fn, args, kwargs in specs])
        # array-capable backends ship tasks to worker processes: specs are
        # pure triples whose ndarray arguments live in parent memory (arena
        # views included), so both re-execution and the in-process serial
        # fallback are safe
        return self._execute(
            whole=lambda: self._inner_arrays(specs),
            single=lambda i: self._inner_arrays([specs[i]])[0],
            serial=lambda: self._serial.run_round(
                [partial(fn, *args, **kwargs) for fn, args, kwargs in specs]
            ),
            n=len(specs),
            done={},
        )

    # -- transport surface (delegated; harmless no-ops without one) ----

    def slab(self, shape: tuple, dtype=None):
        """Delegate to the backend slab pool; plain array without one."""
        import numpy as np

        dtype = np.float64 if dtype is None else dtype
        fn = getattr(self.inner, "slab", None)
        return fn(shape, dtype) if fn is not None else np.empty(shape, dtype=dtype)

    def recycle_slabs(self, arrays) -> None:
        """Delegate slab recycling to the backend (no-op without one)."""
        fn = getattr(self.inner, "recycle_slabs", None)
        if fn is not None:
            fn(arrays)

    def broadcast(self, *arrays):
        """Delegate to the backend transport; identity without one."""
        fn = getattr(self.inner, "broadcast", None)
        return fn(*arrays) if fn is not None else tuple(arrays)

    def localize(self, arr):
        """Delegate to the backend transport; identity without one."""
        fn = getattr(self.inner, "localize", None)
        return fn(arr) if fn is not None else arr

    def release_arrays(self, arrays) -> None:
        """Release broadcast arrays via the backend transport (no-op
        without one)."""
        fn = getattr(self.inner, "release_arrays", None)
        if fn is not None:
            fn(arrays)

    def transport_stats(self) -> dict:
        """The backend's transport statistics; ``{}`` without one."""
        fn = getattr(self.inner, "transport_stats", None)
        return fn() if fn is not None else {}

    def run_serial(self, thunk: Thunk):
        """Run one sequential section under the fault policy."""
        return self._execute(
            whole=lambda: self.inner.run_serial(thunk),
            single=lambda i: self.inner.run_serial(thunk),
            serial=lambda: self._serial.run_serial(thunk),
            n=1,
            done={},
            unwrap=True,
        )

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
        """Close the wrapped backend (if it has a ``close``).

        Idempotent and thread-safe: long-lived processes may race a
        signal handler's close against a ``finally`` block's (or receive
        SIGTERM twice mid-drain) — the backend teardown runs exactly
        once, and concurrent callers block until it has finished.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            close = getattr(self.inner, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "ResilientMachine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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

    @staticmethod
    def _captured(thunks: Sequence[Thunk], done: dict[int, Any]) -> list[Thunk]:
        """Wrap *thunks* so each records its result the moment it
        completes — the exactly-once ledger recovery consults."""

        def wrap(i: int, t: Thunk) -> Thunk:
            def capturing():
                result = t()
                done[i] = result
                return result

            return capturing

        return [wrap(i, t) for i, t in enumerate(thunks)]

    def _serial_fill(self, thunks: Sequence[Thunk], done: dict[int, Any]) -> list:
        """Serial fallback that executes only tasks without a captured
        result, splicing the captured ones back in order."""
        missing = [i for i in range(len(thunks)) if i not in done]
        outs = self._serial.run_round([thunks[i] for i in missing])
        results: list[Any] = [None] * len(thunks)
        for i, r in zip(missing, outs):
            results[i] = r
        for i, r in done.items():
            results[i] = r
        return results

    def _inner_round(self, thunks: Sequence[Thunk]) -> list:
        if self._preemptive_timeout and self.policy.task_timeout is not None:
            return self.inner.run_round(thunks, timeout=self.policy.task_timeout)
        return self.inner.run_round(thunks)

    def _inner_arrays(self, specs) -> list:
        if self._preemptive_timeout and self.policy.task_timeout is not None:
            return self.inner.run_round_arrays(specs, timeout=self.policy.task_timeout)
        return self.inner.run_round_arrays(specs)

    def _execute(self, *, whole, single, serial, n, done, unwrap=False):
        """One round: try *whole*; recover unfinished tasks via *single*;
        degrade to *serial*. ``unwrap`` marks single-result sections."""
        if self._permanent_serial:
            return serial()
        try:
            return whole()
        except Exception as exc:  # noqa: BLE001 — any backend/task fault
            self._bump("task_failures")
            if isinstance(exc, TaskTimeoutError):
                self._bump("timeouts")
            self._maybe_rebuild(exc)
            if self.policy.max_retries > 0 and n > 0:
                try:
                    for i in range(n):
                        if i in done:
                            continue
                        # record retry successes in the ledger too, so a
                        # later degradation in this round skips them
                        done[i] = self._retry_task(single, i)
                except RoundFailedError:
                    if not self.policy.degrade_to_serial:
                        raise
                    return self._degrade(serial)
                self._bump("recovered_rounds")
                return done[0] if unwrap else [done[i] for i in range(n)]
            if not self.policy.degrade_to_serial:
                raise RoundFailedError(
                    f"round of {n} task(s) failed and retries are disabled"
                ) from exc
            return self._degrade(serial)

    def _retry_task(self, single, i: int):
        """Re-execute task *i* up to ``max_retries`` times with backoff."""
        policy = self.policy
        last: Exception | None = None
        for attempt in range(1, policy.max_retries + 1):
            self._sleep(policy.backoff_delay(attempt, self._rng))
            self._bump("retries")
            start = time.perf_counter()
            try:
                result = single(i)
            except Exception as exc:  # noqa: BLE001
                self.task_failures += 1
                if isinstance(exc, TaskTimeoutError):
                    self.timeouts += 1
                self._maybe_rebuild(exc)
                last = exc
                continue
            duration = time.perf_counter() - start
            if (
                policy.task_timeout is not None
                and not self._preemptive_timeout
                and duration > policy.task_timeout
            ):
                # in-process machines cannot be preempted: detect the
                # overrun after the fact and treat the attempt as failed
                self._bump("timeouts")
                self._bump("task_failures")
                last = TaskTimeoutError(
                    f"task {i} ran {duration:.3f}s > timeout {policy.task_timeout}s",
                    task_index=i,
                )
                continue
            return result
        raise RoundFailedError(
            f"task {i} failed after {policy.max_retries} retries", task_index=i
        ) from last

    def _maybe_rebuild(self, exc: BaseException) -> None:
        """Replace a broken worker pool before the next attempt."""
        if isinstance(exc, (WorkerCrashError, BrokenExecutor)):
            self.rebuild()

    def rebuild(self) -> None:
        """Replace the wrapped machine's worker pool with a fresh one.

        Delegates to ``inner.rebuild()`` (a no-op when the backend has no
        pool) and counts the event in ``pool_rebuilds``. Every counter —
        this machine's fault counters and the inner machine's
        rounds/tasks/byte totals — is preserved across the rebuild: a
        rebuild replaces workers, never history, so long-run totals stay
        honest (they are additionally mirrored into the global
        ``resilience.*`` / ``machine.*`` metrics).
        """
        rebuild = getattr(self.inner, "rebuild", None)
        if rebuild is not None:
            rebuild()
            with self._close_lock:
                self._closed = False  # a rebuild revives a closed machine
            self._bump("pool_rebuilds")

    def _degrade(self, serial):
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
        return serial()
