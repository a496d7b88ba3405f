"""Real thread-pool machine.

Included for completeness and for I/O-bound or GIL-releasing workloads
(large NumPy kernels release the GIL inside C loops, so *some* overlap is
possible). For the pure-Python sections of the algorithms the GIL
serializes execution — which is precisely why the benchmarks default to
:class:`repro.parallel.simulator.SimulatedMachine`; see DESIGN.md.

Shares the fail-fast round semantics of
:class:`~repro.parallel.processes.ProcessMachine`: the first failing
task cancels still-pending siblings, result waits honor ``timeout``
(raising :class:`~repro.errors.TaskTimeoutError`), and :meth:`close` is
idempotent. A thread cannot be terminated: once a round has overrun its
deadline, :meth:`close` and :meth:`rebuild` shut the executor down
without waiting, and the late task finishes on its own.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Sequence

from ..errors import BackendError, TaskTimeoutError
from ..obs import get_metrics, get_tracer
from .api import Machine, Spec, call_spec


class ThreadMachine(Machine):
    """Executes rounds on a shared ``ThreadPoolExecutor``.

    Counters: ``rounds`` / ``tasks`` count submitted work (plain ints,
    written only from the driving thread); ``elapsed`` is wall seconds
    accumulated across rounds. Both survive :meth:`rebuild` and mirror
    into the ``machine.*`` metrics (see ``repro.obs``).
    """

    #: advertises preemptive per-task timeouts to the resilience layer
    supports_task_timeout = True

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool: ThreadPoolExecutor | None = ThreadPoolExecutor(max_workers=workers)
        #: a round overran its deadline: its late task may still hold a worker
        self._overran = False
        self._elapsed = 0.0
        self.rounds = 0
        self.tasks = 0

    def run_round(
        self,
        specs: Sequence[Spec],
        *,
        items: Sequence[int] | None = None,
        timeout: float | None = None,
    ) -> list:
        """Run *specs* concurrently as one round; ``timeout`` (seconds)
        is a single deadline shared by the whole round. ``items`` is
        ignored."""
        if self._pool is None:
            raise BackendError("machine is closed")
        start = time.perf_counter()
        span = get_tracer().span("machine.round", args={"tasks": len(specs)})
        try:
            with span:
                return self._run_round_inner(specs, timeout)
        finally:
            self._elapsed += time.perf_counter() - start
            self.rounds += 1
            self.tasks += len(specs)
            metrics = get_metrics()
            metrics.inc("machine.rounds", 1)
            metrics.inc("machine.tasks", len(specs))

    def _run_round_inner(self, specs: Sequence[Spec], timeout: float | None) -> list:
        n = len(specs)
        futures = [self._pool.submit(call_spec, spec, i, n) for i, spec in enumerate(specs)]
        results = []
        # a single round deadline shared across the in-order waits —
        # per-task timeouts would let a k-task round wait k x timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            for i, f in enumerate(futures):
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                try:
                    results.append(f.result(timeout=remaining))
                except FutureTimeoutError as exc:
                    self._overran = True
                    raise TaskTimeoutError(
                        f"task {i} result not ready within the round deadline "
                        f"({timeout}s)",
                        task_index=i,
                    ) from exc
        except BaseException:
            for f in futures:
                f.cancel()
            raise
        return results

    @property
    def elapsed(self) -> float:
        """Accumulated wall-clock time of all rounds, in seconds."""
        return self._elapsed

    def reset(self) -> None:
        """Zero elapsed seconds and the rounds/tasks counters."""
        self._elapsed = 0.0
        self.rounds = 0
        self.tasks = 0

    def rebuild(self) -> bool:
        """Replace the executor with a fresh one; returns ``True``.

        Counters (rounds, tasks, elapsed) are preserved — a rebuild
        replaces workers, not the machine's history.
        """
        get_metrics().inc("machine.rebuilds", 1)
        self._stop_pool()
        self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return True

    def _stop_pool(self) -> None:
        """Shut the executor down, cancelling queued work; after an
        overrun, without waiting for the late task."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=not self._overran, cancel_futures=True)
            self._overran = False

    def close(self) -> None:
        """Shut the executor down (idempotent); :meth:`rebuild` revives."""
        self._stop_pool()
