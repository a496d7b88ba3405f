"""A long-lived execution engine with an explicit lifetime.

Every one-shot CLI run pays the full build-run-teardown cycle: spawn a
worker pool, build the steady-ant :class:`PrecalcTable`, allocate
shared-memory slabs, comb, then tear it all down. A serving process
answers *many* requests, so :class:`Engine` hoists that cycle into an
object with an explicit lifetime:

- :meth:`Engine.start` builds the machine **once** (optionally
  fault-wrapped in a :class:`~repro.parallel.resilient.ResilientMachine`
  and chaos-injected for testing), warms the process-wide
  :class:`~repro.core.steady_ant.precalc.PrecalcTable`, and constructs a
  persistent :class:`~repro.batch.BatchScheduler` whose shared-memory
  slab pools are reused across requests;
- :meth:`Engine.run_batch` answers a batch of pairs on the warm
  machinery (thread-safe: concurrent callers serialize on an internal
  lock, which is exactly the continuous-batching daemon's dispatch
  discipline);
- :meth:`Engine.drain` waits for in-flight work, :meth:`Engine.close`
  tears the machinery down — all three lifecycle methods are idempotent,
  so signal handlers, ``finally`` blocks and double-SIGTERM delivery may
  race without double-freeing the pool or the arena.

Faults ride up from the resilience layer: a chaos-killed worker or a
lost shared-memory segment is retried, the pool rebuilt, and ultimately
the round degrades to serial — the engine keeps answering (degraded
mode), and :meth:`Engine.health` reports how much fault handling that
took so the daemon can expose it.
"""

from __future__ import annotations

import threading
from typing import Sequence

from ..batch import BatchScheduler, LOCKSTEP_ALGORITHM
from ..errors import EngineClosedError
from ..obs import collect_machine
from ..parallel import FaultPolicy, make_machine

__all__ = ["Engine"]


class Engine:
    """Warm build-run-teardown lifecycle for many-request serving.

    Parameters
    ----------
    backend:
        ``"none"`` (comb in-process) or any
        :data:`repro.parallel.MACHINE_KINDS` name. Real backends are
        wrapped in a :class:`~repro.parallel.resilient.ResilientMachine`
        so worker faults degrade instead of failing requests.
    workers:
        Worker count for pool-backed backends.
    transport:
        ``"pickle"`` or ``"shm"`` for the processes backend.
    algorithm:
        Semi-local kernel algorithm; the default is the lockstep-batched
        one (anything else rides the per-pair fallback path).
    max_lanes / min_side:
        :class:`~repro.batch.BatchScheduler` knobs.
    policy:
        A :class:`~repro.parallel.resilient.FaultPolicy`; defaults to
        ``FaultPolicy()`` (retries + degrade-to-serial) on real
        backends. Pass ``False`` to run the bare backend.
    chaos:
        Optional :class:`~repro.parallel.chaos.ChaosMachine` kwargs for
        fault-injection testing (``fail_rate``, ``crash_rate``,
        ``shm_loss_after``, ``seed``, ...).
    warm_precalc:
        Build the steady-ant precalc table at :meth:`start` instead of
        lazily inside the first request.
    warm_compute:
        Prefill the vectorized steady-ant plan cache
        (:func:`~repro.core.steady_ant.warm_compute_kernels`) at
        :meth:`start` so the first served request pays no cold-path
        plan construction on the vectorized multiply.
    query_store_dir / query_max_bytes / query_max_kernels:
        The query tier's memoization. ``query_store_dir`` backs the
        :class:`~repro.query.QueryEngine` with an on-disk
        :class:`~repro.checkpoint.store.KernelStore` (in LRU cache mode
        when ``query_max_bytes`` is set) so cached kernels — and their
        built dominance counters — survive restarts;
        ``query_max_kernels`` bounds the in-memory LRU of live kernels.
        The query engine always exists after :meth:`start` — without a
        store dir it is memory-only.
    query_counter_kind:
        Force the query tier's dominance-counting structure (one of
        :data:`repro.core.dominance.COUNTER_KINDS`) instead of the
        size-based default.
    """

    def __init__(
        self,
        *,
        backend: str = "none",
        workers: int = 2,
        transport: str = "pickle",
        algorithm: str = LOCKSTEP_ALGORITHM,
        max_lanes: int = 64,
        min_side: int = 16,
        policy: FaultPolicy | bool | None = None,
        chaos: dict | None = None,
        warm_precalc: bool = True,
        warm_compute: bool = True,
        query_store_dir: str | None = None,
        query_max_bytes: int | None = None,
        query_max_kernels: int = 64,
        query_counter_kind: str | None = None,
        **algo_kwargs,
    ):
        self.backend = backend
        self.workers = int(workers)
        self.transport = transport
        self.algorithm = algorithm
        self.max_lanes = int(max_lanes)
        self.min_side = int(min_side)
        self.policy = policy
        self.chaos = dict(chaos) if chaos else None
        self.warm_precalc = bool(warm_precalc)
        self.warm_compute = bool(warm_compute)
        self.query_store_dir = query_store_dir
        self.query_max_bytes = query_max_bytes
        self.query_max_kernels = int(query_max_kernels)
        self.query_counter_kind = query_counter_kind
        self.algo_kwargs = dict(algo_kwargs)
        self.machine = None
        self.scheduler: BatchScheduler | None = None
        self.query = None
        self.batches = 0
        self.pairs_served = 0
        self.queries_served = 0
        self._lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._state = "new"

    # -- lifecycle ------------------------------------------------------

    @property
    def state(self) -> str:
        """``"new"``, ``"running"`` or ``"closed"``."""
        return self._state

    def start(self) -> "Engine":
        """Build the warm machinery; idempotent, returns ``self``.

        Starting a closed engine raises
        :class:`~repro.errors.EngineClosedError` — a lifetime runs
        forward only (build a new engine to serve again).
        """
        with self._state_lock:
            if self._state == "closed":
                raise EngineClosedError("cannot start a closed engine")
            if self._state == "running":
                return self
            if self.backend != "none":
                policy = self.policy
                if policy is None:
                    policy = FaultPolicy()
                backend_kwargs = (
                    {"transport": self.transport} if self.backend == "processes" else {}
                )
                self.machine = make_machine(
                    self.backend,
                    workers=self.workers,
                    policy=policy,
                    chaos=self.chaos,
                    **backend_kwargs,
                )
            if self.warm_precalc:
                from ..core.steady_ant.precalc import get_precalc_table

                get_precalc_table()
            if self.warm_compute:
                from ..core.steady_ant import warm_compute_kernels

                warm_compute_kernels()
            self.scheduler = BatchScheduler(
                self.machine,
                algorithm=self.algorithm,
                max_lanes=self.max_lanes,
                min_side=self.min_side,
                **self.algo_kwargs,
            )
            from ..query import QueryEngine

            store = None
            if self.query_store_dir is not None:
                from ..checkpoint import KernelStore

                store = KernelStore(self.query_store_dir, max_bytes=self.query_max_bytes)
            self.query = QueryEngine(
                store=store,
                max_kernels=self.query_max_kernels,
                counter_kind=self.query_counter_kind,
            )
            self._state = "running"
        return self

    def drain(self) -> None:
        """Wait for any in-flight batch to finish; idempotent.

        Does not refuse new work — admission control lives one layer up
        (the daemon stops *submitting* before it closes the engine).
        """
        with self._lock:
            pass

    def close(self) -> None:
        """Drain, then tear down the machine and its shared memory.

        Idempotent and thread-safe: a signal handler and a ``finally``
        block may both call it (double-SIGTERM included); the teardown
        runs exactly once.
        """
        with self._state_lock:
            if self._state == "closed":
                return
            self._state = "closed"
        with self._lock:  # wait for an in-flight batch
            machine, self.machine, self.scheduler = self.machine, None, None
        if machine is not None:
            collect_machine(machine)
            close = getattr(machine, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "Engine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- serving --------------------------------------------------------

    def run_batch(self, pairs: Sequence, want: str = "scores") -> list:
        """Answer one batch of ``(a, b)`` pairs on the warm machinery.

        Thread-safe (batches serialize on the engine lock). Raises
        :class:`~repro.errors.EngineClosedError` once closed; an unstarted
        engine starts itself on first use.
        """
        if self._state == "new":
            self.start()
        with self._lock:
            if self._state == "closed":
                raise EngineClosedError("engine is closed")
            out = self.scheduler.run(pairs, want=want)
            self.batches += 1
            self.pairs_served += len(out)
            return out

    def scores(self, pairs: Sequence) -> list[int]:
        """LCS scores for *pairs* (ints, input order) on the warm engine."""
        return [int(s) for s in self.run_batch(pairs, want="scores")]

    # -- the query tier --------------------------------------------------

    def query_cached(self, op: str, a: str, b: str, params: dict) -> bool:
        """True when *op* on the pair needs no kernel build — i.e. it can
        be answered inline, bypassing the continuous batcher. For
        ``append``/``prepend`` that means either the extended pair's
        kernel or the base pair's kernel is already cached (extending it
        combs only the new block's cells)."""
        if self._state == "new":
            self.start()
        if self.query is None:
            return False
        if op == "append":
            suffix = params.get("suffix", "")
            return self.query.cached(a + suffix, b) or self.query.cached(a, b)
        if op == "prepend":
            prefix = params.get("prefix", "")
            return self.query.cached(prefix + a, b) or self.query.cached(a, b)
        return self.query.cached(a, b)

    def run_query(self, op: str, a: str, b: str, params: dict):
        """Answer one catalog query op on the warm query engine (cache
        hits land here; misses should ride :meth:`run_query_batch` so
        their kernel builds coalesce)."""
        if self._state == "new":
            self.start()
        if self._state == "closed":
            raise EngineClosedError("engine is closed")
        result = self.query.answer(op, a, b, **params)
        self.queries_served += 1
        return result

    def run_query_batch(self, items: Sequence) -> list:
        """Answer many query ops, building every missing kernel in one
        scheduler megabatch first (continuous batching of kernel builds).

        *items* is a sequence of ``(op, a, b, params)``; returns one
        ``(result, exception)`` pair per item in order — exactly one of
        the two is ``None``, so the daemon can answer each request
        individually instead of failing the whole flush.
        """
        if self._state == "new":
            self.start()
        with self._lock:
            if self._state == "closed":
                raise EngineClosedError("engine is closed")
            to_build: list[tuple[str, str]] = []
            seen: set = set()
            for op, a, b, params in items:
                pair = (a, b)  # append/prepend build their *base* kernel too
                if pair not in seen and not self.query.cached(a, b):
                    seen.add(pair)
                    to_build.append(pair)
            if to_build:
                built = self.scheduler.run(to_build, want="kernels")
                for (a, b), (perm, _m, _n) in zip(to_build, built):
                    self.query.install_kernel(a, b, perm)
                self.batches += 1
                self.pairs_served += len(built)
        out = []
        for op, a, b, params in items:
            try:
                result = self.query.answer(op, a, b, **params)
                self.queries_served += 1
                out.append((result, None))
            except Exception as exc:  # noqa: BLE001 — per-item fault isolation
                out.append((None, exc))
        return out

    # -- health ---------------------------------------------------------

    def health(self) -> dict:
        """Lifecycle state plus the resilience/transport counters of the
        warm machine (empty dicts when in-process)."""
        info: dict = {
            "state": self._state,
            "backend": self.backend,
            "algorithm": self.algorithm,
            "batches": self.batches,
            "pairs_served": self.pairs_served,
            "queries_served": self.queries_served,
        }
        info["query"] = self.query.stats() if self.query is not None else {}
        machine = self.machine
        health = getattr(machine, "health", None)
        info["resilience"] = health() if health is not None else {}
        stats = getattr(machine, "transport_stats", None)
        info["transport"] = stats() if stats is not None else {}
        scheduler = self.scheduler
        info["last_batch"] = dict(scheduler.last_stats) if scheduler is not None else {}
        return info
