"""Deterministic p-worker cost-model machine.

Executes every task sequentially (so results are exact and the GIL is
irrelevant) while *accounting* the time a p-worker shared-memory machine
would take:

- each round's measured task durations are assigned to ``p`` workers by
  greedy list scheduling in submission order (OpenMP ``static``-like) or
  longest-processing-time order (``dynamic``-like), and the round costs
  the makespan of that schedule;
- a round given ``items=`` counts of identical-cost items (anti-diagonal
  cells, bit-parallel blocks) costs its measured time split evenly over
  the ``p`` workers instead (:meth:`SimulatedMachine.run_round`);
- every round adds a barrier-synchronization overhead (the paper's
  Listing 4 discussion: "after the processing of each anti-diagonal, a
  synchronization of worker threads is required, which may introduce its
  own overhead");
- every task adds a spawn overhead (OpenMP task creation in Listing 5).

The simulated clock therefore exhibits the paper's qualitative phenomena
— load imbalance on short anti-diagonals, synchronization-bound regimes,
speedup saturation — driven by *measured* Python/NumPy task durations
rather than by an analytic formula.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Sequence

from .api import Machine, Spec, call_spec

#: Defaults loosely calibrated to OpenMP runtime costs, scaled up to
#: Python magnitudes (they are configurable per experiment).
DEFAULT_SYNC_OVERHEAD = 5e-6
DEFAULT_SPAWN_OVERHEAD = 5e-7


@dataclass
class RoundStats:
    """Accounting record of one parallel round."""

    tasks: int
    total_work: float
    makespan: float

    @property
    def imbalance(self) -> float:
        """Ratio of makespan to perfectly balanced work (>= 1)."""
        ideal = self.total_work / max(1, self.tasks)
        return self.makespan / ideal if ideal > 0 else 1.0


@dataclass
class SimulatedMachine(Machine):
    """Deterministic cost-model machine (see module docstring).

    ``schedule`` is ``"static"`` (greedy in submission order) or
    ``"dynamic"`` (longest-processing-time first). Overheads are in
    seconds. ``rounds`` / ``tasks`` / ``round_log`` are plain
    attributes updated once per round — this machine runs one round per
    anti-diagonal, so the per-round path stays free of metric-registry
    traffic; :func:`repro.obs.collect_machine` harvests the totals at
    run end. Not thread-safe (single driving thread, like the
    algorithms that use it)."""

    workers: int = 1
    sync_overhead: float = DEFAULT_SYNC_OVERHEAD
    spawn_overhead: float = DEFAULT_SPAWN_OVERHEAD
    schedule: str = "dynamic"
    _elapsed: float = field(default=0.0, repr=False)
    rounds: int = field(default=0, repr=False)
    tasks: int = field(default=0, repr=False)
    round_log: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.schedule not in ("static", "dynamic"):
            raise ValueError("schedule must be 'static' or 'dynamic'")

    # -- protocol ------------------------------------------------------

    def run_round(self, specs: Sequence[Spec], *, items: Sequence[int] | None = None) -> list:
        """Run *specs* sequentially; account the simulated p-worker cost.

        Returns the results in submission order. Without ``items`` the
        measured task durations are list-scheduled on ``p`` workers and
        the clock (:attr:`elapsed`, seconds) advances by the makespan
        plus one sync overhead plus one spawn overhead per task.

        ``items`` (one count per spec) marks a round of identical-cost
        items, each spec vectorized over its own item batch: the measured
        time ``T`` of the whole round is scaled by ``ceil(N/p) / N`` for
        ``N`` items in total, since with the items spread evenly over
        ``p`` workers the busiest holds ``ceil(N/p)`` of them. Short
        rounds (``N < p``) thus retain cost ``T/N`` per item — the load
        imbalance of short anti-diagonals emerges naturally — and only
        ``min(p, N)`` workers spawn. This models data-parallel inner
        loops without paying NumPy dispatch overhead per chunk.
        """
        n = len(specs)
        durations = []
        results = []
        for i, spec in enumerate(specs):
            start = time.perf_counter()
            results.append(call_spec(spec, i, n))
            durations.append(time.perf_counter() - start)
        total = sum(durations)
        if not items:
            tasks = n
            makespan = self.makespan(durations)
        else:
            n_items = sum(max(1, int(k)) for k in items)
            makespan = total * -(-n_items // self.workers) / n_items
            tasks = min(self.workers, n_items)
        self._elapsed += makespan + self.sync_overhead + self.spawn_overhead * tasks
        self.rounds += 1
        self.tasks += tasks
        self.round_log.append(RoundStats(tasks, total, makespan))
        return results

    @property
    def elapsed(self) -> float:
        """Simulated p-worker running time in seconds."""
        return self._elapsed

    def reset(self) -> None:
        """Zero the simulated clock, the counters and the round log."""
        self._elapsed = 0.0
        self.rounds = 0
        self.tasks = 0
        self.round_log.clear()

    # -- scheduling ------------------------------------------------------

    def makespan(self, durations: Sequence[float]) -> float:
        """Makespan of the round on ``self.workers`` workers."""
        if not durations:
            return 0.0
        p = self.workers
        if p == 1 or len(durations) == 1:
            return float(sum(durations))
        if self.schedule == "dynamic":
            order = sorted(durations, reverse=True)  # LPT
        else:
            order = list(durations)  # submission order, greedy
        heap = [0.0] * min(p, len(order))
        heapq.heapify(heap)
        for d in order:
            heapq.heapreplace(heap, heap[0] + d)
        return max(heap)

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        """Aggregate accounting: workers, rounds, tasks, elapsed (s),
        total measured work (s) and parallel efficiency in ``[0, 1]``."""
        total_work = sum(r.total_work for r in self.round_log)
        return {
            "workers": self.workers,
            "rounds": self.rounds,
            "tasks": self.tasks,
            "elapsed": self._elapsed,
            "total_work": total_work,
            "parallel_efficiency": (
                total_work / (self._elapsed * self.workers) if self._elapsed else 1.0
            ),
        }
