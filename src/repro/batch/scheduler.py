"""Batch scheduler: shape bucketing, megabatch packing, round pipelining.

Turns an arbitrary ragged stream of string pairs into a small number of
lockstep megabatches and keeps a machine's workers saturated:

1. **Bucketing** — oriented pairs (``m <= n`` after an orientation flip
   recorded per lane) are grouped by padded shape ``(ceil_pow2(m),
   ceil_pow2(n))``, floored at ``min_side`` so tiny pairs share one
   bucket instead of fragmenting into dozens. Power-of-two rounding
   bounds padding waste at <2x per axis while collapsing the number of
   distinct kernel shapes (each shape is one worker task).
2. **Megabatch packing** — each bucket is cut into megabatches of at
   most ``max_lanes`` lanes; lane stacks are packed directly into the
   machine's reusable shared-memory slabs
   (:meth:`~repro.parallel.transport.SharedArena.slab`), so a steady
   state of pipelined rounds allocates zero new segments.
3. **Round pipelining** — megabatches are dispatched ``workers`` at a
   time through ``submit_round_arrays`` / ``drain_round``, with
   :data:`PIPELINE_DEPTH` = 2 rounds in flight (double buffering):
   round ``k + 1`` is packed while round ``k`` computes. Fault and
   chaos semantics are preserved per round: chaos injects at
   submission, resilient recovery happens at submit or drain, and slabs
   are recycled only after their round has fully drained.

Pairs the lockstep kernels cannot take (other algorithms, exotic
kwargs) fall back to per-pair specs over the same machine — still one
round-trip per round of pairs, just without cross-query vectorization.
"""

from __future__ import annotations

from collections import deque
from functools import partial

import numpy as np

from ..alphabet import encode
from ..core.compose import flip_kernel
from ..obs import get_tracer, phase
from ..obs.metrics import get_metrics
from ..parallel.transport import (
    machine_drain_round,
    machine_localize,
    machine_recycle_slabs,
    machine_release,
    machine_slab,
    machine_submit_round,
)
from .bitlockstep import comb_bit_lockstep, pack_bit_lanes
from .lockstep import comb_lockstep, pack_lanes

#: the one algorithm with a lockstep batched variant
LOCKSTEP_ALGORITHM = "semi_antidiag_simd"
#: kwargs the lockstep kernels understand; anything else forces fallback
LOCKSTEP_KWARGS = frozenset({"blend", "use_16bit_when_possible"})
#: rounds in flight per dispatch: double buffering, which beats one
#: round at a time on lcsbench's ``batch`` workload (DESIGN.md §3i)
PIPELINE_DEPTH = 2


def lockstep_supported(algorithm: str, kwargs: dict) -> bool:
    """True when (algorithm, kwargs) can ride the lockstep kernels."""
    return algorithm == LOCKSTEP_ALGORITHM and set(kwargs) <= LOCKSTEP_KWARGS


def _pair_kernel(algorithm: str, ca, cb, kwargs: dict):
    """Fallback worker: one pair, one kernel (module-level, picklable)."""
    from .. import SEMILOCAL_ALGORITHMS  # lazy: avoid repro <-> batch cycle

    return SEMILOCAL_ALGORITHMS[algorithm](ca, cb, **kwargs)


def _pair_score(algorithm: str, ca, cb, kwargs: dict) -> int:
    """Fallback worker: one pair, one LCS score."""
    from .. import SEMILOCAL_ALGORITHMS
    from ..core.kernel import SemiLocalKernel

    kern = SEMILOCAL_ALGORITHMS[algorithm](ca, cb, **kwargs)
    return int(SemiLocalKernel(kern, ca.size, cb.size, validate=False).lcs_whole())


def _ceil_pow2(x: int, floor: int) -> int:
    """Smallest power of two >= max(x, floor)."""
    x = max(int(x), int(floor), 1)
    return 1 << (x - 1).bit_length() if x & (x - 1) else x


class _Pipeline:
    """Double-buffered in-flight round queue.

    ``push`` submits a round and, when the queue is full, drains the
    *oldest* first — so at most :data:`PIPELINE_DEPTH` rounds are ever in
    flight and packing of the next round overlaps compute of the
    previous ones.
    """

    def __init__(self, machine):
        self.machine = machine
        self._inflight: deque = deque()

    def push(self, specs, finish) -> None:
        """Submit *specs*; ``finish(results)`` runs when the round drains."""
        while len(self._inflight) >= PIPELINE_DEPTH:
            self._drain_one()
        token = machine_submit_round(self.machine, specs)
        self._inflight.append((token, finish))

    def _drain_one(self) -> None:
        token, finish = self._inflight.popleft()
        finish(machine_drain_round(token))

    def flush(self) -> None:
        while self._inflight:
            self._drain_one()

    def abort(self) -> None:
        """Best-effort drain on the error path so in-flight worker rounds
        don't leak arena segments; their results are discarded."""
        while self._inflight:
            token, _ = self._inflight.popleft()
            try:
                machine_drain_round(token)
            except Exception:
                pass


class BatchScheduler:
    """Plans and executes many-pair semi-local LCS over one machine.

    Parameters
    ----------
    machine:
        Any :class:`~repro.parallel.api.Machine` (or ``None`` to comb
        in-process — still lockstep-vectorized across lanes).
    algorithm:
        Key of :data:`repro.SEMILOCAL_ALGORITHMS`. Only
        ``semi_antidiag_simd`` (with at most ``blend`` /
        ``use_16bit_when_possible`` kwargs) runs lockstep; everything
        else falls back to per-pair dispatch.
    max_lanes:
        Megabatch width cap. Wider amortizes dispatch further but grows
        the padded working set; 64 keeps a 1k x 1k uint16 bucket's
        strand state comfortably inside L2-per-core on common machines.
    min_side:
        Bucket floor: pairs smaller than this share the smallest bucket.
    """

    def __init__(
        self,
        machine=None,
        *,
        algorithm: str = LOCKSTEP_ALGORITHM,
        max_lanes: int = 64,
        min_side: int = 16,
        **algo_kwargs,
    ):
        if max_lanes < 1:
            raise ValueError("max_lanes must be >= 1")
        self.machine = machine
        self.algorithm = algorithm
        self.max_lanes = int(max_lanes)
        self.min_side = int(min_side)
        self.algo_kwargs = dict(algo_kwargs)
        #: stats of the most recent :meth:`run` (pairs, megabatches,
        #: padded/real cells, fallback pairs, per-megabatch lane counts)
        #: — long-lived callers (the serving engine) read these instead
        #: of diffing the global metrics registry between requests
        self.last_stats: dict = {}

    # -- public ---------------------------------------------------------

    def run(self, pairs, want: str = "kernels") -> list:
        """Solve every ``(a, b)`` pair; returns results in input order.

        ``want="kernels"`` -> list of ``(kernel int64 array, m, n)``;
        ``want="scores"`` -> list of int LCS scores.
        """
        if want not in ("kernels", "scores"):
            raise ValueError(f"want must be 'kernels' or 'scores', got {want!r}")
        encoded = [(encode(a), encode(b)) for a, b in pairs]
        out: list = [None] * len(encoded)
        stats = {"pairs": 0, "megabatches": 0, "padded": 0, "real": 0, "fallback": 0}
        lanes_hist: list[int] = []
        work: list[tuple[int, np.ndarray, np.ndarray]] = []
        for i, (ca, cb) in enumerate(encoded):
            m, n = ca.size, cb.size
            if m == 0 or n == 0:  # trivial: identity kernel, score 0
                if want == "kernels":
                    out[i] = (np.arange(m + n, dtype=np.int64), m, n)
                else:
                    out[i] = 0
            else:
                work.append((i, ca, cb))
        stats["pairs"] = len(encoded)
        with phase("batch"), get_tracer().span(
            "batch.run",
            args={"pairs": len(encoded), "algorithm": self.algorithm, "want": want},
        ):
            if work:
                if lockstep_supported(self.algorithm, self.algo_kwargs):
                    self._run_lockstep(work, want, out, stats, lanes_hist)
                else:
                    self._run_fallback(work, want, out, stats)
        metrics = get_metrics()
        metrics.inc("batch.pairs", stats["pairs"])
        metrics.inc("batch.megabatches", stats["megabatches"])
        metrics.inc("batch.padded_cells", stats["padded"])
        metrics.inc("batch.real_cells", stats["real"])
        metrics.inc("batch.fallback_pairs", stats["fallback"])
        hist = metrics.histogram("batch.lanes")
        for lanes in lanes_hist:
            hist.observe(lanes)
        self.last_stats = {**stats, "lanes": list(lanes_hist)}
        return out

    # -- fallback path --------------------------------------------------

    def _run_fallback(self, work, want, out, stats) -> None:
        stats["fallback"] += len(work)
        worker = _pair_kernel if want == "kernels" else _pair_score
        if self.machine is None:
            for i, ca, cb in work:
                res = worker(self.algorithm, ca, cb, self.algo_kwargs)
                out[i] = (np.asarray(res, dtype=np.int64), ca.size, cb.size) if want == "kernels" else res
            return
        specs = [(worker, (self.algorithm, ca, cb, self.algo_kwargs), {}) for i, ca, cb in work]
        pipe = _Pipeline(self.machine)
        chunk = max(1, getattr(self.machine, "workers", 1) or 1) * 4

        def finish(batch, results):
            for (i, ca, cb), res in zip(batch, results):
                if want == "kernels":
                    local = np.asarray(machine_localize(self.machine, res), dtype=np.int64)
                    machine_release(self.machine, res)
                    out[i] = (local, ca.size, cb.size)
                else:
                    out[i] = int(res)

        try:
            for lo in range(0, len(work), chunk):
                batch = work[lo : lo + chunk]
                pipe.push(specs[lo : lo + chunk], partial(finish, batch))
            pipe.flush()
        except BaseException:
            pipe.abort()
            raise

    # -- lockstep path --------------------------------------------------

    def _run_lockstep(self, work, want, out, stats, lanes_hist) -> None:
        use_16bit = bool(self.algo_kwargs.get("use_16bit_when_possible", True))
        blend = self.algo_kwargs.get("blend", "arith")
        # orient (comb the shorter string down the rows) and bucket
        buckets: dict[tuple[int, int], list] = {}
        for i, ca, cb in work:
            flipped = ca.size > cb.size
            cx, cy = (cb, ca) if flipped else (ca, cb)
            key = (
                _ceil_pow2(cx.size, self.min_side),
                _ceil_pow2(cy.size, self.min_side),
            )
            buckets.setdefault(key, []).append((i, cx, cy, flipped))
        megabatches = []  # (M, N, [(i, cx, cy, flipped), ...])
        for (M, N), lanes in sorted(buckets.items()):
            for lo in range(0, len(lanes), self.max_lanes):
                megabatches.append((M, N, lanes[lo : lo + self.max_lanes]))
        stats["megabatches"] += len(megabatches)
        for M, N, lanes in megabatches:
            lanes_hist.append(len(lanes))
            stats["padded"] += M * N * len(lanes)
            stats["real"] += sum(cx.size * cy.size for _, cx, cy, _ in lanes)

        if self.machine is None:
            for M, N, lanes in megabatches:
                stacks = pack_lanes([(cx, cy) for _, cx, cy, _ in lanes], M, N)
                res = comb_lockstep(*stacks, blend=blend, use_16bit=use_16bit, want=want)
                self._unpack(res, lanes, want, out)
            return

        workers = max(1, getattr(self.machine, "workers", 1) or 1)
        pipe = _Pipeline(self.machine)

        def finish(round_batches, round_slabs, results):
            try:
                for lanes, res in zip(round_batches, results):
                    self._unpack(res, lanes, want, out)
                    machine_release(self.machine, res)
            finally:
                machine_recycle_slabs(self.machine, round_slabs)

        try:
            for lo in range(0, len(megabatches), workers):
                round_specs = []
                round_batches = []
                round_slabs: list[np.ndarray] = []

                def alloc(shape, dtype):
                    arr = machine_slab(self.machine, shape, dtype)
                    round_slabs.append(arr)
                    return arr

                for M, N, lanes in megabatches[lo : lo + workers]:
                    stacks = pack_lanes(
                        [(cx, cy) for _, cx, cy, _ in lanes], M, N, alloc=alloc
                    )
                    round_specs.append(
                        (
                            comb_lockstep,
                            stacks,
                            {"blend": blend, "use_16bit": use_16bit, "want": want},
                        )
                    )
                    round_batches.append(lanes)
                pipe.push(round_specs, partial(finish, round_batches, round_slabs))
            pipe.flush()
        except BaseException:
            pipe.abort()
            raise

    def _unpack(self, res, lanes, want, out) -> None:
        if want == "scores":
            for (i, _, _, _), score in zip(lanes, np.asarray(res)):
                out[i] = int(score)
            return
        res = np.asarray(res)
        for k, (i, cx, cy, flipped) in enumerate(lanes):
            m, n = cx.size, cy.size
            kern = res[k, : m + n].astype(np.int64)  # copies out of any arena
            if flipped:
                kern = flip_kernel(kern)
            out[i] = (kern, (n if flipped else m), (m if flipped else n))


def run_bit_batches(
    pairs,
    *,
    machine=None,
    w: int = 64,
    max_lanes: int = 64,
) -> np.ndarray:
    """Batched bit-parallel LCS scores for binary *code* pairs.

    Pairs are bucketed by power-of-two word counts, packed to a shared
    word count per megabatch (validity masks absorb the padding) and
    dispatched over *machine* with the same pipelining as the lockstep
    path. Returns the ``(len(pairs),)`` int64 scores.
    """
    out = np.zeros(len(pairs), dtype=np.int64)
    buckets: dict[tuple[int, int], list] = {}
    for i, (ca, cb) in enumerate(pairs):
        if ca.size == 0 or cb.size == 0:
            continue  # score 0
        key = (
            _ceil_pow2(max(1, -(-ca.size // w)), 1),
            _ceil_pow2(max(1, -(-cb.size // w)), 1),
        )
        buckets.setdefault(key, []).append((i, ca, cb))
    megabatches = []
    for key, lanes in sorted(buckets.items()):
        for lo in range(0, len(lanes), max_lanes):
            megabatches.append(lanes[lo : lo + max_lanes])
    metrics = get_metrics()
    metrics.inc("batch.pairs", len(pairs))
    metrics.inc("batch.megabatches", len(megabatches))
    hist = metrics.histogram("batch.lanes")
    for mb in megabatches:
        hist.observe(len(mb))

    def finish(round_batches, results):
        for lanes, scores in zip(round_batches, results):
            scores = np.asarray(machine_localize(machine, scores))
            machine_release(machine, scores)
            for (i, _, _), s in zip(lanes, scores):
                out[i] = int(s)

    with phase("batch"), get_tracer().span(
        "batch.bit_run", args={"pairs": len(pairs), "w": w}
    ):
        if machine is None:
            for lanes in megabatches:
                stacks = pack_bit_lanes([(ca, cb) for _, ca, cb in lanes], w)
                finish([lanes], [comb_bit_lockstep(*stacks, w=w)])
            return out
        workers = max(1, getattr(machine, "workers", 1) or 1)
        pipe = _Pipeline(machine)
        try:
            for lo in range(0, len(megabatches), workers):
                round_specs = []
                round_batches = []
                for lanes in megabatches[lo : lo + workers]:
                    stacks = pack_bit_lanes([(ca, cb) for _, ca, cb in lanes], w)
                    round_specs.append((comb_bit_lockstep, stacks, {"w": w}))
                    round_batches.append(lanes)
                pipe.push(round_specs, partial(finish, round_batches))
            pipe.flush()
        except BaseException:
            pipe.abort()
            raise
    return out
