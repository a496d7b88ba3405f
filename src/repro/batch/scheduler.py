"""Batch scheduler: shape bucketing, megabatch packing, one round per batch.

Turns an arbitrary ragged stream of string pairs into a small number of
lockstep megabatches and runs them on a machine's workers:

1. **Bucketing** — oriented pairs (``m <= n`` after an orientation flip
   recorded per lane) are grouped by the key ``(ceil_pow2(m),
   ceil_pow2(n))``, floored at :data:`MIN_SIDE` so small pairs share
   one bucket instead of fragmenting into dozens. Power-of-two keys
   bound padding waste at <2x per axis while keeping the number of
   megabatches (each one a full anti-diagonal sweep) small.
2. **Megabatch packing** — each bucket is cut into megabatches of at
   most ``max_lanes`` lanes (:data:`MAX_LANES` by default), and each
   megabatch is padded to the largest ``m`` and ``n`` among its own
   lanes, not to its key. On a machine, lane stacks are packed directly
   into the machine's reusable shared-memory slabs
   (:meth:`~repro.parallel.transport.SharedArena.slab`), so repeated
   batches allocate no new segments.
3. **One round** — on a machine, the megabatches are one bulk-synchronous
   round of independent tasks, one task per megabatch, submitted largest
   (``M * N * lanes``) first so the executor hands the next one to
   whichever worker frees up first. The slabs are recycled once the
   round has returned. Without a machine, megabatches are combed
   in-process one at a time.

Every pair is combed by the lockstep kernel: the kernel ``P_{a,b}`` is
unique, so any other comber could only change the speed.
"""

from __future__ import annotations

import numpy as np

from ..alphabet import encode
from ..core.compose import flip_kernel
from ..obs import get_tracer, phase
from ..obs.metrics import get_metrics
from .bitlockstep import comb_bit_lockstep, pack_bit_lanes
from .lockstep import comb_lockstep, pack_lanes

#: bucket floor: pairs with a side below this share the smallest bucket
#: of that axis. Every megabatch pays a full sweep of anti-diagonals, so
#: on lcsbench's ``batch`` 128 with :data:`MAX_LANES` (10 megabatches;
#: 23 at the old 16 / 64) beat 64 and tied 256, which pads 14% more
#: cells (EXPERIMENTS.md, "Batch defaults")
MIN_SIDE = 128

#: default megabatch width cap of the lockstep path: wider megabatches
#: mean fewer sweeps, and 256 beat 64 and 128 on lcsbench's ``batch``
#: in-process and on the pool (EXPERIMENTS.md, "Batch defaults")
MAX_LANES = 256


def _ceil_pow2(x: int, floor: int) -> int:
    """Smallest power of two >= max(x, floor)."""
    x = max(int(x), int(floor), 1)
    return 1 << (x - 1).bit_length() if x & (x - 1) else x


class BatchScheduler:
    """Plans and executes many-pair semi-local LCS over one machine.

    Parameters
    ----------
    machine:
        Any :class:`~repro.parallel.api.Machine` (or ``None`` to comb
        in-process — still lockstep-vectorized across lanes).
    max_lanes:
        Megabatch width cap (default :data:`MAX_LANES`). Wider megabatches
        comb fewer sweeps of anti-diagonals, each over more lanes.
    """

    def __init__(self, machine=None, *, max_lanes: int = MAX_LANES):
        if max_lanes < 1:
            raise ValueError("max_lanes must be >= 1")
        self.machine = machine
        self.max_lanes = int(max_lanes)
        #: stats of the most recent :meth:`run` (pairs, megabatches,
        #: padded/real cells, per-megabatch lane counts)
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
        stats = {"pairs": 0, "megabatches": 0, "padded": 0, "real": 0}
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
            "batch.run", args={"pairs": len(encoded), "want": want}
        ):
            if work:
                self._run_lockstep(work, want, out, stats, lanes_hist)
        metrics = get_metrics()
        metrics.inc("batch.pairs", stats["pairs"])
        metrics.inc("batch.megabatches", stats["megabatches"])
        metrics.inc("batch.padded_cells", stats["padded"])
        metrics.inc("batch.real_cells", stats["real"])
        hist = metrics.histogram("batch.lanes")
        for lanes in lanes_hist:
            hist.observe(lanes)
        self.last_stats = {**stats, "lanes": list(lanes_hist)}
        return out

    # -- lockstep path --------------------------------------------------

    def _run_lockstep(self, work, want, out, stats, lanes_hist) -> None:
        # orient (comb the shorter string down the rows) and bucket
        buckets: dict[tuple[int, int], list] = {}
        for i, ca, cb in work:
            flipped = ca.size > cb.size
            cx, cy = (cb, ca) if flipped else (ca, cb)
            key = (_ceil_pow2(cx.size, MIN_SIDE), _ceil_pow2(cy.size, MIN_SIDE))
            buckets.setdefault(key, []).append((i, cx, cy, flipped))
        megabatches = []  # (M, N, [(i, cx, cy, flipped), ...])
        for _, lanes in sorted(buckets.items()):
            for lo in range(0, len(lanes), self.max_lanes):
                chunk = lanes[lo : lo + self.max_lanes]
                M = max(cx.size for _, cx, _, _ in chunk)
                N = max(cy.size for _, _, cy, _ in chunk)
                megabatches.append((M, N, chunk))
        stats["megabatches"] += len(megabatches)
        for M, N, lanes in megabatches:
            lanes_hist.append(len(lanes))
            stats["padded"] += M * N * len(lanes)
            stats["real"] += sum(cx.size * cy.size for _, cx, cy, _ in lanes)

        if self.machine is None:
            for M, N, lanes in megabatches:
                stacks = pack_lanes([(cx, cy) for _, cx, cy, _ in lanes], M, N)
                res = comb_lockstep(*stacks, want=want)
                self._unpack(res, lanes, want, out)
            return

        megabatches.sort(key=lambda mb: mb[0] * mb[1] * len(mb[2]), reverse=True)
        slabs: list[np.ndarray] = []

        def alloc(shape, dtype):
            arr = self.machine.slab(shape, dtype)
            slabs.append(arr)
            return arr

        try:
            specs = [
                (
                    comb_lockstep,
                    pack_lanes([(cx, cy) for _, cx, cy, _ in lanes], M, N, alloc=alloc),
                    {"want": want},
                )
                for M, N, lanes in megabatches
            ]
            for (_, _, lanes), res in zip(megabatches, self.machine.run_round(specs)):
                self._unpack(res, lanes, want, out)
                self.machine.release_arrays([res])
        finally:
            self.machine.recycle_slabs(slabs)

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

    Pairs are bucketed by power-of-two word counts and packed to a
    shared word count per megabatch (validity masks absorb the padding).
    On *machine* the megabatches run as one round, largest first, like
    the lockstep path's (without slabs). Returns the ``(len(pairs),)``
    int64 scores.
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
    megabatches = []  # (words_a * words_b of the key, lanes)
    for (wa, wb), lanes in sorted(buckets.items()):
        for lo in range(0, len(lanes), max_lanes):
            megabatches.append((wa * wb, lanes[lo : lo + max_lanes]))
    metrics = get_metrics()
    metrics.inc("batch.pairs", len(pairs))
    metrics.inc("batch.megabatches", len(megabatches))
    hist = metrics.histogram("batch.lanes")
    for _, lanes in megabatches:
        hist.observe(len(lanes))

    def finish(lanes, scores):
        for (i, _, _), s in zip(lanes, np.asarray(scores)):
            out[i] = int(s)

    with phase("batch"), get_tracer().span(
        "batch.bit_run", args={"pairs": len(pairs), "w": w}
    ):
        if machine is None:
            for _, lanes in megabatches:
                stacks = pack_bit_lanes([(ca, cb) for _, ca, cb in lanes], w)
                finish(lanes, comb_bit_lockstep(*stacks, w=w))
            return out
        megabatches.sort(key=lambda mb: mb[0] * len(mb[1]), reverse=True)
        specs = [
            (comb_bit_lockstep, pack_bit_lanes([(ca, cb) for _, ca, cb in lanes], w), {"w": w})
            for _, lanes in megabatches
        ]
        for (_, lanes), scores in zip(megabatches, machine.run_round(specs)):
            finish(lanes, scores)
            machine.release_arrays([scores])
    return out
