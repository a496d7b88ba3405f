"""repro.batch — many-pair throughput engine.

One semi-local LCS solve is latency-bound: a wavefront of tiny NumPy
operations whose per-anti-diagonal dispatch overhead dwarfs the useful
work at small and medium sizes. When the workload is *many pairs*
(all-pairs similarity matrices, approximate-matching sweeps, dataset
scoring), that overhead can be amortized across queries instead:

- :mod:`repro.batch.lockstep` combs B same-bucket grids in lockstep —
  strand arrays gain a lane axis and each anti-diagonal update serves
  all B pairs in one vectorized step (ragged lanes are padded with
  letters no lane has, whose cells never swap);
- :mod:`repro.batch.bitlockstep` does the same for the bit-parallel
  binary comber at word granularity;
- :mod:`repro.batch.scheduler` buckets pairs by power-of-two shape,
  pads each megabatch to its own lanes, packs megabatches into
  reusable shared-memory slabs, and runs them on a machine as one
  round, one task per megabatch, largest first.

The public entry points below accept raw strings or code arrays and
return exactly what per-pair :func:`repro.semilocal_lcs` /
:func:`repro.lcs` / :func:`repro.bit_lcs` would — just faster per pair.
"""

from __future__ import annotations

import numpy as np

from .lockstep import comb_lockstep, pack_lanes
from .bitlockstep import comb_bit_lockstep, pack_bit_lanes
from .scheduler import MAX_LANES, BatchScheduler, run_bit_batches

__all__ = [
    "batch_semilocal_lcs",
    "batch_lcs",
    "batch_bit_lcs",
    "BatchScheduler",
    "comb_lockstep",
    "comb_bit_lockstep",
    "pack_lanes",
    "pack_bit_lanes",
    "run_bit_batches",
]


def batch_semilocal_lcs(
    pairs,
    *,
    machine=None,
    max_lanes: int = MAX_LANES,
):
    """Solve semi-local LCS for many ``(a, b)`` pairs at once.

    Equivalent to ``[semilocal_lcs(a, b) for a, b in pairs]`` (every
    algorithm of :data:`repro.SEMILOCAL_ALGORITHMS` yields the same
    kernel) but dispatched through the batch engine: lockstep
    vectorization across same-bucket pairs, and shared-memory
    megabatches combed as one round when *machine* is a process machine
    (the policy's ``task_timeout`` then bounds the whole batch). Returns a
    list of :class:`~repro.core.kernel.SemiLocalKernel`.
    """
    from ..core.kernel import SemiLocalKernel

    sched = BatchScheduler(machine, max_lanes=max_lanes)
    return [
        SemiLocalKernel(kern, m, n, validate=False)
        for kern, m, n in sched.run(pairs, want="kernels")
    ]


def batch_lcs(
    pairs,
    *,
    machine=None,
    max_lanes: int = MAX_LANES,
) -> np.ndarray:
    """Plain LCS scores for many pairs (int64 array, input order).

    The score-only path skips kernel extraction entirely — each lane's
    score is read straight off the final vertical strands — so it is the
    fastest way to answer "how similar are all of these?".
    """
    sched = BatchScheduler(machine, max_lanes=max_lanes)
    return np.asarray(sched.run(pairs, want="scores"), dtype=np.int64)


def batch_bit_lcs(
    pairs,
    *,
    machine=None,
    w: int = 64,
    max_lanes: int = 64,
) -> np.ndarray:
    """Bit-parallel LCS scores for many *binary* pairs (int64 array).

    Accepts the same inputs as :func:`repro.bit_lcs` (binary strings or
    0/1 code arrays); lanes are padded to a common word count per
    megabatch so the whole batch combs as one stack of word operations.
    """
    from ..alphabet import encode, to_binary

    coded = [
        (
            to_binary(a) if isinstance(a, str) else encode(a),
            to_binary(b) if isinstance(b, str) else encode(b),
        )
        for a, b in pairs
    ]
    return run_bit_batches(coded, machine=machine, w=w, max_lanes=max_lanes)
