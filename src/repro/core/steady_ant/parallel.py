"""Task-parallel steady ant (paper Listing 5).

The recursion tree is expanded breadth-first down to ``depth`` levels
(the paper's sequential-switch *threshold*): that yields ``2^depth``
independent sub-multiplications, which run as one parallel round. The
combines ("ant passages") then run level by level back up the tree; the
combines of one level are mutually independent and form one round each,
but — as the paper notes in §4.2.1 — each individual combine is strictly
sequential, so the top-level O(n) walk bounds the achievable speedup
(this is why Fig. 4b saturates around 4x).

Works with any :class:`repro.parallel.api.Machine`; with a
:class:`~repro.parallel.processes.ProcessMachine` the leaf tasks and
combines are shipped to real worker processes.
"""

from __future__ import annotations

import numpy as np

from ...errors import ShapeMismatchError
from ...obs import get_metrics, get_tracer
from ...parallel.api import SerialMachine
from ...types import PermArray
from ._core import combine, split_p, split_q
from .combined import steady_ant_combined


def _combine_expanded(r_lo_small, r_hi_small, rows_lo, cols_lo, rows_hi, cols_hi, n):
    return combine(rows_lo, cols_lo[r_lo_small], rows_hi, cols_hi[r_hi_small], n)


def steady_ant_parallel(
    p: PermArray,
    q: PermArray,
    *,
    machine=None,
    depth: int | None = None,
    leaf_multiply=steady_ant_combined,
) -> PermArray:
    """Sticky product ``p ⊙ q`` with ``2^depth``-way task parallelism.

    ``depth`` defaults to ``ceil(log2(workers)) + 1`` (twice as many
    tasks as workers, giving the dynamic schedule slack). ``depth = 0``
    degenerates to the sequential algorithm. ``leaf_multiply`` runs each
    leaf sub-multiplication; pass
    :func:`~.vectorized.steady_ant_vectorized` for the level-vectorized
    engine.

    Observability: a ``steady_ant.parallel`` span wraps the whole
    call; ``steady_ant.parallel_leaves`` counts the leaf
    sub-multiplications and ``steady_ant.parallel_rounds`` the machine
    rounds (one leaf round plus one combine round per level with work).
    """
    p = np.ascontiguousarray(p, dtype=np.int64)
    q = np.ascontiguousarray(q, dtype=np.int64)
    n = p.size
    if n != q.size:
        raise ShapeMismatchError(f"orders differ: {n} vs {q.size}")
    if machine is None:
        machine = SerialMachine()
    if depth is None:
        depth = max(1, int(np.ceil(np.log2(max(1, machine.workers)))) + 1) if machine.workers > 1 else 0

    metrics = get_metrics()
    with get_tracer().span("steady_ant.parallel", args={"order": int(n), "depth": depth}):
        # breadth-first expansion: level k holds 2^k (p, q) subproblems
        # plus the split metadata needed to combine them back
        leaves = [(p, q)]
        split_meta: list[list[tuple]] = []
        for _ in range(depth):
            meta_level = []
            next_leaves = []
            for sp, sq in leaves:
                nn = sp.size
                if nn <= 1:
                    # too small to split: keep as a degenerate pair
                    meta_level.append(None)
                    next_leaves.append((sp, sq))
                    continue
                h = nn // 2
                p_lo, rows_lo, p_hi, rows_hi = split_p(sp, h)
                q_lo, cols_lo, q_hi, cols_hi = split_q(sq, h)
                meta_level.append((rows_lo, cols_lo, rows_hi, cols_hi, nn))
                next_leaves.append((p_lo, q_lo))
                next_leaves.append((p_hi, q_hi))
            split_meta.append(meta_level)
            leaves = next_leaves

        # one parallel round of leaf multiplications; on a shared-memory
        # process machine the leaf results come back as segment handles
        # and feed the combine rounds without re-shipping
        metrics.inc("steady_ant.parallel_leaves", len(leaves))
        metrics.inc("steady_ant.parallel_rounds", 1)
        results = machine.run_round([(leaf_multiply, (sp, sq), {}) for sp, sq in leaves])

        # combine back up, one round per level
        for meta_level in reversed(split_meta):
            merged = []
            specs = []
            slots = []
            eaten: list = []
            consumed = 0
            for meta in meta_level:
                if meta is None:
                    merged.append(results[consumed])
                    consumed += 1
                    continue
                rows_lo, cols_lo, rows_hi, cols_hi, nn = meta
                r_lo, r_hi = results[consumed], results[consumed + 1]
                consumed += 2
                slots.append(len(merged))
                merged.append(None)
                specs.append(
                    (_combine_expanded, (r_lo, r_hi, rows_lo, cols_lo, rows_hi, cols_hi, nn), {})
                )
                eaten += [r_lo, r_hi]
            if specs:
                metrics.inc("steady_ant.parallel_rounds", 1)
                outs = machine.run_round(specs)
                machine.release_arrays(eaten)
                for slot, out in zip(slots, outs):
                    merged[slot] = out
            results = merged

        out = machine.localize(results[0])
        machine.release_arrays([results[0]])
        return np.asarray(out, dtype=np.int64)
