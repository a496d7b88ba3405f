"""Hybrid combing (paper Listings 6 and 7).

Two variants:

- :func:`hybrid_combing` — Listing 6: recursive splitting of the longer
  string down to a fixed *depth*, iterative (vectorized) combing below it,
  kernel composition on the way up. Depth 0 is pure iterative combing;
  each extra level doubles the number of independent sub-problems
  available to coarse-grained parallelism (Fig. 6 studies this tradeoff).

- :func:`hybrid_combing_grid` — Listing 7 ("semi_hybrid_iterative"):
  the outer recursion is flattened into an ``m_outer x n_outer`` grid of
  sub-blocks, each combed independently by iterative combing (with 16-bit
  strand indices whenever a block's ``m + n <= 2^16``), followed by a
  balanced reduction tree of compositions that always merges along the
  sub-grid's longest side.

Both return the same kernel as plain iterative combing (property-tested).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from ...alphabet import encode
from ...obs import get_metrics, get_tracer, phase
from ...types import PermArray, Sequenceish
from ..compose import compose_horizontal, compose_vertical
from .iterative import iterative_combing_antidiag_simd
from .recursive import split_and_compose


def _leaf(ca, cb, blend, use_16bit):
    return iterative_combing_antidiag_simd(
        ca, cb, blend=blend, use_16bit_when_possible=use_16bit
    )


def hybrid_combing(
    a: Sequenceish,
    b: Sequenceish,
    depth: int = 2,
    *,
    multiply=None,
    blend: str = "arith",
    use_16bit: bool = True,
    on_leaf=None,
) -> PermArray:
    """Listing 6: recursive splitting to *depth*, then iterative combing.

    ``on_leaf(m, n)`` is an optional callback invoked once per leaf
    sub-problem — the benchmarks use it to account the work available for
    coarse-grained parallelism.
    """
    if multiply is None:
        from ..steady_ant import steady_ant_multiply as multiply

    def leaf(ca, cb):
        if on_leaf is not None:
            on_leaf(ca.size, cb.size)
        return _leaf(ca, cb, blend, use_16bit)

    with phase("combing"), get_tracer().span("combing.hybrid", args={"depth": depth}):
        return split_and_compose(encode(a), encode(b), leaf, multiply, depth)


# ---------------------------------------------------------------------------
# Listing 7: flattened grid + balanced reduction
# ---------------------------------------------------------------------------


def optimal_split(m: int, n: int, n_tasks: int, *, strand_limit: int | None = None) -> tuple[int, int]:
    """Choose the sub-grid factorization ``(m_outer, n_outer)``.

    Aims for at least *n_tasks* sub-blocks, splitting the longer side
    more, and keeping every block's ``m_i + n_j`` under *strand_limit*
    when given (the 16-bit constraint of §4.3).
    """
    m_outer, n_outer = 1, 1
    while m_outer * n_outer < max(1, n_tasks):
        # grow the dimension whose blocks are currently longer
        if m / m_outer >= n / n_outer and m_outer < m:
            m_outer += 1
        elif n_outer < n:
            n_outer += 1
        elif m_outer < m:
            m_outer += 1
        else:
            break
    if strand_limit is not None:
        while m_outer < m and math.ceil(m / m_outer) + math.ceil(n / n_outer) > strand_limit:
            if math.ceil(m / m_outer) >= math.ceil(n / n_outer):
                m_outer += 1
            else:
                n_outer += 1
        while n_outer < n and math.ceil(m / m_outer) + math.ceil(n / n_outer) > strand_limit:
            n_outer += 1
    return m_outer, n_outer


def _split_lengths(total: int, parts: int) -> list[int]:
    """Nearly equal part lengths, never zero (parts clamped to total)."""
    parts = max(1, min(parts, total)) if total else 1
    base = total // parts
    extra = total % parts
    return [base + (1 if k < extra else 0) for k in range(parts)]


#: One reduction node: ``kind`` is ``"h"`` (compose_horizontal) or ``"v"``
#: (compose_vertical), ``out``/``left``/``right`` are plan node ids
#: (leaves are ``i * n_outer + j`` row-major), and ``d0/d1/d2`` are the
#: compose dimensions (``rows, n_left, n_right`` for "h";
#: ``m_top, m_bottom, cols`` for "v").
class GridOp:
    __slots__ = ("kind", "out", "left", "right", "d0", "d1", "d2")

    def __init__(self, kind, out, left, right, d0, d1, d2):
        self.kind = kind
        self.out = out
        self.left = left
        self.right = right
        self.d0 = d0
        self.d1 = d1
        self.d2 = d2

    def compose(self, left: PermArray, right: PermArray, multiply) -> PermArray:
        """Compose the kernels of this op's two input nodes."""
        fn = compose_horizontal if self.kind == "h" else compose_vertical
        return fn(left, right, self.d0, self.d1, self.d2, multiply)

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"GridOp({self.kind!r}, out={self.out}, "
                f"left={self.left}, right={self.right})")


def plan_grid_reduction(m: int, n: int, a_lens, b_lens, *, reduction: str = "longest-side"):
    """Flatten Listing 7's balanced reduction tree into explicit levels.

    Returns ``(levels, spans, root)``: ``levels`` is a list of lists of
    :class:`GridOp` (one list per reduction level; the ops of a level are
    mutually independent), ``spans`` maps every plan node id to its
    covered slice bounds ``(a_lo, a_hi, b_lo, b_hi)`` (checkpoint keys
    derive from these), and ``root`` is the final node's id. Leaf ids are
    ``i * n_outer + j`` row-major; the caller runs the leaves itself.

    ``reduction`` selects the compose-order heuristic the paper's §4.3
    discusses: ``"longest-side"`` (the paper's choice — always merge
    along the sub-grid's longest axis, keeping block shapes balanced),
    ``"rows-first"`` (merge all row pairs before any columns) or
    ``"cols-first"``. Every order yields the same kernel; the order only
    affects the cost of the log-linear compositions.

    This plan is the one description of the tree: the sequential and
    parallel grids both run it level by level.
    """
    if reduction not in ("longest-side", "rows-first", "cols-first"):
        raise ValueError(f"unknown reduction heuristic {reduction!r}")
    a_lens = list(a_lens)
    b_lens = list(b_lens)
    m_outer, n_outer = len(a_lens), len(b_lens)
    a_bounds = []
    lo = 0
    for ln in a_lens:
        a_bounds.append((lo, lo + ln))
        lo += ln
    b_bounds = []
    lo = 0
    for ln in b_lens:
        b_bounds.append((lo, lo + ln))
        lo += ln
    ids = [[i * n_outer + j for j in range(n_outer)] for i in range(m_outer)]
    spans = {}
    for i in range(m_outer):
        for j in range(n_outer):
            spans[ids[i][j]] = (*a_bounds[i], *b_bounds[j])
    next_id = m_outer * n_outer
    levels = []
    while m_outer > 1 or n_outer > 1:
        if n_outer == 1:
            row_reduction = False
        elif m_outer == 1:
            row_reduction = True
        elif reduction == "rows-first":
            row_reduction = True
        elif reduction == "cols-first":
            row_reduction = False
        else:
            # blocks taller than wide -> merge horizontally (row reduction)
            row_reduction = (m / m_outer) >= (n / n_outer)
        ops = []
        if row_reduction:
            new_ids = []
            for i in range(m_outer):
                row = []
                for j in range(0, n_outer - 1, 2):
                    out = next_id
                    next_id += 1
                    ops.append(GridOp("h", out, ids[i][j], ids[i][j + 1],
                                      a_lens[i], b_lens[j], b_lens[j + 1]))
                    spans[out] = (*a_bounds[i], b_bounds[j][0], b_bounds[j + 1][1])
                    row.append(out)
                if n_outer % 2:
                    row.append(ids[i][n_outer - 1])
                new_ids.append(row)
            ids = new_ids
            b_lens = [b_lens[j] + b_lens[j + 1] for j in range(0, n_outer - 1, 2)] + (
                [b_lens[-1]] if n_outer % 2 else [])
            b_bounds = [(b_bounds[j][0], b_bounds[j + 1][1]) for j in range(0, n_outer - 1, 2)] + (
                [b_bounds[-1]] if n_outer % 2 else [])
            n_outer = len(b_lens)
        else:
            new_ids = []
            for i in range(0, m_outer - 1, 2):
                row = []
                for j in range(n_outer):
                    out = next_id
                    next_id += 1
                    ops.append(GridOp("v", out, ids[i][j], ids[i + 1][j],
                                      a_lens[i], a_lens[i + 1], b_lens[j]))
                    spans[out] = (a_bounds[i][0], a_bounds[i + 1][1], *b_bounds[j])
                    row.append(out)
                new_ids.append(row)
            if m_outer % 2:
                new_ids.append(ids[m_outer - 1])
            ids = new_ids
            a_lens = [a_lens[i] + a_lens[i + 1] for i in range(0, m_outer - 1, 2)] + (
                [a_lens[-1]] if m_outer % 2 else [])
            a_bounds = [(a_bounds[i][0], a_bounds[i + 1][1]) for i in range(0, m_outer - 1, 2)] + (
                [a_bounds[-1]] if m_outer % 2 else [])
            m_outer = len(a_lens)
        levels.append(ops)
    return levels, spans, ids[0][0]


def run_grid_levels(plan, n_leaves: int, run_leaves, run_level):
    """Run a :func:`plan_grid_reduction` plan level by level.

    ``run_leaves(nodes)`` returns the kernels of leaf *nodes* (one round);
    then, for each level, ``run_level(level, ops, inputs)`` returns the
    kernels of that level's ops from their ``(left, right)`` input
    kernels (one round per level, levels numbered from 1). Every grid —
    sequential, parallel and checkpointed — runs through here, so all of
    them share one schedule. Returns the root kernel.
    """
    levels, _, root = plan
    kernels = dict(enumerate(run_leaves(range(n_leaves))))
    for level, ops in enumerate(levels, start=1):
        inputs = [(kernels.pop(op.left), kernels.pop(op.right)) for op in ops]
        kernels.update(zip([op.out for op in ops], run_level(level, ops, inputs)))
    return kernels[root]


def hybrid_combing_grid(
    a: Sequenceish,
    b: Sequenceish,
    n_tasks: int = 8,
    *,
    multiply=None,
    blend: str = "arith",
    use_16bit: bool = True,
    strand_limit: int | None = None,
    reduction: str = "longest-side",
    on_leaf=None,
    on_compose=None,
    checkpoint=None,
) -> PermArray:
    """Listing 7: grid decomposition + balanced reduction tree.

    Combs every sub-block, then walks :func:`plan_grid_reduction`'s
    levels in-process. ``reduction`` picks the plan's compose-order
    heuristic (see there; ablated in
    ``benchmarks/bench_ext_ablations.py``).

    ``on_leaf(m, n)`` / ``on_compose(order)`` are accounting callbacks for
    the parallel cost model (each reduction level's compositions are
    mutually independent, as are all leaf combings); ``on_leaf`` fires as
    each leaf finishes, in row-major order, and ``on_compose`` as each
    plan op finishes, level by level, with the merged node's ``m + n``.

    ``checkpoint`` is an optional
    :class:`~repro.checkpoint.grid.GridCheckpointer`: every leaf (and
    every reduction compose above the checkpointer's size threshold) is
    durably persisted as it completes, and a resumed run loads completed
    nodes from disk instead of recomputing them.

    Observability: wrapped in the ``combing`` phase and a
    ``combing.grid`` span; sub-block combings count in
    ``combing.grid_leaves`` (compositions count in
    ``combing.grid_composes`` via :func:`repro.core.compose.compose_vertical`).
    """
    with phase("combing"), get_tracer().span(
        "combing.grid", args={"n_tasks": n_tasks, "reduction": reduction}
    ):
        return _hybrid_combing_grid_impl(
            a, b, n_tasks,
            multiply=multiply, blend=blend, use_16bit=use_16bit,
            strand_limit=strand_limit, reduction=reduction,
            on_leaf=on_leaf, on_compose=on_compose, checkpoint=checkpoint,
        )


def _hybrid_combing_grid_impl(
    a: Sequenceish,
    b: Sequenceish,
    n_tasks: int,
    *,
    multiply,
    blend: str,
    use_16bit: bool,
    strand_limit: int | None,
    reduction: str,
    on_leaf,
    on_compose,
    checkpoint,
) -> PermArray:
    ca, cb = encode(a), encode(b)
    m, n = ca.size, cb.size
    if m == 0 or n == 0:
        return np.arange(m + n, dtype=np.int64)
    if multiply is None:
        from ..steady_ant import steady_ant_multiply as multiply

    m_outer, n_outer = optimal_split(m, n, n_tasks, strand_limit=strand_limit)
    a_lens = _split_lengths(m, m_outer)
    b_lens = _split_lengths(n, n_outer)
    n_outer = len(b_lens)
    plan = plan_grid_reduction(m, n, a_lens, b_lens, reduction=reduction)
    spans = plan[1]

    if checkpoint is not None:
        finished = checkpoint.begin(ca, cb, a_lens, b_lens)
        if finished is not None:
            return finished

    def slices(node):
        a_lo, a_hi, b_lo, b_hi = spans[node]
        return ca[a_lo:a_hi], cb[b_lo:b_hi]

    # comb every sub-block independently (the parallel taskloop); each
    # leaf checkpoints the moment it finishes
    def run_leaves(nodes):
        out = []
        for node in nodes:
            ca_blk, cb_blk = slices(node)
            compute = partial(_leaf, ca_blk, cb_blk, blend, use_16bit)
            if checkpoint is None:
                out.append(compute())
            else:
                i, j = divmod(node, n_outer)
                out.append(checkpoint.leaf(i, j, ca_blk, cb_blk, compute))
            if on_leaf is not None:
                on_leaf(ca_blk.size, cb_blk.size)
        return out

    def run_level(level, ops, inputs):
        out = []
        for index, (op, (left, right)) in enumerate(zip(ops, inputs)):
            compute = partial(op.compose, left, right, multiply)
            ca_sl, cb_sl = slices(op.out)
            if checkpoint is None:
                out.append(compute())
            else:
                out.append(checkpoint.compose(level, index, ca_sl, cb_sl, compute))
            if on_compose is not None:
                on_compose(ca_sl.size + cb_sl.size)
        return out

    n_leaves = len(a_lens) * n_outer
    get_metrics().inc("combing.grid_leaves", n_leaves)
    root = run_grid_levels(plan, n_leaves, run_leaves, run_level)
    if checkpoint is not None:
        checkpoint.finish(ca, cb, root)
    return root
