"""Level-vectorized steady ant: batch the recursion across a whole level.

The scalar steady ant (:mod:`.sequential` / :mod:`.combined`) walks its
divide-and-conquer tree node by node: every split, every base-case
product and every rank computation is a separate Python-level NumPy call
on a tiny array, so per-call dispatch overhead — not arithmetic —
dominates below a few thousand strands (the same 198x gap
``BENCH_batch.json`` exposed for per-pair combing). This module removes
that overhead the way :mod:`repro.batch.lockstep` did for combing:
process *all nodes of one recursion level as stacked batch lanes*.

- **Splits** (`split_p`/`split_q` of :mod:`._core`) become lane-wise
  operations on a ``(B, n)`` stack: the column mask, the row gathers and
  the rank assignment (``argsort`` + ``put_along_axis`` scatter, replacing
  ``B`` separate ``searchsorted`` calls) each run as one NumPy op for the
  whole level.
- **Base cases** stop at ``base_order`` (default 16, measured optimum)
  and are answered by one *batched dense (min,+) product*
  (:func:`batch_sticky_multiply`): ``B`` distribution matrices are built
  with one broadcast comparison + suffix ``cumsum``, the (min,+) product
  runs as ``n + 1`` fused ``minimum`` updates over ``(B, n+1, n+1)``
  slabs, and the product permutations are read off the unit-Monge mixed
  differences with one ``argmax``. At order 16 this replaces ~``2 n / 16``
  scalar table lookups *and* every split below order 16.
- **Combines** reuse the scalar ant walk of :func:`._core.combine`
  unchanged — the O(n) staircase walk is inherently sequential per node
  (paper §4.2.1) and is the one part worth no lanes; results are
  therefore *bit-identical* to the scalar recursion (property-tested).

The same batched product builds the :class:`~.precalc.PrecalcTable` in
one shot (:func:`build_precalc_products`): all ``(5!)^2`` order-5 pairs
are a single 14400-lane batch, which is what makes the table warm-up
cheap enough to pay in every worker process.

Index vectors for the batched kernels — at every order, base case or
split level — are read-only views of one shared iota buffer that grows
geometrically; ``steady_ant.vectorized_plan_builds`` counts the growths.
"""

from __future__ import annotations

import threading

import numpy as np

from ...errors import ShapeMismatchError
from ...obs import get_metrics, get_tracer
from ...types import PermArray
from ._core import combine

__all__ = [
    "DEFAULT_BASE_ORDER",
    "batch_distribution",
    "batch_sticky_multiply",
    "build_precalc_products",
    "steady_ant_vectorized",
]

#: Recursion cutoff for the batched base case. Measured optimum: below 16
#: the level loop does too many rounds, above it the O(n^2) dense slabs
#: outgrow the saved dispatch.
DEFAULT_BASE_ORDER = 16

# index vectors for *every* order (base cases and split levels alike)
# are views of one shared read-only iota buffer, which grows
# geometrically under the lock
_iota_buf = np.empty(0, dtype=np.int64)
_iota_lock = threading.Lock()


def _iota(n: int) -> np.ndarray:
    """``arange(n)`` as a read-only view of the shared buffer, growing
    (and counting a ``steady_ant.vectorized_plan_builds`` miss) only
    when *n* exceeds every order seen so far."""
    global _iota_buf
    buf = _iota_buf
    if buf.size < n:
        with _iota_lock:
            buf = _iota_buf
            if buf.size < n:
                buf = np.arange(max(n, 2 * buf.size, 64), dtype=np.int64)
                buf.setflags(write=False)
                _iota_buf = buf
                get_metrics().inc("steady_ant.vectorized_plan_builds", 1)
    return buf[:n]


def _base_plan(n: int) -> dict[str, np.ndarray]:
    cols = _iota(n + 1)
    return {"cols": cols, "iota": cols[:n]}


def batch_distribution(ps: np.ndarray, plan: dict | None = None) -> np.ndarray:
    """Distribution matrices of a ``(B, n)`` stack of permutations.

    ``out[l, i, j] = #{r >= i : ps[l, r] < j}`` (the paper's
    ``P_sigma``), shape ``(B, n+1, n+1)``, ``int32`` — values are at most
    ``n`` and the (min,+) sums at most ``2n``, so 32 bits always suffice
    and halve the slab traffic.
    """
    B, n = ps.shape
    cols = (plan or _base_plan(n))["cols"]
    ind = ps[:, :, None] < cols[None, None, :]
    out = np.zeros((B, n + 1, n + 1), dtype=np.int32)
    if n:
        out[:, :n, :] = ind[:, ::-1, :].cumsum(axis=1, dtype=np.int32)[:, ::-1, :]
    return out


def batch_sticky_multiply(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Sticky products of ``B`` permutation pairs as one batched dense
    (min,+) product.

    ``ps``/``qs`` are ``(B, n)`` stacks; returns the ``(B, n)`` stack of
    products. O(B n^3) arithmetic but *constant* Python-level calls —
    for the base orders this module uses (n <= 16) the arithmetic is
    trivia and the dispatch savings are ~20x over per-node table lookups.
    """
    ps = np.ascontiguousarray(ps, dtype=np.int64)
    qs = np.ascontiguousarray(qs, dtype=np.int64)
    if ps.shape != qs.shape:
        raise ShapeMismatchError(f"batch shapes differ: {ps.shape} vs {qs.shape}")
    B, n = ps.shape
    if n == 0:
        return np.empty((B, 0), dtype=np.int64)
    plan = _base_plan(n)
    dp = batch_distribution(ps, plan)
    dq = batch_distribution(qs, plan)
    dr = dp[:, :, 0:1] + dq[:, 0:1, :]
    tmp = np.empty_like(dr)
    for j in range(1, n + 1):
        np.add(dp[:, :, j : j + 1], dq[:, j : j + 1, :], out=tmp)
        np.minimum(dr, tmp, out=dr)
    # unit-Monge recovery: each row of the mixed difference holds exactly
    # one 1 — its column is the product permutation's image of the row
    diff = dr[:, :-1, 1:] - dr[:, 1:, 1:] - dr[:, :-1, :-1] + dr[:, 1:, :-1]
    return np.argmax(diff == 1, axis=2).astype(np.int64)


def _split_level(nodes: list, base_order: int):
    """Split every splittable node of one level, vectorized per size
    group (all nodes of one level have one of at most two orders).

    Returns ``(metas, children)``: ``metas[i]`` is ``None`` for a node
    kept whole (already at or below *base_order*) or the
    ``(rows_lo, cols_lo, rows_hi, cols_hi, n)`` combine metadata;
    ``children`` is the next level's node list in canonical order (lo
    then hi per split node, pass-throughs in place).
    """
    by_n: dict[int, list[int]] = {}
    for i, (pp, _) in enumerate(nodes):
        by_n.setdefault(pp.size, []).append(i)
    metas: list = [None] * len(nodes)
    split_children: list = [None] * len(nodes)
    for n, idxs in by_n.items():
        if n <= max(base_order, 1):
            continue
        B = len(idxs)
        h = n // 2
        ps = np.stack([nodes[i][0] for i in idxs])
        qs = np.stack([nodes[i][1] for i in idxs])
        # split_p for all lanes: each row has exactly h values < h, so the
        # nonzero column indices reshape to exact (B, h)/(B, n-h) blocks
        mask = ps < h
        rows_lo = np.nonzero(mask)[1].reshape(B, h)
        rows_hi = np.nonzero(~mask)[1].reshape(B, n - h)
        p_lo = np.take_along_axis(ps, rows_lo, axis=1)
        p_hi = np.take_along_axis(ps, rows_hi, axis=1) - h
        # split_q for all lanes: ranks via argsort + arange scatter
        # (one vectorized pass instead of B searchsorted calls)
        order_lo = np.argsort(qs[:, :h], axis=1)
        order_hi = np.argsort(qs[:, h:], axis=1)
        cols_lo = np.take_along_axis(qs[:, :h], order_lo, axis=1)
        cols_hi = np.take_along_axis(qs[:, h:], order_hi, axis=1)
        q_lo = np.empty((B, h), dtype=np.int64)
        q_hi = np.empty((B, n - h), dtype=np.int64)
        np.put_along_axis(q_lo, order_lo, _base_plan(h)["iota"][None, :], axis=1)
        np.put_along_axis(q_hi, order_hi, _base_plan(n - h)["iota"][None, :], axis=1)
        for k, i in enumerate(idxs):
            metas[i] = (rows_lo[k], cols_lo[k], rows_hi[k], cols_hi[k], n)
            split_children[i] = ((p_lo[k], q_lo[k]), (p_hi[k], q_hi[k]))
    children = []
    for i, node in enumerate(nodes):
        if metas[i] is None:
            children.append(node)
        else:
            lo, hi = split_children[i]
            children.append(lo)
            children.append(hi)
    return metas, children


def _base_round(nodes: list, stats: list | None) -> list:
    """Answer every leaf with the batched dense product, grouped by
    order (orders 0/1 are their own product)."""
    by_n: dict[int, list[int]] = {}
    for i, (pp, _) in enumerate(nodes):
        by_n.setdefault(pp.size, []).append(i)
    results: list = [None] * len(nodes)
    for n, idxs in by_n.items():
        if n <= 1:
            for i in idxs:
                results[i] = nodes[i][0].copy()
            continue
        ps = np.stack([nodes[i][0] for i in idxs])
        qs = np.stack([nodes[i][1] for i in idxs])
        prods = batch_sticky_multiply(ps, qs)
        for k, i in enumerate(idxs):
            results[i] = prods[k]
        if stats is not None:
            stats[0] += len(idxs)
    return results


def _multiply_vectorized(
    p: np.ndarray, q: np.ndarray, base_order: int, stats: list | None = None
) -> np.ndarray:
    """Breadth-first level-vectorized product (no metrics, no checks) —
    the engine behind :func:`steady_ant_vectorized`."""
    nodes = [(p, q)]
    meta_levels = []
    floor = max(base_order, 1)
    while any(pp.size > floor for pp, _ in nodes):
        metas, nodes = _split_level(nodes, base_order)
        meta_levels.append(metas)
    if stats is not None:
        stats[1] += len(meta_levels)
    results = _base_round(nodes, stats)
    for metas in reversed(meta_levels):
        merged = []
        it = iter(results)
        for meta in metas:
            if meta is None:
                merged.append(next(it))
                continue
            rows_lo, cols_lo, rows_hi, cols_hi, n = meta
            r_lo = next(it)
            r_hi = next(it)
            # the ant walk itself stays scalar: it is O(n) and sequential
            merged.append(combine(rows_lo, cols_lo[r_lo], rows_hi, cols_hi[r_hi], n))
        results = merged
    return results[0]


def steady_ant_vectorized(
    p: PermArray, q: PermArray, *, base_order: int = DEFAULT_BASE_ORDER
) -> PermArray:
    """Sticky product ``p ⊙ q``, level-vectorized (bit-identical to
    :func:`~.combined.steady_ant_combined`).

    Observability (flushed once per call): a
    ``steady_ant.vectorized`` span, ``steady_ant.vectorized_multiplies``
    / ``steady_ant.vectorized_base_hits`` (lanes answered by the batched
    base kernel) / ``steady_ant.vectorized_levels`` counters, and the
    shared ``steady_ant.order`` histogram.
    """
    p = np.ascontiguousarray(p, dtype=np.int64)
    q = np.ascontiguousarray(q, dtype=np.int64)
    n = p.size
    if n != q.size:
        raise ShapeMismatchError(f"orders differ: {n} vs {q.size}")
    if n == 0:
        return p.copy()
    stats = [0, 0]  # [base lanes, levels]
    with get_tracer().span("steady_ant.vectorized", args={"order": int(n)}):
        result = _multiply_vectorized(p, q, base_order, stats)
    metrics = get_metrics()
    metrics.inc("steady_ant.vectorized_multiplies", 1)
    metrics.inc("steady_ant.vectorized_base_hits", stats[0])
    metrics.inc("steady_ant.vectorized_levels", stats[1])
    metrics.get("steady_ant.order").observe(n)
    return np.asarray(result, dtype=np.int64)


def build_precalc_products(max_order: int):
    """All sticky products of permutation pairs of order 1..*max_order*
    as tetrade-packed word triples, computed by the batched kernel.

    Yields ``(n, packed_p, packed_q, packed_r)`` per order — the
    ``(n!)^2`` pairs of one order are a single batch (14400 lanes at the
    paper's order 5).
    """
    from itertools import permutations

    for n in range(1, max_order + 1):
        perms = np.asarray(list(permutations(range(n))), dtype=np.int64)
        k = perms.shape[0]
        ps = np.repeat(perms, k, axis=0)
        qs = np.tile(perms, (k, 1))
        rs = batch_sticky_multiply(ps, qs)
        shifts = 4 * np.arange(n, dtype=np.int64)
        packed_p = (ps << shifts).sum(axis=1)
        packed_q = (qs << shifts).sum(axis=1)
        packed_r = (rs << shifts).sum(axis=1)
        yield n, packed_p, packed_q, packed_r
