"""Level-vectorized steady ant: every step of the recursion runs once per level.

The scalar steady ant (:mod:`.sequential` / :mod:`.combined`) walks its
divide-and-conquer tree node by node: every split, base-case product and
ant passage is a separate Python-level call on a small array, so
dispatch overhead — not arithmetic — dominates. This module processes
*all nodes of one recursion level as stacked batch lanes*, the way
:mod:`repro.batch.lockstep` does for combing. The nodes at depth ``d``
have order ``floor`` or ``ceil`` of ``n / 2^d``; each order is one
``(B, n)`` stack of ``P`` and one of ``Q``, kept as stacks from the
split down to the base case and back up through the combines.

- **Splits** (`split_p`/`split_q` of :mod:`._core`) are lane-wise:
  ``P`` by a row mask and a masked gather; ``Q`` by the mask of its
  inverse, whose ``cumsum`` ranks every column within its half.
- **Base cases** stop at :data:`DEFAULT_BASE_ORDER` and are answered by
  one *batched dense (min,+) product* (:func:`batch_sticky_multiply`):
  ``B`` distribution matrices are built with one broadcast comparison +
  suffix ``cumsum``, the (min,+) product runs as ``n + 1`` fused
  ``minimum`` updates over ``(B, n+1, n+1)`` slabs, and the product
  permutations are read off the unit-Monge mixed differences with one
  ``argmax``.
- **Combines** (the ant passage of :func:`._core.combine`) cost a fixed
  number of NumPy calls per order and level, plus the staircase walk:

  - the merged nonzeros' row -> column and column -> row maps are one
    masked assignment pair and one scatter;
  - ``delta`` (notation of :mod:`._core`) is zero at every staircase
    point: it moves by one per step, falls only on a step right, and a
    climb stops as soon as it is back at zero. So the walk records only
    the heights ``t(k)``, and the corner cases that read ``delta`` lose
    that term;
  - levels with at least :data:`LOCKSTEP_WALK_LANES` nodes of one order
    walk in lockstep, one lane per node ("up while climbing, else
    right", at most ``2n + 1`` vector steps); narrower levels walk node
    by node over plain lists;
  - the survival filters are elementwise by row, and the boundary cells
    are resolved per column (rows ``t(c)`` and ``t(c+1)``) and per row
    (a row a climb passes is open in that one column, found by a
    ``bincount`` and ``cumsum`` over ``t``).

  The scalar variants keep :func:`._core.combine` as it is (Fig. 4a/4b
  time them). Results are *bit-identical* to the scalar recursion
  (property-tested).

The same batched product builds the :class:`~.precalc.PrecalcTable` in
one shot (:func:`build_precalc_products`): all ``(5!)^2`` order-5 pairs
are a single 14400-lane batch, which is what makes the table warm-up
cheap enough to pay in every worker process.

Index vectors — at every order, base case or split level — are
read-only views of one shared iota buffer that grows geometrically;
``steady_ant.vectorized_plan_builds`` counts the growths.
"""

from __future__ import annotations

import threading

import numpy as np

from ...errors import ShapeMismatchError
from ...obs import get_metrics, get_tracer
from ...types import PermArray

__all__ = [
    "DEFAULT_BASE_ORDER",
    "LOCKSTEP_WALK_LANES",
    "batch_distribution",
    "batch_sticky_multiply",
    "build_precalc_products",
    "steady_ant_vectorized",
]

#: Recursion cutoff for the batched base case. Measured on the order-12288
#: and order-16384 products of lcsbench ``pair``'s grid: 8 beat 16 (1.19x
#: at 16384, even at 12288) and 4 (1.04-1.13x), and tied with 12. Below,
#: the level loop does too many rounds; above, the O(n^2) dense slabs
#: outgrow the saved dispatch.
DEFAULT_BASE_ORDER = 8

#: A level walks its staircases in lockstep lanes once it holds at least
#: this many nodes of one order, and node by node below that. A lockstep
#: walk costs ~2n vector steps whatever the lane count, a list walk ~2n
#: list steps per node: on the same products the two tied at 128 lanes,
#: the lanes won ~2x at 256 and ~3x at 512, and lost 1.6x at 64.
LOCKSTEP_WALK_LANES = 128

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


def batch_distribution(ps: np.ndarray) -> np.ndarray:
    """Distribution matrices of a ``(B, n)`` stack of permutations.

    ``out[l, i, j] = #{r >= i : ps[l, r] < j}`` (the paper's
    ``P_sigma``), shape ``(B, n+1, n+1)``, ``int32`` — values are at most
    ``n`` and the (min,+) sums at most ``2n``, so 32 bits always suffice
    and halve the slab traffic.
    """
    B, n = ps.shape
    ind = ps[:, :, None] < _iota(n + 1)[None, None, :]
    out = np.zeros((B, n + 1, n + 1), dtype=np.int32)
    if n:
        out[:, :n, :] = ind[:, ::-1, :].cumsum(axis=1, dtype=np.int32)[:, ::-1, :]
    return out


def batch_sticky_multiply(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Sticky products of ``B`` permutation pairs as one batched dense
    (min,+) product.

    ``ps``/``qs`` are ``(B, n)`` stacks; returns the ``(B, n)`` stack of
    products. O(B n^3) arithmetic but *constant* Python-level calls —
    at the base orders this module uses the arithmetic is trivia and
    the dispatch savings are ~20x over per-node table lookups.
    """
    ps = np.ascontiguousarray(ps, dtype=np.int64)
    qs = np.ascontiguousarray(qs, dtype=np.int64)
    if ps.shape != qs.shape:
        raise ShapeMismatchError(f"batch shapes differ: {ps.shape} vs {qs.shape}")
    B, n = ps.shape
    if n == 0:
        return np.empty((B, 0), dtype=np.int64)
    dp = batch_distribution(ps)
    dq = batch_distribution(qs)
    dr = dp[:, :, 0:1] + dq[:, 0:1, :]
    tmp = np.empty_like(dr)
    for j in range(1, n + 1):
        np.add(dp[:, :, j : j + 1], dq[:, j : j + 1, :], out=tmp)
        np.minimum(dr, tmp, out=dr)
    # unit-Monge recovery: each row of the mixed difference holds exactly
    # one 1 — its column is the product permutation's image of the row
    diff = dr[:, :-1, 1:] - dr[:, 1:, 1:] - dr[:, :-1, :-1] + dr[:, 1:, :-1]
    return np.argmax(diff == 1, axis=2).astype(np.int64)


def _split_group(P: np.ndarray, Q: np.ndarray):
    """Split a ``(B, n)`` stack of node pairs at ``h = n // 2``: the
    lane-wise :func:`._core.split_p` / :func:`._core.split_q`.

    Returns the low and high child stacks and the combine metadata
    ``(row_lo, col_lo, cols_lo, cols_hi)``: ``row_lo[b, r]`` says row
    ``r`` of ``P`` falls in the low half, ``col_lo[b, c]`` that column
    ``c`` of ``Q`` does, and ``cols_lo`` / ``cols_hi`` list each half's
    columns in ascending order (the re-expansion maps of the children).
    """
    B, n = P.shape
    h = n // 2
    row_lo = P < h
    # each lane has exactly h values < h, so the masked gathers reshape
    # to exact (B, h) / (B, n - h) blocks, rows in ascending order
    p_lo = P[row_lo].reshape(B, h)
    p_hi = P[~row_lo].reshape(B, n - h) - h
    # Q splits by rows: column c is low iff its row (Q's inverse) is < h
    q_inv = np.empty_like(Q)
    np.put_along_axis(q_inv, Q, _iota(n)[None, :], axis=1)
    col_lo = q_inv < h
    lanes = (_iota(B) * n)[:, None]
    cols_lo = np.flatnonzero(col_lo).reshape(B, h) - lanes
    cols_hi = np.flatnonzero(~col_lo).reshape(B, n - h) - lanes
    # compaction: a column's rank in its half; lo_before[b, c] counts the
    # low columns left of c, so a high column's rank is c - lo_before
    lo_before = np.cumsum(col_lo, axis=1) - col_lo
    q_lo = np.take_along_axis(lo_before, Q[:, :h], axis=1)
    q_hi = Q[:, h:] - np.take_along_axis(lo_before, Q[:, h:], axis=1)
    return (p_lo, q_lo), (p_hi, q_hi), (row_lo, col_lo, cols_lo, cols_hi)


def _split_level(level: dict, floor: int):
    """Split every node of *level* above order *floor*.

    *level* maps an order to the ``(P, Q)`` stacks of its nodes (a level
    holds at most two orders). Returns ``(splits, children)``:
    ``splits[n]`` is the combine metadata of order ``n`` with the
    ``(order, offset)`` of its low and high children in the next level,
    and ``children`` is that next level.
    """
    splits = {}
    parts: dict[int, list] = {}
    for n, (P, Q) in level.items():
        if n <= floor:
            continue
        lo, hi, meta = _split_group(P, Q)
        spots = []
        for child in (lo, hi):
            group = parts.setdefault(child[0].shape[1], [])
            spots.append((child[0].shape[1], sum(c[0].shape[0] for c in group)))
            group.append(child)
        splits[n] = (meta, *spots)
    children = {}
    for m, group in parts.items():
        if len(group) == 1:
            children[m] = group[0]
        else:
            children[m] = (
                np.concatenate([c[0] for c in group]),
                np.concatenate([c[1] for c in group]),
            )
    return splits, children


def _base_round(level: dict, floor: int, stats: list) -> dict:
    """Answer every node of *level* at or below order *floor* with the
    batched dense product (orders 0/1 are their own product); counts the
    lanes in ``stats[0]``."""
    results = {}
    for n, (P, Q) in level.items():
        if n > floor:
            continue
        if n <= 1:
            results[n] = P.copy()
            continue
        results[n] = batch_sticky_multiply(P, Q)
        stats[0] += P.shape[0]
    return results


def _walk_scalar(rc, rl, cr, cl):
    """The ant's staircase walk, one node at a time over plain lists.

    ``rc[b, r]`` is the column of row ``r``'s nonzero and ``rl[b, r]``
    whether it comes from ``R_lo``; ``cr`` / ``cl`` are the same by
    column. Returns the ``(B, n + 1)`` staircase heights ``t(k)``.

    ``delta`` is zero at every staircase point (see the module
    docstring), so the walk keeps none: a step right that counts starts
    a climb, and the climb ends on the first row above that counts.
    """
    n = rc.shape[1]
    ts = []
    for rcb, rlb, crb, clb in zip(rc.tolist(), rl.tolist(), cr.tolist(), cl.tolist()):
        t = [n] * (n + 1)
        i = n
        k1 = 0
        for crow, lo in zip(crb, clb):
            k1 += 1
            # step right across column k1 - 1: it counts if lo with
            # row >= i, hi with row < i
            if (crow >= i) if lo else (crow < i):
                # climb to the nearest row that counts at k1: lo with
                # col >= k1, hi with col < k1
                i -= 1
                while not ((rcb[i] >= k1) if rlb[i] else (rcb[i] < k1)):
                    i -= 1
            t[k1] = i
        ts.append(t)
    return np.array(ts, dtype=np.int64)


def _walk_lockstep(rc, rl, cr, cl):
    """The staircase walk of all ``B`` nodes at once, one lane per node
    (same arguments and result as :func:`_walk_scalar`).

    Each vector step moves every lane once: up while it climbs, else
    right. ``t`` is written at the lane's column on every step, so the
    last write — made when the lane leaves the column — is the
    staircase height. A walk leaves column ``n`` within ``2n + 1``
    steps; past it a lane keeps stepping right through padding columns
    that never count, so its column is ``i + step - n`` throughout.

    Positions are flat indices into ``(B, 2n + 2)`` layouts, and the
    gathered row/column values carry the same lane offset, so a lane's
    comparisons need no unshifting.
    """
    B, n = rc.shape
    w = 2 * n + 2
    off = (_iota(B) * w)[:, None]
    RC = np.zeros((B, w), dtype=np.int64)
    RC[:, 1 : n + 1] = rc + off  # row r at r + 1: a climb from i gathers at i
    RL = np.zeros((B, w), dtype=bool)
    RL[:, 1 : n + 1] = rl
    CR = np.full((B, w), -1, dtype=np.int64)  # padding: lo, above every row
    CR[:, :n] = cr + off
    CL = np.ones((B, w), dtype=bool)
    CL[:, :n] = cl
    RC, RL, CR, CL = RC.ravel(), RL.ravel(), CR.ravel(), CL.ravel()
    first = off.ravel()
    i = first + n  # flat height: lane offset + i
    k = first.copy()  # flat column: lane offset + k
    climbing = np.zeros(B, dtype=bool)
    t = np.empty(B * w, dtype=np.int64)
    for step in range(2 * n + 1):
        t[k] = i
        # a climb goes on past row i - 1 unless it counts (lo with
        # col >= k, hi with col < k); a step right across column k
        # starts one if the column counts (lo with row >= i, hi with row < i)
        goes_on = (RC[i] >= k) != RL[i]
        starts = (CR[k] >= i) == CL[k]
        i -= climbing
        climbing = np.where(climbing, goes_on, starts)
        k = i + (step + 1 - n)
        if step >= n and not step & 31 and (k - first > n).all():
            break
    return t.reshape(B, w)[:, : n + 1] - off


def _combine_group(meta, r_lo: np.ndarray, r_hi: np.ndarray) -> np.ndarray:
    """The ant passage (:func:`._core.combine`) for a ``(B, n)`` stack of
    nodes at once: merge the children's products ``r_lo`` / ``r_hi``
    into the parents' products."""
    row_lo, col_lo, cols_lo, cols_hi = meta
    B, n = row_lo.shape
    # row -> column and column -> row of the merged nonzeros
    rc = np.empty((B, n), dtype=np.int64)
    rc[row_lo] = np.take_along_axis(cols_lo, r_lo, axis=1).ravel()
    rc[~row_lo] = np.take_along_axis(cols_hi, r_hi, axis=1).ravel()
    cr = np.empty_like(rc)
    np.put_along_axis(cr, rc, _iota(n)[None, :], axis=1)
    walk = _walk_lockstep if B >= LOCKSTEP_WALK_LANES else _walk_scalar
    t = walk(rc, row_lo, cr, col_lo)
    rows = _iota(n)[None, :]
    cols = rows

    # good nonzeros, by row: R_lo's strictly inside the lo region
    # (r < t(c+1)), R_hi's strictly inside the hi region (r > t(c))
    t_at = np.take_along_axis(t, rc + row_lo, axis=1)
    out = np.where(np.where(row_lo, rows < t_at, rows > t_at), rc, -1)

    # boundary rows t(c+1) < r < t(c), open in the single column c that
    # has t(c) > r > t(c+1): r is no staircase height, and c + 1 counts
    # the heights above r. Such a cell is R's iff row r is hi with col <= c
    lanes = (_iota(B) * (n + 1))[:, None]
    hist = np.bincount((t + lanes).ravel(), minlength=B * (n + 1)).reshape(B, n + 1)
    above = np.cumsum(hist[:, :0:-1], axis=1)[:, ::-1]
    c_open = above - 1
    run = (hist[:, :n] == 0) & (above <= n) & ~row_lo & (rc <= c_open)
    out = np.where(run, c_open, out)

    # boundary cells by column c, at rows t(c) and t(c+1)
    tc, tc1 = t[:, :-1], t[:, 1:]
    same = tc == tc1
    at_top = (tc < n) & np.where(
        same,
        # r = t(c) = t(c+1): top corners lo, bottom corners hi
        np.where(col_lo, cr >= tc, cr <= tc),
        # r = t(c) > t(c+1): only the top-left corner is lo; R_hi(r, c)
        ~col_lo & (cr == tc),
    )
    # r = t(c+1) < t(c): all corners lo but the bottom-right one;
    # R_lo(r, c) + [row r counts at c + 1]
    r1 = np.minimum(tc1, n - 1)
    rc1 = np.take_along_axis(rc, r1, axis=1)
    counts = np.where(np.take_along_axis(row_lo, r1, axis=1), rc1 > cols, rc1 <= cols)
    at_bottom = ~same & ((col_lo & (cr == tc1)) | counts)
    for mask, row in ((at_top, tc), (at_bottom, tc1)):
        lane, col = np.nonzero(mask)
        out[lane, row[mask]] = col
    return out


def _multiply_vectorized(p: np.ndarray, q: np.ndarray, base_order: int, stats: list):
    """Breadth-first level-vectorized product (no metrics, no checks) —
    the engine behind :func:`steady_ant_vectorized`. Splits level by
    level down to the base cases, then combines level by level back up;
    ``stats`` gathers ``[base lanes, split levels]``."""
    floor = max(base_order, 1)
    level = {p.size: (p[None, :], q[None, :])}
    trail = []
    while level:
        base = _base_round(level, floor, stats)
        splits, level = _split_level(level, floor)
        trail.append((base, splits))
    stats[1] += len(trail) - 1
    results: dict = {}
    for base, splits in reversed(trail):
        below, results = results, base
        for n, (meta, (m_lo, o_lo), (m_hi, o_hi)) in splits.items():
            B = meta[0].shape[0]
            results[n] = _combine_group(
                meta, below[m_lo][o_lo : o_lo + B], below[m_hi][o_hi : o_hi + B]
            )
    return results[p.size][0]


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
