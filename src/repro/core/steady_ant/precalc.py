"""Steady ant with precomputed products of small permutations ("precalc").

The paper (§4.2.1, footnote 6) cuts off the bottom of the recursion tree
by tabulating the products of all pairs of permutation matrices of order
up to 5 — ``(5!)^2 = 14400`` pairs, plus all smaller orders. Each matrix
is packed into a 32-bit machine word as 8 tetrades, the k-th tetrade
holding the column index of the nonzero in row k; we reproduce exactly
that packing.

The table is built lazily on first use and shared process-wide.
"""

from __future__ import annotations

import threading

import numpy as np

from ...errors import ShapeMismatchError
from ...obs.metrics import inc as _metric_inc
from ...types import PermArray
from ._core import combine, split_p, split_q

#: Paper's table order: all products of permutations of order <= 5.
DEFAULT_MAX_ORDER = 5


def pack(perm) -> int:
    """Pack a permutation of order <= 8 into an int as 4-bit tetrades."""
    word = 0
    for k, col in enumerate(perm):
        word |= int(col) << (4 * k)
    return word


def unpack(word: int, n: int) -> np.ndarray:
    """Inverse of :func:`pack`."""
    return np.asarray([(word >> (4 * k)) & 0xF for k in range(n)], dtype=np.int64)


class PrecalcTable:
    """Products of all permutation pairs of order up to ``max_order``.

    ``lookup(packed_p, packed_q, n)`` returns the packed product in O(1).

    Each order's ``(n!)^2`` products are computed as a single batch via
    :func:`~.vectorized.build_precalc_products`, which matters because
    every worker process pays this build once.
    """

    def __init__(self, max_order: int = DEFAULT_MAX_ORDER):
        if not 1 <= max_order <= 8:
            raise ValueError("max_order must be in [1, 8] (tetrade packing)")
        from .vectorized import build_precalc_products

        self.max_order = max_order
        self._tables: list[dict[tuple[int, int], int]] = [dict() for _ in range(max_order + 1)]
        self._unpacked_cache: dict[tuple[int, int], np.ndarray] = {}
        for n, packed_p, packed_q, packed_r in build_precalc_products(max_order):
            table = self._tables[n]
            for pp, qp, rp in zip(packed_p.tolist(), packed_q.tolist(), packed_r.tolist()):
                table[(pp, qp)] = rp

    def __len__(self) -> int:
        return sum(len(t) for t in self._tables)

    def multiply(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Table-driven product of two small permutations."""
        n = p.size
        word = self._tables[n][(pack(p), pack(q))]
        cached = self._unpacked_cache.get((word, n))
        if cached is None:
            cached = unpack(word, n)
            self._unpacked_cache[(word, n)] = cached
        return cached


_shared_tables: dict[int, PrecalcTable] = {}
_shared_tables_lock = threading.Lock()


def get_precalc_table(max_order: int = DEFAULT_MAX_ORDER) -> PrecalcTable:
    """Process-wide shared table, built at most once per ``max_order``.

    The warm-once guard matters for batch workers: a process pool worker
    serving many steady-ant sub-tasks per round must pay the ``(5!)^2``
    table construction exactly once, not once per round. Double-checked
    locking keeps the hot path lock-free; ``steady_ant.precalc_builds`` /
    ``steady_ant.precalc_hits`` count constructions vs. cache answers
    (collected from workers like any other metric delta).
    """
    table = _shared_tables.get(max_order)
    if table is not None:
        _metric_inc("steady_ant.precalc_hits", 1)
        return table
    with _shared_tables_lock:
        table = _shared_tables.get(max_order)
        if table is None:
            table = PrecalcTable(max_order)
            _shared_tables[max_order] = table
            _metric_inc("steady_ant.precalc_builds", 1)
        else:  # pragma: no cover - lost the build race
            _metric_inc("steady_ant.precalc_hits", 1)
    return table


def _multiply(p: np.ndarray, q: np.ndarray, table: PrecalcTable) -> np.ndarray:
    n = p.size
    if n <= table.max_order:
        return table.multiply(p, q)
    h = n // 2
    p_lo, rows_lo, p_hi, rows_hi = split_p(p, h)
    q_lo, cols_lo, q_hi, cols_hi = split_q(q, h)
    r_lo_small = _multiply(p_lo, q_lo, table)
    r_hi_small = _multiply(p_hi, q_hi, table)
    return combine(rows_lo, cols_lo[r_lo_small], rows_hi, cols_hi[r_hi_small], n)


def steady_ant_precalc(
    p: PermArray, q: PermArray, *, max_order: int = DEFAULT_MAX_ORDER
) -> PermArray:
    """Sticky product ``p ⊙ q`` with the precalc base case."""
    p = np.ascontiguousarray(p, dtype=np.int64)
    q = np.ascontiguousarray(q, dtype=np.int64)
    if p.size != q.size:
        raise ShapeMismatchError(f"orders differ: {p.size} vs {q.size}")
    if p.size == 0:
        return p.copy()
    return _multiply(p, q, get_precalc_table(max_order))
