"""Range counting over permutation nonzeros (semi-local score queries).

A semi-local kernel answers score queries through dominance counts

    count(i, j) = #{ (s, e) nonzero : s >= i, e < j }.

The paper notes (§3, footnote 1) that storing the kernel instead of the
full score matrix H reduces memory from quadratic to linear while raising
the per-query cost from O(1) to polylogarithmic, citing range-counting
structures [5, 6, 13]. The program answers every count from one
structure, :class:`WaveletCounter` — a wavelet matrix over the column
values: O(n log n) construction, O(log n) per query, n + 1 words per
level. :func:`make_counter` builds it, and
:class:`repro.core.kernel.SemiLocalKernel` calls that on its first probe.

Two more structures answer the same probe and serve as references for
tests and benchmarks; the program never builds them:

- :class:`DominanceCounter` — a merge-sort tree (Bentley-style
  multidimensional divide-and-conquer [5]): O(n log n) construction,
  O(log^2 n) per query, O(n log n) memory;
- :class:`DenseCounter` — an explicit (n+1) x (n+1) prefix-count matrix:
  O(n^2) construction and memory, O(1) queries; the tests' oracle.

All share one two-method interface:

- ``count(i, j)`` — one scalar probe;
- ``count_many(i_arr, j_arr)`` — a *batched* probe carrying every query
  through the structure at once. For the wavelet matrix this is one
  vectorized level descent (O(log n) levels of O(k) NumPy work for k
  queries); for the merge-sort tree it is a batched canonical-block
  decomposition costing one ``np.searchsorted`` per level. Array-valued
  score queries (all-prefix, all-suffix, windowed LCS) reduce to one
  ``count_many`` call instead of k Python descents.

A built wavelet matrix serializes (:func:`counter_to_bytes` /
:func:`counter_from_bytes`, versioned header) so a
:class:`~repro.checkpoint.store.KernelStore` can persist its levels
alongside the kernel permutation and a disk cache hit skips the
O(n log n) construction, not just the comb.
"""

from __future__ import annotations

import struct

import numpy as np

from ..types import PermArray

__all__ = [
    "COUNTER_FORMAT",
    "DenseCounter",
    "DominanceCounter",
    "WaveletCounter",
    "counter_from_bytes",
    "counter_to_bytes",
    "make_counter",
    "resolve_counter_kind",
]

#: Version tag of the :func:`counter_to_bytes` payload; bump to
#: invalidate every previously persisted counter.
COUNTER_FORMAT = 1

_COUNTER_MAGIC = b"RPCT"


def _as_query_arrays(i_arr, j_arr, n: int):
    """Broadcast, clamp to ``[0, n]`` and flatten one batch of queries;
    returns ``(i, j, shape)`` with ``shape`` the broadcast result shape."""
    i = np.asarray(i_arr, dtype=np.int64)
    j = np.asarray(j_arr, dtype=np.int64)
    i, j = np.broadcast_arrays(i, j)
    shape = i.shape
    i = np.clip(i.ravel(), 0, n)
    j = np.clip(j.ravel(), 0, n)
    return i, j, shape


class DenseCounter:
    """Explicit dominance-count matrix; O(1) queries, O(n^2) memory.

    The tests' reference for the other structures."""

    kind = "dense"

    def __init__(self, rows_to_cols: PermArray):
        p = np.asarray(rows_to_cols, dtype=np.int64)
        n = p.size
        self._n = n
        # table[i, j] = #{r >= i, p[r] < j}
        table = np.zeros((n + 1, n + 1), dtype=np.int64)
        if n:
            indicator = (p[:, None] < np.arange(n + 1)[None, :]).astype(np.int64)
            table[:n] = indicator[::-1].cumsum(axis=0)[::-1]
        self._table = table

    @property
    def n(self) -> int:
        return self._n

    def count(self, i: int, j: int) -> int:
        """#{(s, e) : s >= i, e < j}; arguments clamped to [0, n]."""
        n = self._n
        i = min(max(i, 0), n)
        j = min(max(j, 0), n)
        return int(self._table[i, j])

    def count_many(self, i_arr, j_arr) -> np.ndarray:
        """Vectorized batch of counts (clamped like :meth:`count`)."""
        i, j, shape = _as_query_arrays(i_arr, j_arr, self._n)
        return self._table[i, j].reshape(shape)


class DominanceCounter:
    """Merge-sort tree over the permutation's rows.

    Node ``v`` covers a contiguous row interval and stores the *sorted*
    column values of the nonzeros in those rows. A scalar query
    decomposes the row range ``[i, n)`` into O(log n) canonical nodes and
    binary-searches each sorted column list for ``< j``, giving
    O(log^2 n) per query with O(n log n) total memory — linear-memory
    semi-local LCS as promised by the paper.

    The tree is stored iteratively, bottom-up, as a list of levels; level
    arrays are built by pairwise NumPy merges so construction is
    O(n log n) with vectorized inner work. The top level is the fully
    sorted array (one block).

    :meth:`count_many` batches k queries with **one searchsorted per
    level**: ``count(i, j) = count([0, n), j) - count([0, i), j)`` and
    the prefix ``[0, i)`` decomposes into exactly one aligned canonical
    block per set bit of ``i``. Keying each level's values by their
    block index (``block * (n + 1) + value``) makes the whole level one
    globally sorted array, so all k block searches at a level collapse
    into a single vectorized ``np.searchsorted``.
    """

    kind = "merge-sort-tree"

    def __init__(self, rows_to_cols: PermArray):
        p = np.asarray(rows_to_cols, dtype=np.int64)
        self._n = int(p.size)
        # levels[0] = leaf values (size-1 blocks); levels[k] = sorted blocks
        # of size 2^k (last block possibly ragged).
        self._levels: list[np.ndarray] = []
        if self._n == 0:
            self._keyed: list[np.ndarray] = []
            return
        level = p.copy()
        self._levels.append(level)
        block = 1
        while block < self._n:
            prev = self._levels[-1]
            nxt = prev.copy()
            # merge adjacent sorted blocks of size `block` pairwise
            for start in range(0, self._n, 2 * block):
                mid = min(start + block, self._n)
                end = min(start + 2 * block, self._n)
                if mid < end:
                    merged = np.concatenate([prev[start:mid], prev[mid:end]])
                    merged.sort(kind="mergesort")
                    nxt[start:end] = merged
            self._levels.append(nxt)
            block *= 2
        # per level, the block-keyed view block_idx * (n+1) + value:
        # globally sorted, which is what lets count_many answer every
        # query's level-k block with one searchsorted
        pos = np.arange(self._n, dtype=np.int64)
        self._keyed = [
            (pos >> k) * (self._n + 1) + lvl for k, lvl in enumerate(self._levels)
        ]

    @property
    def n(self) -> int:
        return self._n

    def count(self, i: int, j: int) -> int:
        """#{(s, e) : s >= i, e < j} in O(log^2 n)."""
        n = self._n
        i = min(max(i, 0), n)
        j = min(max(j, 0), n)
        if i >= n or j <= 0:
            return 0
        total = 0
        # decompose [i, n) into canonical blocks, largest first
        pos = i
        while pos < n:
            # largest block size aligned at pos that fits in [pos, n)
            max_level = len(self._levels) - 1
            size = 1 << max_level
            while size > n - pos or pos % size != 0:
                size >>= 1
            level = size.bit_length() - 1
            block_arr = self._levels[level][pos : pos + size]
            total += int(np.searchsorted(block_arr, j, side="left"))
            pos += size
        return total

    def count_many(self, i_arr, j_arr) -> np.ndarray:
        """Batch of counts: one vectorized searchsorted per tree level."""
        i, j, shape = _as_query_arrays(i_arr, j_arr, self._n)
        n = self._n
        if n == 0 or i.size == 0:
            return np.zeros(shape, dtype=np.int64)
        # whole-range count from the fully sorted top level...
        total = np.searchsorted(self._levels[-1], j, side="left")
        # ...minus the prefix [0, i): one aligned block per set bit of i
        for k, keyed in enumerate(self._keyed):
            bit = ((i >> k) & 1).astype(bool)
            if not bit.any():
                continue
            start = (i >> (k + 1)) << (k + 1)  # block start, multiple of 2^k
            keys = (start >> k) * (n + 1) + j
            in_block = np.searchsorted(keyed, keys, side="left") - start
            total = total - np.where(bit, in_block, 0)
        return total.reshape(shape)


class WaveletCounter:
    """Wavelet *matrix* over the permutation's column values.

    The third flavour of range-counting structure the paper's footnote 1
    alludes to [5, 6, 13]. Each level partitions the whole sequence
    stably by one value bit (most significant first) and stores the
    prefix counts of 0-bits; a query ``#{s >= i, e < j}`` descends the
    levels once, mapping its position segment with two rank lookups per
    level — O(log n) per query (no binary searches, unlike the
    merge-sort tree's O(log^2 n)), O(n log n) words of storage.

    In a wavelet matrix (Claude-Navarro-Ordóñez layout) the partition is
    *global* rather than per-node, so position mapping uses global ranks
    plus the level's total count of 0-bits — which is what makes the
    NumPy construction three lines per level. The same globality makes
    :meth:`count_many` a *single* vectorized descent: all k queries ride
    the levels together as ``lo``/``hi`` vectors fancy-indexed into each
    level's ``prefix_zeros``, split on their own j-bit by ``np.where`` —
    O(log n) levels of O(k) NumPy work instead of k Python descents.
    """

    kind = "wavelet"

    def __init__(self, rows_to_cols: PermArray):
        p = np.asarray(rows_to_cols, dtype=np.int64)
        self._n = int(p.size)
        #: per level: (prefix counts of 0-bits, total 0-bits)
        self._levels: list[tuple[np.ndarray, int]] = []
        if self._n == 0:
            self._bits = 0
            return
        self._bits = max(1, int(self._n - 1).bit_length())
        seq = p
        for level in range(self._bits - 1, -1, -1):
            zero_bit = ((seq >> level) & 1) == 0
            prefix_zeros = np.concatenate([[0], np.cumsum(zero_bit)])
            self._levels.append((prefix_zeros, int(prefix_zeros[-1])))
            seq = np.concatenate([seq[zero_bit], seq[~zero_bit]])

    @property
    def n(self) -> int:
        return self._n

    def count(self, i: int, j: int) -> int:
        """#{(s, e) : s >= i, e < j} in O(log n)."""
        n = self._n
        i = min(max(i, 0), n)
        j = min(max(j, 0), n)
        if i >= n or j <= 0:
            return 0
        if j >= n:
            return n - i
        total = 0
        lo, hi = i, n
        for depth, (prefix_zeros, total_zeros) in enumerate(self._levels):
            if lo >= hi:
                break
            level = self._bits - 1 - depth
            zeros_lo = int(prefix_zeros[lo])
            zeros_hi = int(prefix_zeros[hi])
            if (j >> level) & 1:
                # all 0-bit elements in the segment have this bit < j's
                total += zeros_hi - zeros_lo
                lo = total_zeros + (lo - zeros_lo)
                hi = total_zeros + (hi - zeros_hi)
            else:
                lo = zeros_lo
                hi = zeros_hi
        return total

    def count_many(self, i_arr, j_arr) -> np.ndarray:
        """Batch of counts: one vectorized level descent for all queries.

        Queries whose segment empties (``lo == hi``) keep riding the
        descent as zero-width segments — every further level maps them to
        another zero-width segment and contributes 0, so no masking or
        early exit is needed for correctness.
        """
        i, j, shape = _as_query_arrays(i_arr, j_arr, self._n)
        n = self._n
        out = np.zeros(i.size, dtype=np.int64)
        if n == 0 or i.size == 0:
            return out.reshape(shape)
        full = j >= n  # e < n holds for every nonzero: closed form
        out[full] = n - i[full]
        active = ~full & (i < n) & (j > 0)
        if active.any():
            lo = i[active]
            hi = np.full(lo.size, n, dtype=np.int64)
            jj = j[active]
            total = np.zeros(lo.size, dtype=np.int64)
            for depth, (prefix_zeros, total_zeros) in enumerate(self._levels):
                level = self._bits - 1 - depth
                zeros_lo = prefix_zeros[lo]
                zeros_hi = prefix_zeros[hi]
                bit = ((jj >> level) & 1).astype(bool)
                total += np.where(bit, zeros_hi - zeros_lo, 0)
                lo = np.where(bit, total_zeros + (lo - zeros_lo), zeros_lo)
                hi = np.where(bit, total_zeros + (hi - zeros_hi), zeros_hi)
            out[active] = total
        return out.reshape(shape)


def resolve_counter_kind(size: int) -> str:
    """The kind of counter :func:`make_counter` builds for a kernel of
    order *size*: the wavelet matrix, whatever the size."""
    return WaveletCounter.kind


def make_counter(rows_to_cols: PermArray) -> WaveletCounter:
    """The dominance counter of a kernel permutation: its wavelet matrix."""
    return WaveletCounter(rows_to_cols)


# -- persistence --------------------------------------------------------

_WAVELET_CODE = 2  # code 1 was the merge-sort tree, no longer persisted
_HEADER = struct.Struct("<4sIIq")  # magic, format, kind code, n


def counter_to_bytes(counter) -> bytes | None:
    """Serialize a built wavelet matrix's levels (versioned payload).

    Returns ``None`` for any other structure: the program persists only
    the counter it builds.
    """
    if getattr(counter, "kind", None) != WaveletCounter.kind:
        return None
    parts = [
        _HEADER.pack(_COUNTER_MAGIC, COUNTER_FORMAT, _WAVELET_CODE, counter.n),
        struct.pack("<I", counter._bits),
    ]
    for prefix_zeros, _total in counter._levels:
        parts.append(np.ascontiguousarray(prefix_zeros, dtype="<i8").tobytes())
    return b"".join(parts)


def counter_from_bytes(data: bytes) -> WaveletCounter:
    """Rebuild a wavelet matrix from :func:`counter_to_bytes` output
    without re-running the O(n log n) construction. Raises
    :class:`ValueError` on any malformed, truncated or version-mismatched
    payload, and on a payload of another kind (a merge-sort tree written
    by an older version); callers treat that as "no persisted counter"
    and rebuild."""
    if len(data) < _HEADER.size + 4:
        raise ValueError("counter payload truncated before its level count")
    magic, fmt, code, n = _HEADER.unpack_from(data, 0)
    if magic != _COUNTER_MAGIC:
        raise ValueError("counter payload has wrong magic")
    if fmt != COUNTER_FORMAT:
        raise ValueError(f"counter payload format {fmt} != {COUNTER_FORMAT}")
    if code != _WAVELET_CODE or n < 0:
        raise ValueError(f"counter payload has invalid kind code {code} / n {n}")
    off = _HEADER.size
    (count,) = struct.unpack_from("<I", data, off)
    off += 4
    expected = max(1, (n - 1).bit_length()) if n else 0
    if count != expected:
        raise ValueError(f"wavelet level count {count} != {expected}")
    if len(data) != off + 8 * (n + 1) * count:
        raise ValueError("counter payload is truncated or has trailing bytes")
    counter = WaveletCounter.__new__(WaveletCounter)
    counter._n = n
    counter._bits = count
    counter._levels = []
    for _ in range(count):
        pz = np.frombuffer(data, dtype="<i8", count=n + 1, offset=off).astype(np.int64)
        counter._levels.append((pz, int(pz[-1])))
        off += 8 * (n + 1)
    return counter
