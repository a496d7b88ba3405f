"""Cross-query lockstep combing: one wavefront sweep, many grids.

The anti-diagonal SIMD comber (:func:`repro.core.combing.iterative.
iterative_combing_antidiag_simd`) pays one Python/NumPy dispatch per
anti-diagonal of *one* grid. For a batch of B independent problems the
same wavefront structure vectorizes *across* queries: strand arrays gain
a trailing lane axis — ``h`` is ``(M, B)``, ``v`` is ``(N, B)`` — and
each anti-diagonal update combs the corresponding cell of all B grids in
one element-wise operation, turning ``O(B * diags)`` dispatches into
``O(diags)``.

Layout is positions-major ``(positions, lanes)``: each diagonal touches
a contiguous row slice of ``h``/``v``, so every inner-loop operand is a
contiguous 2-D block.

Ragged lanes (the common case) are padded to the megabatch shape
``(M, N)``: lane ``k`` with real shape ``(m_k, n_k)`` stores ``a``
reversed at the *bottom* of its column (rows ``M - m_k ..``) and ``b``
at the *left* (columns ``0 .. n_k``), so its real cells are the top-left
``m_k x n_k`` corner of the padded grid. The padding holds two sentinel
codes that no letter of the megabatch has (:func:`pad_codes`), one for
``a`` and one for ``b``, so a padding cell never matches. Nor does
``h > v`` ever fire on one (Krusche and Tiskin's comparator view: its
inputs arrive already sorted):

- a padding row's horizontal strand keeps its start id, which is below
  ``M - m_k``, so it is smaller than any strand that can come down a
  column;
- a padding column's vertical strand keeps its start id, at least
  ``M + n_k``, so it is larger than any strand that can arrive along a
  row.

Padding cells therefore never swap and need no mask. Because strand ids
initialize positionally, the padded run is exactly the real run with
every strand id shifted by ``M - m_k`` — extraction subtracts the shift
back out.

Lanes run the single-pair comber's anti-diagonal kernel,
:func:`~repro.core.combing.iterative.comb_antidiagonals`, on the 2-D
strands, which take the single-pair strand dtype
(:func:`~repro.core.combing.iterative.strand_dtype` of the megabatch
shape).
"""

from __future__ import annotations

import itertools

import numpy as np

from ..core.combing import iterative
from ..core.combing.iterative import _antidiag_ranges, _extract_kernel, strand_dtype


#: strand dtype of a megabatch of shape ``(M, N)``: the single-pair rule
lockstep_strand_dtype = strand_dtype


def pad_codes(pairs) -> tuple[np.dtype, int, int]:
    """The code dtype and the two padding codes of a megabatch of *pairs*.

    The pads (one for ``a``, one for ``b``) are two distinct values that
    no letter of *pairs* has, so a padding cell never matches: the two
    just below the smallest letter, or, where those would leave int64,
    the two smallest values no letter takes. The dtype is the smallest
    signed integer dtype holding every letter and both pads.
    """
    codes = np.concatenate([c for pair in pairs for c in pair] or [np.zeros(0, np.int64)])
    lo, hi = (int(codes.min()), int(codes.max())) if codes.size else (0, 0)
    if lo - 2 < np.iinfo(np.int64).min:
        taken = set(codes.tolist())
        free = (x for x in itertools.count(lo) if x not in taken)
        return np.dtype(np.int64), next(free), next(free)
    for dt in (np.int16, np.int32):
        info = np.iinfo(dt)
        if info.min <= lo - 2 and hi <= info.max:
            return np.dtype(dt), lo - 1, lo - 2
    return np.dtype(np.int64), lo - 1, lo - 2


def pack_lanes(
    pairs,
    M: int,
    N: int,
    *,
    alloc=None,
):
    """Pack encoded *pairs* (lane ``k`` of shape ``m_k <= M``, ``n_k <=
    N``) into lane stacks for :func:`comb_lockstep`.

    Returns ``(a_rev, b_codes, lane_m, lane_n)``. Every cell outside a
    lane's real strings holds that side's padding code
    (:func:`pad_codes`). *alloc* supplies the two big arrays (e.g. from a
    shared-memory slab pool); it may return uninitialized memory — the
    packing writes every cell.
    """
    if alloc is None:
        alloc = lambda shape, dtype: np.empty(shape, dtype=dtype)  # noqa: E731
    B = len(pairs)
    code_dt, pad_a, pad_b = pad_codes(pairs)
    a_rev = alloc((M, B), code_dt)
    b_codes = alloc((N, B), code_dt)
    a_rev[...] = pad_a
    b_codes[...] = pad_b
    lane_m = np.empty(B, dtype=np.int64)
    lane_n = np.empty(B, dtype=np.int64)
    for k, (ca, cb) in enumerate(pairs):
        m, n = ca.size, cb.size
        a_rev[M - m :, k] = ca[::-1]
        b_codes[:n, k] = cb
        lane_m[k] = m
        lane_n[k] = n
    return a_rev, b_codes, lane_m, lane_n


def _lane_scores(v, lane_n, M: int) -> np.ndarray:
    """Per-lane LCS scores straight from the final vertical strands.

    A strand exiting the bottom edge at column ``j < n_k`` with (real)
    start id ``>= m_k`` witnesses one unit of distance; in padded
    coordinates that is exactly ``v >= M`` (real ids are shifted by
    ``M - m_k``, so ``real >= m_k  <=>  padded >= M``). Padding columns
    keep their own strands (``>= M``) and are not counted. Hence
    ``score_k = n_k - #(v[j, k] >= M for j < n_k)``.
    """
    cross = v >= v.dtype.type(M)
    cross &= np.arange(v.shape[0])[:, None] < lane_n
    return lane_n - cross.sum(axis=0, dtype=np.int64)


def _lane_kernels(h, v, lane_m, lane_n, M: int, N: int) -> np.ndarray:
    """Per-lane kernel extraction into a ``(B, M + N)`` stack.

    Lane ``k``'s kernel occupies ``out[k, : m_k + n_k]``; the tail is
    zero. Real strands live in rows ``M - m_k ..`` of ``h`` and columns
    ``0 .. n_k`` of ``v``, uniformly shifted by ``M - m_k``.
    """
    B = h.shape[1]
    out_dt = strand_dtype(M, N)
    out = np.zeros((B, M + N), dtype=out_dt)
    h64 = h.astype(np.int64)
    v64 = v.astype(np.int64)
    for k in range(B):
        m = int(lane_m[k])
        n = int(lane_n[k])
        shift = M - m
        h_fin = h64[shift:, k] - shift
        v_fin = v64[:n, k] - shift
        out[k, : m + n] = _extract_kernel(h_fin, v_fin)
    return out


def comb_lockstep(a_rev, b_codes, lane_m, lane_n, want: str = "kernels"):
    """Comb B independent grids in lockstep (module-level, picklable —
    this is the worker function batch rounds ship to processes).

    Inputs are the stacks produced by :func:`pack_lanes`. Returns a
    ``(B, M + N)`` kernel stack (``want="kernels"``; lane ``k`` uses the
    first ``m_k + n_k`` entries) or a ``(B,)`` int64 score vector
    (``want="scores"``).
    """
    if want not in ("kernels", "scores"):
        raise ValueError(f"want must be 'kernels' or 'scores', got {want!r}")
    M, B = a_rev.shape
    N = b_codes.shape[0]
    dt = strand_dtype(M, N)
    h = np.empty((M, B), dtype=dt)
    v = np.empty((N, B), dtype=dt)
    h[:] = np.arange(M, dtype=dt)[:, None]
    v[:] = np.arange(M, M + N, dtype=dt)[:, None]
    iterative.comb_antidiagonals(a_rev, b_codes, h, v, _antidiag_ranges(M, N))
    if want == "scores":
        return _lane_scores(v, lane_n, M)
    return _lane_kernels(h, v, lane_m, lane_n, M, N)
