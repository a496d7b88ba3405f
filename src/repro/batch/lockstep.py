"""Cross-query lockstep combing: one wavefront sweep, many grids.

The anti-diagonal SIMD comber (:func:`repro.core.combing.iterative.
iterative_combing_antidiag_simd`) pays one Python/NumPy dispatch per
anti-diagonal of *one* grid. For a batch of B independent same-shape
problems the same wavefront structure vectorizes *across* queries:
strand arrays gain a trailing lane axis — ``h`` is ``(M, B)``, ``v`` is
``(N, B)`` — and each anti-diagonal update combs the corresponding cell
of all B grids in one element-wise operation, turning ``O(B * diags)``
dispatches into ``O(diags)``.

Layout is positions-major ``(positions, lanes)``: each diagonal touches
a contiguous row slice of ``h``/``v``, so every inner-loop operand is a
contiguous 2-D block.

Ragged lanes (the common case) are padded to the bucket shape ``(M, N)``
with *validity masks*, the same discipline as
:mod:`repro.core.bitparallel.words`: lane ``k`` with real shape
``(m_k, n_k)`` stores ``a`` reversed at the *bottom* of its column
(rows ``M - m_k ..``) and ``b`` at the *left* (columns ``0 .. n_k``),
and the combing condition is AND-ed with ``h_valid & b_valid`` so
padding cells never swap. Because strand ids initialize positionally,
the padded run is exactly the real run with every strand id shifted by
``M - m_k`` — extraction subtracts the shift back out. Padding
character values are irrelevant (matches at invalid cells are masked),
so no sentinel symbol is needed and negative codes are safe.

Every blend runs the single-pair comber's anti-diagonal code on the 2-D
strands: the default ``arith`` is the kernel
:func:`~repro.core.combing.iterative.comb_antidiagonals`, the others its
§4.1 select idioms.
"""

from __future__ import annotations

import numpy as np

from ..core.combing.iterative import (
    _antidiag_ranges,
    _comb_region_simd,
    _extract_kernel,
    strand_dtype,
)

#: lane blends supported by :func:`comb_lockstep`
BATCH_BLENDS = ("where", "masked", "arith", "bitwise", "minmax")


#: strand dtype of a bucket of shape ``(M, N)``: the single-pair rule
lockstep_strand_dtype = strand_dtype


def code_dtype_for(pairs) -> np.dtype:
    """Smallest signed integer dtype holding every code of *pairs*."""
    lo = 0
    hi = 0
    for ca, cb in pairs:
        for c in (ca, cb):
            if c.size:
                lo = min(lo, int(c.min()))
                hi = max(hi, int(c.max()))
    for dt in (np.int16, np.int32):
        info = np.iinfo(dt)
        if info.min <= lo and hi <= info.max:
            return np.dtype(dt)
    return np.dtype(np.int64)


def pack_lanes(
    pairs,
    M: int,
    N: int,
    *,
    alloc=None,
):
    """Pack oriented encoded *pairs* (each ``m <= n``, both nonempty) into
    lane stacks for :func:`comb_lockstep`.

    Returns ``(a_rev, b_codes, h_valid, b_valid, lane_m, lane_n)``;
    ``h_valid``/``b_valid`` are ``None`` for a uniform batch (every lane
    exactly ``(M, N)``). *alloc* supplies the four big arrays (e.g. from
    a shared-memory slab pool); it may return uninitialized memory — the
    packing fully initializes every cell the kernels read.
    """
    if alloc is None:
        alloc = lambda shape, dtype: np.empty(shape, dtype=dtype)  # noqa: E731
    B = len(pairs)
    code_dt = code_dtype_for(pairs)
    a_rev = alloc((M, B), code_dt)
    b_codes = alloc((N, B), code_dt)
    lane_m = np.empty(B, dtype=np.int64)
    lane_n = np.empty(B, dtype=np.int64)
    uniform = all(ca.size == M and cb.size == N for ca, cb in pairs)
    if uniform:
        h_valid = b_valid = None
    else:
        h_valid = alloc((M, B), np.bool_)
        b_valid = alloc((N, B), np.bool_)
        h_valid[...] = False
        b_valid[...] = False
        # padding codes are never compared (validity gates every match),
        # but slab memory arrives dirty — zero for reproducible bytes
        a_rev[...] = 0
        b_codes[...] = 0
    for k, (ca, cb) in enumerate(pairs):
        m, n = ca.size, cb.size
        a_rev[M - m :, k] = ca[::-1]
        b_codes[:n, k] = cb
        if h_valid is not None:
            h_valid[M - m :, k] = True
            b_valid[:n, k] = True
        lane_m[k] = m
        lane_n[k] = n
    return a_rev, b_codes, h_valid, b_valid, lane_m, lane_n


def _lane_scores(v, b_valid, lane_n, M: int) -> np.ndarray:
    """Per-lane LCS scores straight from the final vertical strands.

    A strand exiting the bottom edge at column ``j < n_k`` with (real)
    start id ``>= m_k`` witnesses one unit of distance; in padded
    coordinates that is exactly ``v >= M`` (real ids are shifted by
    ``M - m_k``, so ``real >= m_k  <=>  padded >= M``). Hence
    ``score_k = n_k - #(v[:, k] >= M valid)``.
    """
    cross = v >= v.dtype.type(M)
    if b_valid is not None:
        cross &= b_valid
    return (lane_n - cross.sum(axis=0, dtype=np.int64)).astype(np.int64)


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


def comb_lockstep(
    a_rev,
    b_codes,
    h_valid,
    b_valid,
    lane_m,
    lane_n,
    blend: str = "arith",
    use_16bit: bool = True,
    want: str = "kernels",
):
    """Comb B independent grids in lockstep (module-level, picklable —
    this is the worker function batch rounds ship to processes).

    Inputs are the stacks produced by :func:`pack_lanes`. Returns a
    ``(B, M + N)`` kernel stack (``want="kernels"``; lane ``k`` uses the
    first ``m_k + n_k`` entries) or a ``(B,)`` int64 score vector
    (``want="scores"``).
    """
    if blend not in BATCH_BLENDS:
        raise ValueError(f"unknown blend {blend!r}; available: {BATCH_BLENDS}")
    if want not in ("kernels", "scores"):
        raise ValueError(f"want must be 'kernels' or 'scores', got {want!r}")
    M, B = a_rev.shape
    N = b_codes.shape[0]
    dt = strand_dtype(M, N, use_16bit)
    h = np.empty((M, B), dtype=dt)
    v = np.empty((N, B), dtype=dt)
    h[:] = np.arange(M, dtype=dt)[:, None]
    v[:] = np.arange(M, M + N, dtype=dt)[:, None]
    _comb_region_simd(a_rev, b_codes, h, v, _antidiag_ranges(M, N), blend, h_valid, b_valid)
    if want == "scores":
        return _lane_scores(v, b_valid, lane_n, M)
    return _lane_kernels(h, v, lane_m, lane_n, M, N)
