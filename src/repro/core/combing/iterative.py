"""Iterative braid combing (paper Listings 1 and 4).

The sticky braid of the ``m x n`` LCS grid has ``m + n`` strands:

- *horizontal* strands enter at the left edge; the strand of row ``i``
  (row 0 at the top) has start id ``m - 1 - i`` (ids increase bottom-up),
- *vertical* strands enter at the top edge; the strand of column ``j``
  has start id ``m + j``.

Processing cell ``(i, j)``: let ``h`` be the strand currently on the
horizontal track of row ``i`` and ``v`` the strand on the vertical track
of column ``j``. If ``a[i] == b[j]`` (match) or ``h > v`` (this pair has
crossed before), the strands must *not* cross — geometrically they bounce,
which in the track arrays is a swap. Otherwise they cross (pass through,
no swap). Processing cells in any order compatible with the left-to-right /
top-to-bottom dependencies yields the reduced braid, i.e. the semi-local
kernel ``P_{a,b}``: a permutation mapping strand start positions (left
edge bottom-up ``0..m-1``, then top edge ``m..m+n-1``) to end positions
(bottom edge ``0..n-1``, then right edge bottom-up ``n..n+m-1``).

Variants implemented here:

- :func:`iterative_combing_rowmajor` — Listing 1, pure scalar loops
  (``semi_rowmajor``); the most obviously-correct version.
- :func:`iterative_combing_antidiag` — Listing 4's anti-diagonal order
  with a scalar, *branching* inner loop (``semi_antidiag``).
- :func:`iterative_combing_antidiag_simd` — anti-diagonal order with a
  branchless vectorized inner loop (``semi_antidiag_SIMD``). By default it
  runs :func:`comb_antidiagonals` on ``uint16`` strands whenever the
  ``m + n`` strand ids fit (:func:`strand_dtype`); ``blend`` selects one
  of the paper's §4.1 select idioms instead and ``dtype`` /
  ``use_16bit_when_possible`` pick the strand width (the ablations).
- :func:`iterative_combing_load_balanced` — the three-phase variant
  (``semi_load_balanced``): each phase combed as an independent sub-braid,
  converted to cut coordinates and recombined with sticky braid
  multiplication (Fig. 2 of the paper).

:func:`comb_antidiagonals` is the one anti-diagonal kernel: the
single-pair, load-balanced, hybrid, parallel and lockstep combers all run
their default ``blend="arith"`` through it.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ...alphabet import encode
from ...obs import get_metrics, get_tracer, phase
from ...types import CodeArray, PermArray, Sequenceish
from ..compose import flip_kernel

BlendKind = Literal["where", "masked", "arith", "bitwise", "minmax"]

_UNSIGNED_LIMIT_16 = 2**16 - 1


def _encode_pair(a: Sequenceish, b: Sequenceish) -> tuple[CodeArray, CodeArray]:
    return encode(a), encode(b)


def _extract_kernel(h_strands: PermArray, v_strands: PermArray) -> PermArray:
    """Phase 3 of Listing 1: map strand start ids to end positions."""
    m, n = len(h_strands), len(v_strands)
    kernel = np.empty(m + n, dtype=np.int64)
    kernel[np.asarray(h_strands, dtype=np.int64)] = n + np.arange(m)
    kernel[np.asarray(v_strands, dtype=np.int64)] = np.arange(n)
    return kernel


def iterative_combing_rowmajor(a: Sequenceish, b: Sequenceish) -> PermArray:
    """Listing 1: row-major scalar combing. Returns the kernel ``P_{a,b}``.

    O(mn) time with Python-level loops — the readable reference
    implementation (and oracle for everything else).
    """
    ca, cb = _encode_pair(a, b)
    m, n = ca.size, cb.size
    h_strands = list(range(m))
    v_strands = list(range(m, m + n))
    al = ca.tolist()
    bl = cb.tolist()
    for i in range(m):
        hi = m - 1 - i
        ai = al[i]
        h = h_strands[hi]
        for j in range(n):
            v = v_strands[j]
            if ai == bl[j] or h > v:
                # bounce: the horizontal strand continues downwards
                v_strands[j] = h
                h = v
        h_strands[hi] = h
    return _extract_kernel(np.asarray(h_strands), np.asarray(v_strands))


def _antidiag_ranges(m: int, n: int, d_lo: int = 0, d_hi: int | None = None):
    """``(length, h_lo, v_lo)`` for each of the anti-diagonals
    ``d_lo <= d < d_hi`` of an ``m x n`` grid (all ``m + n - 1`` of them
    by default; for ``m <= n`` these are Listing 4's growing, full-length
    and shrinking phases).

    ``h_lo``/``v_lo`` index into ``h_strands``/``v_strands``; cell ``k`` of
    the anti-diagonal touches ``h_strands[h_lo + k]`` and
    ``v_strands[v_lo + k]``.
    """
    # built as arrays and walked as lists: cheaper per anti-diagonal than
    # any Python-level generator
    d = np.arange(d_lo, m + n - 1 if d_hi is None else d_hi)
    i_hi = np.minimum(d, m - 1)
    i_lo = np.maximum(d - n + 1, 0)
    return zip((i_hi - i_lo + 1).tolist(), (m - 1 - i_hi).tolist(), (d - i_hi).tolist())


def iterative_combing_antidiag(a: Sequenceish, b: Sequenceish) -> PermArray:
    """Listing 4's anti-diagonal order with a scalar branching inner loop
    (``semi_antidiag``). Sequential; exists to measure the cost of the
    wavefront order without SIMD."""
    ca, cb = _encode_pair(a, b)
    if ca.size > cb.size:
        return flip_kernel(iterative_combing_antidiag(cb, ca))
    m, n = ca.size, cb.size
    if m == 0 or n == 0:
        return np.arange(m + n, dtype=np.int64)
    a_rev = ca[::-1].tolist()  # a_rev[l] = a[m-1-l]: consecutive access
    bl = cb.tolist()
    h_strands = list(range(m))
    v_strands = list(range(m, m + n))
    for length, h_lo, v_lo in _antidiag_ranges(m, n):
        for k in range(length):
            hk = h_lo + k
            vk = v_lo + k
            h = h_strands[hk]
            v = v_strands[vk]
            if a_rev[hk] == bl[vk] or h > v:
                h_strands[hk] = v
                v_strands[vk] = h
    return _extract_kernel(np.asarray(h_strands), np.asarray(v_strands))


def _blend_where(h, v, p):
    return np.where(p, v, h), np.where(p, h, v)


def _blend_masked(h, v, p):
    new_h = h.copy()
    new_v = v.copy()
    new_h[p] = v[p]
    new_v[p] = h[p]
    return new_h, new_v


def _blend_bitwise(h, v, p):
    # p in {0, 1}: (p - 1) is all-zeros / all-ones, (-p) the complement.
    q = p.astype(h.dtype)
    lo = q - h.dtype.type(1)
    hi = -q if np.issubdtype(h.dtype, np.signedinteger) else (~q + h.dtype.type(1))
    return (h & lo) | (hi & v), (v & lo) | (hi & h)


def _minmax_select(h, v, match):
    """The AVX-512-style masked min/max update (paper §6 future work).

    The combing rule *is* a masked min/max: on a mismatch the strands
    sort themselves onto the tracks (``h' = min(h, v)``, ``v' = max``,
    covering both "cross" when ``h < v`` and "swap because crossed
    before" when ``h > v``), and on a match they swap unconditionally.
    This needs only the match mask — no ``h > v`` comparison at all,
    which is what makes the masked-min/max instructions of AVX-512 a
    "perfect match to the logic of the inner loop".
    """
    lo = np.minimum(h, v)
    hi = np.maximum(h, v)
    return np.where(match, v, lo), np.where(match, h, hi)


#: the §4.1 select idioms; ``"arith"`` is :func:`comb_antidiagonals` and
#: ``"minmax"`` the match-mask-only select of :func:`_comb_select`
_BLENDS = {
    "where": _blend_where,
    "masked": _blend_masked,
    "bitwise": _blend_bitwise,
}


def strand_dtype(m: int, n: int, use_16bit: bool = True) -> np.dtype:
    """Strand-index dtype of an ``m x n`` grid: ``uint16`` when all
    ``m + n`` strand ids fit (the paper's SIMD-width optimization; here it
    halves memory traffic and the bytes a process machine ships), else
    ``int64``."""
    if use_16bit and m + n <= _UNSIGNED_LIMIT_16:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


def antidiag_scratch(h: np.ndarray, width: int):
    """Scratch for :func:`comb_antidiagonals` on strands shaped like *h*
    whose anti-diagonals have at most *width* cells."""
    shape = (width,) + h.shape[1:]
    return np.empty(shape, np.bool_), np.empty(shape, np.bool_), np.empty(shape, h.dtype)


def comb_antidiagonals(a_rev, b, h, v, ranges, h_valid=None, b_valid=None, scratch=None) -> None:
    """The anti-diagonal kernel: comb the cells of *ranges* in place.

    Each cell is one comparator of the transposition network (Krusche and
    Tiskin): its strands swap iff ``p = match | (h > v)``. The swap is the
    branch-free arithmetic ``d = (v - h) * p; h += d; v -= d`` — exact for
    ``uint16`` strands too under modular arithmetic — written into scratch
    that is allocated once per call (or passed in, see
    :func:`antidiag_scratch`), so an anti-diagonal costs 7 NumPy
    dispatches (9 with validity masks) and no allocation.

    Strands are 1-D (one grid: ``h`` is ``(m,)``, ``v`` is ``(n,)``) or
    2-D ``(positions, lanes)`` (B grids combed in lockstep), with
    ``a_rev``/``b`` shaped alike. ``h_valid``/``b_valid`` gate the swap so
    padding cells of ragged lanes never swap. *ranges* yields ``(length,
    h_lo, v_lo)`` triples as :func:`_antidiag_ranges` does.
    """
    if scratch is None:
        scratch = antidiag_scratch(h, min(h.shape[0], v.shape[0]))
    p, q, d = scratch
    for length, h_lo, v_lo in ranges:
        h_sl = slice(h_lo, h_lo + length)
        v_sl = slice(v_lo, v_lo + length)
        hh = h[h_sl]
        vv = v[v_sl]
        pp = p[:length]
        qq = q[:length]
        dd = d[:length]
        np.equal(a_rev[h_sl], b[v_sl], out=pp)
        np.greater(hh, vv, out=qq)
        np.logical_or(pp, qq, out=pp)
        if h_valid is not None:
            np.logical_and(pp, h_valid[h_sl], out=pp)
            np.logical_and(pp, b_valid[v_sl], out=pp)
        np.subtract(vv, hh, out=dd)
        np.multiply(dd, pp, out=dd, casting="unsafe")
        np.add(hh, dd, out=hh)
        np.subtract(vv, dd, out=vv)


def _comb_select(a_rev, b, h, v, ranges, blend: str, h_valid=None, b_valid=None) -> None:
    """:func:`comb_antidiagonals` with one of the §4.1 select idioms in
    place of the arithmetic swap (the ablations; they allocate per
    anti-diagonal)."""
    minmax = blend == "minmax"
    select = None if minmax else _BLENDS[blend]
    for length, h_lo, v_lo in ranges:
        h_sl = slice(h_lo, h_lo + length)
        v_sl = slice(v_lo, v_lo + length)
        hh = h[h_sl]
        vv = v[v_sl]
        valid = None if h_valid is None else h_valid[h_sl] & b_valid[v_sl]
        if minmax:
            match = a_rev[h_sl] == b[v_sl]
            if valid is not None:
                match &= valid
            new_h, new_v = _minmax_select(hh, vv, match)
            if valid is not None:
                # min/max sorts even unmatched lanes: undo it at padding
                # cells, which must stay untouched
                invalid = ~valid
                np.copyto(new_h, hh, where=invalid)
                np.copyto(new_v, vv, where=invalid)
        else:
            cond = (a_rev[h_sl] == b[v_sl]) | (hh > vv)
            if valid is not None:
                cond &= valid
            new_h, new_v = select(hh, vv, cond)
        h[h_sl] = new_h
        v[v_sl] = new_v


def _comb_region_simd(
    a_rev: CodeArray,
    b: CodeArray,
    h_strands: np.ndarray,
    v_strands: np.ndarray,
    ranges,
    blend: BlendKind,
    h_valid=None,
    b_valid=None,
    scratch=None,
) -> None:
    """Comb the cells described by *ranges* in place: the kernel for
    ``blend="arith"``, the named select idiom otherwise."""
    if blend == "arith":
        comb_antidiagonals(a_rev, b, h_strands, v_strands, ranges, h_valid, b_valid, scratch)
    else:
        _comb_select(a_rev, b, h_strands, v_strands, ranges, blend, h_valid, b_valid)


def iterative_combing_antidiag_simd(
    a: Sequenceish,
    b: Sequenceish,
    *,
    blend: BlendKind = "arith",
    dtype=None,
    use_16bit_when_possible: bool = True,
) -> PermArray:
    """Branchless vectorized anti-diagonal combing (``semi_antidiag_SIMD``).

    Each anti-diagonal is one batch of element-wise NumPy operations — the
    Python analogue of the paper's AVX inner loop. The default
    ``blend="arith"`` is :func:`comb_antidiagonals`'s in-place arithmetic
    swap; the other values are the branch-elimination idioms of the §4.1
    ablation (``where``/``bitwise`` write everything, ``masked`` emulates
    the branching version's fewer memory writes, ``minmax`` is the §6
    masked min/max). Strand indices are ``uint16`` whenever
    ``m + n <= 2^16 - 1`` (:func:`strand_dtype`) unless
    ``use_16bit_when_possible=False``; an explicit ``dtype`` overrides
    both.
    """
    ca, cb = _encode_pair(a, b)
    if ca.size > cb.size:
        flipped = iterative_combing_antidiag_simd(
            cb, ca, blend=blend, dtype=dtype, use_16bit_when_possible=use_16bit_when_possible
        )
        return flip_kernel(flipped)
    m, n = ca.size, cb.size
    if m == 0 or n == 0:
        return np.arange(m + n, dtype=np.int64)
    metrics = get_metrics()
    metrics.inc("combing.leaf_calls", 1)
    metrics.inc("combing.leaf_cells", m * n)
    with phase("combing"), get_tracer().span("combing.leaf", args={"m": m, "n": n}):
        if dtype is None:
            dt = strand_dtype(m, n, use_16bit_when_possible)
        else:
            dt = np.dtype(dtype)
            if m + n - 1 > np.iinfo(dt).max:
                raise ValueError(f"dtype {dt} cannot hold {m + n} strand indices")
        h_strands = np.arange(m, dtype=dt)
        v_strands = np.arange(m, m + n, dtype=dt)
        a_rev = np.ascontiguousarray(ca[::-1])
        _comb_region_simd(a_rev, cb, h_strands, v_strands, _antidiag_ranges(m, n), blend)
        return _extract_kernel(h_strands, v_strands)


# ---------------------------------------------------------------------------
# Load-balanced three-phase combing (Fig. 2)
# ---------------------------------------------------------------------------


def cut_positions(d: int, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Strand positions along the staircase cut ``C_d``.

    ``C_d`` separates the processed cells ``{(i, j) : i + j < d}`` from the
    rest. Walking the cut from the bottom-left grid corner to the top-right
    one, crossings are numbered ``0..m+n-1``. Returns ``(h_pos, v_pos)``:
    ``h_pos[l]`` is the position of the horizontal track with index ``l``
    (row ``m-1-l``), ``v_pos[j]`` of the vertical track of column ``j``.

    ``C_0`` is the entry boundary (positions equal start ids) and
    ``C_{m+n-1}`` the exit boundary (positions equal kernel end indices).
    """
    ls = np.arange(m, dtype=np.int64)
    js = np.arange(n, dtype=np.int64)
    h_pos = ls + np.clip(d - m + 1 + ls, 0, n)
    v_pos = (m - 1 - np.clip(d - js - 1, -1, m - 1)) + js
    return h_pos, v_pos


def _region_braid_positions(
    a_rev: CodeArray,
    cb: CodeArray,
    d_lo: int,
    d_hi: int,
    m: int,
    n: int,
    blend: BlendKind,
) -> PermArray:
    """Comb anti-diagonals ``d_lo <= d < d_hi`` as an independent sub-braid.

    Returns the braid as a permutation in *cut coordinates*: entry cut
    ``C_{d_lo}`` positions map to exit cut ``C_{d_hi}`` positions.

    Strands are labelled by their entry-cut positions so that the combing
    rule's ``h > v`` comparison (has this pair crossed before *within this
    region*?) is evaluated in the region's own position order — with track
    ids it would be wrong for interior regions.
    """
    h_strands, v_strands = cut_positions(d_lo, m, n)
    _comb_region_simd(
        a_rev, cb, h_strands, v_strands, _antidiag_ranges(m, n, d_lo, d_hi), blend
    )
    h_out, v_out = cut_positions(d_hi, m, n)
    perm = np.empty(m + n, dtype=np.int64)
    # the strand labelled with entry position h_strands[l] sits on
    # horizontal track l, which crosses the exit cut at position h_out[l].
    perm[h_strands] = h_out
    perm[v_strands] = v_out
    return perm


def iterative_combing_load_balanced(
    a: Sequenceish,
    b: Sequenceish,
    *,
    blend: BlendKind = "arith",
    multiply=None,
) -> PermArray:
    """Three-phase load-balanced combing (``semi_load_balanced``).

    The grid is cut along the full anti-diagonals ``d = m-1`` and ``d = n``
    into the growing, constant and shrinking phases of Fig. 2. Each phase
    is combed as an independent sub-braid (phases 1 and 3 can run
    concurrently, each joint iteration touching exactly ``m`` cells), and
    the phase braids are recombined with sticky braid multiplication.

    *multiply* is the braid-multiplication routine (defaults to the
    steady-ant algorithm); injectable so benchmarks can account its share
    of the running time (Fig. 4c).
    """
    ca, cb = _encode_pair(a, b)
    if ca.size > cb.size:
        return flip_kernel(
            iterative_combing_load_balanced(cb, ca, blend=blend, multiply=multiply)
        )
    m, n = ca.size, cb.size
    if m == 0 or n == 0:
        return np.arange(m + n, dtype=np.int64)
    if multiply is None:
        from ..steady_ant import steady_ant_multiply as multiply
    with phase("combing"), get_tracer().span(
        "combing.load_balanced", args={"m": m, "n": n}
    ):
        a_rev = np.ascontiguousarray(ca[::-1])
        cuts = [0, max(0, m - 1), n, m + n - 1]
        braids = [
            _region_braid_positions(a_rev, cb, d_lo, d_hi, m, n, blend)
            for d_lo, d_hi in zip(cuts, cuts[1:])
            if d_hi > d_lo
        ]
        result = braids[0]
        for nxt in braids[1:]:
            result = multiply(result, nxt)
        return result


def lcs_score_from_kernel(kernel: PermArray, m: int, n: int) -> int:
    """Global LCS score ``LCS(a, b)`` of the ``m x n`` grid whose kernel
    is *kernel* (:meth:`repro.core.kernel.SemiLocalKernel.lcs_whole`)."""
    from ..kernel import SemiLocalKernel

    return SemiLocalKernel(kernel, m, n).lcs_whole()
