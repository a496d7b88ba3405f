"""Blocked bit-parallel LCS (paper Listing 8).

The ``m_pad x n_pad`` grid is tiled into ``w x w`` blocks. Blocks are
processed in block-anti-diagonal order; all blocks of one block-anti-
diagonal are mutually independent and are processed as *one batch of
NumPy word operations* — the SIMD/thread parallelism of the paper mapped
onto array lanes. Within a block, the ``2w - 1`` cell anti-diagonals are
swept with shifts: the upper-left triangle right-shifts ``h``/``a``
against ``v``/``b``, the lower-right triangle left-shifts (footnote 9).

Variants:

- ``old``: words are gathered from / scattered to the big arrays on
  every one of the ``2w - 1`` inner steps (the extra memory traffic and
  false sharing the paper's first optimization removes);
- ``new1``: gather once per block batch, run the inner loop on locals,
  scatter once (memory-access optimization, original formula);
- ``new2``: ``new1`` plus the optimized Boolean update — the 12-operation
  formula for ``v``, the XOR-patch update ``h ^= (v ^ v') << k``, and the
  negated-``a`` encoding that folds one negation into packing.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ...alphabet import encode, to_binary
from ...errors import ShapeMismatchError
from ...obs import get_metrics
from ...types import Sequenceish
from .words import (
    MAX_WIDTH,
    WORD_DTYPE,
    pack_a_words,
    pack_b_words,
    popcount_words,
    word_mask,
)

Variant = Literal["old", "new1", "new2"]

_U = WORD_DTYPE


def _triangle_masks(w: int) -> list[tuple[int, bool, np.uint64]]:
    """Per-inner-step ``(shift, is_upper_left, anti-diagonal mask)``.

    Step ``t`` (0-based) processes cells with ``i_local + j_local == t``;
    active ``j_local`` bits are ``[0, t]`` in the upper-left triangle and
    ``[t - w + 1, w - 1]`` in the lower-right one.
    """
    steps = []
    full = int(word_mask(w))
    for t in range(2 * w - 1):
        if t <= w - 1:
            sh = w - 1 - t
            mask = (1 << (t + 1)) - 1
            steps.append((sh, True, _U(mask)))
        else:
            sh = t - w + 1
            mask = (full >> sh) << sh
            steps.append((sh, False, _U(mask & full)))
    return steps


def bit_lcs(
    a: Sequenceish,
    b: Sequenceish,
    *,
    variant: Variant = "new2",
    w: int = MAX_WIDTH,
) -> int:
    """LCS score of two binary strings by bit-parallel combing.

    O(mn / w) word operations; only Boolean logic and shifts, no integer
    arithmetic and no precomputed tables.
    """
    ca = to_binary(a) if isinstance(a, str) else encode(a)
    cb = to_binary(b) if isinstance(b, str) else encode(b)
    m, n = ca.size, cb.size
    if m == 0 or n == 0:
        return 0
    get_metrics().inc("bitparallel.calls", 1)
    a_words, a_valid, m_pad = pack_a_words(ca, w)
    b_words, b_valid, n_pad = pack_b_words(cb, w)
    ma = a_words.size
    nb = b_words.size
    h = np.full(ma, word_mask(w), dtype=WORD_DTYPE)
    v = np.zeros(nb, dtype=WORD_DTYPE)
    steps = _triangle_masks(w)
    wmask = word_mask(w)
    use_new2 = variant == "new2"
    if use_new2:
        a_words = (~a_words) & wmask  # negated-a encoding (third optimization)

    gather_each_step = variant == "old"

    for d in range(ma + nb - 1):
        i_lo = max(0, d - nb + 1)
        i_hi = min(ma - 1, d)
        blk_i = np.arange(i_lo, i_hi + 1)  # block rows, top-down
        blk_j = d - blk_i  # block columns
        ls = ma - 1 - blk_i  # h/a word indices (reversed layout)
        js = blk_j  # v/b word indices

        if not gather_each_step:
            hv = h[ls]
            vv = v[js]
            av = a_words[ls]
            bv = b_words[js]
            mh = a_valid[ls]
            mv = b_valid[js]

        for sh, upper, mask in steps:
            if gather_each_step:
                hv = h[ls]
                vv = v[js]
                av = a_words[ls]
                bv = b_words[js]
                mh = a_valid[ls]
                mv = b_valid[js]
            shift = _U(sh)
            if upper:
                hs = hv >> shift
                as_ = av >> shift
                mfull = mask & (mh >> shift) & mv
            else:
                hs = (hv << shift) & wmask
                as_ = (av << shift) & wmask
                mfull = mask & ((mh << shift) & wmask) & mv
            if use_new2:
                s = as_ ^ bv  # a already negated: s = ~(a ^ b)
                vv_old = vv
                vv = (hs | (~mfull & wmask)) & (vv | (s & mfull))
                patch = vv ^ vv_old
                if upper:
                    hv = hv ^ ((patch << shift) & wmask)
                else:
                    hv = hv ^ (patch >> shift)
            else:
                s = (~(as_ ^ bv)) & wmask
                c = mfull & (s | ((~hs & wmask) & vv))
                vv_old = vv
                vv = ((~c & wmask) & vv) | (c & hs)
                if upper:
                    cb_ = (c << shift) & wmask
                    hv = ((~cb_ & wmask) & hv) | (cb_ & ((vv_old << shift) & wmask))
                else:
                    cb_ = c >> shift
                    hv = ((~cb_ & wmask) & hv) | (cb_ & (vv_old >> shift))
            if gather_each_step:
                h[ls] = hv
                v[js] = vv

        if not gather_each_step:
            h[ls] = hv
            v[js] = vv

    return m_pad - popcount_words(h, w)
