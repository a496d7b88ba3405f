"""Machine-parameterized bit-parallel LCS (paper Fig. 9 thread scaling).

The blocks of one block-anti-diagonal are mutually independent,
identical-cost items, so each block-anti-diagonal is one round: on an
in-process machine one task over the whole block-anti-diagonal, its
block count as ``items`` (a p-thread machine splits the blocks evenly
and synchronizes once per round; see
:meth:`repro.parallel.simulator.SimulatedMachine.run_round`), on a
process pool one task per worker over a contiguous span of blocks.
Every machine runs the same block update, :func:`_bit_chunk`. The ``old``
variant re-loads and writes back every word on each of the ``2w - 1``
inner steps — the extra shared-array traffic (and, on real hardware,
false sharing between threads) that the paper's memory-access
optimization removes; ``new1`` and ``new2`` touch the arrays once per
block.

Results are identical to :func:`repro.core.bitparallel.bitlcs.bit_lcs`;
the machine accounts the parallel cost.
"""

from __future__ import annotations

import functools

import numpy as np

from ...alphabet import encode, to_binary
from ...obs import get_metrics, get_tracer, phase
from ...types import Sequenceish
from .bitlcs import Variant, _triangle_masks
from .words import MAX_WIDTH, WORD_DTYPE, pack_a_words, pack_b_words, popcount_words, word_mask

_U = WORD_DTYPE


#: the inner steps of a ``w x w`` block, built once per process, not per task
_steps = functools.lru_cache(maxsize=None)(_triangle_masks)


def _bit_chunk(h, v, aw, bw, am, bm, variant, w):
    """One contiguous run of blocks of a block-anti-diagonal, as a pure
    function: returns the updated ``(h, v)`` words and leaves its
    arguments alone, so a retried task starts from the same state.

    The ``h`` / ``v`` words are gathered once into task-local copies and
    handed back once for the caller to scatter. ``new1`` / ``new2`` keep
    every word local across the ``2w - 1`` steps; ``old``, like
    :func:`~repro.core.bitparallel.bitlcs.bit_lcs`'s, re-gathers all six
    word arrays and scatters ``h`` / ``v`` on every step.
    """
    wmask = word_mask(w)
    use_new2 = variant == "new2"
    gather_each_step = variant == "old"
    h, v = h.copy(), v.copy()
    hv, vv, av, bv, mh, mv = h, v, aw, bw, am, bm
    for sh, upper, mask in _steps(w):
        if gather_each_step:
            hv, vv, av, bv = h.copy(), v.copy(), aw.copy(), bw.copy()
            mh, mv = am.copy(), bm.copy()
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
            s = as_ ^ bv
            vv_old = vv
            vv = (hs | (~mfull & wmask)) & (vv | (s & mfull))
            patch = vv ^ vv_old
            hv = hv ^ (((patch << shift) & wmask) if upper else (patch >> shift))
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
            h[...] = hv
            v[...] = vv
    return hv, vv


def _chunk_ranges(length: int, workers: int) -> list[tuple[int, int]]:
    """Split ``[0, length)`` into up to *workers* contiguous spans."""
    workers = max(1, min(workers, length))
    base, extra = divmod(length, workers)
    out, start = [], 0
    for k in range(workers):
        size = base + (1 if k < extra else 0)
        if size:
            out.append((start, start + size))
        start += size
    return out


def bit_lcs_parallel(
    a: Sequenceish,
    b: Sequenceish,
    machine,
    *,
    variant: Variant = "new2",
    w: int = MAX_WIDTH,
) -> int:
    """Bit-parallel LCS with one parallel round per block-anti-diagonal.

    Observability: wrapped in the ``bitparallel`` phase and a
    ``bitparallel.wavefront`` span; ``bitparallel.rounds`` counts the
    block-anti-diagonal rounds and ``bitparallel.blocks`` the word
    blocks they cover. The per-round loop itself is too hot to
    instrument individually.
    """
    ca = to_binary(a) if isinstance(a, str) else encode(a)
    cb = to_binary(b) if isinstance(b, str) else encode(b)
    m, n = ca.size, cb.size
    if m == 0 or n == 0:
        return 0
    with phase("bitparallel"), get_tracer().span(
        "bitparallel.wavefront", args={"m": m, "n": n, "variant": variant}
    ):
        return _bit_lcs_parallel_impl(ca, cb, machine, variant, w)


def _bit_lcs_parallel_impl(ca, cb, machine, variant: Variant, w: int) -> int:
    a_words, a_valid, m_pad = pack_a_words(ca, w)
    b_words, b_valid, n_pad = pack_b_words(cb, w)
    ma, nb = a_words.size, b_words.size
    metrics = get_metrics()
    metrics.inc("bitparallel.rounds", ma + nb - 1)
    metrics.inc("bitparallel.blocks", ma * nb)
    h = np.full(ma, word_mask(w), dtype=WORD_DTYPE)
    v = np.zeros(nb, dtype=WORD_DTYPE)
    if variant == "new2":
        a_words = (~a_words) & word_mask(w)
    # the words broadcast once (shared memory on a shm pool)
    h, v, aw, bw, am, bm = machine.broadcast(h, v, a_words, b_words, a_valid, b_valid)
    try:
        for d in range(ma + nb - 1):
            i_lo = max(0, d - nb + 1)
            i_hi = min(ma - 1, d)
            # walk blocks by ascending word index l = ma-1-i so both the
            # l-span and the j-span (j = d-i) are contiguous slices
            l0 = ma - 1 - i_hi
            j0 = d - i_hi
            count = i_hi - i_lo + 1
            # in-process one task over the block-anti-diagonal (its blocks
            # are the items); on a pool one contiguous span per worker
            spans = [(0, count)]
            if machine.remote_tasks:
                spans = _chunk_ranges(count, machine.workers)
            specs = [
                (
                    _bit_chunk,
                    (
                        h[l0 + c0 : l0 + c1],
                        v[j0 + c0 : j0 + c1],
                        aw[l0 + c0 : l0 + c1],
                        bw[j0 + c0 : j0 + c1],
                        am[l0 + c0 : l0 + c1],
                        bm[j0 + c0 : j0 + c1],
                        variant,
                        w,
                    ),
                    {},
                )
                for c0, c1 in spans
            ]
            outs = machine.run_round(specs, items=[c1 - c0 for c0, c1 in spans])
            for (c0, c1), (hv, vv) in zip(spans, outs):
                h[l0 + c0 : l0 + c1] = hv
                v[j0 + c0 : j0 + c1] = vv
        return m_pad - popcount_words(machine.localize(h), w)
    finally:
        machine.release_arrays([h, v, aw, bw, am, bm])
