"""Word packing for the bit-parallel combing.

Layout (paper §4.4): string ``a`` and the horizontal strands are stored
*in reverse order* — both across words and within each word (most
significant bit first) — while ``b`` and the vertical strands are stored
in normal order (least significant bit first). With the grid's rows
indexed top-down, the horizontal track index is ``l = m_pad - 1 - i``;
bit ``l % w`` of word ``l // w`` holds row ``i``'s character/strand. This
makes the within-block alignment of ``a`` against ``b`` (and ``h``
against ``v``) a single shift.

Ragged edges are handled with validity masks rather than padding
characters (a binary alphabet has no spare "matches nothing" symbol):
cells whose row or column falls outside the real ``m x n`` grid are
excluded from every combing condition, so the padding strand bits keep
their initial values and the final score is ``m_pad - popcount(h)``.
"""

from __future__ import annotations

import numpy as np

from ...errors import AlphabetError
from ...types import CodeArray

WORD_DTYPE = np.uint64
MAX_WIDTH = 64


def _check_binary(arr: np.ndarray, name: str) -> None:
    if arr.size and (arr.min() < 0 or arr.max() > 1):
        raise AlphabetError(f"{name} must be binary (codes 0/1) for bit-parallel LCS")


def word_mask(w: int) -> np.uint64:
    """All-ones mask of logical width *w*."""
    return WORD_DTYPE((1 << w) - 1) if w < 64 else WORD_DTYPE(0xFFFFFFFFFFFFFFFF)


def pack_a_words(
    ca: CodeArray, w: int = MAX_WIDTH, *, min_words: int | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Pack string ``a`` in reversed layout.

    Returns ``(a_words, valid_words, m_pad)``: bit ``l % w`` of
    ``a_words[l // w]`` is ``a[m_pad - 1 - l]``; ``valid_words`` has the
    same shape with 1-bits exactly at in-range rows. ``min_words`` pads
    the packing to at least that many words (extra words are all-invalid)
    so ragged batch lanes can share one common word count — the validity
    masks make the extra padding a no-op.
    """
    if not 1 <= w <= MAX_WIDTH:
        raise ValueError(f"word width must be in [1, {MAX_WIDTH}]")
    ca = np.asarray(ca)
    _check_binary(ca, "a")
    m = ca.size
    n_words = max(1, -(-m // w), min_words or 1)
    m_pad = n_words * w
    pad = m_pad - m
    bits = np.zeros(m_pad, dtype=np.uint8)
    bits[pad:] = ca[::-1]  # bit l holds a[m_pad-1-l]; l < pad invalid
    valid = np.zeros(m_pad, dtype=np.uint8)
    valid[pad:] = 1
    return _bits_to_words(bits, w), _bits_to_words(valid, w), m_pad


def pack_b_words(
    cb: CodeArray, w: int = MAX_WIDTH, *, min_words: int | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Pack string ``b`` in normal layout.

    Returns ``(b_words, valid_words, n_pad)``: bit ``j % w`` of
    ``b_words[j // w]`` is ``b[j]``. ``min_words`` pads to at least that
    many words (all-invalid), as in :func:`pack_a_words`.
    """
    if not 1 <= w <= MAX_WIDTH:
        raise ValueError(f"word width must be in [1, {MAX_WIDTH}]")
    cb = np.asarray(cb)
    _check_binary(cb, "b")
    n = cb.size
    n_words = max(1, -(-n // w), min_words or 1)
    n_pad = n_words * w
    bits = np.zeros(n_pad, dtype=np.uint8)
    bits[:n] = cb
    valid = np.zeros(n_pad, dtype=np.uint8)
    valid[:n] = 1
    return _bits_to_words(bits, w), _bits_to_words(valid, w), n_pad


def _bits_to_words(bits: np.ndarray, w: int) -> np.ndarray:
    """Pack a flat bit array (LSB-first within each group of *w*)."""
    n_words = bits.size // w
    groups = bits.reshape(n_words, w).astype(WORD_DTYPE)
    weights = (WORD_DTYPE(1) << np.arange(w, dtype=WORD_DTYPE))[None, :]
    return (groups * weights).sum(axis=1, dtype=WORD_DTYPE)


def words_to_bits(words: np.ndarray, w: int) -> np.ndarray:
    """Inverse of :func:`_bits_to_words` (testing/tracing helper)."""
    words = np.asarray(words, dtype=WORD_DTYPE)
    shifts = np.arange(w, dtype=WORD_DTYPE)[None, :]
    return ((words[:, None] >> shifts) & WORD_DTYPE(1)).astype(np.uint8).reshape(-1)


def popcount_words(words: np.ndarray, w: int) -> int:
    """Total number of set bits (Kernighan's role in Listing 8's epilogue).

    Uses NumPy's vectorized popcount via ``np.bitwise_count`` when
    available, else an unpack fallback.
    """
    words = np.asarray(words, dtype=WORD_DTYPE)
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(words).sum())
    return int(words_to_bits(words, w).sum())  # pragma: no cover - old NumPy
