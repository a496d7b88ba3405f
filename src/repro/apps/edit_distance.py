"""Indel (LCS) edit distance and semi-local distance queries.

With insertions and deletions only (no substitutions), edit distance and
LCS are two views of one quantity::

    d_indel(x, y) = |x| + |y| - 2 * LCS(x, y)

so every semi-local LCS query doubles as a semi-local *distance* query —
e.g. the distance from a pattern to every window of a text comes from
one combing. (Levenshtein distance with substitutions is bounded by
``d_indel / 2 <= d_lev <= d_indel``.)
"""

from __future__ import annotations

import numpy as np

from ..alphabet import encode
from ..baselines.prefix_lcs import prefix_lcs_rowmajor
from ..core.kernel import SemiLocalKernel
from ..types import Sequenceish
from .approximate_matching import sliding_window_scores


def indel_distance(x: Sequenceish, y: Sequenceish) -> int:
    """Edit distance under insertions/deletions only."""
    cx, cy = encode(x), encode(y)
    return cx.size + cy.size - 2 * prefix_lcs_rowmajor(cx, cy)


def window_distances(
    pattern: Sequenceish, text: Sequenceish, window: int | None = None
) -> np.ndarray:
    """``out[l] = d_indel(pattern, text[l : l + window))`` for all offsets
    from one semi-local combing and one batched probe."""
    cp, ct = encode(pattern), encode(text)
    window = cp.size if window is None else window
    return cp.size + window - 2 * sliding_window_scores(cp, ct, window)


def best_indel_window(pattern: Sequenceish, text: Sequenceish) -> tuple[int, int, int]:
    """The window ``[l, r)`` of *text* minimizing the indel distance to
    *pattern* (over all substrings). Returns ``(l, r, distance)``; ties
    go to the smallest ``l``, then the smallest ``r``.

    Scans the full string-substring quadrant on one kernel: one batched
    probe per window end ``r``.
    """
    cp, ct = encode(pattern), encode(text)
    kernel = SemiLocalKernel.from_strings(cp, ct)
    best = (cp.size, 0, 0)  # (distance, l, r): the empty window
    for r in range(ct.size + 1):
        dists = cp.size + (r - np.arange(r + 1)) - 2 * kernel.string_substring_row(r)
        l = int(np.argmin(dists))  # first minimum: the smallest l
        best = min(best, (int(dists[l]), l, r))
    dist, l, r = best
    return l, r, dist
