"""Approximate pattern matching via semi-local LCS.

The string-substring quadrant of the semi-local kernel answers
``LCS(pattern, text[l:r))`` for *every* window ``[l, r)`` from one
O(mn)-time combing — the classic motivation for semi-local comparison
(Sellers, Landau-Vishkin style matching; paper §1/§2). One kernel
replaces ``O(n^2)`` separate LCS runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..alphabet import encode
from ..core.kernel import SemiLocalKernel
from ..types import Sequenceish


@dataclass(frozen=True)
class Match:
    """An approximate occurrence of the pattern in ``text[start:end)``."""

    start: int
    end: int
    score: int

    @property
    def length(self) -> int:
        return self.end - self.start


def _kernel(pattern: Sequenceish, text: Sequenceish, algorithm=None) -> SemiLocalKernel:
    return SemiLocalKernel.from_strings(pattern, text, algorithm=algorithm)


def sliding_window_scores(
    pattern: Sequenceish, text: Sequenceish, window: int | None = None, *, kernel=None
) -> np.ndarray:
    """``out[l] = LCS(pattern, text[l : l + window))`` for every offset.

    ``window`` defaults to ``len(pattern)``. One combing + one batched
    probe of ``n - window + 1`` dominance counts.
    """
    cp, ct = encode(pattern), encode(text)
    window = cp.size if window is None else window
    if window <= 0 or window > ct.size:
        return np.zeros(0, dtype=np.int64)
    k = kernel if kernel is not None else _kernel(cp, ct)
    ls = np.arange(ct.size - window + 1, dtype=np.int64)
    return k.string_substring_many(ls, ls + window)


def best_window(pattern: Sequenceish, text: Sequenceish, *, kernel=None) -> Match:
    """The window of ``text`` with maximal LCS against ``pattern``; ties
    go to the shortest window, then the smallest start.

    Scans all O(n^2) windows with one batched probe per window end ``r``.
    """
    cp, ct = encode(pattern), encode(text)
    k = kernel if kernel is not None else _kernel(cp, ct)
    best = Match(0, 0, 0)
    for r in range(ct.size + 1):
        scores = k.string_substring_row(r)
        score = int(scores.max())
        # the last maximum of the row is its shortest window
        l = r - int(np.argmax(scores[::-1] == score))
        if (score, l - r, -l) > (best.score, -best.length, -best.start):
            best = Match(l, r, score)
    return best


def find_matches(
    pattern: Sequenceish,
    text: Sequenceish,
    min_score: int,
    *,
    window: int | None = None,
    kernel=None,
) -> list[Match]:
    """All non-overlapping fixed-width windows scoring at least
    *min_score*, greedily selected left to right by score.

    A practical matcher: compute the sliding-window score profile, then
    sweep it, keeping local maxima and skipping overlaps.
    """
    cp, ct = encode(pattern), encode(text)
    window = cp.size if window is None else window
    scores = sliding_window_scores(cp, ct, window, kernel=kernel)
    matches: list[Match] = []
    l = 0
    while l < scores.size:
        if scores[l] >= min_score:
            # extend to the best-scoring start within the overlap range
            span = scores[l : min(l + window, scores.size)]
            off = int(np.argmax(span))
            best_l = l + off
            matches.append(Match(best_l, best_l + window, int(scores[best_l])))
            l = best_l + window
        else:
            l += 1
    return matches
