"""Alignment-free genome comparison with LCS distances.

For strains ``x``, ``y`` the normalized LCS distance

    d(x, y) = 1 - LCS(x, y) / max(|x|, |y|)

is a metric-like dissimilarity (0 for identical sequences). The module
builds pairwise distance matrices with any of the library's LCS engines
and derives a simple UPGMA phylogeny — the kind of analysis the paper's
virus dataset motivates.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..alphabet import encode
from ..baselines.prefix_lcs import prefix_lcs_rowmajor
from ..batch import MAX_LANES, batch_lcs
from ..types import CodeArray, Sequenceish


def lcs_distance(x: Sequenceish, y: Sequenceish, *, lcs: Callable | None = None) -> float:
    """Normalized LCS distance in ``[0, 1]``.

    *lcs* defaults to the library's fast vectorized scorer
    (:func:`repro.lcs`); pass any other scorer (e.g. ``bit_lcs`` for
    binary inputs) to swap the engine.
    """
    if lcs is None:
        lcs = prefix_lcs_rowmajor
    cx, cy = encode(x), encode(y)
    if cx.size == 0 and cy.size == 0:
        return 0.0
    return 1.0 - lcs(cx, cy) / max(cx.size, cy.size)


def similarity_matrix(
    genomes: Sequence[CodeArray],
    *,
    lcs: Callable | None = None,
    machine=None,
    max_lanes: int = MAX_LANES,
) -> np.ndarray:
    """Symmetric pairwise distance matrix (zero diagonal).

    By default all ``k (k - 1) / 2`` pairs are scored through the batch
    engine (:func:`repro.batch.batch_lcs`) — same-bucket genomes comb in
    lockstep and, with a *machine*, the megabatches run as one round
    across its workers.
    Passing an explicit *lcs* scorer keeps the per-pair loop.
    """
    k = len(genomes)
    out = np.zeros((k, k), dtype=np.float64)
    encoded = [encode(g) for g in genomes]
    if lcs is not None:
        for i in range(k):
            for j in range(i + 1, k):
                out[i, j] = out[j, i] = lcs_distance(encoded[i], encoded[j], lcs=lcs)
        return out
    idx = [(i, j) for i in range(k) for j in range(i + 1, k)]
    scores = batch_lcs(
        [(encoded[i], encoded[j]) for i, j in idx], machine=machine, max_lanes=max_lanes
    )
    for (i, j), s in zip(idx, scores):
        denom = max(encoded[i].size, encoded[j].size)
        d = 1.0 - s / denom if denom else 0.0
        out[i, j] = out[j, i] = d
    return out


def upgma_newick(dist: np.ndarray, labels: Sequence[str] | None = None) -> str:
    """UPGMA hierarchical clustering, rendered as a Newick string.

    A tiny self-contained implementation (average linkage); adequate for
    the handful of strains the examples use.
    """
    d = np.array(dist, dtype=np.float64)
    k = d.shape[0]
    if d.shape != (k, k):
        raise ValueError(f"distance matrix must be square, got {d.shape}")
    if labels is None:
        labels = [f"g{i}" for i in range(k)]
    labels = list(labels)
    if len(labels) != k:
        raise ValueError("labels length must match matrix order")
    if k == 0:
        return ";"
    if k == 1:
        return f"{labels[0]};"

    clusters: dict[int, tuple[str, int, float]] = {
        i: (labels[i], 1, 0.0) for i in range(k)
    }  # id -> (newick, size, height)
    active = set(range(k))
    dd = {(i, j): d[i, j] for i in range(k) for j in range(i + 1, k)}
    next_id = k

    def get(i: int, j: int) -> float:
        return dd[(i, j) if i < j else (j, i)]

    while len(active) > 1:
        (i, j) = min(
            ((i, j) for i in active for j in active if i < j), key=lambda ij: get(*ij)
        )
        dij = get(i, j)
        ni, si, hi = clusters[i]
        nj, sj, hj = clusters[j]
        height = dij / 2.0
        newick = f"({ni}:{height - hi:.6f},{nj}:{height - hj:.6f})"
        clusters[next_id] = (newick, si + sj, height)
        active.discard(i)
        active.discard(j)
        for other in active:
            dd[(min(other, next_id), max(other, next_id))] = (
                si * get(i, other) + sj * get(j, other)
            ) / (si + sj)
        active.add(next_id)
        next_id += 1

    root = clusters[active.pop()][0]
    return root + ";"
