"""Kernel composition (Theorem 3.4), the flip identity (Theorem 3.5) and
kernel extension.

Let ``a = a' a''`` (``a'`` of length ``m1`` on top of ``a''`` of length
``m2`` in the LCS grid) and let ``P1 = P_{a',b}``, ``P2 = P_{a'',b}``.
Walking the staircase cut between the two sub-grids shows that, in global
boundary coordinates,

- the upper sub-braid is ``id_{m2} (+) P1`` (the ``m2`` lower horizontal
  strands pass by untouched),
- the lower sub-braid is ``P2 (+) id_{m1}`` (the ``m1`` strands that
  already exited on the right edge of the upper grid stay put),

and the combined kernel is their *sticky* product::

    P_{a'a'', b} = (id_{m2} (+) P1)  ⊙  (P2 (+) id_{m1})

(⊙ = braid multiplication; verified against direct combing in
``tests/core/test_compose.py``). Splits of ``b`` reduce to splits of ``a``
through the flip identity ``P_{a,b} = rot180(P_{b,a})``.

Growing a kernel by a raw block needs no product: :func:`extend_kernel`
resumes the comb from the strand state the kernel records.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..alphabet import encode
from ..errors import ShapeMismatchError
from ..obs import get_metrics, get_tracer, phase
from ..types import PermArray, Sequenceish


def flip_kernel(kernel: PermArray) -> PermArray:
    """Theorem 3.5: ``P_{a,b}`` from ``P_{b,a}`` (180° matrix rotation)."""
    k = np.asarray(kernel, dtype=np.int64)
    return (k.size - 1 - k)[::-1].copy()


def reverse_kernel(kernel: PermArray) -> PermArray:
    """``P_{rev a, rev b} = flip_kernel(P_{a,b}^-1)``: reversing both
    strings turns the grid by 180°, so every strand runs backwards along
    a boundary numbered the other way round."""
    k = np.asarray(kernel, dtype=np.int64)
    inverse = np.empty_like(k)
    inverse[k] = np.arange(k.size, dtype=np.int64)
    return flip_kernel(inverse)


def extend_kernel(
    kernel: PermArray, m: int, block: Sequenceish, b: Sequenceish, *,
    at: Literal["end", "start"] = "end",
) -> PermArray:
    """``P_{a + block, b}`` (``at="end"``) or ``P_{block + a, b}``
    (``at="start"``) from ``P_{a,b}`` with ``|a| = m``.

    ``P_{a,b}`` is the strand state on the exit boundary of a's grid, so
    appending is Listing 1 continued: invert the kernel to find the
    strand entering each column of the block from above, shift every id
    by ``|block|`` (the block's rows take the ids below), comb only the
    ``|block| x n`` cells and read the kernel off — no braid multiply. A
    prepend is an append to the reversed pair (:func:`reverse_kernel`).
    Runs in the ``combing`` phase under a ``combing.extend`` span.
    Raises :class:`~repro.errors.ShapeMismatchError` unless
    ``kernel.size == m + len(b)``.
    """
    from .combing import iterative

    if at not in ("end", "start"):
        raise ValueError(f"at must be 'end' or 'start', got {at!r}")
    kernel = np.asarray(kernel, dtype=np.int64)
    cblock, cb = encode(block), encode(b)
    k, n = cblock.size, cb.size
    if kernel.size != m + n:
        raise ShapeMismatchError(f"kernel order {kernel.size} inconsistent with m={m}, n={n}")
    if k == 0:
        return kernel.copy()
    get_metrics().inc("combing.leaf_cells", k * n)
    with phase("combing"), get_tracer().span("combing.extend", args={"m": m, "block": k, "n": n}):
        if at == "start":
            kernel, cblock, cb = reverse_kernel(kernel), cblock[::-1], cb[::-1].copy()
        dt = iterative.strand_dtype(m + k, n)
        # exits[p]: the strand leaving a's grid at end position p, by its
        # id in the extended grid
        exits = np.empty(m + n, dtype=dt)
        exits[kernel] = np.arange(k, k + m + n, dtype=dt)
        h, v = np.arange(k, dtype=dt), exits[:n]
        iterative.comb_antidiagonals(
            cblock[::-1].copy(), cb, h, v, iterative._antidiag_ranges(k, n)
        )
        out = iterative._extract_kernel(np.concatenate([h, exits[n:]]), v)
        return reverse_kernel(out) if at == "start" else out


def dsum_identity_first(k: int, p: PermArray) -> PermArray:
    """Direct sum ``id_k (+) p``: identity block in the low indices."""
    p = np.asarray(p, dtype=np.int64)
    return np.concatenate([np.arange(k, dtype=np.int64), k + p])


def dsum_identity_last(p: PermArray, k: int) -> PermArray:
    """Direct sum ``p (+) id_k``: identity block in the high indices."""
    p = np.asarray(p, dtype=np.int64)
    return np.concatenate([p, p.size + np.arange(k, dtype=np.int64)])


def compose_vertical(
    p_top: PermArray, p_bottom: PermArray, m_top: int, m_bottom: int, n: int, multiply=None
) -> PermArray:
    """Theorem 3.4: kernel of ``a = a_top a_bottom`` against ``b``.

    *multiply* is the braid-multiplication routine (defaults to steady
    ant); injected by the hybrid algorithm's benchmarks.

    Observability: every composition — vertical, and horizontal via its
    reduction to this function — counts in ``combing.grid_composes``,
    records its order ``m_top + m_bottom + n`` in the
    ``combing.compose_order`` histogram, and opens a ``combing.compose``
    span when tracing is enabled.
    """
    p_top = np.asarray(p_top)
    p_bottom = np.asarray(p_bottom)
    if p_top.size != m_top + n or p_bottom.size != m_bottom + n:
        raise ShapeMismatchError(
            f"kernel orders ({p_top.size}, {p_bottom.size}) inconsistent with "
            f"m_top={m_top}, m_bottom={m_bottom}, n={n}"
        )
    if multiply is None:
        from .steady_ant import steady_ant_multiply as multiply
    order = m_top + m_bottom + n
    metrics = get_metrics()
    metrics.inc("combing.grid_composes", 1)
    metrics.get("combing.compose_order").observe(order)
    with get_tracer().span("combing.compose", args={"order": order}):
        return multiply(
            dsum_identity_first(m_bottom, p_top), dsum_identity_last(p_bottom, m_top)
        )


def compose_horizontal(
    p_left: PermArray, p_right: PermArray, m: int, n_left: int, n_right: int, multiply=None
) -> PermArray:
    """Kernel of ``a`` against ``b = b_left b_right``.

    Reduced to a vertical composition of the flipped kernels:
    ``P_{a, b'b''} = rot180( compose_vertical(P_{b', a}, P_{b'', a}) )``
    where ``P_{b,a} = rot180(P_{a,b})``.
    """
    return flip_kernel(
        compose_vertical(
            flip_kernel(p_left), flip_kernel(p_right), n_left, n_right, m, multiply
        )
    )
