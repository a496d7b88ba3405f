"""Recursive combing (paper Listing 3).

Divide-and-conquer semi-local LCS: split the longer string in half, comb
the halves recursively, and merge the two kernels with the composition of
Theorem 3.4 (braid multiplication under the hood), flipping via
Theorem 3.5 whenever the split string is ``b``. The recursion bottoms out
at single-character pairs, whose kernels are the identity (match) and the
order-2 "zero kernel" (mismatch).

Asymptotically slower than iterative combing by a log factor but
embarrassingly parallel: the two recursive calls are independent — which
is exactly what the hybrid algorithm exploits.
"""

from __future__ import annotations

import numpy as np

from ...alphabet import encode
from ...types import PermArray, Sequenceish
from ..compose import compose_horizontal, compose_vertical


def split_and_compose(ca: np.ndarray, cb: np.ndarray, leaf, multiply, depth=None) -> PermArray:
    """Split the longer side in half, recurse, compose the two kernels.

    ``leaf(ca, cb)`` answers the base cases (an empty side, one character
    pair) and, when *depth* is given, every sub-problem *depth* splits
    down: Listing 6 is Listing 3 with a depth cut-off and the iterative
    leaf."""
    m, n = ca.size, cb.size
    if m == 0 or n == 0 or m + n <= 2 or (depth is not None and depth <= 0):
        return leaf(ca, cb)
    sub = None if depth is None else depth - 1
    if m <= n:
        half = n // 2
        left = split_and_compose(ca, cb[:half], leaf, multiply, sub)
        right = split_and_compose(ca, cb[half:], leaf, multiply, sub)
        return compose_horizontal(left, right, m, half, n - half, multiply)
    half = m // 2
    top = split_and_compose(ca[:half], cb, leaf, multiply, sub)
    bottom = split_and_compose(ca[half:], cb, leaf, multiply, sub)
    return compose_vertical(top, bottom, half, m - half, n, multiply)


def _base_kernel(ca: np.ndarray, cb: np.ndarray) -> PermArray:
    """The identity braid, or the single crossing of a mismatching pair."""
    k = np.arange(ca.size + cb.size, dtype=np.int64)
    return k if ca.size == 0 or cb.size == 0 or ca[0] == cb[0] else k[::-1].copy()


def recursive_combing(a: Sequenceish, b: Sequenceish, *, multiply=None) -> PermArray:
    """Kernel ``P_{a,b}`` by pure recursive combing.

    *multiply* is the braid multiplication used by the compositions;
    defaults to the combined-optimization steady ant.
    """
    if multiply is None:
        from ..steady_ant import steady_ant_multiply as multiply
    return split_and_compose(encode(a), encode(b), _base_kernel, multiply)
