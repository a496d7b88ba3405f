"""Semi-local LCS kernels and score queries.

A :class:`SemiLocalKernel` wraps the kernel permutation ``P_{a,b}``
produced by any combing algorithm and answers every semi-local score
query of Definition 3.2:

- string-substring: ``LCS(a, b[l:r))`` for any substring of ``b``,
- substring-string: ``LCS(a[l:r), b)``,
- prefix-suffix: ``LCS(a[:l), b[r:])``,
- suffix-prefix: ``LCS(a[l:), b[:r))``,

plus reconstruction of the full score matrix ``H_{a,b}`` of
Definition 3.3.

Conventions (verified against the brute-force DP of Definition 3.3 in
``tests/core/test_kernel.py``):

- the kernel maps strand *start positions* (left edge bottom-up
  ``0..m-1``, then top edge left-to-right ``m..m+n-1``) to *end positions*
  (bottom edge left-to-right ``0..n-1``, then right edge bottom-up
  ``n..n+m-1``);
- the score matrix is recovered by lower-left dominance counting::

      H[i, j] = (j + m - i) - #{ (s, e) in P : s >= i, e < j }

  evaluated in O(log n) from the kernel's wavelet matrix
  (:mod:`repro.core.dominance`; O(n log n) memory, as promised in §3 of
  the paper), which is built on the kernel's first probe, so a kernel
  that is only stored or passed on never pays for it. Array-valued
  queries (whole rows of scores, windowed sweeps) go through the
  counter's batched ``count_many`` — one vectorized probe carrying every
  index pair at once instead of a Python loop of descents;
- wildcard windows reduce to plain LCS scores by the exchange argument:
  ``LCS(a, ?^k w) = k + LCS(a[k:], w)`` and symmetrically for trailing
  wildcards, which yields the four quadrant formulas below.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import QueryError, ShapeMismatchError
from ..obs.metrics import inc as _metric_inc
from ..types import PermArray, Sequenceish
from .dominance import WaveletCounter, counter_to_bytes, make_counter
from .permutation import validate_permutation

# One lock for every kernel's first counter build: a build takes about a
# millisecond at order 2000, and a per-kernel lock would make kernels
# unpicklable.
_BUILD_LOCK = threading.Lock()


class SemiLocalKernel:
    """Implicit semi-local score matrix, stored as a kernel permutation.

    Parameters
    ----------
    kernel:
        Permutation of ``[0, m+n)`` mapping strand starts to ends.
    m, n:
        Lengths of the input strings ``a`` and ``b``.
    counter:
        A pre-built wavelet matrix to adopt (e.g. deserialized from a
        :class:`~repro.checkpoint.store.KernelStore` artifact via
        :func:`repro.core.dominance.counter_from_bytes`). Adopted only
        when it is a :class:`~repro.core.dominance.WaveletCounter` of
        this kernel's order; otherwise it is ignored and the first probe
        builds one.
    """

    def __init__(
        self,
        kernel: PermArray,
        m: int,
        n: int,
        *,
        validate: bool = True,
        counter=None,
    ):
        kernel = np.asarray(kernel, dtype=np.int64)
        if kernel.size != m + n:
            raise ShapeMismatchError(f"kernel order {kernel.size} != m + n = {m + n}")
        if validate:
            validate_permutation(kernel)
        self.kernel = kernel
        self.m = int(m)
        self.n = int(n)
        if not (isinstance(counter, WaveletCounter) and counter.n == kernel.size):
            counter = None
        self._counter = counter
        self._flipped_cache: "SemiLocalKernel | None" = None

    def _built_counter(self) -> WaveletCounter:
        """The kernel's wavelet matrix, built on the first call.
        Concurrent first calls build it once."""
        counter = self._counter
        if counter is None:
            with _BUILD_LOCK:
                counter = self._counter
                if counter is None:
                    counter = make_counter(self.kernel)
                    _metric_inc("kernel.counter_builds", 1)
                    self._counter = counter
        return counter

    # -- construction --------------------------------------------------

    @classmethod
    def from_strings(
        cls, a: Sequenceish, b: Sequenceish, algorithm=None, **kwargs
    ) -> "SemiLocalKernel":
        """Comb ``a`` against ``b`` and wrap the result.

        *algorithm* is any callable ``(a, b, **kwargs) -> kernel``;
        defaults to the vectorized anti-diagonal iterative combing.
        """
        from ..alphabet import encode
        from .combing.iterative import iterative_combing_antidiag_simd

        ca, cb = encode(a), encode(b)
        if algorithm is None:
            algorithm = iterative_combing_antidiag_simd
        return cls(algorithm(ca, cb, **kwargs), ca.size, cb.size, validate=False)

    # -- raw score matrix ----------------------------------------------

    def h(self, i: int, j: int) -> int:
        """Score-matrix entry ``H[i, j]`` of Definition 3.3.

        ``i, j`` range over ``[0, m+n]``; ``H[i, j] = LCS(a, b_pad[i:j+m))``
        for ``i < j + m`` and ``j + m - i`` otherwise.
        """
        size = self.m + self.n
        if not (0 <= i <= size and 0 <= j <= size):
            raise QueryError(f"H indices ({i}, {j}) outside [0, {size}]")
        return (j + self.m - i) - self._built_counter().count(i, j)

    def h_matrix(self) -> np.ndarray:
        """Materialize the full ``(m+n+1) x (m+n+1)`` score matrix H.

        O((m+n)^2) memory — intended for inspection and testing.
        """
        size = self.m + self.n
        grid = np.arange(size + 1)
        s = np.arange(size)[:, None]
        contrib = (s >= grid[None, :]).astype(np.int64)  # (size, size+1)
        lt = (self.kernel[:, None] < grid[None, :]).astype(np.int64)
        counts = contrib.T @ lt  # counts[i, j] = #{s >= i, e < j}
        base = (grid[None, :] + self.m) - grid[:, None]
        return base - counts

    # -- the four semi-local quadrants ----------------------------------

    def lcs_whole(self) -> int:
        """``LCS(a, b)`` — the classical global score."""
        return self.string_substring(0, self.n)

    def string_substring(self, l: int, r: int) -> int:
        """``LCS(a, b[l:r))`` for ``0 <= l <= r <= n``."""
        if not (0 <= l <= r <= self.n):
            raise QueryError(f"invalid substring of b: [{l}, {r})")
        # window b_pad[i : j+m) = b[l : r) at i = m + l, j = r.
        return self.h(self.m + l, r)

    def substring_string(self, l: int, r: int) -> int:
        """``LCS(a[l:r), b)`` for ``0 <= l <= r <= m``.

        Window starting and ending inside the wildcard paddings:
        ``i = m - l`` (leading wildcards consume ``a[:l)``) and
        ``j = n + m - r`` (trailing wildcards consume ``a[r:)``).
        """
        if not (0 <= l <= r <= self.m):
            raise QueryError(f"invalid substring of a: [{l}, {r})")
        return self.h(self.m - l, self.n + self.m - r) - l - (self.m - r)

    def prefix_suffix(self, l: int, r: int) -> int:
        """``LCS(a[:l), b[r:])`` for ``0 <= l <= m``, ``0 <= r <= n``."""
        if not (0 <= l <= self.m and 0 <= r <= self.n):
            raise QueryError(f"invalid prefix/suffix query ({l}, {r})")
        # i = m + r drops b[:r); j = n + m - l keeps m - l trailing
        # wildcards, which consume the suffix a[l:).
        return self.h(self.m + r, self.n + self.m - l) - (self.m - l)

    def suffix_prefix(self, l: int, r: int) -> int:
        """``LCS(a[l:), b[:r))`` for ``0 <= l <= m``, ``0 <= r <= n``."""
        if not (0 <= l <= self.m and 0 <= r <= self.n):
            raise QueryError(f"invalid suffix/prefix query ({l}, {r})")
        # i = m - l keeps l leading wildcards consuming a[:l); j = r.
        return self.h(self.m - l, r) - l

    # -- batch views -----------------------------------------------------

    def _count_many(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """One batched dominance probe, with batch accounting
        (``kernel.probe_batches`` / ``kernel.probes``); the scalar
        :meth:`h` path stays registry-free per the metrics contract."""
        _metric_inc("kernel.probe_batches", 1)
        _metric_inc("kernel.probes", int(i.size))
        return self._built_counter().count_many(i, j)

    def string_substring_many(self, ls, rs) -> np.ndarray:
        """Batch of ``LCS(a, b[l:r))`` scores for paired arrays of window
        bounds — one vectorized ``count_many`` probe for the whole batch."""
        ls = np.asarray(ls, dtype=np.int64)
        rs = np.asarray(rs, dtype=np.int64)
        if ls.shape != rs.shape:
            raise ShapeMismatchError("window bound arrays must have equal shape")
        if ls.size and (
            (ls < 0).any() or (rs > self.n).any() or (ls > rs).any()
        ):
            raise QueryError("invalid substring windows in batch query")
        i = self.m + ls
        j = rs
        return (j + self.m - i) - self._count_many(i, j)

    def string_substring_row(self, r: int) -> np.ndarray:
        """``out[l] = LCS(a, b[l:r))`` for all ``l in [0, r]`` (one array,
        one batched probe)."""
        if not (0 <= r <= self.n):
            raise QueryError(f"invalid substring end {r}")
        ls = np.arange(r + 1, dtype=np.int64)
        return self.string_substring_many(ls, np.full_like(ls, r))

    def all_string_substring(self) -> np.ndarray:
        """Matrix ``S[l, r] = LCS(a, b[l:r))`` for all ``l <= r``; 0 elsewhere.

        O(n^2) output, answered as a single batched probe over the full
        ``(l, r)`` grid — for moderate n.
        """
        grid = np.arange(self.n + 1, dtype=np.int64)
        i = self.m + grid[:, None]  # (n+1, 1): rows are l
        j = np.broadcast_to(grid[None, :], (self.n + 1, self.n + 1))  # cols are r
        scores = (j + self.m - i) - self._count_many(
            np.broadcast_to(i, j.shape), j
        )
        return np.where(grid[:, None] <= grid[None, :], scores, 0)

    def export_counter(self) -> bytes:
        """The serialized levels of the kernel's wavelet matrix
        (:func:`repro.core.dominance.counter_to_bytes`), built first if
        no probe has built it yet."""
        return counter_to_bytes(self._built_counter())

    def flipped(self) -> "SemiLocalKernel":
        """Kernel of the swapped pair ``(b, a)`` via Theorem 3.5:
        ``P_{b,a}`` is the 180° rotation of ``P_{a,b}``. Cached."""
        if self._flipped_cache is None:
            size = self.m + self.n
            rotated = (size - 1 - self.kernel)[::-1].copy()
            self._flipped_cache = SemiLocalKernel(rotated, self.n, self.m, validate=False)
        return self._flipped_cache

    def __repr__(self) -> str:
        return f"SemiLocalKernel(m={self.m}, n={self.n})"
