"""One kernel, many queries: the memoizing semi-local query engine.

The whole point of a *semi-local* kernel is that one O(mn) combing of a
pair answers every string-vs-substring, all-prefix and all-suffix score
for that pair (Def. 3.2/3.3), so at many-request scale the kernel — not
the score — is the thing worth caching. :class:`QueryEngine` is that
cache plus the query algebra on top:

- **two-level memoization** — an in-process LRU of live
  :class:`~repro.core.kernel.SemiLocalKernel` objects (the wavelet
  matrix a kernel builds on its first probe is part of the cached value,
  so repeat queries skip even the counter build), backed by an optional
  :class:`~repro.checkpoint.store.KernelStore` in LRU cache mode
  (``max_bytes``) that persists permutations *and built counters*
  across processes — a disk hit deserializes the counter sidecar
  instead of re-running the O(n log n) construction;
- **the query ops** of :data:`~repro.query.catalog.QUERY_CATALOG` —
  ``lcs``, ``windowed_lcs``, ``all_prefix_scores``,
  ``all_suffix_scores``, ``substring_threshold_matches`` — each a
  *single batched* dominance probe (``count_many``) over the cached
  kernel instead of a Python loop of descents;
- **incremental append / prepend** — ``append(a, suffix, b)`` and
  ``prepend(prefix, a, b)`` resume the comb of the cached ``P_{a,b}``
  through the new block's rows only
  (:func:`~repro.core.compose.extend_kernel`), and cache the extended
  pair's kernel, so a growing string reuses its existing kernel instead
  of recombing from scratch.

Kernels are keyed content-addressed under the canonical
:data:`QUERY_ALGORITHM` label: every combing algorithm produces the
*same* kernel permutation, so artifacts built by any backend (including
the serve tier's lockstep megabatches) are interchangeable cache
entries.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

from ..alphabet import concat, encode
from ..core.combing.iterative import iterative_combing_antidiag_simd
from ..core.compose import extend_kernel
from ..core.kernel import SemiLocalKernel
from ..errors import CheckpointCorruptionError, QueryError
from ..obs.metrics import inc as _metric_inc
from ..types import PermArray, Sequenceish
from .catalog import QUERY_OPS

__all__ = ["QUERY_ALGORITHM", "QueryEngine"]

#: Canonical store label for query-tier kernels. Deliberately
#: algorithm-agnostic: P_{a,b} is unique, so kernels combed by any
#: backend share cache entries.
QUERY_ALGORITHM = "semilocal-kernel"


class QueryEngine:
    """Compute (or fetch) a pair's semi-local kernel once, then serve
    many cheap queries off it.

    Parameters
    ----------
    store:
        Optional :class:`~repro.checkpoint.store.KernelStore` used as the
        second memoization level (construct it with ``max_bytes=...`` for
        LRU cache mode). ``None`` keeps everything in process memory.
    max_kernels:
        In-memory LRU capacity, counted in live kernels (each holds its
        permutation plus the dominance counter).
    counter_kind:
        ``None`` or ``"wavelet"``, the one dominance counter there is;
        anything else raises :class:`~repro.errors.QueryError`.
    """

    def __init__(
        self,
        *,
        store=None,
        max_kernels: int = 64,
        counter_kind: str | None = None,
    ):
        if max_kernels <= 0:
            raise QueryError(f"max_kernels must be positive, got {max_kernels}")
        if counter_kind not in (None, "wavelet"):
            raise QueryError(f"unknown counter kind {counter_kind!r}; the only one is 'wavelet'")
        self.store = store
        self.max_kernels = int(max_kernels)
        self._mem: "OrderedDict[str, SemiLocalKernel]" = OrderedDict()
        self._lock = threading.Lock()
        self.requests = 0
        self.kernel_hits = 0
        self.kernel_misses = 0
        self.kernel_builds = 0
        self.appends = 0
        self.prepends = 0

    # -- keys and cache levels -------------------------------------------

    def key_of(self, a: Sequenceish, b: Sequenceish) -> str:
        """Content-addressed cache key of the pair (canonical
        :data:`QUERY_ALGORITHM` label, so it is backend-independent)."""
        from ..checkpoint.store import kernel_key

        return kernel_key(encode(a), encode(b), QUERY_ALGORITHM)

    def cached(self, a: Sequenceish, b: Sequenceish) -> bool:
        """True when the pair's kernel is already in the memory LRU or
        the backing store (no combing needed to answer queries)."""
        key = self.key_of(a, b)
        with self._lock:
            if key in self._mem:
                return True
        return self.store is not None and self.store.contains(key)

    def _remember(self, key: str, kern: SemiLocalKernel) -> None:
        with self._lock:
            self._mem[key] = kern
            self._mem.move_to_end(key)
            while len(self._mem) > self.max_kernels:
                self._mem.popitem(last=False)

    def _mem_get(self, key: str) -> SemiLocalKernel | None:
        with self._lock:
            kern = self._mem.get(key)
            if kern is not None:
                self._mem.move_to_end(key)  # touch
            return kern

    # -- kernel acquisition ----------------------------------------------

    def kernel(self, a: Sequenceish, b: Sequenceish) -> SemiLocalKernel:
        """The pair's semi-local kernel: memory LRU, else backing store,
        else one fresh combing (then cached at both levels)."""
        ca, cb = encode(a), encode(b)
        key = self.key_of(ca, cb)
        kern = self._lookup(key, ca.size, cb.size)
        if kern is not None:
            return kern
        self._count_miss()
        perm = iterative_combing_antidiag_simd(ca, cb)
        with self._lock:
            self.kernel_builds += 1
        _metric_inc("query.kernel_builds", 1)
        return self._install(key, perm, ca.size, cb.size)

    def _lookup(self, key: str, m: int, n: int) -> SemiLocalKernel | None:
        """The kernel cached under *key*: memory LRU, else backing store
        (adopted into memory); counts a hit when found."""
        kern = self._mem_get(key)
        if kern is None and self.store is not None:
            try:
                perm, counter_bytes = self.store.get_with_counter(key)
            except CheckpointCorruptionError:
                self.store.discard(key)
                perm, counter_bytes = None, None
            if perm is not None:
                counter = None
                if counter_bytes is not None:
                    from ..core.dominance import counter_from_bytes

                    try:
                        counter = counter_from_bytes(counter_bytes)
                    except ValueError:
                        counter = None  # rebuilt on first probe; never trust a bad sidecar
                kern = SemiLocalKernel(perm, m, n, validate=False, counter=counter)
                self._remember(key, kern)
        if kern is not None:
            self._count_hit()
        return kern

    def install_kernel(
        self, a: Sequenceish, b: Sequenceish, perm: PermArray
    ) -> SemiLocalKernel:
        """Adopt a kernel built elsewhere (e.g. by a serve-tier lockstep
        megabatch) into both cache levels; returns the wrapped kernel."""
        ca, cb = encode(a), encode(b)
        return self._install(self.key_of(ca, cb), np.asarray(perm, dtype=np.int64),
                             ca.size, cb.size)

    def _install(self, key: str, perm: PermArray, m: int, n: int) -> SemiLocalKernel:
        kern = SemiLocalKernel(perm, m, n, validate=False)
        self._remember(key, kern)
        if self.store is not None:
            self.store.put(
                key,
                perm,
                algorithm=QUERY_ALGORITHM,
                m=m,
                n=n,
                counter=kern.export_counter(),
            )
        return kern

    def _count_hit(self) -> None:
        with self._lock:
            self.kernel_hits += 1
        _metric_inc("query.kernel_hits", 1)

    def _count_miss(self) -> None:
        with self._lock:
            self.kernel_misses += 1
        _metric_inc("query.kernel_misses", 1)

    # -- query ops --------------------------------------------------------

    def lcs(self, a: Sequenceish, b: Sequenceish) -> int:
        """Global LCS score of the pair, off the cached kernel."""
        self._count_request()
        return self.kernel(a, b).lcs_whole()

    def windowed_lcs(
        self, a: Sequenceish, b: Sequenceish, window: int
    ) -> np.ndarray:
        """``out[l] = LCS(a, b[l:l+window))`` for every window of ``b``.

        One cached kernel, ``n - window + 1`` dominance counts. Raises
        :class:`~repro.errors.QueryError` when *window* does not fit in
        ``b``.
        """
        self._count_request()
        kern = self.kernel(a, b)
        window = int(window)
        if window <= 0 or window > kern.n:
            raise QueryError(
                f"window {window} outside [1, {kern.n}] for |b| = {kern.n}"
            )
        ls = np.arange(kern.n - window + 1, dtype=np.int64)
        return kern.string_substring_many(ls, ls + window)

    def all_prefix_scores(self, a: Sequenceish, b: Sequenceish) -> np.ndarray:
        """``out[r] = LCS(a, b[:r))`` for every prefix of ``b``."""
        self._count_request()
        kern = self.kernel(a, b)
        rs = np.arange(kern.n + 1, dtype=np.int64)
        return kern.string_substring_many(np.zeros_like(rs), rs)

    def all_suffix_scores(self, a: Sequenceish, b: Sequenceish) -> np.ndarray:
        """``out[l] = LCS(a, b[l:))`` for every suffix of ``b``."""
        self._count_request()
        kern = self.kernel(a, b)
        ls = np.arange(kern.n + 1, dtype=np.int64)
        return kern.string_substring_many(ls, np.full_like(ls, kern.n))

    def substring_threshold_matches(
        self,
        a: Sequenceish,
        b: Sequenceish,
        theta: float,
        window: int | None = None,
    ) -> list[tuple[int, int, int]]:
        """Approximate matching: non-overlapping length-*window* windows
        of ``b`` scoring at least ``ceil(theta * window)`` against ``a``
        (``window`` defaults to ``len(a)``), as ``(start, end, score)``
        triples — :func:`repro.apps.approximate_matching.find_matches`
        running over the cached kernel.
        """
        self._count_request()
        if not (0.0 < theta <= 1.0):
            raise QueryError(f"theta must be in (0, 1], got {theta}")
        from ..apps.approximate_matching import find_matches

        ca, cb = encode(a), encode(b)
        kern = self.kernel(ca, cb)
        window = ca.size if window is None else int(window)
        if window <= 0 or window > kern.n:
            raise QueryError(
                f"window {window} outside [1, {kern.n}] for |b| = {kern.n}"
            )
        min_score = math.ceil(theta * window)
        matches = find_matches(ca, cb, min_score, window=window, kernel=kern)
        return [(m.start, m.end, m.score) for m in matches]

    def append(
        self, a: Sequenceish, suffix: Sequenceish, b: Sequenceish
    ) -> SemiLocalKernel:
        """Kernel of ``(a + suffix, b)``: the cached ``P_{a,b}`` (built on
        a true cold start) with its comb resumed through the suffix's
        rows. The extended pair is looked up like any pair first and
        cached under its own key, so later queries on it are hits."""
        return self._extend(a, suffix, b, "end")

    def prepend(
        self, prefix: Sequenceish, a: Sequenceish, b: Sequenceish
    ) -> SemiLocalKernel:
        """Kernel of ``(prefix + a, b)`` — :meth:`append` at the front
        of ``a``, through the reversal identity
        (:func:`~repro.core.compose.reverse_kernel`)."""
        return self._extend(a, prefix, b, "start")

    def _extend(
        self, a: Sequenceish, block: Sequenceish, b: Sequenceish, at: str
    ) -> SemiLocalKernel:
        self._count_request()
        ca, cblock, cb = encode(a), encode(block), encode(b)
        if cblock.size == 0:
            return self.kernel(ca, cb)
        extended = concat([ca, cblock] if at == "end" else [cblock, ca])
        ext_key = self.key_of(extended, cb)
        kern = self._lookup(ext_key, extended.size, cb.size)
        if kern is not None:
            return kern
        base = self.kernel(ca, cb)
        perm = extend_kernel(base.kernel, base.m, cblock, cb, at=at)
        with self._lock:
            if at == "end":
                self.appends += 1
            else:
                self.prepends += 1
        _metric_inc("query.appends" if at == "end" else "query.prepends", 1)
        return self._install(ext_key, perm, extended.size, cb.size)

    # -- dispatch ----------------------------------------------------------

    def answer(self, op: str, a: Sequenceish, b: Sequenceish, **params):
        """Dispatch one catalog op by name (the serve tier's entry point).

        Array results come back as plain lists so they serialize straight
        into the wire protocol; ``append`` and ``prepend`` answer with
        the extended pair's global LCS score (the extended kernel is
        cached as a side effect).
        """
        if op not in QUERY_OPS:
            raise QueryError(f"unknown query op {op!r}; available: {list(QUERY_OPS)}")
        if op == "lcs":
            return int(self.lcs(a, b))
        if op == "windowed_lcs":
            return [int(s) for s in self.windowed_lcs(a, b, params["window"])]
        if op == "all_prefix_scores":
            return [int(s) for s in self.all_prefix_scores(a, b)]
        if op == "all_suffix_scores":
            return [int(s) for s in self.all_suffix_scores(a, b)]
        if op == "substring_threshold_matches":
            return [
                list(t)
                for t in self.substring_threshold_matches(
                    a, b, params["theta"], params.get("window")
                )
            ]
        if op == "append":
            return int(self.append(a, params["suffix"], b).lcs_whole())
        # prepend
        return int(self.prepend(params["prefix"], a, b).lcs_whole())

    def _count_request(self) -> None:
        with self._lock:
            self.requests += 1
        _metric_inc("query.requests", 1)

    # -- introspection -----------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Kernel-level hit rate: hits / (hits + misses), 0.0 when idle."""
        with self._lock:
            looked = self.kernel_hits + self.kernel_misses
            return self.kernel_hits / looked if looked else 0.0

    def stats(self) -> dict:
        """Requests, hit/miss/build/append/prepend counters, hit rate,
        and the backing store's own counters when one is attached."""
        with self._lock:
            out = {
                "requests": self.requests,
                "kernel_hits": self.kernel_hits,
                "kernel_misses": self.kernel_misses,
                "kernel_builds": self.kernel_builds,
                "appends": self.appends,
                "prepends": self.prepends,
                "memory_kernels": len(self._mem),
            }
        out["hit_rate"] = round(self.hit_rate, 6)
        if self.store is not None:
            out["store"] = self.store.stats()
        return out
