"""Semi-local query tier: one cached kernel, many cheap queries.

The serving-path memoization layer between the combing algorithms and
the daemon (see ``docs/guide.md`` for the tier map and
``docs/queries.md`` for the query reference):

- :class:`~repro.query.engine.QueryEngine` — computes (or fetches) a
  pair's semi-local kernel once, then answers ``lcs``,
  ``windowed_lcs``, ``all_prefix_scores``, ``all_suffix_scores`` and
  ``substring_threshold_matches`` by dominance counting over the cached
  permutation, plus ``append`` / ``prepend``, which resume a cached
  kernel's comb for a grown string;
- :data:`~repro.query.catalog.QUERY_CATALOG` /
  :data:`~repro.query.catalog.QUERY_OPS` — the op reference
  (semantics, monograph theorem, cost model) that ``docs/queries.md``
  is generated from;
- the backing cache is a :class:`~repro.checkpoint.store.KernelStore`
  in LRU cache mode (``max_bytes=...``), shared with the durability
  layer.

CLI: ``repro-lcs query`` (offline) and the daemon's ``query`` request
type (``repro-lcs serve`` / ``client --query``).
"""

from __future__ import annotations

from .catalog import QUERY_CATALOG, QUERY_OPS
from .engine import QUERY_ALGORITHM, QueryEngine

__all__ = [
    "QueryEngine",
    "QUERY_ALGORITHM",
    "QUERY_CATALOG",
    "QUERY_OPS",
]
