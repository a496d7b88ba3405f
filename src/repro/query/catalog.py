"""The query catalog: every semi-local query type the tier serves.

One row per query op, consumed three ways:

- :class:`repro.query.engine.QueryEngine` validates dispatch against the
  op names;
- ``docs/gen_api.py`` renders ``docs/queries.md`` from the rows (a unit
  test in ``tests/query/test_catalog.py`` keeps the file in sync, the
  same drift contract as ``docs/metrics.md``);
- the serve protocol advertises exactly these ops for ``query``
  requests.

Each entry is ``(op, signature, semantics, theorem, build_cost,
query_cost)`` where *theorem* cites Tiskin's monograph
(arXiv:0707.3619) and the costs separate the one-off kernel build from
the marginal per-query work over the cached permutation kernel.
"""

from __future__ import annotations

#: ``(op, signature, semantics, monograph reference, kernel-build cost,
#: per-query cost over the cached kernel)`` for every query type.
QUERY_CATALOG: tuple[tuple[str, str, str, str, str, str], ...] = (
    (
        "lcs",
        "lcs(a, b) -> int",
        "Global LCS score of the pair — the string-substring query at the full window `b[0:n)`.",
        "Def. 3.2/3.3 (semi-local score matrix and its kernel representation)",
        "one O(mn) combing",
        "one dominance count: O(1) dense, O(log n) wavelet matrix",
    ),
    (
        "windowed_lcs",
        "windowed_lcs(a, b, window) -> int64[n - window + 1]",
        "`out[l] = LCS(a, b[l:l+window))` for every length-`window` window of `b` — "
        "sliding-window comparison off one kernel.",
        "string-substring quadrant of Def. 3.2 (H_{a,b}(i, j) at i = m+l, j = l+window)",
        "one O(mn) combing (shared with every other op on the pair)",
        "n - window + 1 dominance counts",
    ),
    (
        "all_prefix_scores",
        "all_prefix_scores(a, b) -> int64[n + 1]",
        "`out[r] = LCS(a, b[:r))` for every prefix of `b` (out[n] is the global score).",
        "string-substring quadrant, left edge pinned at l = 0",
        "one O(mn) combing (shared)",
        "n + 1 dominance counts",
    ),
    (
        "all_suffix_scores",
        "all_suffix_scores(a, b) -> int64[n + 1]",
        "`out[l] = LCS(a, b[l:))` for every suffix of `b` (out[0] is the global score).",
        "string-substring quadrant, right edge pinned at r = n",
        "one O(mn) combing (shared)",
        "n + 1 dominance counts",
    ),
    (
        "substring_threshold_matches",
        "substring_threshold_matches(a, b, theta, window=None) -> [(start, end, score), ...]",
        "Non-overlapping length-`window` windows of `b` whose LCS against `a` is at least "
        "`ceil(theta * window)` — approximate matching as in `repro.apps.approximate_matching`, "
        "greedy local maxima left to right.",
        "monograph Ch. 3-4 application: approximate matching via the string-substring quadrant",
        "one O(mn) combing (shared)",
        "n - window + 1 dominance counts + one linear sweep",
    ),
    (
        "append",
        "append(a, suffix, b) -> kernel of (a + suffix, b)",
        "Extend a cached pair: resume the comb of the cached kernel P_{a,b} through the "
        "suffix's rows instead of recombing the whole of `a + suffix`. The extended kernel is "
        "cached under the extended pair's key, so follow-up queries are hits.",
        "Listing 1 resumed: P_{a,b} is the strand state on the exit boundary of a's grid",
        "|suffix|·n cells combed from the cached kernel's boundary + O(m+n) relabelling; "
        "no braid multiply",
        "inherits every per-query cost above on the extended kernel",
    ),
    (
        "prepend",
        "prepend(prefix, a, b) -> kernel of (prefix + a, b)",
        "Extend a cached pair at the front: append the reversed prefix to the reversed pair "
        "and reverse the result back. The extended kernel is cached under the extended pair's "
        "key, so follow-up queries are hits.",
        "append through the reversal identity P_{rev a, rev b} = flip(P_{a,b}^-1) (Thm. 3.5)",
        "|prefix|·n cells combed from the cached kernel's boundary + O(m+n) relabelling; "
        "no braid multiply",
        "inherits every per-query cost above on the extended kernel",
    ),
)

#: Op names accepted by :meth:`repro.query.engine.QueryEngine.answer`
#: and the serve protocol's ``query`` request type.
QUERY_OPS: tuple[str, ...] = tuple(row[0] for row in QUERY_CATALOG)
