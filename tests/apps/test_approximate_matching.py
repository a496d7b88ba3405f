"""Tests for approximate pattern matching on semi-local kernels."""

import numpy as np
import pytest

from repro.apps.approximate_matching import Match, best_window, find_matches, sliding_window_scores
from repro.baselines.lcs_dp import lcs_score_scalar
from repro.core.dominance import WaveletCounter


def _best_window_loop(pattern, text):
    """Reference: every window scored by DP; highest score, then the
    shortest window, then the smallest start wins."""
    best = Match(0, 0, 0)
    for l in range(len(text) + 1):
        for r in range(l, len(text) + 1):
            score = lcs_score_scalar(pattern, text[l:r])
            if score > best.score or (score == best.score and r - l < best.length):
                best = Match(l, r, score)
    return best


@pytest.fixture
def no_scalar_probes(monkeypatch):
    """Fail on any one-at-a-time dominance count."""

    def scalar_count(self, i, j):
        raise AssertionError(f"scalar count({i}, {j})")

    monkeypatch.setattr(WaveletCounter, "count", scalar_count)


class TestSlidingWindow:
    def test_profile_matches_direct_lcs(self, rng):
        pattern = rng.integers(0, 3, size=5).tolist()
        text = rng.integers(0, 3, size=20).tolist()
        scores = sliding_window_scores(pattern, text)
        assert scores.size == 20 - 5 + 1
        for l, s in enumerate(scores):
            assert s == lcs_score_scalar(pattern, text[l : l + 5])

    def test_exact_occurrence_scores_full(self):
        pattern = "needle"
        text = "hay" * 3 + "needle" + "stack"
        scores = sliding_window_scores(pattern, text)
        assert scores.max() == len(pattern)
        assert int(np.argmax(scores)) == 9

    def test_window_longer_than_text(self):
        assert sliding_window_scores("abc", "ab").size == 0

    def test_custom_window(self):
        scores = sliding_window_scores("ab", "aabb", window=3)
        assert scores.size == 2


class TestBestWindow:
    def test_finds_exact_substring(self):
        m = best_window("core", "hardcorecode")
        assert m.score == 4
        assert "core" in "hardcorecode"[m.start : m.end]

    def test_prefers_shortest_among_ties(self):
        m = best_window("ab", "a-b--ab")
        assert m.score == 2
        assert m.length == 2  # the exact "ab" window, not "a-b"

    def test_empty_pattern(self):
        m = best_window("", "text")
        assert m.score == 0 and m.length == 0

    def test_empty_text(self):
        assert best_window("abc", "") == Match(0, 0, 0)

    def test_matches_nested_loop_with_ties(self, rng):
        # a binary alphabet makes ties in score and length common
        for _ in range(60):
            pattern = rng.integers(0, 2, int(rng.integers(0, 6))).tolist()
            text = rng.integers(0, 2, int(rng.integers(0, 11))).tolist()
            assert best_window(pattern, text) == _best_window_loop(pattern, text), (
                pattern, text)

    def test_probes_are_batched(self, rng, no_scalar_probes):
        pattern = rng.integers(0, 4, 12).tolist()
        text = rng.integers(0, 4, 40).tolist()
        assert best_window(pattern, text) == _best_window_loop(pattern, text)


class TestFindMatches:
    def test_finds_all_planted_occurrences(self, rng):
        pattern = [1, 2, 3, 4, 5]
        noise = rng.integers(6, 9, size=10).tolist()
        text = noise + pattern + noise + pattern + noise
        matches = find_matches(pattern, text, min_score=5)
        assert len(matches) == 2
        for m in matches:
            assert text[m.start : m.end] == pattern

    def test_non_overlapping(self):
        matches = find_matches("aa", "aaaa", min_score=2)
        ends = [0]
        for m in matches:
            assert m.start >= ends[-1]
            ends.append(m.end)

    def test_threshold_filters(self, rng):
        pattern = [1, 2, 3]
        text = rng.integers(4, 7, size=30).tolist()
        assert find_matches(pattern, text, min_score=3) == []

    def test_match_dataclass(self):
        m = Match(2, 7, 4)
        assert m.length == 5
