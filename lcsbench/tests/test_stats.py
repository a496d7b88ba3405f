"""The percentile rule: median plus the highest percentile that has at
least ten samples beyond it."""

import statistics

import pytest

import stats


@pytest.mark.parametrize(
    "n, pct",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (2000, 99.5), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct
    if pct is not None:
        assert round(n * (100 - pct) / 100, 9) >= stats.MIN_BEYOND


def test_reported_tail_has_ten_samples_beyond_it():
    values = list(range(1, 1001))  # 1..1000
    s = stats.summarize(values)
    assert (s["n"], s["tail_pct"], s["tail"]) == (1000, 99.0, 990)
    assert sum(v > s["tail"] for v in values) == 10
    assert s["median"] == statistics.median(values)


def test_small_samples_report_the_median_as_tail():
    s = stats.summarize([3.0, 1.0, 2.0])
    assert s == {"n": 3, "median": 2.0, "mean": 2.0, "tail": 2.0, "tail_pct": 50.0}


def test_gated_latency_is_the_fixed_statistic():
    values = [1.0, 1.0, 1.0, 1.0, 6.0]
    mean = stats.latency(values, "mean")
    assert (mean["stat"], mean["value"], mean["median"]) == ("mean", 2.0, 1.0)
    values = list(range(1, 2101))
    tail = stats.latency(values, "p99.5")
    assert (tail["stat"], tail["tail_pct"]) == ("p99.5", 99.5)
    assert tail["value"] == stats.nearest_rank(values, 99.5)


@pytest.mark.parametrize("n", [2100, 2400, 3000])
def test_fixed_percentile_does_not_follow_the_sample_count(n):
    values = list(range(1, n + 1))
    s = stats.summarize(values, 99.5)
    assert s["tail_pct"] == 99.5
    assert s["tail"] == stats.nearest_rank(values, 99.5)
    assert stats.supports(n, 99.5)
    assert sum(v > s["tail"] for v in values) >= stats.MIN_BEYOND


def test_supports_needs_ten_beyond():
    assert not stats.supports(1999, 99.5) and stats.supports(2000, 99.5)
    assert stats.summarize([1.0, 2.0, 3.0, 4.0], 50.0)["tail"] == 2.5


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / med)
