"""Summary statistics shared by every workload and by the compare command.

A timing is reported as its median, its mean and a tail percentile,
always with the sample count. The gated latency uses a statistic fixed
per workload (``catalog.LATENCY_STAT``): the mean, or a percentile that
the smallest run of the workload supports, i.e. that has at least
:data:`MIN_BEYOND` samples beyond it. A run gathers samples until its
percentile is supported, so a faster or slower program never changes
which statistic is compared.
"""

from __future__ import annotations

import math
import statistics

#: samples that must lie strictly beyond a reported tail percentile
MIN_BEYOND = 10
#: tail percentiles that may be reported, highest first
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)


def supports(n: int, pct: float) -> bool:
    """Whether *n* samples leave at least ``MIN_BEYOND`` beyond *pct*."""
    return round(n * (100.0 - pct) / 100.0, 9) >= MIN_BEYOND


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ``MIN_BEYOND`` of *n*
    samples beyond it, or ``None`` when *n* is too small for any."""
    for pct in TAIL_LADDER:
        if supports(n, pct):
            return pct
    return None


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def summarize(samples: list[float], pct: float | None = None) -> dict:
    """``{"n", "median", "mean", "tail", "tail_pct"}`` of *samples*.

    The tail is the *pct* percentile (the median when *pct* is 50). With
    *pct* ``None`` it is the highest ladder percentile *n* supports, or
    the median when *n* supports none above it.
    """
    values = sorted(float(v) for v in samples)
    if not values:
        return {"n": 0, "median": 0.0, "mean": 0.0, "tail": 0.0, "tail_pct": pct}
    median = statistics.median(values)
    if pct is None:
        pct = tail_percentile(len(values)) or 50.0
    tail = median if pct == 50.0 else nearest_rank(values, pct)
    return {"n": len(values), "median": median, "mean": statistics.fmean(values),
            "tail": tail, "tail_pct": pct}


def latency(samples: list[float], stat: str) -> dict:
    """:func:`summarize` of *samples* plus the gated ``value`` and the
    ``stat`` it is: ``"mean"``, or a percentile written ``"p99.5"``."""
    if stat == "mean":
        s = summarize(samples, 50.0)
        return {**s, "stat": stat, "value": s["mean"]}
    s = summarize(samples, float(stat.removeprefix("p")))
    return {**s, "stat": stat, "value": s["tail"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them (a single value is its own quartiles)."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf
