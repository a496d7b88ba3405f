"""Compare two result sets of the benchmark, metric by metric.

    python3 lcsbench/compare.py A.jsonl B.jsonl

A result set is the JSON-lines file ``run.py --out`` appends to: any
number of untraced runs of one or more workloads (traced runs are
skipped). A and B may be two sets of runs of the same commit (the
steadiness check) or a parent and a change. For each workload and
end-to-end metric the command prints each side's median and quartiles,
their spreads (inter-quartile distance over the median), the metric's
bound from ``BENCHMARK.json`` and one verdict:

- ``unresolved`` — a side's spread is wider than the bound, unless every
  run of B reads better (or worse) than every run of A;
- ``worse`` — B's median is worse than A's by more than the bound;
- ``better`` — B's median is better by more than the bound and than A's
  own spread, and at least nine in ten B runs beat A's median;
- ``agree`` — otherwise.

A latency (``latency_ms.*``) is also ``unresolved`` when its runs do not
all report the same statistic (``samples.*.stat`` in their provenance):
a mean and a p99.5, or a p99 and a p99.5, do not compare. Exits 1 when
any verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> tuple[dict, dict]:
    """``{workload: {metric: [value per run]}}`` of a result set, and
    ``{workload: {metric: {statistic}}}`` of its latencies."""
    values: dict = defaultdict(lambda: defaultdict(list))
    stats_: dict = defaultdict(lambda: defaultdict(set))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            prov = row.get("provenance", {})
            if prov.get("trace"):
                continue
            workload = prov["workload"]
            for name, metric in row["metrics"].items():
                values[workload][name].append(float(metric["value"]))
                if name.startswith("latency_ms."):
                    sample = prov.get("samples", {}).get(name.rsplit(".", 1)[1], {})
                    stats_[workload][name].add(sample.get("stat"))
    return values, stats_


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    """The comparison rule described in the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    bad_a, bad_b = [sign * v for v in a], [sign * v for v in b]  # higher is worse
    med_a, med_b = stats.quartiles(a)[1], stats.quartiles(b)[1]
    change = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0  # > 0: worse
    if max(bad_b) < min(bad_a):
        return "better" if -change > bound else "agree"
    if min(bad_b) > max(bad_a) and change > bound:
        return "worse"
    if max(stats.spread(a), stats.spread(b)) > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    wins = sum(v < sign * med_a for v in bad_b)
    if -change > max(bound, stats.spread(a)) and wins >= 0.9 * len(b):
        return "better"
    return "agree"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", help="result set A (parent, or first set)")
    p.add_argument("b", help="result set B (change, or second set)")
    args = p.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    (values_a, stats_a), (values_b, stats_b) = load(args.a), load(args.b)
    print(f"{'workload':9s} {'metric':14s} {'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s} "
          f"{'spread A/B':>13s} {'change':>8s} {'bound':>6s}  verdict")
    failing = 0
    for workload in sorted(set(values_a) & set(values_b)):
        for name, m in spec.items():
            a, b = values_a[workload].get(name), values_b[workload].get(name)
            if not a or not b:
                continue
            qa, qb = stats.quartiles(a), stats.quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            v = verdict(a, b, m["bound"], m["better"])
            used = stats_a[workload][name] | stats_b[workload][name]
            if len(used) > 1:
                v = f"unresolved: statistics {sorted(used, key=str)} differ"
            failing += v.startswith(("worse", "unresolved"))
            print(f"{workload:9s} {name:14s} "
                  f"{qa[1]:>12.5g} [{qa[0]:.4g}, {qa[2]:.4g}] n={len(a):<2d} "
                  f"{qb[1]:>12.5g} [{qb[0]:.4g}, {qb[2]:.4g}] n={len(b):<2d} "
                  f"{stats.spread(a):>6.1%}/{stats.spread(b):<6.1%} {change:>+8.1%} "
                  f"{m['bound']:>6.0%}  {v}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
