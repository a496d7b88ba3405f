"""Verdicts of the compare command."""

import json

import compare


def test_same_distribution_agrees():
    a = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(a, list(a), 0.1, "lower") == "agree"


def test_clear_slowdown_is_worse_and_speedup_better():
    a = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    slow = [v * 1.5 for v in a]
    assert compare.verdict(a, slow, 0.1, "lower") == "worse"
    assert compare.verdict(slow, a, 0.1, "lower") == "better"
    assert compare.verdict(a, slow, 0.1, "higher") == "better"


def test_wide_spread_is_unresolved():
    a = [50, 150, 60, 140, 100, 90, 110, 70, 130, 100]
    b = [v * 1.05 for v in a]
    assert compare.verdict(a, b, 0.1, "lower") == "unresolved"


def _result_set(path, values_and_stats):
    with open(path, "w", encoding="utf-8") as fh:
        for value, stat in values_and_stats:
            sample = {"n": 2100, "median": 2.0, "value": value, "stat": stat}
            fh.write(json.dumps({
                "metrics": {"latency_ms.ref": {"value": value, "unit": "ms"}},
                "provenance": {"workload": "serve", "trace": False,
                               "samples": {"ref": sample}},
            }) + "\n")


def test_different_statistics_are_unresolved(tmp_path, capsys):
    a, b, c = (tmp_path / f"{x}.jsonl" for x in "abc")
    _result_set(a, [(150.0, "p99.5")] * 5)
    _result_set(b, [(150.0, "p99.5")] * 4 + [(150.0, "p99")])
    _result_set(c, [(150.0, "mean")] * 5)
    assert compare.main([str(a), str(a)]) == 0
    assert "agree" in capsys.readouterr().out
    assert compare.main([str(a), str(b)]) == 1
    assert "unresolved: statistics ['p99', 'p99.5'] differ" in capsys.readouterr().out
    assert compare.main([str(a), str(c)]) == 1
    assert "unresolved: statistics ['mean', 'p99.5'] differ" in capsys.readouterr().out
