"""The serve workload's answer checks reach DP for every op kind, so a
fault shared by the daemon and the in-process oracle still shows."""

import json

import numpy as np
import pytest

import common

common.require_program()

import loadgen  # noqa: E402
import serve  # noqa: E402
from repro.baselines.lcs_dp import lcs_score_dp, lcs_table  # noqa: E402
from repro.query import QueryEngine  # noqa: E402

A, B = "ACGTTGCAACGGTACCATGA", "ACGTAGCATCGGTTACCAGGATTACA"
PARAMS = {
    "lcs": {}, "all_prefix_scores": {}, "all_suffix_scores": {},
    "windowed_lcs": {"window": 6},
    "substring_threshold_matches": {"theta": 0.5, "window": 6},
    "append": {"suffix": "GATTACA"}, "prepend": {"prefix": "TTAG"},
}


def _req(op):
    return {"type": "query", "op": op, "a": A, "b": B, "params": PARAMS[op]}


def _answer(op):
    return QueryEngine().answer(op, A, B, **PARAMS[op])


@pytest.mark.parametrize("op", sorted(PARAMS))
def test_true_answers_agree_with_dp(op):
    assert serve.dp_agrees(_req(op), _answer(op), np.random.default_rng(0))


def test_suffix_scores_are_checked_against_reversed_dp():
    want = [lcs_score_dp(A, B[l:]) for l in range(len(B) + 1)]
    assert _answer("all_suffix_scores") == want == lcs_table(A[::-1], B[::-1])[-1][::-1].tolist()


@pytest.mark.parametrize("op", ["all_suffix_scores", "windowed_lcs", "lcs", "prepend"])
def test_a_fault_shared_with_the_oracle_fails_verification(op, monkeypatch):
    real = QueryEngine.answer

    def shifted(self, op_, a, b, **params):  # the same wrong answer everywhere
        out = real(self, op_, a, b, **params)
        return [v + 1 for v in out] if isinstance(out, list) else out + 1

    monkeypatch.setattr(QueryEngine, "answer", shifted)
    ledger = serve.Ledger()
    response = json.dumps({"ok": True, "result": _answer(op)}).encode()
    ledger.record([(_req(op), "cached")], [loadgen.Outcome(due=0.0, response=response)])
    ledger.verify(seed=1)
    assert ledger.failed == 1 and ledger.verified(list(ledger.answers)) == 0
