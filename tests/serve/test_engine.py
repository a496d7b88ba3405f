"""Unit tests for the warm serving engine's explicit lifetime."""

from __future__ import annotations

import warnings

import pytest

from repro.batch import batch_lcs
from repro.errors import DegradedExecutionWarning, EngineClosedError
from repro.parallel import FaultPolicy
from repro.serve import Engine

PAIRS = [("abacus", "cabbage"), ("banana", "ananas"), ("", "xyz"), ("same", "same")]


class TestLifecycle:
    def test_states_run_forward(self):
        e = Engine(backend="none")
        assert e.state == "new"
        e.start()
        assert e.state == "running"
        e.close()
        assert e.state == "closed"

    def test_start_is_idempotent(self):
        e = Engine(backend="none")
        e.start()
        scheduler = e.scheduler
        assert e.start() is e
        assert e.scheduler is scheduler  # no rebuild on the second start
        e.close()

    def test_close_is_idempotent(self):
        e = Engine(backend="none").start()
        e.close()
        e.close()  # second close is a no-op, not an error
        assert e.state == "closed"

    def test_start_after_close_raises(self):
        e = Engine(backend="none").start()
        e.close()
        with pytest.raises(EngineClosedError):
            e.start()

    def test_run_after_close_raises(self):
        e = Engine(backend="none").start()
        e.close()
        with pytest.raises(EngineClosedError):
            e.scores(PAIRS)

    def test_first_use_auto_starts(self):
        e = Engine(backend="none")
        try:
            assert e.scores([("ab", "ba")]) == [1]
            assert e.state == "running"
        finally:
            e.close()

    def test_context_manager(self):
        with Engine(backend="none") as e:
            assert e.state == "running"
        assert e.state == "closed"

    def test_drain_is_idempotent(self):
        with Engine(backend="none") as e:
            e.drain()
            e.drain()


class TestServing:
    def test_scores_match_direct_batch(self):
        with Engine(backend="none") as e:
            assert e.scores(PAIRS) == list(batch_lcs(PAIRS))

    def test_scheduler_persists_across_batches(self):
        with Engine(backend="none") as e:
            e.scores(PAIRS)
            scheduler = e.scheduler
            e.scores(PAIRS[:2])
            assert e.scheduler is scheduler
            assert e.batches == 2
            assert e.pairs_served == len(PAIRS) + 2

    def test_health_document(self):
        with Engine(backend="none") as e:
            e.scores(PAIRS)
            h = e.health()
        assert h["state"] == "running"  # snapshot taken before close
        assert h["backend"] == "none"
        assert "algorithm" not in h  # every batch is a lockstep comb
        assert h["batches"] == 1
        assert h["pairs_served"] == len(PAIRS)
        assert h["resilience"] == {}  # in-process: no machine
        assert h["last_batch"]["pairs"] == len(PAIRS)
        assert "fallback" not in h["last_batch"]

    def test_serial_backend_round_trip(self):
        with Engine(backend="serial", policy=False) as e:
            assert e.scores(PAIRS) == list(batch_lcs(PAIRS))
            assert e.machine is not None
        assert e.machine is None  # released by close


class TestNoBraidMultiply:
    """Scores, kernel builds and append/prepend are all combs: the engine
    warms no steady-ant state and multiplies no braids."""

    COUNTERS = (
        "steady_ant.multiplies",
        "steady_ant.vectorized_multiplies",
        "steady_ant.precalc_builds",
    )

    def test_serving_multiplies_no_braids(self):
        from repro.obs import get_metrics

        metrics = get_metrics()
        before = {name: metrics.counter(name).value for name in self.COUNTERS}
        items = [
            ("lcs", "abracadabra" * 8, "alakazamabra" * 8, {}),
            ("append", "abracadabra" * 8, "alakazamabra" * 8, {"suffix": "cadabra"}),
            ("prepend", "abracadabra" * 8, "alakazamabra" * 8, {"prefix": "abra"}),
        ]
        with Engine(backend="none") as e:
            e.scores(PAIRS)
            assert all(exc is None for _, exc in e.run_query_batch(items))
        assert {name: metrics.counter(name).value for name in self.COUNTERS} == before

    @pytest.mark.parametrize(
        "knob",
        [
            {"algorithm": "semi_hybrid"},
            {"blend": "minmax"},
            {"min_side": 8},
            {"warm_precalc": False},
            {"warm_compute": False},
        ],
    )
    def test_dropped_knobs_rejected(self, knob):
        with pytest.raises(TypeError):
            Engine(backend="none", **knob)


class TestDegradedMode:
    def test_chaos_faults_are_invisible_in_results(self):
        policy = FaultPolicy(max_retries=3, backoff_base=0.0, jitter=0.0)
        chaos = {"fail_rate": 0.3, "seed": 7}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecutionWarning)
            with Engine(backend="serial", policy=policy, chaos=chaos) as e:
                got = e.scores(PAIRS)
                health = e.health()
        assert got == list(batch_lcs(PAIRS))
        assert health["resilience"] != {}  # fault counters are exposed
