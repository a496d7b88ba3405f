"""Tests for the machine-parameterized bit-parallel LCS."""

import numpy as np
import pytest

from repro.baselines.lcs_dp import lcs_score_scalar
from repro.core.bitparallel.parallel import bit_lcs_parallel
from repro.parallel import SerialMachine, SimulatedMachine


def random_binary(rng, n):
    return rng.integers(0, 2, size=n).astype(np.int8)


@pytest.mark.parametrize("variant", ["old", "new1", "new2"])
class TestParallelBit:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_dp(self, variant, workers, rng):
        for _ in range(10):
            a = random_binary(rng, int(rng.integers(1, 80)))
            b = random_binary(rng, int(rng.integers(1, 80)))
            machine = SimulatedMachine(workers=workers)
            got = bit_lcs_parallel(a, b, machine, variant=variant, w=8)
            assert got == lcs_score_scalar(a, b)

    def test_serial_machine(self, variant, rng):
        a = random_binary(rng, 100)
        b = random_binary(rng, 90)
        got = bit_lcs_parallel(a, b, SerialMachine(), variant=variant, w=16)
        assert got == lcs_score_scalar(a, b)

    def test_empty(self, variant):
        assert bit_lcs_parallel([], [1], SerialMachine(), variant=variant) == 0


class TestAccounting:
    def test_one_round_per_block_antidiagonal(self, rng):
        a = random_binary(rng, 32)
        b = random_binary(rng, 24)
        machine = SimulatedMachine(workers=2)
        bit_lcs_parallel(a, b, machine, w=8)
        ma, nb = 4, 3
        assert machine.rounds == ma + nb - 1

    def test_old_variant_not_faster(self, rng):
        """Sanity bound on the Fig. 9a effect at unit-test sizes: the
        extra gather/scatter traffic of bit_old must never make it
        *significantly faster* than new1. At this size the expected
        ~1.2x penalty is within timing noise, so the quantitative
        old-vs-new claim lives in ``benchmarks/bench_fig9a_*`` (which
        floors its input size where the gap is reliably measurable)."""
        a = random_binary(rng, 16384)
        b = random_binary(rng, 16384)

        def run(variant):
            machine = SimulatedMachine(workers=1)
            bit_lcs_parallel(a, b, machine, variant=variant)
            return machine.elapsed

        run("old")  # warmup both code paths
        run("new1")
        # alternate the variants call by call, rotating which goes
        # first, so drift of the host between calls reaches both
        times = {"old": [], "new1": []}
        for order in (("new1", "old"), ("old", "new1")):
            for variant in order:
                times[variant].append(run(variant))
        assert min(times["old"]) > 0.8 * min(times["new1"])
