"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures of the paper, but measurements of the individual knobs the
paper's text discusses:

- §4.1 branch-elimination idioms, including the §6 future-work
  AVX-512-style masked min/max inner loop,
- §4.1 16-bit strand indices,
- §4.2.1 precalc table order (4! vs 5! base),
- §4.3 compose-order heuristic (longest-side vs fixed orders).
"""

import numpy as np
import pytest

from repro.bench.harness import BenchTable, scaled, time_call
from repro.core.combing.hybrid import hybrid_combing_grid
from repro.core.combing.iterative import iterative_combing_antidiag_simd
from repro.core.steady_ant import steady_ant_precalc
from repro.datasets.synthetic import synthetic_pair


@pytest.fixture(scope="module")
def pair():
    n = scaled(8_000)
    return synthetic_pair(n, n, sigma=1.0, seed=29)


@pytest.mark.parametrize("blend", ["masked", "where", "arith", "bitwise", "minmax"])
def test_blend_idiom(benchmark, blend, pair):
    a, b = pair
    benchmark.group = "ablation: inner-loop blend"
    benchmark.pedantic(
        iterative_combing_antidiag_simd,
        args=(a, b),
        kwargs={"blend": blend, "use_16bit_when_possible": False},
        rounds=2,
        iterations=1,
    )


@pytest.mark.parametrize("dtype", ["int64", "uint16"], ids=str)
def test_strand_index_width(benchmark, dtype, pair):
    a, b = pair
    benchmark.group = "ablation: strand index width"
    benchmark.pedantic(
        iterative_combing_antidiag_simd,
        args=(a, b),
        kwargs={"dtype": np.dtype(dtype), "blend": "where"},
        rounds=2,
        iterations=1,
    )


@pytest.mark.parametrize("max_order", [3, 4, 5])
def test_precalc_order(benchmark, max_order, rng):
    n = scaled(20_000)
    p, q = rng.permutation(n), rng.permutation(n)
    benchmark.group = "ablation: precalc table order"
    benchmark.pedantic(
        steady_ant_precalc, args=(p, q), kwargs={"max_order": max_order}, rounds=2, iterations=1
    )


@pytest.mark.parametrize("reduction", ["longest-side", "rows-first", "cols-first"])
def test_compose_order_heuristic(benchmark, reduction):
    # a deliberately skewed grid, where compose order matters most
    n = scaled(8_000)
    a, b = synthetic_pair(n // 4, n, sigma=1.0, seed=31)
    benchmark.group = "ablation: compose-order heuristic"
    benchmark.pedantic(
        hybrid_combing_grid,
        args=(a, b, 8),
        kwargs={"reduction": reduction},
        rounds=2,
        iterations=1,
    )


def test_ablation_table(benchmark, print_table, pair):
    a, b = pair

    def build():
        table = BenchTable(
            "Extension: ablation summary",
            ["knob", "setting", "time_s"],
        )
        for blend in ("masked", "where", "minmax"):
            table.add(
                "blend",
                blend,
                time_call(
                    lambda: iterative_combing_antidiag_simd(
                        a, b, blend=blend, use_16bit_when_possible=False
                    ),
                    repeats=1,
                ),
            )
        for dtype in (np.int64, np.uint16):
            table.add(
                "dtype",
                np.dtype(dtype).name,
                time_call(
                    lambda: iterative_combing_antidiag_simd(a, b, dtype=dtype, blend="where"),
                    repeats=1,
                ),
            )
        return table

    print_table(benchmark.pedantic(build, rounds=1, iterations=1))
