"""Property tests for the compute choices that must not change results.

The vectorized steady ant is a pure batching change, and the combers'
blends, strand dtypes and braid multiplications are representation
choices, so each must be *bit-identical* to its reference across random
inputs (the Listing 7 grid, which has none of these toggles, is checked
on every machine in ``test_prop_grid_differential.py``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combing.hybrid import hybrid_combing, hybrid_combing_grid
from repro.core.combing.parallel import parallel_load_balanced_combing
from repro.core.steady_ant import (
    steady_ant_multiply,
    steady_ant_sequential,
    steady_ant_vectorized,
)
from repro.parallel import SerialMachine, ThreadMachine

strings = st.text(alphabet="abcd", min_size=1, max_size=40)
perm_pairs = st.integers(0, 2**32 - 1).flatmap(
    lambda seed: st.integers(1, 80).map(
        lambda n: (
            np.random.default_rng(seed).permutation(n),
            np.random.default_rng(seed + 1).permutation(n),
        )
    )
)


@given(perm_pairs)
@settings(max_examples=80, deadline=None)
def test_vectorized_equals_scalar(pq):
    p, q = pq
    assert np.array_equal(steady_ant_vectorized(p, q), steady_ant_sequential(p, q))


@given(strings, strings, st.sampled_from(["where", "masked", "arith", "bitwise", "minmax"]),
       st.booleans())
@settings(max_examples=30, deadline=None)
def test_all_toggle_combinations_agree(a, b, blend, use_16bit):
    want = hybrid_combing_grid(a, b, 3)
    for multiply in (steady_ant_multiply, steady_ant_vectorized):
        got = hybrid_combing(a, b, 2, multiply=multiply, blend=blend, use_16bit=use_16bit)
        assert np.array_equal(got, want), multiply
    with ThreadMachine(workers=2) as threads:
        for machine in (SerialMachine(), threads):
            for multiply in (steady_ant_multiply, steady_ant_vectorized):
                got = parallel_load_balanced_combing(
                    a, b, machine, blend=blend, multiply=multiply, use_16bit=use_16bit
                )
                assert np.array_equal(got, want), (machine, multiply)
