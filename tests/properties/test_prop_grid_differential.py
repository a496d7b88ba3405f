"""Differential test of the one Listing 7 grid.

Every comber is a schedule of the same comparators (Krusche and Tiskin,
arXiv:0903.3579) and composing kernels along a fixed tree gives one
kernel whatever executes it (Tiskin, arXiv:0707.3619), so every machine
is one more schedule of ``parallel_hybrid_combing_grid``. Each draw runs
on every machine, plain and checkpointed (a fresh run, then a resumed
one), and every kernel must score exactly as the brute-force semi-local
oracle of Definition 3.3 (``repro.baselines.semilocal_naive``).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.semilocal_naive import semilocal_h_matrix_naive
from repro.checkpoint import GridCheckpointer, KernelStore
from repro.core.combing.parallel import parallel_hybrid_combing_grid
from repro.core.kernel import SemiLocalKernel
from repro.errors import DegradedExecutionWarning
from repro.parallel import (
    ChaosMachine,
    FaultPolicy,
    ProcessMachine,
    ResilientMachine,
    SerialMachine,
    SimulatedMachine,
    ThreadMachine,
)

unary = st.builds(lambda letter, k: letter * k, st.sampled_from("ab"), st.integers(1, 16))
strings = st.one_of(
    st.just(""),
    st.text(alphabet="abcd", min_size=1, max_size=1),
    unary,
    st.text(alphabet="abcd", max_size=20),
)


@pytest.fixture(scope="module")
def pools():
    """The pool machines, built once for every draw of this module."""
    with ThreadMachine(workers=2) as threads, ProcessMachine(
        workers=2, transport="pickle"
    ) as pickled, ProcessMachine(workers=2, transport="shm") as shm:
        yield {"threads": threads, "processes-pickle": pickled, "processes-shm": shm}


@settings(max_examples=30, deadline=None)
@given(
    a=strings,
    b=strings,
    n_tasks=st.integers(1, 6),
    reduction=st.sampled_from(["longest-side", "rows-first", "cols-first"]),
    seed=st.integers(0, 99),
)
def test_every_machine_matches_the_oracle(
    pools, tmp_path_factory, a, b, n_tasks, reduction, seed
):
    want = semilocal_h_matrix_naive(a, b)
    machines = {
        "serial": SerialMachine(),
        "simulated": SimulatedMachine(workers=2),
        **pools,
        "resilient-chaos": ResilientMachine(
            ChaosMachine(SerialMachine(), fail_rate=0.3, seed=seed),
            FaultPolicy(max_retries=3, backoff_base=0.0, jitter=0.0),
            sleep=lambda s: None,
        ),
    }
    store_dir = tmp_path_factory.mktemp("grid")
    for name, machine in machines.items():
        # plain, then fresh (resume=False discards what an earlier
        # machine stored), then resumed from that fresh run's store
        for resume in (None, False, True):
            store = ckpt = None
            if resume is not None:
                store = KernelStore(store_dir)
                ckpt = GridCheckpointer(store, resume=resume, compose_min_order=0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedExecutionWarning)
                got = parallel_hybrid_combing_grid(
                    a, b, machine, n_tasks=n_tasks, reduction=reduction, checkpoint=ckpt
                )
            assert got.dtype == np.int64, (name, resume)
            h = SemiLocalKernel(got, len(a), len(b)).h_matrix()
            assert np.array_equal(h, want), (name, resume)
            if resume and a and b:  # the finished root, read back
                assert store.stats()["hits"] == 1 and store.stats()["misses"] == 0
