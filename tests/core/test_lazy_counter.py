"""The dominance counter is built on a kernel's first probe, once."""

import sys
import threading

import numpy as np

import repro
from repro.baselines.lcs_dp import lcs_score_dp
from repro.core.dominance import WaveletCounter
from repro.core.kernel import SemiLocalKernel
from repro.obs.metrics import get_metrics

A, B = "dynamicprogramming", "programmingdynamics"


def builds() -> int:
    return get_metrics().counter("kernel.counter_builds").value


def test_construction_builds_nothing():
    before = builds()
    kern = repro.semilocal_lcs(A, B)
    SemiLocalKernel(kern.kernel, len(A), len(B))
    kern.flipped()
    assert builds() == before


def test_first_probe_builds_one():
    kern = repro.semilocal_lcs(A, B)
    before = builds()
    assert kern.lcs_whole() == lcs_score_dp(A, B)
    assert builds() - before == 1
    kern.string_substring_many([0, 1], [len(B), len(B)])
    kern.export_counter()
    assert builds() - before == 1


def test_racing_first_probes_build_one():
    """8 threads probe fresh kernels at once, with a short switch
    interval; each kernel must still build exactly one counter."""
    kernels = [repro.semilocal_lcs(A[k:], B) for k in range(10)]
    want = [lcs_score_dp(A[k:], B) for k in range(10)]
    results: dict[tuple[int, int], int] = {}
    barrier = threading.Barrier(8)

    def probe(t: int) -> None:
        for k, kern in enumerate(kernels):
            barrier.wait(timeout=10)
            results[t, k] = kern.lcs_whole()

    before = builds()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=probe, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert builds() - before == len(kernels)
    assert results == {(t, k): want[k] for t in range(8) for k in range(10)}


def test_adopted_wavelet_builds_nothing():
    perm = repro.semilocal_lcs(A, B).kernel
    counter = WaveletCounter(perm)
    before = builds()
    kern = SemiLocalKernel(perm, len(A), len(B), counter=counter)
    assert kern.lcs_whole() == lcs_score_dp(A, B)
    assert builds() == before


def test_mismatched_counter_is_ignored():
    perm = repro.semilocal_lcs(A, B).kernel
    before = builds()
    kern = SemiLocalKernel(perm, len(A), len(B), counter=WaveletCounter(np.arange(3)))
    assert kern.lcs_whole() == lcs_score_dp(A, B)
    assert builds() - before == 1
