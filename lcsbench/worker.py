"""Worker process of the in-process workloads ``pair`` and ``batch``.

``run.py`` starts this program once per set-up sample. It imports the
program, builds the warm 2-worker process pool, warms every path, and
prints ``READY`` — the parent times set-up up to that line. A
``--setup-only`` worker stops there. Otherwise the worker measures for
``--seconds``, verifies every output against a DP oracle, and prints one
JSON line of raw results for the parent.

Usage (normally through ``run.py``)::

    python3 lcsbench/worker.py pair --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import common

PAIR_LEN = 8192          # both genomes are cut to this length
BATCH_PAIRS = 1000
BATCH_MIN_LEN, BATCH_MAX_LEN = 64, 1024
BATCH_SHAPE_SEED = 0     # pairs the lengths; the run's seed draws the contents
DP_WINDOWS = 4           # sampled string-substring windows checked by DP
DP_WINDOW_LEN = 512


def _make_machine(seed: int):
    """The warm pool, built the way ``repro-lcs parallel`` builds it."""
    from repro.parallel import FaultPolicy, make_machine

    return make_machine(
        "processes", workers=common.WORKERS,
        policy=FaultPolicy(seed=seed), transport="shm",
    )


class Pair:
    """One related genome pair turned into a kernel twice per repeat:
    in-process by ``repro.semilocal_lcs`` (``ref``) and by the grid on
    the warm pool (``alt``)."""

    name = "pair"

    def __init__(self, seed: int):
        import numpy as np

        from repro.datasets.genomes import virus_pair

        a, b = virus_pair("hiv", seed=seed)
        self.a = np.ascontiguousarray(a[:PAIR_LEN])
        self.b = np.ascontiguousarray(b[:PAIR_LEN])
        self.seed = seed
        self.machine = None
        self.reference = None

    def ref(self):
        import repro

        return repro.semilocal_lcs(self.a, self.b)

    def alt(self):
        from repro.core.combing.parallel import parallel_hybrid_combing_grid
        from repro.core.kernel import SemiLocalKernel

        perm = parallel_hybrid_combing_grid(self.a, self.b, self.machine)
        return SemiLocalKernel(perm, self.a.size, self.b.size, validate=False)

    def check(self, kernel) -> bool:
        """Same kernel as the first one produced (checked by DP later)."""
        import numpy as np

        if self.reference is None:
            self.reference = kernel
            return True
        return bool(np.array_equal(kernel.kernel, self.reference.kernel))

    def verify(self) -> tuple[bool, str]:
        """The first kernel against the DP score and a seeded sample of
        string-substring windows scored by ``repro.baselines.lcs_dp``."""
        import numpy as np

        from repro.baselines.lcs_dp import lcs_table
        from repro.baselines.prefix_lcs import prefix_lcs_rowmajor

        kern = self.reference
        score = prefix_lcs_rowmajor(self.a, self.b)
        if kern.lcs_whole() != score:
            return False, f"lcs {kern.lcs_whole()} != DP {score}"
        rng = np.random.default_rng(self.seed)
        for _ in range(DP_WINDOWS):
            lo = int(rng.integers(0, self.b.size - DP_WINDOW_LEN))
            row = lcs_table(self.a, self.b[lo : lo + DP_WINDOW_LEN])[-1]
            ends = lo + np.arange(DP_WINDOW_LEN + 1)
            got = kern.string_substring_many(np.full_like(ends, lo), ends)
            if not np.array_equal(got, row):
                return False, f"string-substring window at {lo} differs from DP"
        return True, f"lcs={score}, {DP_WINDOWS} windows of {DP_WINDOW_LEN}"

    def units(self) -> int:
        return 1


class Batch:
    """About a thousand ragged pairs scored by ``repro.batch_lcs``
    in-process (``ref``) and on the warm pool (``alt``)."""

    name = "batch"

    def __init__(self, seed: int):
        import numpy as np

        rng = np.random.default_rng(seed)
        # log-uniform lengths at stratified quantiles, paired by one fixed
        # shuffle: every seed has the same shapes, hence the same buckets
        # and megabatches, so seeds vary contents, not work
        quantiles = (np.arange(BATCH_PAIRS) + 0.5) / BATCH_PAIRS
        lens = np.exp(np.log(BATCH_MIN_LEN) + quantiles * np.log((BATCH_MAX_LEN + 1) / BATCH_MIN_LEN))
        lens = lens.astype(int)
        shapes = np.random.default_rng(BATCH_SHAPE_SEED)
        alphabet = np.array(list("ACGT"))
        self.pairs = [
            ("".join(alphabet[rng.integers(0, 4, m)]), "".join(alphabet[rng.integers(0, 4, n)]))
            for m, n in zip(shapes.permutation(lens), shapes.permutation(lens))
        ]
        self.machine = None
        self.reference = None

    def ref(self):
        import repro

        return repro.batch_lcs(self.pairs)

    def alt(self):
        import repro

        return repro.batch_lcs(self.pairs, machine=self.machine)

    def check(self, scores) -> bool:
        import numpy as np

        if self.reference is None:
            self.reference = np.asarray(scores)
            return True
        return bool(np.array_equal(scores, self.reference))

    def verify(self) -> tuple[bool, str]:
        """Every score of the first call against ``lcs_score_dp``."""
        from repro.baselines.lcs_dp import lcs_score_dp

        wrong = 0
        for (a, b), got in zip(self.pairs, self.reference):
            short, long_ = (a, b) if len(a) <= len(b) else (b, a)
            if lcs_score_dp(short, long_) != int(got):
                wrong += 1
        return wrong == 0, f"{len(self.pairs) - wrong}/{len(self.pairs)} scores match DP"

    def units(self) -> int:
        return len(self.pairs)


WORKLOADS = {"pair": Pair, "batch": Batch}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    common.require_program()

    import repro  # noqa: F401  (import cost belongs to set-up)

    wl = WORKLOADS[args.workload](args.seed)
    # warm every path: precalc tables, then pool fork, shm arena, slabs
    failed = int(not wl.check(wl.ref()))
    attempted = 2
    pool_start = time.perf_counter()
    wl.machine = _make_machine(args.seed)
    try:
        failed += not wl.check(wl.alt())
        machine_start = time.perf_counter() - pool_start
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = (measure_traced if args.trace else measure)(wl, args.seconds)
        attempted += result.pop("attempted")
        failed += result.pop("failed")
        if args.trace:
            result["layer"]["machine.start_s"] = machine_start
    finally:
        wl.machine.close()
    result["peak_rss_mb"] = common.peak_rss_mb(include_children=True)
    ok, detail = wl.verify()
    failed += 0 if ok else 1
    result.update(attempted=attempted, failed=failed, verified=ok, detail=detail,
                  units=wl.units())
    common.emit(result)
    return 0


def measure(wl, seconds: float) -> dict:
    """Alternate the two settings for *seconds*; wall seconds per call
    and the number of calls of each whose output checked out."""
    samples = {"ref": [], "alt": []}
    verified_calls = {"ref": 0, "alt": 0}
    failed = attempted = 0
    end = time.perf_counter() + seconds
    order = ("ref", "alt")
    while time.perf_counter() < end:
        for which in order:
            start = time.perf_counter()
            out = getattr(wl, which)()
            samples[which].append(time.perf_counter() - start)
            ok = wl.check(out)
            attempted += 1
            failed += not ok
            verified_calls[which] += ok
        order = order[::-1]
    return {**samples, "verified_calls": verified_calls, "attempted": attempted, "failed": failed}


def measure_traced(wl, seconds: float) -> dict:
    """Alternate untraced and traced repeats for *seconds*.

    Untraced repeats give the overhead baseline; traced repeats record
    the library's spans, the benchmark's spans (``instrument.py``) and
    the registry counters they moved.
    """
    from repro.obs import diff_snapshots, get_metrics, get_tracer

    import instrument
    import spans

    instrument.install()
    tracer, metrics = get_tracer(), get_metrics()
    tracer.reset()
    plain = {"ref": [], "alt": []}
    traced = {"ref": [], "alt": []}
    counters: dict[str, float] = {}
    failed = attempted = repeats = 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or not repeats:
        for on in (False, True):
            tracer.enabled = metrics.remote_collection = on
            before = metrics.snapshot()
            for which in ("ref", "alt"):
                start = time.perf_counter()
                with tracer.span(f"{wl.name}.{which}", cat="op"):
                    out = getattr(wl, which)()
                (traced if on else plain)[which].append(time.perf_counter() - start)
                attempted += 1
                failed += not wl.check(out)
            if on:
                delta = spans.flat_counters(diff_snapshots(metrics.snapshot(), before))
                for name, value in delta.items():
                    counters[name] = counters.get(name, 0.0) + value
        repeats += 1
    tracer.enabled = metrics.remote_collection = False
    tree = spans.SpanTree(tracer.events())
    layer = spans.attribute(tree, counters, per=repeats)
    barrier, busy = tree.pool_split(f"{wl.name}.alt", common.WORKERS)
    layer["machine.barrier_s"] = barrier
    layer["machine.worker_busy_share"] = busy

    base = statistics.median(plain["ref"]) + statistics.median(plain["alt"])
    layer["trace.overhead_share"] = (
        statistics.median(traced["ref"]) + statistics.median(traced["alt"])
    ) / base - 1.0
    return {**plain, "layer": layer, "repeats": repeats,
            "attempted": attempted, "failed": failed}


if __name__ == "__main__":
    sys.exit(main())
