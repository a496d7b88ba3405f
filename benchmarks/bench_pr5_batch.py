"""Batched many-pair throughput: lockstep batch engine vs per-pair loop.

Scores ``B`` random 4-letter pairs of length ``n`` four ways:

- ``loop_serial`` — per-pair ``semilocal_lcs`` calls (the one-at-a-time
  baseline, the same anti-diagonal comber the batch engine runs per lane);
- ``batch_serial`` — :func:`repro.batch.batch_lcs` in-process (lockstep
  vectorization only, no machine);
- ``loop_processes`` — one spec per pair over a ProcessMachine (the same
  machine/transport the batch rows use, without cross-query batching);
- ``batch_processes`` — the full engine: lockstep megabatches in
  shared-memory slabs, pipelined rounds over the same machine.

Every mode's scores are verified against the serial loop. Writes a
machine-readable ``BENCH_batch.json``::

    {
      "schema": "repro-bench-batch/1",
      "commit": "<git hash or null>",
      "pairs": 64, "n": 1024, "workers": 4, "transport": "shm",
      "runs": [{"mode": ..., "wall_s": ..., "pairs_per_s": ...,
                "verified": true}, ...],
      "speedup": {"serial_x": ..., "processes_x": ...}
    }

Usage (also wired into the CI batch-throughput smoke job)::

    PYTHONPATH=src python benchmarks/bench_pr5_batch.py \
        --pairs 64 --n 1024 --workers 4 --out BENCH_batch.json \
        --check --min-speedup 5.0

``--check`` exits non-zero unless the batch engine beats its same-
machine loop by ``--min-speedup`` in pairs/sec — the throughput gate.
``--quick`` shrinks to CI-smoke sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import add_quick_flag, apply_quick, commit_hash  # noqa: E402

def _pairs(count: int, n: int, seed: int = 2021) -> list[tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(seed)
    return [(rng.integers(0, 4, n), rng.integers(0, 4, n)) for _ in range(count)]


def _pair_score(a, b) -> int:
    """One pair, one comb, one score: the ``loop_processes`` worker
    (module-level, so process workers can unpickle it)."""
    from repro import semilocal_lcs

    return semilocal_lcs(a, b, "semi_antidiag_simd").lcs_whole()


def _timed(fn) -> tuple[list[int], float]:
    start = time.perf_counter()
    out = fn()
    return [int(s) for s in out], time.perf_counter() - start


def run_modes(pairs, workers: int, transport: str) -> list[dict]:
    from repro.batch import batch_lcs
    from repro.parallel import ProcessMachine

    def loop_serial():
        return [_pair_score(a, b) for a, b in pairs]

    reference, ref_wall = _timed(loop_serial)
    runs = [_record("loop_serial", reference, ref_wall, len(pairs), reference)]

    scores, wall = _timed(lambda: batch_lcs(pairs))
    runs.append(_record("batch_serial", scores, wall, len(pairs), reference))

    with ProcessMachine(workers=workers, transport=transport) as machine:
        specs = [(_pair_score, (a, b), {}) for a, b in pairs]
        scores, wall = _timed(lambda: machine.run_round(specs))
        runs.append(_record("loop_processes", scores, wall, len(pairs), reference))

    with ProcessMachine(workers=workers, transport=transport) as machine:
        scores, wall = _timed(lambda: batch_lcs(pairs, machine=machine))
        runs.append(_record("batch_processes", scores, wall, len(pairs), reference))

    return runs


def _record(mode: str, scores, wall: float, count: int, reference) -> dict:
    rec = {
        "mode": mode,
        "wall_s": round(wall, 4),
        "pairs_per_s": round(count / wall, 1) if wall > 0 else float("inf"),
        "verified": scores == reference,
    }
    print(
        f"{mode:>16}: {rec['wall_s']:>8.3f}s, {rec['pairs_per_s']:>10,.1f} pairs/s, "
        f"verified={rec['verified']}"
    )
    return rec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=64, help="batch size B")
    parser.add_argument("--n", type=int, default=1024, help="string length per side")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--transport", default="shm", choices=["pickle", "shm"])
    parser.add_argument("--out", default="BENCH_batch.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless batch beats the same-machine loop by --min-speedup",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        metavar="X",
        help="pairs/sec ratio the --check gate requires (default: 5.0)",
    )
    add_quick_flag(parser, pairs=32, n=256, workers=2)
    args = apply_quick(parser.parse_args(argv))

    from repro.parallel import shared_memory_available

    transport = args.transport
    if transport == "shm" and not shared_memory_available():  # pragma: no cover
        print("shared memory unavailable; falling back to pickle transport")
        transport = "pickle"

    print(f"B={args.pairs} pairs, n={args.n}, workers={args.workers}, transport={transport}")
    runs = run_modes(_pairs(args.pairs, args.n), args.workers, transport)
    by = {r["mode"]: r for r in runs}
    speedup = {
        "serial_x": round(by["batch_serial"]["pairs_per_s"] / by["loop_serial"]["pairs_per_s"], 2),
        "processes_x": round(
            by["batch_processes"]["pairs_per_s"] / by["loop_processes"]["pairs_per_s"], 2
        ),
    }
    print(
        f"speedup: {speedup['serial_x']:.1f}x serial, "
        f"{speedup['processes_x']:.1f}x over the processes loop"
    )

    report = {
        "schema": "repro-bench-batch/1",
        "commit": commit_hash(),
        "pairs": args.pairs,
        "n": args.n,
        "workers": args.workers,
        "transport": transport,
        "runs": runs,
        "speedup": speedup,
    }
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    if not all(r["verified"] for r in runs):
        print("FAIL: a mode's scores did not match the serial loop", file=sys.stderr)
        return 1
    if args.check:
        best = max(speedup["serial_x"], speedup["processes_x"])
        if best < args.min_speedup:
            print(
                f"FAIL: best batch speedup {best:.2f}x < required {args.min_speedup}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
