"""Run one workload of the benchmark and print every metric.

    python3 lcsbench/run.py --serve-light 40 --workload pair --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. Each metric is printed on its own line with its unit and sample
count, followed by the provenance of the run; the last line is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``. A wrong output
makes the run exit with code 1. ``--out FILE`` also appends the result
with its provenance to FILE (a JSON-lines result set for ``compare.py``).
The ``--serve-light`` workload constant is fixed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import catalog
import common
import stats

SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pair", "batch", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--serve-light", type=int, required=True, metavar="RPS",
                   help="open-loop rate of the serve workload's traced run")
    p.add_argument("--out", default=None, help="append the result to this JSON-lines file")
    return p.parse_args(argv)


def run_inproc(args) -> dict:
    """``pair`` / ``batch``: one worker process per set-up sample; the
    last one measures. Set-up is timed from spawning to ``READY``."""
    setup: list[float] = []
    result = None
    for i in range(SETUP_SAMPLES):
        last = i == SETUP_SAMPLES - 1
        cmd = [
            sys.executable, str(common.BENCH_DIR / "worker.py"), args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + ([] if last else ["--setup-only"])
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, cwd=common.ROOT, env=common.child_env()
        )
        try:
            ready = proc.stdout.readline()
            setup.append(time.perf_counter() - start)
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(f"{args.workload} worker failed (exit {proc.returncode})")
        if last:
            result = json.loads(out.strip().splitlines()[-1])
    stat = catalog.LATENCY_STAT[args.workload]
    ref = stats.latency([s * 1e3 for s in result["ref"]], stat)
    alt = stats.latency([s * 1e3 for s in result["alt"]], stat)
    e2e = {}
    if not args.trace:
        # verified units per timed second of the faster setting; with
        # mean latencies this follows from the faster latency_ms
        rate = {
            w: result["units"] * result["verified_calls"][w] / sum(result[w])
            for w in ("ref", "alt")
        }
        e2e = {
            "latency_ms.ref": ref["value"],
            "latency_ms.alt": alt["value"],
            "max_ops_per_s": max(rate.values()),
            "setup_s": statistics.median(setup),
            "rss_mb": result["peak_rss_mb"],
        }
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "detail": result["detail"],
        "samples": {"ref": ref, "alt": alt, "setup": len(setup)},
        "e2e": e2e,
        "layer": result.get("layer", {}),
        "setup_samples_s": setup,
        "settings": {"ref": "in-process", "alt": f"warm {common.WORKERS}-worker shm process pool"},
    }


def report(args, res: dict) -> dict:
    names = [n for n, _, _ in (catalog.PER_LAYER if args.trace else catalog.END_TO_END)]
    values = res["layer"] if args.trace else res["e2e"]
    metrics = catalog.metric_block(values, names)
    samples = res["samples"]
    for name in names:
        note = ""
        if not args.trace:
            key = "ref" if name.endswith(".ref") else "alt" if name.endswith(".alt") else None
            if key is not None:
                s = samples[key]
                note = f"  ({s['stat']} of n={s['n']}; median {s['median']:.6g} ms)"
            elif name == "setup_s":
                note = f"  (median of n={samples['setup']})"
        print(f"{name:36s} {metrics[name]['value']:>16.6g} {metrics[name]['unit']:8s}{note}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"{'fail_share':36s} {failed / max(1, attempted):>16.6g} ratio     "
          f"({failed} of {attempted} operations)")
    print(f"verification: {res['detail']}")
    prov = common.provenance(
        args.workload, args.seed, args.seconds, bool(args.trace),
        settings=res.get("settings"), samples=samples,
        serve={"traced_rps": args.serve_light, "connections": common.WORKERS},
        **res.get("extra", {}),
    )
    print("provenance: " + json.dumps(prov, sort_keys=True))
    line = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**line, "provenance": prov}, sort_keys=True) + "\n")
    return line


def main(argv=None) -> int:
    args = parse_args(argv)
    common.require_program()
    if args.workload == "serve":
        import serve

        res = serve.run(args)
    else:
        res = run_inproc(args)
    line = report(args, res)
    common.emit(line)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
