"""Start the ``repro-lcs serve`` daemon for the ``serve`` workload.

    python3 lcsbench/launcher.py --store DIR --corpus FILE --out FILE \\
        --trace 0|1 -- [serve flags]

Before serving, the launcher fills the daemon's kernel store with the
corpus (``--corpus``, a JSON list of ``[a, b]``): every kernel is combed
by the batch scheduler and written the way the query tier writes it, a
counter sidecar included where the query tier would persist one. It
prints ``FILLED <seconds>`` and then runs ``repro-lcs serve`` with the
given flags (the daemon prints ``serving on HOST:PORT``).

With ``--trace 1`` the launcher first wraps the daemon-side entry points
(``instrument.py``); SIGUSR1 turns the library's tracer on and SIGUSR2
off. When the daemon has drained, the launcher writes ``--out``: the
recorded spans and the daemon's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import common


def fill_store(store_dir: str, pairs) -> float:
    """Comb every corpus pair and commit it to the store; seconds taken."""
    from repro.alphabet import encode
    from repro.batch import BatchScheduler
    from repro.checkpoint import KernelStore
    from repro.checkpoint.store import kernel_key
    from repro.core.dominance import counter_to_bytes, make_counter, resolve_counter_kind
    from repro.query import QUERY_ALGORITHM

    start = time.perf_counter()
    store = KernelStore(store_dir)
    for (a, b), (perm, m, n) in zip(pairs, BatchScheduler(None).run(pairs, want="kernels")):
        counter = None
        if resolve_counter_kind(m + n) != "dense":
            counter = counter_to_bytes(make_counter(perm))
        store.put(kernel_key(encode(a), encode(b), QUERY_ALGORITHM), perm,
                  algorithm=QUERY_ALGORITHM, m=m, n=n, counter=counter)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    common.require_program()

    from repro.cli import main as cli_main
    from repro.obs import get_tracer

    with open(args.corpus, encoding="utf-8") as fh:
        corpus = [tuple(p) for p in json.load(fh)]
    print(f"FILLED {fill_store(args.store, corpus):.6f}", flush=True)
    tracer = get_tracer()
    if args.trace:
        import instrument

        instrument.install(serve=True)
        tracer.reset()
        signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "enabled", True))
        signal.signal(signal.SIGUSR2, lambda *_: setattr(tracer, "enabled", False))
    serve_args = [a for a in args.serve_args if a != "--"]
    try:
        code = cli_main(["serve", "--query-store", args.store, *serve_args])
    finally:
        tracer.enabled = False
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"peak_rss_mb": common.peak_rss_mb(), "events": tracer.events()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
