"""The ``serve`` workload: a ``repro-lcs serve`` daemon answering clients.

The daemon runs with default flags plus ``--query-store`` in a fresh
directory under the checkout's scratch area. A seeded mix of requests
(every query op of the catalog on a Zipf-popular corpus twice the size
of the daemon's 64-kernel memory LRU, a small stream of pairs never seen
before, and ``lcs`` / ``batch`` scoring) is sent in blocks, alternately
by one and by two clients that wait for each reply (``loadgen.py``).
Answers are parsed and checked only after the window (``Ledger``).

The traced run sends the same blocks to a daemon whose entry points are
wrapped (``launcher.py``), in rounds of an untraced and a traced pass,
then an open-loop segment of Poisson arrivals at ``--serve-light`` that
only measures how late the generator sends.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import catalog
import common
import instrument
import loadgen
import spans
import stats

SETUP_SAMPLES = 3
CORPUS_PAIRS = 128            # twice the daemon's default 64-kernel memory LRU
CORPUS_LENS = (1500, 900, 3000, 500, 2000, 300)  # m = n; m + n <= 2048 is dense
NEW_LEN = 1000                # never-seen pairs: m + n just under the dense threshold
ZIPF_S = 2.0
SCORE_POOL = 64
SCORE_LENS = (96, 160, 224, 288)
BATCH_REQ_PAIRS = 4
EXTEND_LEN = 32               # one suffix and one prefix per run
WINDOW = 64
THETA = 0.75
#: per set-up sample; fills the daemon's memory LRU, which starts empty
#: and takes about ten blocks to reach its steady mix of kernels and
#: dense counters (the daemon's resident set climbs all the while); four
#: blocks get most of the way at a third of the cost
WARMUP_REQUESTS = 1200
BLOCK_REQUESTS = 300          # one stratified block of the mix
LAG_REQUESTS = 200            # open-loop segment of the traced run
DP_CHECKS_PER_OP = 4          # sampled answers of each op checked by DP
DP_WINDOWS = 4                # sampled windows of each checked window answer
#: request kinds and their shares of the mix
MIX = (
    ("lcs", 0.485),
    ("windowed_lcs", 0.14),
    ("all_prefix_scores", 0.14),
    ("all_suffix_scores", 0.14),
    ("substring_threshold_matches", 0.01),
    ("append", 0.0025),
    ("prepend", 0.0025),
    ("new", 0.01),
    ("score", 0.05),
    ("batch", 0.02),
)


#: request kinds that query a corpus pair
QUERY_KINDS = frozenset(catalog.QUERY_OPS)


def _dna(codes) -> str:
    from repro.alphabet import decode_dna

    return decode_dna(codes)


class Mix:
    """The seeded corpus and request stream of one run."""

    def __init__(self, seed: int):
        from repro.datasets.genomes import GenomeSimulator

        self.rng = np.random.default_rng(seed)
        sim = GenomeSimulator(seed=seed)
        # corpus pair i has popularity rank i, so every seed gives the
        # sizes the same popularity; seeds vary contents and order
        self.corpus = []
        for i in range(CORPUS_PAIRS):
            length = CORPUS_LENS[i % len(CORPUS_LENS)]
            a, b = sim.strain_pair(length, generations=1)
            self.corpus.append((_dna(a[:length]), _dna(b[:length])))
        self._sim = sim
        rank = 1.0 / np.arange(1, CORPUS_PAIRS + 1) ** ZIPF_S
        self.popularity = rank / rank.sum()
        self.suffix, self.prefix = ("".join(self.rng.choice(list("ACGT"), EXTEND_LEN)) for _ in range(2))
        self.scoring = []
        for i in range(SCORE_POOL):
            m, n = SCORE_LENS[i % len(SCORE_LENS)], SCORE_LENS[(i // len(SCORE_LENS)) % len(SCORE_LENS)]
            self.scoring.append(tuple("".join(self.rng.choice(list("ACGT"), k)) for k in (m, n)))
        self._kinds = [k for k, _ in MIX]
        self._shares = np.array([s for _, s in MIX]) / sum(s for _, s in MIX)

    def _stratified(self, count: int, shares) -> np.ndarray:
        """*count* category indices in exact proportion to *shares*
        (stratified inverse-CDF draws), in seeded random order: every
        stream of one length holds the same mix, whatever the seed."""
        cdf = np.cumsum(shares)
        points = (np.arange(count) + self.rng.random()) / count
        picks = np.minimum(np.searchsorted(cdf / cdf[-1], points), len(cdf) - 1)
        return self.rng.permutation(picks)

    def stream(self, count: int) -> list[tuple[dict, str]]:
        """*count* requests and their classes (cached, new or score)."""
        kinds = [self._kinds[k] for k in self._stratified(count, self._shares)]
        on_corpus = sum(k in QUERY_KINDS for k in kinds)
        pairs = iter(self._stratified(on_corpus, self.popularity))
        return [self._request(kind, pairs) for kind in kinds]

    def _request(self, kind: str, pairs) -> tuple[dict, str]:
        if kind == "score":
            a, b = self.scoring[int(self.rng.integers(SCORE_POOL))]
            return {"type": "lcs", "a": a, "b": b}, "score"
        if kind == "batch":
            picks = self.rng.integers(SCORE_POOL, size=BATCH_REQ_PAIRS)
            return {"type": "batch", "pairs": [list(self.scoring[int(i)]) for i in picks]}, "score"
        if kind == "new":
            a, b = self._sim.strain_pair(NEW_LEN, generations=1)
            return {"type": "query", "op": "lcs", "a": _dna(a), "b": _dna(b), "params": {}}, "new"
        a, b = self.corpus[int(next(pairs))]
        params: dict = {}
        if kind == "windowed_lcs":
            params = {"window": WINDOW}
        elif kind == "substring_threshold_matches":
            params = {"theta": THETA, "window": WINDOW}
        elif kind == "append":
            params = {"suffix": self.suffix}
        elif kind == "prepend":
            params = {"prefix": self.prefix}
        return {"type": "query", "op": kind, "a": a, "b": b, "params": params}, "cached"


def _key(req: dict) -> str:
    """Verification key: identical requests must get identical answers."""
    if req["type"] == "query":
        return instrument.request_key(req["op"], req["a"], req["b"], req["params"])
    if req["type"] == "lcs":
        return instrument.request_key("score", req["a"], req["b"])
    return instrument.request_key("batch", json.dumps(req["pairs"]), "")


def _lines(reqs) -> list[bytes]:
    return [
        (json.dumps({**req, "id": i}, separators=(",", ":")) + "\n").encode()
        for i, (req, _) in enumerate(reqs)
    ]


class Daemon:
    """One launcher process: store fill, then ``repro-lcs serve``."""

    def __init__(self, workdir: Path, corpus_file: Path, trace: bool):
        self.workdir = workdir
        self.out = workdir / "launcher.json"
        self._log = open(workdir / "daemon.log", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(common.BENCH_DIR / "launcher.py"),
             "--store", str(workdir / "store"), "--corpus", str(corpus_file),
             "--out", str(self.out), "--trace", str(int(trace)), "--", "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log,
            cwd=common.ROOT, env=common.child_env(), text=True,
        )
        self.fill_s = float(self._expect("FILLED").split()[1])
        address = self._expect("serving on").split()[-1]
        host, port = address.rsplit(":", 1)
        self.address = (host, int(port))
        self.start_s = time.perf_counter() - start - self.fill_s

    def _expect(self, prefix: str, timeout: float = 120.0) -> str:
        """The daemon's next stdout line starting with *prefix*; the
        daemon is killed if it does not come within *timeout* seconds."""
        watchdog = threading.Timer(timeout, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if line.startswith(prefix):
                    return line.strip()
        finally:
            watchdog.cancel()
        raise RuntimeError(f"daemon did not print {prefix!r} (see {self.workdir / 'daemon.log'})")

    def control(self, request: dict) -> dict:
        from repro.serve import ServeClient

        with ServeClient(*self.address, timeout=60.0) as client:
            return client.request(request)

    def metrics(self) -> dict[str, float]:
        """The daemon's registry, parsed from its Prometheus text."""
        text = self.control({"type": "metrics"})["text"]
        values = {}
        for line in text.splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, value = line.rsplit(" ", 1)
                values[name] = float(value)
        return values

    def signal(self, sig) -> None:
        self.proc.send_signal(sig)

    def rss_mb(self) -> float:
        """The daemon's current resident set in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("the daemon reports no VmRSS")

    def stop(self) -> dict:
        """Drain the daemon (SIGTERM) and return what the launcher wrote."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self._log.close()
        if self.proc.returncode != 0 or not self.out.exists():
            raise RuntimeError(f"daemon exited with {self.proc.returncode}")
        with open(self.out, encoding="utf-8") as fh:
            return json.load(fh)


def _prom(name: str, suffix: str = "_total") -> str:
    return "repro_" + name.replace(".", "_").replace("-", "_") + suffix


def _registry_delta(after: dict, before: dict) -> dict[str, float]:
    out = {}
    for name in catalog.REGISTRY_COUNTERS:
        out[name] = after.get(_prom(name), 0.0) - before.get(_prom(name), 0.0)
    for hist in ("batch.lanes", "serve.batch_occupancy"):
        for part in ("count", "sum"):
            key = _prom(hist, f"_{part}")
            out[f"{hist}.{part}"] = after.get(key, 0.0) - before.get(key, 0.0)
    for cells in ("batch.padded_cells", "batch.real_cells", "combing.leaf_cells"):
        out[cells] = after.get(_prom(cells), 0.0) - before.get(_prom(cells), 0.0)
    return out


def _target(req: dict) -> tuple[str, str]:
    """The pair whose kernel answers a query: the extended pair for
    ``append`` and ``prepend``, whose answer is its LCS score."""
    if req["op"] == "append":
        return req["a"] + req["params"]["suffix"], req["b"]
    if req["op"] == "prepend":
        return req["params"]["prefix"] + req["a"], req["b"]
    return req["a"], req["b"]


def dp_agrees(req: dict, answer, rng: np.random.Generator) -> bool:
    """One query answer against the DP table of ``repro.baselines.lcs_dp``
    (window ops on ``DP_WINDOWS`` sampled windows)."""
    from repro.baselines.lcs_dp import lcs_score_dp, lcs_table

    op, params = req["op"], req["params"]
    a, b = _target(req)
    if op in ("lcs", "append", "prepend"):
        return answer == lcs_score_dp(a, b)
    if op == "all_prefix_scores":
        return answer == lcs_table(a, b)[-1].tolist()
    if op == "all_suffix_scores":
        # LCS(a, b[l:]) = LCS(reversed a, reversed b cut to n - l)
        return answer == lcs_table(a[::-1], b[::-1])[-1][::-1].tolist()
    window = params["window"]
    if op == "windowed_lcs":
        if len(answer) != len(b) - window + 1:
            return False
        starts = rng.permutation(len(answer))[:DP_WINDOWS]
        return all(answer[l] == lcs_score_dp(a, b[l : l + window]) for l in starts)
    # substring_threshold_matches: ordered, non-overlapping windows of the
    # given width, each scoring the threshold or more, as DP scores it
    need = math.ceil(params["theta"] * window)
    if any(e - s != window or score < need for s, e, score in answer):
        return False
    if any(nxt[0] < prev[1] for prev, nxt in zip(answer, answer[1:])):
        return False
    picks = rng.permutation(len(answer))[:DP_WINDOWS]
    return all(answer[i][2] == lcs_score_dp(a, b[answer[i][0] : answer[i][1]]) for i in picks)


class Ledger:
    """Every distinct answer, for checking after the window."""

    def __init__(self):
        self.answers: dict[str, tuple[dict, str, object]] = {}
        self.wrong: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, reqs, outcomes) -> list[str | None]:
        """Record a block's answers; returns each request's key, or
        ``None`` where it got no answer."""
        keys: list[str | None] = []
        for (req, cls), outcome in zip(reqs, outcomes):
            self.attempted += 1
            keys.append(None)
            if not outcome.response:
                self._fail(f"no response to a {req['type']} request")
                continue
            resp = json.loads(outcome.response)
            if not resp.get("ok"):
                self._fail(f"error {resp.get('error')}")
                continue
            answer = resp.get("result", resp.get("score", resp.get("scores")))
            key = keys[-1] = _key(req)
            seen = self.answers.setdefault(key, (req, cls, answer))
            if seen[2] != answer:
                self._fail(f"two answers to one {req.get('op', req['type'])} request", key)
        return keys

    def verified(self, keys) -> int:
        """How many of *keys* (from :meth:`record`) passed verification."""
        return sum(k is not None and k not in self.wrong for k in keys)

    def _fail(self, why: str, key: str | None = None) -> None:
        self.failed += 1
        if key is not None:
            self.wrong.add(key)
        if len(self.problems) < 5:
            self.problems.append(why)

    def verify(self, seed: int) -> str:
        """Check every distinct answer; returns a one-line summary.

        Query answers are compared with an in-process ``QueryEngine``
        over kernels combed afresh by the batch scheduler (appends and
        prepends as a plain comb of the extended pair). That oracle runs
        the daemon's own query code, so answers are also checked against
        DP directly: every answer on a never-seen pair and
        ``DP_CHECKS_PER_OP`` seeded answers of every op. Scores are all
        checked against DP.
        """
        from repro.baselines.lcs_dp import lcs_score_dp
        from repro.batch import BatchScheduler
        from repro.query import QueryEngine

        queries = [(k, r, c, a) for k, (r, c, a) in self.answers.items() if r["type"] == "query"]
        scored = [(k, r, a) for k, (r, _, a) in self.answers.items() if r["type"] != "query"]
        pairs = sorted({_target(r) for _, r, _, _ in queries})
        oracle = QueryEngine(max_kernels=len(pairs) + 1, counter_kind="wavelet")
        for (a, b), (perm, _, _) in zip(pairs, BatchScheduler(None).run(pairs, want="kernels")):
            oracle.install_kernel(a, b, perm)
        for key, req, _, answer in queries:
            op = req["op"] if req["op"] not in ("append", "prepend") else "lcs"
            params = req["params"] if op == req["op"] else {}
            if oracle.answer(op, *_target(req), **params) != answer:
                self._fail(f"{req['op']} answer differs from the oracle", key)
        rng = np.random.default_rng(seed)
        by_op = defaultdict(list)
        for query in queries:
            by_op[query[1]["op"]].append(query)
        dp_checked = [q for q in queries if q[2] == "new"]
        for op in catalog.QUERY_OPS:
            dp_checked += [by_op[op][int(i)] for i in rng.permutation(len(by_op[op]))[:DP_CHECKS_PER_OP]]
        for key, req, _, answer in dp_checked:
            if not dp_agrees(req, answer, rng):
                self._fail(f"{req['op']} answer differs from DP", key)
        dp: dict[tuple[str, str], int] = {}
        for key, req, answer in scored:
            pairs_ = [(req["a"], req["b"])] if req["type"] == "lcs" else [tuple(p) for p in req["pairs"]]
            want = []
            for a, b in pairs_:
                if (a, b) not in dp:
                    dp[(a, b)] = lcs_score_dp(a, b)
                want.append(dp[(a, b)])
            if (want[0] if req["type"] == "lcs" else want) != answer:
                self._fail("score differs from DP", key)
        return (f"{len(queries)} distinct query answers vs in-process QueryEngine, "
                f"{len(dp_checked)} of them vs DP "
                f"({', '.join(sorted({q[1]['op'] for q in dp_checked}))}), "
                f"{len(scored)} distinct scoring answers vs DP"
                + (f"; problems: {self.problems}" if self.problems else ""))


def run(args) -> dict:
    mix = Mix(args.seed)
    work = common.scratch_dir(f"serve-{os.getpid()}")
    corpus_file = work / "corpus.json"
    corpus_file.write_text(json.dumps(mix.corpus))
    warmup = mix.stream(WARMUP_REQUESTS)
    warm_lines = _lines(warmup)
    setup, fills, starts = [], [], []
    ledger = Ledger()
    daemon = None
    try:
        for i in range(SETUP_SAMPLES):
            sample_dir = work / f"setup{i}"
            sample_dir.mkdir()
            start = time.perf_counter()
            daemon = Daemon(sample_dir, corpus_file, trace=bool(args.trace))
            outcomes, _ = loadgen.run_closed_loop(daemon.address, warm_lines,
                                                  clients=common.WORKERS)
            setup.append(time.perf_counter() - start)
            fills.append(daemon.fill_s)
            starts.append(daemon.start_s)
            ledger.record(warmup, outcomes)
            if i < SETUP_SAMPLES - 1:
                daemon.stop()
                shutil.rmtree(sample_dir, ignore_errors=True)
                daemon = None
        res = (_traced if args.trace else _closed)(args, mix, daemon, ledger)
        res.setdefault("extra", {})["health"] = daemon.control({"type": "health"})["server"]
        launcher_out = daemon.stop()
        daemon = None
    finally:
        if daemon is not None:
            try:
                daemon.stop()
            except RuntimeError:
                pass
    res["detail"] = ledger.verify(args.seed)
    res["attempted"], res["failed"] = ledger.attempted, ledger.failed
    res["setup_samples_s"] = setup
    if args.trace:
        res["layer"].update(_daemon_layers(launcher_out["events"], res.pop("counters"),
                                           res.pop("traced")))
        res["layer"]["query.fill_s"] = statistics.median(fills)
        res["layer"]["serve.start_s"] = statistics.median(starts)
    else:
        keys, busy = res.pop("answered")
        res["e2e"]["max_ops_per_s"] = ledger.verified(keys) / busy
        res["e2e"]["setup_s"] = statistics.median(setup)
        res["extra"]["daemon_peak_rss_mb"] = launcher_out["peak_rss_mb"]
    shutil.rmtree(work, ignore_errors=True)
    return res


def _block(daemon, mix, ledger, clients: int):
    """One block of ``BLOCK_REQUESTS`` from *clients* waiting clients:
    ``(requests, outcomes, keys, wall seconds)``."""
    reqs = mix.stream(BLOCK_REQUESTS)
    outcomes, elapsed = loadgen.run_closed_loop(daemon.address, _lines(reqs), clients=clients)
    return reqs, outcomes, ledger.record(reqs, outcomes), elapsed


def _closed(args, mix, daemon, ledger) -> dict:
    """Blocks alternately from one client and from two, until
    ``--seconds`` have passed and each setting holds the samples its
    fixed tail percentile needs (``catalog.LATENCY_STAT``). One client gives
    the latency of an uncontended request (``ref``); two give it under
    contention (``alt``) and the verified requests per second the daemon
    sustains (counted once the answers are checked). The daemon's memory
    is the median of its resident set after each block: its peak is set
    by which transient dense-counter builds happen to overlap, and moves
    by 15% between runs of one seed."""
    stat = catalog.LATENCY_STAT["serve"]
    pct = float(stat.removeprefix("p"))
    latency = {1: [], 2: []}
    keys, busy, rss = [], 0.0, []
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end or not all(stats.supports(len(v), pct) for v in latency.values()):
        for clients in (1, 2):
            _, outcomes, block_keys, elapsed = _block(daemon, mix, ledger, clients)
            latency[clients] += [o.latency * 1e3 for o in outcomes if o.response]
            rss.append(daemon.rss_mb())
            if clients == 2:
                keys += block_keys
                busy += elapsed
    one, two = stats.latency(latency[1], stat), stats.latency(latency[2], stat)
    return {
        "e2e": {"latency_ms.ref": one["value"], "latency_ms.alt": two["value"],
                "rss_mb": statistics.median(rss)},
        "answered": (keys, busy),
        "layer": {},
        "samples": {"ref": one, "alt": two, "setup": SETUP_SAMPLES, "rss": len(rss)},
        "settings": {"ref": "closed loop, 1 client", "alt": f"closed loop, {common.WORKERS} clients"},
    }


def _traced(args, mix, daemon, ledger) -> dict:
    """The blocks of the untraced run, in rounds of an untraced and a
    traced pass (each one client, then two; the launcher's spans on by
    SIGUSR1, off by SIGUSR2) until ``--seconds`` have passed, so the
    per-layer figures describe the traffic behind the gated metrics and
    the overhead compares wall times of the same mix. Then an untraced
    open-loop segment at ``--serve-light`` measures how late the
    generator sends (``gen.lag_tail_ms``)."""
    wall = {False: 0.0, True: 0.0}
    traced_reqs, traced_outcomes = [], []
    counters: dict[str, float] = defaultdict(float)
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end or not traced_reqs:
        for on in (False, True):
            if on:
                before = daemon.metrics()
                daemon.signal(signal.SIGUSR1)
                time.sleep(0.2)
            for clients in (1, 2):
                reqs, outcomes, _, elapsed = _block(daemon, mix, ledger, clients)
                wall[on] += elapsed
                if on:
                    traced_reqs += reqs
                    traced_outcomes += outcomes
            if on:
                daemon.signal(signal.SIGUSR2)
                time.sleep(0.2)
                for name, value in _registry_delta(daemon.metrics(), before).items():
                    counters[name] += value
    lag_reqs = mix.stream(LAG_REQUESTS)
    lag, _ = loadgen.run_open_loop(
        daemon.address, _lines(lag_reqs),
        loadgen.poisson_offsets(args.serve_light, LAG_REQUESTS, mix.rng),
        connections=common.WORKERS,
    )
    ledger.record(lag_reqs, lag)
    lag_ms = stats.summarize([o.lag * 1e3 for o in lag])
    layer = {"trace.overhead_share": wall[True] / wall[False] - 1.0, "gen.lag_tail_ms": lag_ms["tail"]}
    occ = counters.get("serve.batch_occupancy.count", 0.0)
    layer["serve.mean_occupancy"] = counters.get("serve.batch_occupancy.sum", 0.0) / occ if occ else 0.0
    by_class = defaultdict(list)
    for (_, cls), o in zip(traced_reqs, traced_outcomes):
        if o.response:
            by_class[cls].append(o.latency * 1e3)
    samples = {"setup": SETUP_SAMPLES, "gen.lag": lag_ms}
    for cls in ("cached", "new", "score"):
        samples[cls] = stats.summarize(by_class[cls])
        layer[f"serve.{cls}_p50_ms"] = samples[cls]["median"]
        layer[f"serve.{cls}_tail_ms"] = samples[cls]["tail"]
    return {
        "layer": layer,
        "counters": counters,
        "traced": (traced_reqs, traced_outcomes),
        "samples": samples,
        "settings": {"blocks": f"closed loop, 1 and {common.WORKERS} clients, untraced and traced",
                     "block_wall_s": {"untraced": wall[False], "traced": wall[True]},
                     "gen.lag": f"open loop at {args.serve_light}/s"},
    }


def _daemon_layers(events: list[dict], counters: dict, traced) -> dict:
    """Layer values from the daemon's spans and registry counters over
    the traced segment, and each request's latency split into engine
    time (the engine spans that answered it) and the envelope around
    them."""
    tree = spans.SpanTree(events)
    layer = spans.attribute(tree, counters, per=1)
    offset = time.time() - time.perf_counter()
    engine_spans = defaultdict(list)
    for ev in tree.events:
        if ev["name"].startswith("engine."):
            for key in ev["args"].get("keys", ()):
                engine_spans[key].append((ev["ts"] / 1e6, (ev["ts"] + ev["dur"]) / 1e6))
    reqs, outcomes = traced
    engine, latency = [], []
    for (req, _), o in zip(reqs, outcomes):
        if not o.response:
            continue
        if req["type"] == "batch":  # the engine span of a batch lists every pair
            req = {"type": "lcs", "a": req["pairs"][0][0], "b": req["pairs"][0][1]}
        key = _key(req)
        lo, hi = o.sent + offset - 0.001, o.received + offset + 0.001
        inside = [(s, e) for s, e in engine_spans.get(key, ()) if s >= lo and e <= hi]
        engine.append(spans.union_length(inside) * 1e3)
        latency.append(o.latency * 1e3)
    n = max(1, len(latency))
    layer["serve.engine_ms"] = sum(engine) / n
    layer["serve.envelope_ms"] = (sum(latency) - sum(engine)) / n
    layer["trace.coverage"] = sum(engine) / sum(latency) if latency else 0.0
    return layer
