"""Per-layer attribution of a traced run.

The traced run records everything in the library's own
:class:`repro.obs.Tracer`: the library's spans (``phase:combing``,
``combing.leaf``, ``batch.run``, ``steady_ant.vectorized``, pool
``worker.chunk`` spans shipped home from the workers, ...) plus the
benchmark's spans around calls into each layer's public entry points
(see ``instrument.py``) and one ``cat="op"`` span per timed operation.

A span's *self time* is its duration minus the part of its interval its
child spans cover (children may run in a pool worker). Layer totals sum
self time over the calling thread and the pool workers, so on the pool
path they are busy seconds, not wall seconds.
"""

from __future__ import annotations

from collections import defaultdict

from catalog import QUERY_OPS, REGISTRY_COUNTERS

#: layer name -> span-name prefixes (checked in order; first match wins)
_PREFIXES = (
    ("compose", ("combing.compose",)),
    ("parallel", ("combing.grid", "machine.")),
    ("combing", ("combing.", "phase:combing")),
    ("steady_ant", ("steady_ant.", "phase:steady_ant")),
    ("batch", ("batch.", "phase:batch")),
    ("kernel", ("kernel.",)),
    ("query", ("query.",)),
    ("store", ("store.",)),
    ("serve", ("engine.",)),
)


def union_length(intervals, lo: float | None = None, hi: float | None = None) -> float:
    """Total length covered by ``(start, end)`` *intervals*, clipped to
    ``[lo, hi]`` when given."""
    clipped = []
    for start, end in intervals:
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _interval(ev) -> tuple[float, float]:
    return ev["ts"], ev["ts"] + ev["dur"]


class SpanTree:
    """Tracer events indexed by id and parent, with self times."""

    def __init__(self, events: list[dict]):
        self.events = [e for e in events if "id" in e]
        self.by_id = {e["id"]: e for e in self.events}
        self.children: dict[str, list[dict]] = defaultdict(list)
        for ev in self.events:
            parent = ev.get("parent")
            if parent in self.by_id:
                self.children[parent].append(ev)

    def self_time(self, ev) -> float:
        """Duration of *ev* minus the part its children cover (µs)."""
        lo, hi = _interval(ev)
        kids = [_interval(c) for c in self.children.get(ev["id"], ())]
        return ev["dur"] - union_length(kids, lo, hi)

    def layer_of(self, ev) -> str | None:
        """Layer a span's self time belongs to; ``None`` for the
        benchmark's operation spans. A pool ``worker.chunk`` belongs to
        the layer that submitted it."""
        if ev.get("cat") == "op":
            return None
        name = ev["name"]
        if name == "worker.chunk":
            parent = self.by_id.get(ev.get("parent"))
            return self.layer_of(parent) if parent is not None else "parallel"
        for layer, prefixes in _PREFIXES:
            if name.startswith(prefixes):
                return layer
        return None

    def layer_self_seconds(self) -> dict[str, float]:
        """Self seconds per layer, summed over all processes."""
        out: dict[str, float] = defaultdict(float)
        for ev in self.events:
            layer = self.layer_of(ev)
            if layer is not None:
                out[layer] += self.self_time(ev) / 1e6
        return dict(out)

    def ops(self, name: str | None = None) -> list[dict]:
        """The benchmark's operation spans (optionally one name)."""
        return [
            e for e in self.events
            if e.get("cat") == "op" and (name is None or e["name"] == name)
        ]

    def descendants(self, ev) -> list[dict]:
        out, stack = [], list(self.children.get(ev["id"], ()))
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(self.children.get(node["id"], ()))
        return out

    def coverage(self) -> float:
        """Share of the operation spans' wall time on the calling thread
        that lies inside some layer span."""
        total = covered = 0.0
        for op in self.ops():
            lo, hi = _interval(op)
            inside = [
                _interval(d)
                for d in self.descendants(op)
                if d["pid"] == op["pid"] and d["tid"] == op["tid"]
                and self.layer_of(d) is not None
            ]
            total += op["dur"]
            covered += union_length(inside, lo, hi)
        return covered / total if total else 0.0

    def pool_split(self, op_name: str, workers: int) -> tuple[float, float]:
        """``(barrier seconds per op, worker busy share)`` of the pool
        operations named *op_name*: the part of each operation no worker
        chunk covers, and the chunks' busy time over ``workers`` x the
        operations' wall time."""
        ops = self.ops(op_name)
        if not ops:
            return 0.0, 0.0
        barrier = busy = wall = 0.0
        for op in ops:
            lo, hi = _interval(op)
            chunks = [
                _interval(d) for d in self.descendants(op) if d["name"] == "worker.chunk"
            ]
            barrier += op["dur"] - union_length(chunks, lo, hi)
            busy += sum(union_length([c], lo, hi) for c in chunks)
            wall += op["dur"]
        return barrier / len(ops) / 1e6, busy / (max(1, workers) * wall)


def flat_counters(delta: dict) -> dict[str, float]:
    """Flatten a ``repro.obs.diff_snapshots`` delta: counters and gauges
    by name, histograms as ``<name>.count`` and ``<name>.sum``."""
    out: dict[str, float] = {}
    for name, entry in delta.items():
        if entry.get("kind") == "histogram":
            out[f"{name}.count"] = float(entry.get("count", 0))
            out[f"{name}.sum"] = float(entry.get("sum", 0.0))
        else:
            out[name] = float(entry.get("value", 0))
    return out


def _mean_ms(events) -> float:
    return sum(e["dur"] for e in events) / len(events) / 1e3 if events else 0.0


def attribute(tree: SpanTree, counters: dict[str, float], per: float) -> dict[str, float]:
    """Per-layer values of a traced segment.

    Layer self seconds and counter deltas are divided by *per* (the
    number of operations they cover); means, shares and rates are not.
    """
    per = max(per, 1e-12)
    out: dict[str, float] = {}
    layers = tree.layer_self_seconds()
    for layer in ("combing", "steady_ant", "compose", "parallel", "batch", "kernel", "query", "store"):
        out[f"{layer}.self_s"] = layers.get(layer, 0.0) / per
    for name in REGISTRY_COUNTERS:
        out[name] = counters.get(name, 0.0) / per
    combing_s = layers.get("combing", 0.0)
    out["combing.cells_per_s"] = counters.get("combing.leaf_cells", 0.0) / combing_s if combing_s else 0.0
    lanes = counters.get("batch.lanes.count", 0.0)
    out["batch.mean_lanes"] = counters.get("batch.lanes.sum", 0.0) / lanes if lanes else 0.0
    padded = counters.get("batch.padded_cells", 0.0)
    out["batch.useful_cell_share"] = counters.get("batch.real_cells", 0.0) / padded if padded else 0.0

    by_name: dict[str, list[dict]] = defaultdict(list)
    for ev in tree.events:
        if ev.get("cat") == "bench":
            by_name[ev["name"]].append(ev)
    builds = by_name["kernel.counter_build"]
    out["kernel.counter_build_ms"] = _mean_ms(builds)
    for kind in ("dense", "wavelet"):
        of_kind = [e for e in builds if e["args"].get("kind") == kind]
        out[f"kernel.counter_builds.{kind}"] = len(of_kind) / per
        out[f"kernel.counter_build_ms.{kind}"] = _mean_ms(of_kind)
    probes = by_name["kernel.probe"]
    n_probes = sum(e["args"].get("n", 0) for e in probes)
    out["kernel.probe_us"] = sum(e["dur"] for e in probes) / n_probes if n_probes else 0.0
    answers = by_name["query.answer"]
    keyed = by_name["query.key.encode"] + by_name["query.key.hash"]
    out["query.key_ms"] = sum(e["dur"] for e in keyed) / len(answers) / 1e3 if answers else 0.0
    for op in QUERY_OPS:
        out[f"query.answer_ms.{op}"] = _mean_ms([e for e in answers if e["args"].get("op") == op])
    out["store.get_ms"] = _mean_ms(by_name["store.get"])
    out["store.put_ms"] = _mean_ms(by_name["store.put"])
    out["trace.coverage"] = tree.coverage()
    return out
