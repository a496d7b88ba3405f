"""``repro-lcs serve`` — the long-lived async batching daemon.

A stdlib-only :mod:`asyncio` TCP server speaking the newline-delimited
JSON protocol of :mod:`repro.serve.protocol`. Its job is *continuous
batching* (inference-server style): concurrent client requests coalesce
into :class:`~repro.batch.BatchScheduler` megabatches on a warm
:class:`~repro.serve.engine.Engine`, wrapped in a robustness envelope:

- **Admission control / backpressure** — a bounded queue between the
  protocol layer and the batcher; when it is full, new scoring requests
  are answered immediately with the structured ``overloaded`` error
  (shed, not buffered), so memory stays bounded no matter how many
  clients pile on.
- **Per-client quotas** — a token bucket per quota key
  (:mod:`repro.serve.quota`); exhausted buckets get ``quota_exhausted``
  *before* touching the queue.
- **Deadlines** — a request may carry ``deadline_ms``; if the deadline
  passes while it is queued, it is answered ``deadline_expired`` and its
  compute is skipped.
- **Flush policy** — the batcher takes the oldest queued request, then
  collects more until ``max_wait_ms`` elapses, the group holds the
  engine's ``max_lanes`` requests or :data:`MAX_FLUSH_PAIRS` pairs, and
  dispatches the group to the engine on an executor thread. Up to
  ``inflight_flushes`` groups overlap (collect k+1 while k computes).
- **Query tier** — ``query`` requests (:mod:`repro.query`) ride the same
  envelope: when the pair's kernel is already memoized the request is
  answered inline on the executor, *bypassing the batcher entirely*;
  cache misses join flush groups so their kernel builds coalesce into
  the same scheduler megabatches as scoring traffic. The hit/miss split
  shows up as ``serve.query_hits`` / ``serve.query_misses``.
- **Graceful drain** — SIGTERM (or :meth:`LcsServer.request_drain`)
  stops admission (new requests get ``draining``), flushes every
  accepted request, waits for the responses to reach their sockets,
  closes the engine and exits. Zero accepted requests are dropped;
  repeated SIGTERM is idempotent.
- **Degraded mode** — engine-side faults (chaos-killed workers, lost
  shared memory) are absorbed by the resilience layer; the daemon keeps
  serving and exposes the degradation through ``health`` and the
  ``serve.*`` / ``resilience.*`` metrics (Prometheus text via the
  ``metrics`` request type).
"""

from __future__ import annotations

import asyncio
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from ..obs.export import to_prometheus
from ..obs.metrics import get_metrics
from .engine import Engine
from .protocol import (
    MAX_LINE_BYTES,
    decode_line,
    encode_line,
    error_response,
    ok_response,
)
from .quota import QuotaTable

__all__ = ["ServerConfig", "LcsServer"]

_DRAIN_SENTINEL = object()

#: pairs per flush: one giant ``batch`` request cannot stall the lane
MAX_FLUSH_PAIRS = 4096


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of the robustness envelope.

    - ``host`` / ``port`` — bind address (``port=0`` picks a free port;
      read it back from :attr:`LcsServer.port`).
    - ``max_wait_ms`` — how long the batcher keeps collecting after the
      first request of a flush arrives (the latency half of the flush
      policy).
    - ``queue_cap`` — bounded admission queue length; beyond it requests
      are shed with ``overloaded``.
    - ``quota_rate`` / ``quota_burst`` — per-client token bucket
      (``rate <= 0`` disables quotas).
    - ``default_deadline_ms`` — deadline applied to requests that do not
      carry their own (``None`` = no default).
    - ``inflight_flushes`` — engine flushes allowed to overlap.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_wait_ms: float = 5.0
    queue_cap: int = 256
    quota_rate: float = 0.0
    quota_burst: float = 16.0
    default_deadline_ms: float | None = None
    inflight_flushes: int = 2


class _Pending:
    """One admitted scoring or query request waiting for its flush.

    ``op is None`` marks a scoring request; otherwise the item is a
    query-tier cache miss whose kernel build rides the same flush group
    (continuous batching of kernel builds), answered via
    :meth:`~repro.serve.engine.Engine.run_query_batch`.
    """

    __slots__ = (
        "request_id", "pairs", "single", "future", "deadline", "admitted_at",
        "op", "params",
    )

    def __init__(self, request_id, pairs, single, future, deadline,
                 op=None, params=None):
        self.request_id = request_id
        self.pairs = pairs
        self.single = single
        self.future = future
        self.deadline = deadline
        self.admitted_at = time.monotonic()
        self.op = op
        self.params = params


class LcsServer:
    """The asyncio daemon; owns an :class:`Engine` and a bind socket.

    Use as ``server = LcsServer(engine, config); await server.start();
    await server.serve_forever()``, or synchronously via the
    ``repro-lcs serve`` CLI. :meth:`request_drain` (also wired to
    SIGTERM/SIGINT) begins the graceful drain; :meth:`serve_forever`
    returns once the drain completes.
    """

    def __init__(self, engine: Engine, config: ServerConfig | None = None):
        self.engine = engine
        self.config = config or ServerConfig()
        self.quotas = QuotaTable(self.config.quota_rate, self.config.quota_burst)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=max(1, self.config.queue_cap))
        self._server: asyncio.AbstractServer | None = None
        self._batcher_task: asyncio.Task | None = None
        self._flush_tasks: set[asyncio.Task] = set()
        self._flush_sem = asyncio.Semaphore(max(1, self.config.inflight_flushes))
        # dedicated executor for engine flushes: the loop's default pool
        # is shared process-wide and can be starved by unrelated blocking
        # work, which would wedge every pending response behind it
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.inflight_flushes),
            thread_name_prefix="serve-flush",
        )
        self._writers: set[asyncio.StreamWriter] = set()
        self._stopped = asyncio.Event()
        self._draining = False
        self._drain_started_at: float | None = None
        self._responses_pending = 0
        self._installed_signals: list = []
        # plain counters mirrored into the serve.* metrics (kept as
        # attributes too so tests and the drain summary need no registry)
        self.admitted = 0
        self.completed = 0
        self.shed = 0
        self.quota_rejected = 0
        self.deadline_expired = 0
        self.drained = 0
        self.batches = 0
        self.max_occupancy = 0
        self.query_hits = 0
        self.query_misses = 0

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "LcsServer":
        """Start the engine, bind the socket, install signal handlers and
        launch the batcher; returns ``self``."""
        self.engine.start()
        self._server = await asyncio.start_server(
            self._handle_client,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
                self._installed_signals.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-unix / non-main thread: drain via request_drain()
        self._batcher_task = asyncio.create_task(self._batcher())
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        """True once a graceful drain has begun."""
        return self._draining

    def request_drain(self) -> None:
        """Begin the graceful drain; idempotent (double SIGTERM safe).

        Admission closes immediately; everything already accepted is
        flushed and answered before the server exits.
        """
        if self._draining:
            return
        self._draining = True
        self._drain_started_at = time.monotonic()
        # wake the batcher even if the queue is empty
        try:
            self._queue.put_nowait(_DRAIN_SENTINEL)
        except asyncio.QueueFull:  # batcher will see the flag regardless
            pass

    async def serve_forever(self) -> None:
        """Wait until the drain completes and the server has shut down."""
        await self._stopped.wait()

    async def aclose(self) -> None:
        """Drain and wait for full shutdown (test/embedding convenience)."""
        self.request_drain()
        await self.serve_forever()

    # -- protocol layer -------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._writers.add(writer)
        peer = writer.get_extra_info("peername")
        peer_key = str(peer[0]) if isinstance(peer, tuple) else str(peer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        encode_line(
                            error_response(None, "bad_request", "request line too long")
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._serve_one(line, peer_key)
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _serve_one(self, line: bytes, peer_key: str) -> dict:
        """Parse, admit and answer one request line."""
        from ..errors import QueryError, RequestRejectedError

        metrics = get_metrics()
        metrics.inc("serve.requests")
        try:
            req = decode_line(line)
        except RequestRejectedError as exc:
            return error_response(None, exc.code, str(exc))
        request_id = req.get("id")
        kind = req.get("type")
        if kind == "health":
            return ok_response(request_id, **self._health())
        if kind == "metrics":
            text = to_prometheus(metrics.snapshot())
            return ok_response(request_id, content_type="text/plain; version=0.0.4", text=text)
        if kind not in ("lcs", "batch", "query"):
            return error_response(
                request_id, "bad_request", f"unknown request type {kind!r}"
            )
        op = params = None
        if kind == "query":
            metrics.inc("serve.query_requests")
            try:
                op, qa, qb, params = self._extract_query(req)
            except RequestRejectedError as exc:
                return error_response(request_id, exc.code, str(exc))
            pairs, single = [(qa, qb)], False
        else:
            try:
                pairs, single = self._extract_pairs(req)
            except RequestRejectedError as exc:
                return error_response(request_id, exc.code, str(exc))
        # -- admission control ---------------------------------------
        if self._draining:
            return error_response(
                request_id, "draining", "server is draining; not accepting new work"
            )
        client = str(req.get("client") or peer_key)
        if not self.quotas.admit(client, n=max(1, len(pairs))):
            self.quota_rejected += 1
            metrics.inc("serve.quota_rejected")
            return error_response(
                request_id, "quota_exhausted", f"quota exhausted for client {client!r}"
            )
        # -- query fast path: cached kernels bypass the batcher -------
        if kind == "query":
            a, b = pairs[0]
            if self.engine.query_cached(op, a, b, params):
                self.query_hits += 1
                metrics.inc("serve.query_hits")
                loop = asyncio.get_running_loop()
                try:
                    result = await loop.run_in_executor(
                        self._executor, self.engine.run_query, op, a, b, params
                    )
                except QueryError as exc:
                    return error_response(request_id, "bad_request", str(exc))
                except Exception as exc:  # noqa: BLE001 — structured error
                    return error_response(
                        request_id, "internal", f"query error: {exc}"
                    )
                return ok_response(request_id, op=op, result=result)
            self.query_misses += 1
            metrics.inc("serve.query_misses")
        deadline = None
        deadline_ms = req.get("deadline_ms", self.config.default_deadline_ms)
        if deadline_ms is not None:
            try:
                deadline = time.monotonic() + float(deadline_ms) / 1000.0
            except (TypeError, ValueError):
                return error_response(
                    request_id, "bad_request", f"invalid deadline_ms {deadline_ms!r}"
                )
        pending = _Pending(
            request_id, pairs, single,
            asyncio.get_running_loop().create_future(), deadline,
            op=op, params=params,
        )
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self.shed += 1
            metrics.inc("serve.shed")
            return error_response(
                request_id,
                "overloaded",
                f"admission queue full ({self.config.queue_cap} requests); retry with backoff",
            )
        self.admitted += 1
        metrics.inc("serve.admitted")
        metrics.gauge("serve.queue_depth").set(self._queue.qsize())
        self._responses_pending += 1
        try:
            return await pending.future
        finally:
            self._responses_pending -= 1
            self.completed += 1
            if self._draining:
                self.drained += 1
                metrics.inc("serve.drained")

    @staticmethod
    def _extract_pairs(req: dict):
        """Validate and normalize a scoring request's pairs."""
        from ..errors import RequestRejectedError

        if req.get("type") == "lcs":
            a, b = req.get("a"), req.get("b")
            if not isinstance(a, str) or not isinstance(b, str):
                raise RequestRejectedError(
                    "'lcs' request needs string fields 'a' and 'b'", code="bad_request"
                )
            return [(a, b)], True
        raw = req.get("pairs")
        if not isinstance(raw, list) or not all(
            isinstance(p, (list, tuple))
            and len(p) == 2
            and isinstance(p[0], str)
            and isinstance(p[1], str)
            for p in raw
        ):
            raise RequestRejectedError(
                "'batch' request needs 'pairs': [[a, b], ...] of strings",
                code="bad_request",
            )
        return [(a, b) for a, b in raw], False

    @staticmethod
    def _extract_query(req: dict):
        """Validate a ``query`` request: catalog op, string pair, and the
        op's own parameters (strictly — unknown keys are rejected)."""
        from ..errors import RequestRejectedError
        from ..query import QUERY_OPS

        op = req.get("op")
        if op not in QUERY_OPS:
            raise RequestRejectedError(
                f"'query' request needs 'op' in {list(QUERY_OPS)}, got {op!r}",
                code="bad_request",
            )
        a, b = req.get("a"), req.get("b")
        if not isinstance(a, str) or not isinstance(b, str):
            raise RequestRejectedError(
                "'query' request needs string fields 'a' and 'b'", code="bad_request"
            )
        raw = req.get("params", {})
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise RequestRejectedError(
                "'params' must be a JSON object", code="bad_request"
            )
        params = dict(raw)
        allowed = {
            "lcs": set(),
            "all_prefix_scores": set(),
            "all_suffix_scores": set(),
            "windowed_lcs": {"window"},
            "substring_threshold_matches": {"theta", "window"},
            "append": {"suffix"},
            "prepend": {"prefix"},
        }[op]
        unknown = set(params) - allowed
        if unknown:
            raise RequestRejectedError(
                f"unknown params {sorted(unknown)} for op {op!r}", code="bad_request"
            )
        if op == "windowed_lcs":
            w = params.get("window")
            if not isinstance(w, int) or isinstance(w, bool) or w <= 0:
                raise RequestRejectedError(
                    "'windowed_lcs' needs a positive integer 'window'",
                    code="bad_request",
                )
        elif op == "substring_threshold_matches":
            theta = params.get("theta")
            if not isinstance(theta, (int, float)) or isinstance(theta, bool) or not (
                0.0 < float(theta) <= 1.0
            ):
                raise RequestRejectedError(
                    "'substring_threshold_matches' needs 'theta' in (0, 1]",
                    code="bad_request",
                )
            params["theta"] = float(theta)
            w = params.get("window")
            if w is not None and (
                not isinstance(w, int) or isinstance(w, bool) or w <= 0
            ):
                raise RequestRejectedError(
                    "'window' must be a positive integer when given",
                    code="bad_request",
                )
        elif op == "append":
            if not isinstance(params.get("suffix"), str):
                raise RequestRejectedError(
                    "'append' needs a string 'suffix'", code="bad_request"
                )
        elif op == "prepend":
            if not isinstance(params.get("prefix"), str):
                raise RequestRejectedError(
                    "'prepend' needs a string 'prefix'", code="bad_request"
                )
        return op, a, b, params

    # -- continuous batcher ---------------------------------------------

    async def _batcher(self) -> None:
        """Collect admitted requests into flush groups and dispatch them."""
        max_requests = self.engine.max_lanes
        while True:
            item = await self._queue.get()
            if item is _DRAIN_SENTINEL:
                if self._queue.empty():
                    break
                continue
            group = [item]
            total_pairs = len(item.pairs)
            budget = self.config.max_wait_ms / 1000.0
            started = time.monotonic()
            while (
                len(group) < max_requests
                and total_pairs < MAX_FLUSH_PAIRS
            ):
                remaining = budget - (time.monotonic() - started)
                if remaining <= 0:
                    break
                try:
                    nxt = await asyncio.wait_for(self._queue.get(), timeout=remaining)
                except asyncio.TimeoutError:
                    break
                if nxt is _DRAIN_SENTINEL:
                    break
                group.append(nxt)
                total_pairs += len(nxt.pairs)
            get_metrics().gauge("serve.queue_depth").set(self._queue.qsize())
            await self._flush_sem.acquire()
            task = asyncio.create_task(self._run_flush(group))
            self._flush_tasks.add(task)
            task.add_done_callback(self._flush_tasks.discard)
            if self._draining and self._queue.empty():
                break
        await self._shutdown()

    async def _run_flush(self, group: list) -> None:
        """Answer one flush group: expire deadlines, run the engine batch
        on an executor thread, resolve every future."""
        metrics = get_metrics()
        try:
            now = time.monotonic()
            live: list[_Pending] = []
            for p in group:
                if p.deadline is not None and now > p.deadline:
                    self.deadline_expired += 1
                    metrics.inc("serve.deadline_expired")
                    self._resolve(
                        p,
                        error_response(
                            p.request_id,
                            "deadline_expired",
                            "deadline passed while queued; result not computed",
                        ),
                    )
                else:
                    live.append(p)
            if not live:
                return
            scoring = [p for p in live if p.op is None]
            querying = [p for p in live if p.op is not None]
            flat = [pair for p in scoring for pair in p.pairs]
            qitems = [(p.op, p.pairs[0][0], p.pairs[0][1], p.params) for p in querying]

            def _work():
                # one executor hop for the whole group: the scoring
                # megabatch plus a kernel-build megabatch for the query
                # misses (each answered individually with fault isolation)
                scores = self.engine.scores(flat) if flat else []
                answers = self.engine.run_query_batch(qitems) if qitems else []
                return scores, answers

            loop = asyncio.get_running_loop()
            try:
                scores, answers = await loop.run_in_executor(self._executor, _work)
            except Exception as exc:  # noqa: BLE001 — engine fault -> structured error
                for p in live:
                    self._resolve(
                        p, error_response(p.request_id, "internal", f"engine error: {exc}")
                    )
                return
            self.batches += 1
            self.max_occupancy = max(self.max_occupancy, len(live))
            metrics.inc("serve.batches")
            metrics.histogram("serve.batch_occupancy").observe(len(live))
            offset = 0
            for p in scoring:
                part = [int(s) for s in scores[offset : offset + len(p.pairs)]]
                offset += len(p.pairs)
                if p.single:
                    self._resolve(p, ok_response(p.request_id, score=part[0]))
                else:
                    self._resolve(p, ok_response(p.request_id, scores=part))
            from ..errors import QueryError

            for p, (result, exc) in zip(querying, answers):
                if exc is None:
                    self._resolve(p, ok_response(p.request_id, op=p.op, result=result))
                elif isinstance(exc, QueryError):
                    self._resolve(
                        p, error_response(p.request_id, "bad_request", str(exc))
                    )
                else:
                    self._resolve(
                        p,
                        error_response(
                            p.request_id, "internal", f"query error: {exc}"
                        ),
                    )
            self.quotas.evict_idle()
        finally:
            self._flush_sem.release()

    @staticmethod
    def _resolve(pending: _Pending, response: dict) -> None:
        if not pending.future.done():
            pending.future.set_result(response)

    # -- drain / shutdown ------------------------------------------------

    async def _shutdown(self) -> None:
        """Finish the drain: flush in-flight groups, let every response
        reach its socket, then tear everything down."""
        if self._flush_tasks:
            await asyncio.gather(*list(self._flush_tasks), return_exceptions=True)
        # all futures are resolved; give handlers time to write them out
        deadline = time.monotonic() + 30.0
        while self._responses_pending > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        loop = asyncio.get_running_loop()
        for sig in self._installed_signals:
            try:
                loop.remove_signal_handler(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        await loop.run_in_executor(self._executor, self.engine.close)
        self._executor.shutdown(wait=False)
        self._stopped.set()

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict:
        """The server-side counters of the robustness envelope."""
        return {
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": self.shed,
            "quota_rejected": self.quota_rejected,
            "deadline_expired": self.deadline_expired,
            "drained": self.drained,
            "batches": self.batches,
            "max_occupancy": self.max_occupancy,
            "query_hits": self.query_hits,
            "query_misses": self.query_misses,
            "queue_depth": self._queue.qsize(),
            "inflight_flushes": len(self._flush_tasks),
        }

    def _health(self) -> dict:
        return {
            "status": "draining" if self._draining else "serving",
            "server": self.stats(),
            "engine": self.engine.health(),
        }
