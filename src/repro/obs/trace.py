"""Structured span tracing with thread- and process-safe propagation.

A :class:`Tracer` records *spans* — named intervals with a parent link —
as plain dicts. Within one process, the parent is tracked per-thread
(each thread has its own span stack). Across the ProcessMachine
boundary, the parent ships the current context ``(trace_id, span_id)``
inside each task's payload; the worker seeds its tracer with it via
:meth:`Tracer.collect_remote`, records spans locally, and returns the
raw event list, which the parent folds back in with
:meth:`Tracer.adopt`. Worker spans keep their own ``pid`` (they render
as separate process lanes in Perfetto) but re-parent under the
submitting round's span.

Performance: when ``tracer.enabled`` is False (the default),
:meth:`Tracer.span` returns a shared no-op context manager — the cost
is one attribute check, so instrumented hot paths stay within the < 3%
overhead budget of `bench_fig7_threads.py`.

Timestamps: ``ts`` is epoch microseconds (``time.time()``), comparable
across processes; ``dur`` is measured with ``perf_counter_ns`` for
precision. Raw events are JSON-serializable and convert to Chrome
``trace_event`` JSON via :mod:`repro.obs.export`.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
import uuid
from typing import Any, Iterator

__all__ = ["Tracer", "get_tracer"]


class _Nop:
    """Shared no-op context manager returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NOP = _Nop()


class _State(threading.local):
    def __init__(self):
        self.stack: list[str] = []


class Tracer:
    """Collects span events; disabled (near-zero cost) by default.

    Thread-safety: the span stack is thread-local, so concurrent threads
    nest independently; the event buffer append is protected by a lock.
    All durations are reported in microseconds.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.trace_id: str = uuid.uuid4().hex[:16]
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._state = _State()
        self._counter = 0
        self._remote_parent: str | None = None

    # -- span recording ------------------------------------------------

    def _next_id(self) -> str:
        with self._lock:
            self._counter += 1
            return f"{os.getpid()}:{self._counter}"

    def span(self, name: str, *, cat: str = "repro", args: dict | None = None):
        """Context manager recording a complete span named *name*.

        When the tracer is disabled this returns a shared no-op object
        (one attribute check of overhead). *args* becomes the span's
        Perfetto argument dict; keep values JSON-serializable.
        """
        if not self.enabled:
            return _NOP
        return self._span(name, cat, args)

    @contextlib.contextmanager
    def _span(self, name: str, cat: str, args: dict | None) -> Iterator[dict]:
        stack = self._state.stack
        parent = stack[-1] if stack else self._remote_parent
        span_id = self._next_id()
        event = {
            "name": name,
            "cat": cat,
            "ts": time.time() * 1e6,
            "dur": 0.0,
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
            "id": span_id,
            "parent": parent,
            "args": dict(args) if args else {},
        }
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield event
        finally:
            event["dur"] = (time.perf_counter_ns() - start) / 1e3
            stack.pop()
            with self._lock:
                self._events.append(event)

    def current_context(self) -> tuple[str, str | None]:
        """``(trace_id, innermost span id or None)`` for shipping to a
        worker process alongside the task payload."""
        stack = self._state.stack
        return self.trace_id, (stack[-1] if stack else self._remote_parent)

    # -- cross-process plumbing ----------------------------------------

    @contextlib.contextmanager
    def collect_remote(self, ctx: tuple[str, str | None] | None) -> Iterator[list[dict]]:
        """Worker-side: record spans under the parent context *ctx* and
        hand the raw events to the caller for shipping back.

        Swaps in a fresh event buffer, enables the tracer, and seeds the
        remote parent span id; on exit, restores the previous state and
        yields the collected events (via the yielded list, filled in
        place). Pool workers execute tasks single-threaded, so the
        temporary global flip is safe.
        """
        collected: list[dict] = []
        prev_events, prev_enabled = self._events, self.enabled
        prev_trace, prev_parent = self.trace_id, self._remote_parent
        self._events = collected
        self.enabled = True
        if ctx is not None:
            self.trace_id = ctx[0]
            self._remote_parent = ctx[1]
        try:
            yield collected
        finally:
            with self._lock:
                collected[:] = self._events
            self._events = prev_events
            self.enabled = prev_enabled
            self.trace_id = prev_trace
            self._remote_parent = prev_parent

    def adopt(self, events: list[dict]) -> None:
        """Parent-side: fold raw worker events into this tracer's buffer."""
        if not events:
            return
        with self._lock:
            self._events.extend(events)

    # -- access --------------------------------------------------------

    def events(self) -> list[dict]:
        """A copy of all recorded raw events (parent + adopted)."""
        with self._lock:
            return list(self._events)

    def reset(self) -> None:
        """Drop all events and start a fresh trace id."""
        with self._lock:
            self._events.clear()
            self._counter = 0
        self.trace_id = uuid.uuid4().hex[:16]
        self._remote_parent = None


_GLOBAL = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer (each worker process has its own)."""
    return _GLOBAL
