"""Lightweight profiling hooks: per-phase wall/CPU time and peak RSS.

:func:`phase` is the library's phase-accounting primitive: it attributes
wall-clock and CPU seconds to a named phase ("combing", "steady_ant",
"bitparallel", ...) and opens a tracer span of the same name. Phase
accounting is *always on* (its cost is two clock reads per outermost
call); the tracer span inside obeys the tracer's enabled flag.

Re-entrancy: only the outermost entry of a given phase name on each
thread accounts time — the combing leaves inside `hybrid_combing`'s
own combing phase, or steady-ant compositions nested inside grid
combing, do not double-count. Nested *different* phases each account
their own wall time, so phase totals can overlap and need not sum to
end-to-end time.

Thread-safety: totals are accumulated under a module lock; the
re-entrancy guard is thread-local.
"""

from __future__ import annotations

import contextlib
import resource
import sys
import threading
import time
from typing import Iterator

from .trace import get_tracer

__all__ = [
    "phase",
    "phase_breakdown",
    "reset_phases",
    "peak_rss_bytes",
]

_lock = threading.Lock()
#: name -> [calls, wall_seconds, cpu_seconds]
_totals: dict[str, list[float]] = {}


class _Active(threading.local):
    def __init__(self):
        self.names: set[str] = set()


_active = _Active()


@contextlib.contextmanager
def phase(name: str) -> Iterator[None]:
    """Attribute the enclosed work to phase *name* (wall + CPU seconds).

    Opens a tracer span ``phase:<name>`` when tracing is enabled. Safe
    to nest: re-entrant entries of the same phase on the same thread are
    no-ops, so recursive code paths account once.
    """
    if name in _active.names:
        yield
        return
    _active.names.add(name)
    tracer = get_tracer()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        with tracer.span(f"phase:{name}", cat="phase"):
            yield
    finally:
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        _active.names.discard(name)
        with _lock:
            t = _totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += wall
            t[2] += cpu


def phase_breakdown() -> dict[str, dict[str, float]]:
    """Accumulated per-phase totals since the last :func:`reset_phases`.

    Returns ``{name: {"calls": int, "wall_s": float, "cpu_s": float}}``.
    Phases nest, so wall seconds may overlap across names.
    """
    with _lock:
        return {
            name: {"calls": int(t[0]), "wall_s": t[1], "cpu_s": t[2]}
            for name, t in sorted(_totals.items())
        }


def reset_phases() -> None:
    """Zero all phase totals (used between bench measurements)."""
    with _lock:
        _totals.clear()


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; this
    normalizes to bytes. A high-water mark — it never decreases.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        rss *= 1024
    return rss
