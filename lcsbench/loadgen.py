"""Request generators over at most two connections.

Every request line is built before the window starts.

- :func:`run_open_loop` — independent users: a sender thread writes each
  line at its due time, on the connection with the fewest requests
  outstanding; a reader thread per connection matches responses to
  requests in order (the daemon answers a connection's lines one at a
  time). Latency is measured from the due time, so a request that waits
  behind a busy connection, or behind a late sender, is charged for it;
  how late the sender ran is reported separately.
- :func:`run_closed_loop` — callers that wait for each reply, like
  ``repro.serve.ServeClient``: each connection sends its next line when
  the previous answer arrives.
"""

from __future__ import annotations

import gc
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np


def poisson_offsets(rate: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Due times (seconds from the window start) of *count* Poisson
    arrivals at *rate* per second."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


@dataclass
class Outcome:
    """One request's fate; times are ``perf_counter`` seconds."""

    due: float
    sent: float = 0.0
    received: float = 0.0
    response: bytes = b""

    @property
    def latency(self) -> float:
        """Seconds from due time to response (``inf`` if none came)."""
        return self.received - self.due if self.response else float("inf")

    @property
    def lag(self) -> float:
        """Seconds the sender was late."""
        return self.sent - self.due


@dataclass
class _Conn:
    sock: socket.socket
    pending: deque = field(default_factory=deque)
    lock: threading.Lock = field(default_factory=threading.Lock)


def run_open_loop(
    address: tuple[str, int],
    lines: list[bytes],
    offsets,
    *,
    connections: int = 2,
    drain_timeout: float = 60.0,
) -> tuple[list[Outcome], float]:
    """Send ``lines[i]`` at ``start + offsets[i]``; return the outcomes in
    request order and the window start (``perf_counter`` seconds).

    A response that does not arrive within *drain_timeout* seconds of
    the last due time, or a connection the server closes, leaves its
    outcome without a response (a failure for the caller).
    """
    conns = [_Conn(socket.create_connection(address, timeout=drain_timeout))
             for _ in range(connections)]
    outcomes: list[Outcome] = []
    readers = []
    gc.collect()
    gc.disable()  # a collection in this process would delay sends and reads
    try:
        for conn in conns:
            t = threading.Thread(target=_read_responses, args=(conn,), daemon=True)
            t.start()
            readers.append(t)
        start = time.perf_counter() + 0.05
        outcomes = [Outcome(due=start + float(off)) for off in offsets]
        for line, outcome in zip(lines, outcomes):
            delay = outcome.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            conn = min(conns, key=lambda c: len(c.pending))
            with conn.lock:
                conn.pending.append(outcome)
            outcome.sent = time.perf_counter()
            conn.sock.sendall(line)
        deadline = (outcomes[-1].due if outcomes else start) + drain_timeout
        for conn in conns:
            while conn.pending and time.perf_counter() < deadline:
                time.sleep(0.002)
    finally:
        for conn in conns:
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.sock.close()
        for t in readers:
            t.join(timeout=5.0)
        gc.enable()
    return outcomes, start


def run_closed_loop(
    address: tuple[str, int], lines: list[bytes], *, clients: int, timeout: float = 60.0
) -> tuple[list[Outcome], float]:
    """Send every line from *clients* connections, each sending its next
    line as soon as the previous answer arrived; returns the outcomes in
    request order (due = sent) and the wall seconds the lines took."""
    outcomes = [Outcome(due=0.0) for _ in lines]
    cursor = iter(range(len(lines)))
    lock = threading.Lock()

    def client() -> None:
        with socket.create_connection(address, timeout=timeout) as sock, \
                sock.makefile("rb") as rfile:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                o = outcomes[i]
                o.due = o.sent = time.perf_counter()
                sock.sendall(lines[i])
                o.response = rfile.readline()
                o.received = time.perf_counter()

    threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
    gc.collect()
    gc.disable()  # a collection in this process would delay sends and reads
    start = time.perf_counter()
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout + 5.0)
    finally:
        gc.enable()
    return outcomes, time.perf_counter() - start


def _read_responses(conn: _Conn) -> None:
    rfile = conn.sock.makefile("rb")
    try:
        while True:
            line = rfile.readline()
            if not line:
                return
            now = time.perf_counter()
            with conn.lock:
                outcome = conn.pending.popleft() if conn.pending else None
            if outcome is not None:
                outcome.response = line
                outcome.received = now
    except (OSError, ValueError):
        return
    finally:
        rfile.close()
