"""Open-loop timing: latency counts from the due time, so requests that
queue behind a busy connection are charged for the wait."""

import socket
import threading
import time

import numpy as np

import loadgen

DELAY = 0.05


def _slow_server():
    """A one-line-at-a-time echo server that takes DELAY per line."""
    srv = socket.create_server(("127.0.0.1", 0))

    def serve():
        while True:
            try:
                conn, _ = srv.accept()
            except OSError:
                return
            threading.Thread(target=handle, args=(conn,), daemon=True).start()

    def handle(conn):
        with conn, conn.makefile("rb") as rfile:
            for line in rfile:
                time.sleep(DELAY)
                conn.sendall(line)

    threading.Thread(target=serve, daemon=True).start()
    return srv


def test_latency_is_measured_from_the_due_time():
    srv = _slow_server()
    try:
        lines = [b"a\n", b"b\n", b"c\n"]
        outcomes, _ = loadgen.run_open_loop(
            srv.getsockname(), lines, [0.0, 0.0, 0.0], connections=1, drain_timeout=5
        )
    finally:
        srv.close()
    assert [o.response for o in outcomes] == lines
    # all three were due at once; the k-th waits for the k-1 before it
    for k, o in enumerate(outcomes, start=1):
        assert o.latency >= k * DELAY * 0.9
        assert o.lag < DELAY
    assert outcomes[2].latency > outcomes[0].latency + DELAY


def test_second_connection_takes_the_next_request():
    srv = _slow_server()
    try:
        outcomes, _ = loadgen.run_open_loop(
            srv.getsockname(), [b"a\n", b"b\n"], [0.0, 0.0], connections=2, drain_timeout=5
        )
    finally:
        srv.close()
    assert all(o.latency < 2 * DELAY for o in outcomes)


def test_missing_response_is_infinite_latency():
    o = loadgen.Outcome(due=1.0, sent=1.0)
    assert o.latency == float("inf")


def test_poisson_offsets_are_seeded_and_at_rate():
    a = loadgen.poisson_offsets(100.0, 5000, np.random.default_rng(7))
    b = loadgen.poisson_offsets(100.0, 5000, np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) > 0)
    assert abs(5000 / a[-1] - 100.0) < 5.0


def test_closed_loop_waits_for_each_answer():
    srv = _slow_server()
    try:
        lines = [b"a\n", b"b\n", b"c\n", b"d\n"]
        one, one_s = loadgen.run_closed_loop(srv.getsockname(), lines, clients=1)
        two, two_s = loadgen.run_closed_loop(srv.getsockname(), lines, clients=2)
    finally:
        srv.close()
    assert [o.response for o in one] == lines and [o.response for o in two] == lines
    # a waiting client never queues: each request takes one service time
    assert all(DELAY * 0.9 <= o.latency < 2 * DELAY for o in one + two)
    assert one_s >= 4 * DELAY * 0.9 and two_s < 3 * DELAY
