"""Crash-resume with a *real* process kill.

A child Python process runs a checkpointed grid combing with slowed-down
tasks; the parent SIGKILLs it once the store holds some (but not all)
artifacts, resumes in-process, and asserts the kernel is bit-identical —
the no-cooperation version of the property tests.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.checkpoint import GridCheckpointer, KernelStore
from repro.core.combing.hybrid import hybrid_combing_grid
from repro.core.combing.iterative import iterative_combing_rowmajor

pytestmark = pytest.mark.skipif(os.name != "posix", reason="needs POSIX kill")

A = "BAABCBCABACCBABA" * 4
B = "CABBAACBCABACABB" * 4

CHILD = """
import sys
from repro.alphabet import encode
from repro.checkpoint import GridCheckpointer, KernelStore
from repro.core.combing.parallel import parallel_hybrid_combing_grid
from repro.parallel import ChaosMachine, SerialMachine

store_dir, a, b = sys.argv[1], sys.argv[2], sys.argv[3]
ckpt = GridCheckpointer(KernelStore(store_dir), compose_min_order=0)
# every task stalls 50 ms before it runs, so the kill lands mid-run
slow = ChaosMachine(SerialMachine(), delay_rate=1.0, delay=0.05)
print("ready", flush=True)
parallel_hybrid_combing_grid(encode(a), encode(b), slow, n_tasks=16, checkpoint=ckpt)
print("finished", flush=True)
"""


def test_sigkill_mid_run_then_resume(tmp_path):
    store_dir = tmp_path / "store"
    env = dict(os.environ)
    repro_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = repro_root + os.pathsep + env.get("PYTHONPATH", "")

    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(store_dir), A, B],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        # wait until a few leaf artifacts have committed, then kill -9
        deadline = time.monotonic() + 30
        objects = store_dir / "objects"
        while time.monotonic() < deadline:
            if objects.is_dir() and len(list(objects.glob("*/*.json"))) >= 3:
                break
            if proc.poll() is not None:
                out, err = proc.communicate()
                pytest.fail(f"child exited early: {out!r} {err!r}")
            time.sleep(0.01)
        else:
            pytest.fail("child never wrote 3 artifacts")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.wait()
    assert proc.returncode == -signal.SIGKILL

    ca, cb = repro.encode(A), repro.encode(B)
    store = KernelStore(store_dir)
    got = hybrid_combing_grid(
        ca, cb, 16, checkpoint=GridCheckpointer(store, compose_min_order=0)
    )
    assert np.array_equal(got, iterative_combing_rowmajor(ca, cb))
    stats = store.stats()
    assert stats["hits"] >= 1  # the killed run's work was reused
    # either the kill landed mid-flight (several artifacts reused on the
    # way back up) or the child got far enough to commit the *root*
    # kernel, in which case the resume is a single hit with no recompute
    assert stats["hits"] >= 3 or stats["misses"] == 0
    # and whatever the kill left behind is either valid or ignorable
    assert all(v == "ok" for v in store.verify().values())
