"""Paths, process plumbing and provenance shared by the benchmark's programs.

The benchmark runs from the root of a checkout and drives the program in
``src/`` of that checkout. Everything it writes goes under
:data:`SCRATCH` inside the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".lcsbench"

#: pool workers and client connections: never more than the cores
WORKERS = 2


def require_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; exit with code 2
    when there is no program there (never fall back to an installed one)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"lcsbench: no program under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scratch_dir(*parts: str) -> Path:
    """A directory under the checkout's scratch area (created)."""
    path = SCRATCH.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def child_env() -> dict:
    """Environment for the benchmark's child processes: the checkout's
    program first on the path, temporary files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(scratch_dir("tmp"))
    env.pop("REPRO_COUNTER", None)
    env.pop("REPRO_PRECALC_BUILD", None)
    return env


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak RSS of this process (and of its reaped children) in MiB."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss / 1024.0


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the program's source files: identifies the code under
    test where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(workload: str, seed: int, seconds: int, trace: bool, **extra) -> dict:
    """Everything a reader needs to interpret a result without the run."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pool_workers": WORKERS,
        **extra,
    }


def emit(obj: dict) -> None:
    """Print one JSON object as a single line."""
    print(json.dumps(obj, sort_keys=True), flush=True)
