"""Content-addressed, integrity-verified kernel store.

Kernel composition (Theorem 3.4) makes every sub-block kernel of a grid
combing run a self-contained artifact: the kernel of ``(a_block,
b_block)`` depends only on the two slices, so it can be cached on disk
and reused by any later run that covers the same slices — regardless of
grid shape, reduction order or backend. :class:`KernelStore` persists
those artifacts keyed by ``sha256(a_block), sha256(b_block), algorithm,
version`` and never trusts what it reads back:

- **atomic commits** — payloads and manifests are written to a
  temporary file, fsynced and ``os.replace``d into place, manifest
  last, so a crash can leave at most an ignorable orphan, never a
  half-written artifact that looks valid;
- **integrity checks on every read** — the payload must match the
  manifest's sha256, the manifest must match its own embedded checksum,
  formats/versions/orders must agree and the decoded array must be a
  permutation. Any violation raises
  :class:`~repro.errors.CheckpointCorruptionError`; the artifact is
  discarded and recomputed, never silently loaded;
- **hit / miss / corrupt counters** so tests (and the ``repro-lcs
  checkpoint`` CLI) can observe exactly how a run interacted with the
  store.

**Cache mode** (the serving-path memoization tier behind
:class:`repro.query.QueryEngine`): constructing the store with
``max_bytes=N`` turns it into an LRU-bounded cache — every hit
*touches* the artifact (its manifest mtime becomes the recency stamp,
monotonic within a process), every :meth:`put` evicts
least-recently-touched artifacts until the store fits the byte budget,
and pinned artifacts (:meth:`pin`, used for run checkpoints that must
survive) are never evicted. Evictions count in ``store.evictions`` and
the running hit rate is exported as the ``store.hit_rate`` gauge.

**Counter sidecars** (the query tier's probe structures): :meth:`put`
optionally persists the pair's *built* dominance counter
(:func:`repro.core.dominance.counter_to_bytes`, a versioned payload)
next to the permutation, and :meth:`get_with_counter` returns it with
the kernel — so a disk cache hit skips the O(n log n) counter
construction, not just the comb. The sidecar is referenced (and
sha256-pinned) by the manifest when present; artifacts written before
counters existed simply lack the reference and still load. A sidecar
that fails verification is dropped (the caller rebuilds the counter) —
never trusted, never fatal to the verified permutation next to it.

Layout under the store root::

    objects/<key[:2]>/<key>.perm     raw little-endian int64 kernel
    objects/<key[:2]>/<key>.counter  optional built dominance counter
    objects/<key[:2]>/<key>.json     manifest (see MANIFEST_FIELDS)
    pins/<key>.pin                   pin markers (excluded from eviction/gc)
    runs/<run_id>.jsonl              run journals (repro.checkpoint.journal)
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from ..core.permutation import perm_from_bytes, perm_to_bytes
from ..errors import CheckpointCorruptionError, CheckpointError
from ..obs.metrics import get_metrics as _get_metrics, inc as _metric_inc
from ..types import PermArray

#: Bump to invalidate every previously written artifact (key + manifest
#: format change).
STORE_VERSION = 1

#: Manifest keys every valid artifact carries. Counter sidecars add the
#: *optional* ``counter_sha256`` key — optional so artifacts written
#: before sidecars existed keep loading unchanged.
MANIFEST_FIELDS = (
    "format", "key", "algorithm", "m", "n", "order", "sha256", "created",
    "manifest_sha256",
)

_KEY_DOMAIN = b"repro-kernel-key\x00"


def _sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _manifest_digest(manifest: dict) -> str:
    """Checksum of the manifest itself (excluding the checksum field), so
    a bit flip *anywhere* in the manifest file is detected."""
    body = {k: v for k, v in manifest.items() if k != "manifest_sha256"}
    return _sha256_hex(json.dumps(body, sort_keys=True, separators=(",", ":")).encode("ascii"))


def kernel_key(ca: np.ndarray, cb: np.ndarray, algorithm: str, version: int = STORE_VERSION) -> str:
    """Content address of the kernel of ``(ca, cb)``.

    Hashes the canonical little-endian bytes of both encoded slices plus
    the algorithm label and store version — two runs over the same data
    share artifacts; a version bump or different algorithm does not
    collide.
    """
    h = hashlib.sha256()
    h.update(_KEY_DOMAIN)
    h.update(f"{version}\x00{algorithm}\x00".encode("ascii"))
    for arr in (ca, cb):
        payload = np.ascontiguousarray(np.asarray(arr), dtype="<i8").tobytes()
        h.update(f"{len(payload)}\x00".encode("ascii"))
        h.update(hashlib.sha256(payload).digest())
    return h.hexdigest()


def _atomic_write(path: Path, data: bytes) -> None:
    """Write-to-temp + fsync + rename: *path* either keeps its old
    content or atomically gains the new one, never a torn mix.

    Every write gets its own temp file (``<name>.tmp.<random>``, swept by
    :meth:`KernelStore.gc`), so concurrent writers of one key — threads
    or processes — never rename each other's temp file away."""
    tmp = path.with_name(f"{path.name}.tmp.{uuid.uuid4().hex}")
    with open(tmp, "xb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    try:  # persist the rename itself (best effort; not all FS support it)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform dependent
        pass


class KernelStore:
    """Durable kernel artifacts under a root directory.

    ``create=False`` refuses to touch a directory that does not already
    hold a store (the CLI inspection commands use it, so a typo'd path
    errors instead of materializing an empty store).

    ``max_bytes`` switches on **cache mode**: the store becomes an LRU
    with a byte budget — hits touch their artifact, :meth:`put` evicts
    least-recently-touched unpinned artifacts until payload + manifest
    bytes fit the budget, and the eviction/hit-rate counters are
    exported through the metrics catalog (``store.evictions``,
    ``store.hit_rate``, ``store.cache_bytes``).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        create: bool = True,
        max_bytes: int | None = None,
    ):
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.runs = self.root / "runs"
        self.pins_dir = self.root / "pins"
        if create:
            self.objects.mkdir(parents=True, exist_ok=True)
            self.runs.mkdir(parents=True, exist_ok=True)
        elif not self.objects.is_dir():
            raise FileNotFoundError(f"no checkpoint store at {self.root}")
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        if self.max_bytes is not None and self.max_bytes <= 0:
            raise CheckpointError(f"max_bytes must be positive, got {max_bytes}")
        self._lock = threading.Lock()
        self._lru_clock = 0  # monotonic touch stamps (ns), ties broken upward
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0
        self.evictions = 0

    # stores are shipped to worker processes inside checkpointed thunks;
    # the lock is per-process state
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- paths ---------------------------------------------------------

    def _payload_path(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.perm"

    def _manifest_path(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.json"

    def _counter_path(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.counter"

    def journal_path(self, run_id: str):
        """Path of the run journal named *run_id* under ``runs/``."""
        return self.runs / f"{run_id}.jsonl"

    def key(self, ca: np.ndarray, cb: np.ndarray, algorithm: str) -> str:
        """Content-addressed key for (encoded inputs, algorithm) — see
        :func:`kernel_key`."""
        return kernel_key(ca, cb, algorithm)

    # -- LRU cache mode -------------------------------------------------

    def _touch(self, key: str) -> None:
        """Stamp *key* as most-recently-used (manifest mtime, strictly
        increasing within this process so rapid touches keep order)."""
        with self._lock:
            stamp = max(time.time_ns(), self._lru_clock + 1)
            self._lru_clock = stamp
        try:
            os.utime(self._manifest_path(key), ns=(stamp, stamp))
        except OSError:  # pragma: no cover - raced with eviction/gc
            pass

    def _artifact_bytes(self, key: str) -> int:
        total = 0
        for path in (
            self._payload_path(key),
            self._counter_path(key),
            self._manifest_path(key),
        ):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def total_bytes(self) -> int:
        """Payload + manifest bytes of every committed artifact."""
        return sum(self._artifact_bytes(key) for key in self.keys())

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the store (0.0 before any)."""
        with self._lock:
            looked = self.hits + self.misses
            return self.hits / looked if looked else 0.0

    def pin(self, key: str) -> None:
        """Exclude *key* from LRU eviction and age-based gc (run
        checkpoints that must survive the cache churn)."""
        self.pins_dir.mkdir(parents=True, exist_ok=True)
        (self.pins_dir / f"{key}.pin").touch()

    def unpin(self, key: str) -> None:
        """Drop the pin on *key*; idempotent."""
        (self.pins_dir / f"{key}.pin").unlink(missing_ok=True)

    def pinned_keys(self) -> set[str]:
        """Keys currently pinned against eviction."""
        if not self.pins_dir.is_dir():
            return set()
        return {p.stem for p in self.pins_dir.glob("*.pin")}

    def _enforce_budget(self) -> None:
        """Evict least-recently-touched unpinned artifacts until the
        store fits ``max_bytes``. No-op outside cache mode."""
        if self.max_bytes is None:
            return
        pinned = self.pinned_keys()
        entries = []  # (mtime_ns, key, bytes)
        total = 0
        for key in self.keys():
            size = self._artifact_bytes(key)
            total += size
            if key in pinned:
                continue
            try:
                mtime = self._manifest_path(key).stat().st_mtime_ns
            except OSError:
                continue
            entries.append((mtime, key, size))
        entries.sort()
        while total > self.max_bytes and entries:
            _, key, size = entries.pop(0)
            self.discard(key)
            total -= size
            with self._lock:
                self.evictions += 1
            _metric_inc("store.evictions", 1)
        _get_metrics().gauge("store.cache_bytes").set(total)

    # -- write ---------------------------------------------------------

    def put(
        self,
        key: str,
        perm: PermArray,
        *,
        algorithm: str,
        m: int,
        n: int,
        counter: bytes | None = None,
    ) -> None:
        """Persist *perm* under *key*. Payload (and counter sidecar)
        first, manifest last — the manifest is the commit marker, so a
        crash between the writes leaves ignorable orphans that read as a
        miss, not corruption. Idempotent: re-putting a key rewrites
        identical content.

        *counter* is an optional serialized dominance counter
        (:func:`repro.core.dominance.counter_to_bytes`); when given it is
        committed as a sha256-pinned sidecar so
        :meth:`get_with_counter` hits skip the counter rebuild. A put
        without a counter removes any stale sidecar from an earlier put.
        """
        perm = np.asarray(perm)
        if perm.size != m + n:
            raise CheckpointError(f"kernel order {perm.size} != m+n = {m + n}")
        payload = perm_to_bytes(perm)
        manifest = {
            "format": STORE_VERSION,
            "key": key,
            "algorithm": algorithm,
            "m": int(m),
            "n": int(n),
            "order": int(perm.size),
            "sha256": _sha256_hex(payload),
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        if counter is not None:
            manifest["counter_sha256"] = _sha256_hex(counter)
        manifest["manifest_sha256"] = _manifest_digest(manifest)
        self._payload_path(key).parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(self._payload_path(key), payload)
        if counter is not None:
            _atomic_write(self._counter_path(key), counter)
        else:
            self._counter_path(key).unlink(missing_ok=True)
        _atomic_write(self._manifest_path(key), json.dumps(manifest, sort_keys=True).encode("ascii"))
        with self._lock:
            self.writes += 1
        _metric_inc("checkpoint.writes", 1)
        _metric_inc("checkpoint.bytes_written", len(payload))
        if self.max_bytes is not None:
            self._touch(key)  # a fresh write is the most recent use
            self._enforce_budget()

    # -- read ----------------------------------------------------------

    def _load_manifest(self, key: str) -> dict:
        try:
            manifest = json.loads(self._manifest_path(key).read_bytes())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointCorruptionError(f"{key}: unreadable manifest: {exc}") from exc
        if not isinstance(manifest, dict) or any(f not in manifest for f in MANIFEST_FIELDS):
            raise CheckpointCorruptionError(f"{key}: manifest is missing required fields")
        if manifest["manifest_sha256"] != _manifest_digest(manifest):
            raise CheckpointCorruptionError(f"{key}: manifest failed its own checksum")
        if manifest["format"] != STORE_VERSION:
            raise CheckpointCorruptionError(
                f"{key}: store version mismatch (artifact {manifest['format']}, "
                f"expected {STORE_VERSION})"
            )
        if manifest["key"] != key:
            raise CheckpointCorruptionError(f"{key}: manifest claims key {manifest['key']}")
        if manifest["order"] != manifest["m"] + manifest["n"]:
            raise CheckpointCorruptionError(f"{key}: manifest order != m + n")
        return manifest

    def _load_verified(self, key: str) -> PermArray:
        """Load and integrity-check one artifact (manifest must exist)."""
        manifest = self._load_manifest(key)
        try:
            payload = self._payload_path(key).read_bytes()
        except FileNotFoundError as exc:
            raise CheckpointCorruptionError(f"{key}: manifest without payload") from exc
        if len(payload) != 8 * manifest["order"]:
            raise CheckpointCorruptionError(
                f"{key}: payload truncated ({len(payload)} bytes for order {manifest['order']})"
            )
        if _sha256_hex(payload) != manifest["sha256"]:
            raise CheckpointCorruptionError(f"{key}: payload checksum mismatch")
        try:
            return perm_from_bytes(payload)
        except Exception as exc:
            raise CheckpointCorruptionError(f"{key}: payload is not a permutation: {exc}") from exc

    def contains(self, key: str) -> bool:
        """True when a committed artifact exists under *key* (manifest
        present; contents are still verified on the eventual read)."""
        return self._manifest_path(key).exists()

    def get(self, key: str) -> PermArray | None:
        """Return the verified kernel under *key*, ``None`` on a miss.

        Raises :class:`~repro.errors.CheckpointCorruptionError` (and
        counts it) when the artifact exists but fails verification.
        """
        if not self._manifest_path(key).exists():
            # a payload without a manifest is an uncommitted torn write
            self._payload_path(key).unlink(missing_ok=True)
            with self._lock:
                self.misses += 1
            _metric_inc("checkpoint.misses", 1)
            self._export_hit_rate()
            return None
        try:
            perm = self._load_verified(key)
        except CheckpointCorruptionError:
            with self._lock:
                self.corrupt += 1
            _metric_inc("checkpoint.corrupt", 1)
            raise
        with self._lock:
            self.hits += 1
        _metric_inc("checkpoint.hits", 1)
        if self.max_bytes is not None:
            self._touch(key)
        self._export_hit_rate()
        return perm

    def get_with_counter(self, key: str) -> tuple[PermArray | None, bytes | None]:
        """Like :meth:`get`, plus the counter sidecar when one is both
        referenced by the manifest and passes its sha256 check.

        Returns ``(perm, counter_bytes)``; the counter slot is ``None``
        on a miss, for pre-sidecar artifacts, or when the sidecar is
        missing/corrupt — sidecar failure is never fatal to the verified
        permutation next to it (the caller just rebuilds the counter).
        """
        perm = self.get(key)
        if perm is None:
            return None, None
        try:
            manifest = self._load_manifest(key)
        except CheckpointCorruptionError:  # pragma: no cover - raced
            return perm, None
        expected = manifest.get("counter_sha256")
        if not expected:
            return perm, None
        try:
            data = self._counter_path(key).read_bytes()
        except OSError:
            return perm, None
        if _sha256_hex(data) != expected:
            with self._lock:
                self.corrupt += 1
            _metric_inc("checkpoint.corrupt", 1)
            return perm, None
        return perm, data

    def _export_hit_rate(self) -> None:
        _get_metrics().gauge("store.hit_rate").set(self.hit_rate)

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], PermArray],
        *,
        algorithm: str,
        m: int,
        n: int,
        read: bool = True,
    ) -> PermArray:
        """The store's one-stop policy: verified hit, else recompute.

        A corrupt artifact is discarded and recomputed — the corruption
        is *counted* but never propagated as a wrong kernel. ``read=False``
        skips the lookup (fresh-run semantics) but still persists."""
        if read:
            try:
                cached = self.get(key)
            except CheckpointCorruptionError:
                self.discard(key)
                cached = None
            if cached is not None:
                return cached
        perm = compute()
        self.put(key, perm, algorithm=algorithm, m=m, n=n)
        return perm

    def discard(self, key: str) -> int:
        """Remove an artifact (manifest first, so a crash mid-discard
        leaves an orphan payload, not a valid-looking artifact).

        Returns the bytes actually freed (0 when nothing existed, so a
        double discard — or a gc racing another gc — reports honestly).
        """
        freed = 0
        for path in (
            self._manifest_path(key),
            self._payload_path(key),
            self._counter_path(key),
        ):
            try:
                size = path.stat().st_size
                path.unlink()
                freed += size
            except OSError:
                pass
        return freed

    # -- maintenance ---------------------------------------------------

    def stats(self) -> dict:
        """Hit / miss / corrupt / write / eviction counters for this
        process."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "corrupt": self.corrupt,
                "writes": self.writes,
                "evictions": self.evictions,
            }

    def keys(self) -> Iterator[str]:
        """All committed artifact keys (manifest present)."""
        if not self.objects.is_dir():
            return
        for manifest in sorted(self.objects.glob("*/*.json")):
            yield manifest.stem

    def entries(self) -> Iterator[dict]:
        """Verified manifests of every artifact; corrupt ones yield a
        ``{"key": ..., "status": reason}`` stub instead of raising."""
        for key in self.keys():
            try:
                manifest = self._load_manifest(key)
            except CheckpointCorruptionError as exc:
                yield {"key": key, "status": f"corrupt: {exc}"}
                continue
            manifest["status"] = "ok"
            yield manifest

    def verify(self) -> dict[str, str]:
        """Fully verify every artifact (manifest *and* payload bytes).

        Returns ``{key: "ok" | "corrupt: reason"}``; also flags orphan
        payloads that have no manifest."""
        report: dict[str, str] = {}
        for key in self.keys():
            try:
                self._load_verified(key)
            except CheckpointCorruptionError as exc:
                report[key] = f"corrupt: {exc}"
            else:
                report[key] = "ok"
        if self.objects.is_dir():
            for payload in sorted(self.objects.glob("*/*.perm")):
                if payload.stem not in report:
                    report[payload.stem] = "orphan: payload without manifest"
            for sidecar in sorted(self.objects.glob("*/*.counter")):
                if sidecar.stem not in report:
                    report[sidecar.stem] = "orphan: counter without manifest"
        return report

    def gc(self, *, max_age_days: float | None = None, dry_run: bool = False) -> dict:
        """Garbage-collect the store: corrupt artifacts, orphan payloads,
        leftover temp files, and (with *max_age_days*) unpinned artifacts
        older than the cutoff. Returns removal counts plus
        ``reclaimed_bytes``; *dry_run* only counts.

        ``reclaimed_bytes`` is the sum of bytes *actually unlinked*,
        reported only after the touched object directories have been
        fsynced — so the number survives a crash right after gc returns,
        and a second invocation over the same store reclaims 0 instead of
        double-counting (the LRU evictor uses gc as its backstop, so this
        idempotence matters).
        """
        removed = {"corrupt": 0, "orphans": 0, "aged": 0, "tmp": 0, "kept": 0,
                   "reclaimed_bytes": 0}
        cutoff = None if max_age_days is None else time.time() - max_age_days * 86400.0
        pinned = self.pinned_keys()
        touched_dirs: set[Path] = set()

        def _remove(key: str) -> None:
            touched_dirs.add(self._payload_path(key).parent)
            if dry_run:
                removed["reclaimed_bytes"] += self._artifact_bytes(key)
            else:
                removed["reclaimed_bytes"] += self.discard(key)

        for key, status in self.verify().items():
            if status == "ok":
                aged = (
                    cutoff is not None
                    and key not in pinned
                    and self._manifest_path(key).stat().st_mtime < cutoff
                )
                if aged:
                    removed["aged"] += 1
                    _remove(key)
                else:
                    removed["kept"] += 1
            else:
                removed["orphans" if status.startswith("orphan") else "corrupt"] += 1
                _remove(key)
        if self.objects.is_dir():
            for tmp in sorted(self.objects.glob("*/*.tmp.*")):
                removed["tmp"] += 1
                touched_dirs.add(tmp.parent)
                try:
                    size = tmp.stat().st_size
                except OSError:
                    size = 0
                removed["reclaimed_bytes"] += size
                if not dry_run:
                    tmp.unlink(missing_ok=True)
        if not dry_run:
            # persist the unlinks before reporting reclaimed bytes: the
            # report must never promise space a crash could un-reclaim
            for directory in sorted(touched_dirs):
                try:
                    dir_fd = os.open(directory, os.O_RDONLY)
                    try:
                        os.fsync(dir_fd)
                    finally:
                        os.close(dir_fd)
                except OSError:  # pragma: no cover - platform dependent
                    pass
        return removed
