"""Tests for the content-addressed, integrity-verified kernel store."""

import json
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.checkpoint import STORE_VERSION, KernelStore, kernel_key
from repro.checkpoint.store import _manifest_digest
from repro.errors import CheckpointCorruptionError, CheckpointError

from ..conftest import random_codes

PERM = np.array([2, 0, 3, 1], dtype=np.int64)  # m=2, n=2


def put_one(store, *, perm=PERM, algorithm="algo", m=2, n=2):
    key = kernel_key(np.arange(m), np.arange(n), algorithm)
    store.put(key, perm, algorithm=algorithm, m=m, n=n)
    return key


class TestKeying:
    def test_deterministic(self, rng):
        a, b = random_codes(rng, 7), random_codes(rng, 5)
        assert kernel_key(a, b, "x") == kernel_key(a.copy(), b.copy(), "x")

    def test_algorithm_and_version_disambiguate(self, rng):
        a, b = random_codes(rng, 7), random_codes(rng, 5)
        keys = {
            kernel_key(a, b, "x"),
            kernel_key(a, b, "y"),
            kernel_key(a, b, "x", version=STORE_VERSION + 1),
        }
        assert len(keys) == 3

    def test_boundary_shift_disambiguates(self):
        """Moving a symbol across the a/b boundary changes the key — the
        hash is length-prefixed, not a plain concatenation."""
        k1 = kernel_key(np.array([1, 2]), np.array([3]), "x")
        k2 = kernel_key(np.array([1]), np.array([2, 3]), "x")
        assert k1 != k2

    def test_swapped_operands_disambiguate(self):
        a, b = np.array([1, 2]), np.array([3, 4])
        assert kernel_key(a, b, "x") != kernel_key(b, a, "x")


class TestRoundtrip:
    def test_put_get(self, tmp_path):
        store = KernelStore(tmp_path)
        key = put_one(store)
        got = store.get(key)
        assert np.array_equal(got, PERM)
        assert got.dtype == np.int64
        assert store.stats() == {"hits": 1, "misses": 0, "corrupt": 0, "writes": 1, "evictions": 0}

    def test_miss_returns_none(self, tmp_path):
        store = KernelStore(tmp_path)
        assert store.get("ab" + "0" * 62) is None
        assert store.stats()["misses"] == 1

    def test_put_rejects_wrong_order(self, tmp_path):
        store = KernelStore(tmp_path)
        with pytest.raises(CheckpointError):
            store.put("ab" + "0" * 62, PERM, algorithm="x", m=3, n=3)

    def test_get_or_compute_computes_once(self, tmp_path):
        store = KernelStore(tmp_path)
        key = kernel_key(np.arange(2), np.arange(2), "x")
        calls = []

        def compute():
            calls.append(1)
            return PERM

        for _ in range(3):
            got = store.get_or_compute(key, compute, algorithm="x", m=2, n=2)
            assert np.array_equal(got, PERM)
        assert len(calls) == 1
        assert store.stats() == {"hits": 2, "misses": 1, "corrupt": 0, "writes": 1, "evictions": 0}

    def test_create_false_requires_existing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            KernelStore(tmp_path / "nope", create=False)
        KernelStore(tmp_path / "yes")
        KernelStore(tmp_path / "yes", create=False)

    def test_pickle_roundtrip(self, tmp_path):
        store = KernelStore(tmp_path)
        key = put_one(store)
        clone = pickle.loads(pickle.dumps(store))
        assert np.array_equal(clone.get(key), PERM)

    def test_concurrent_puts_of_one_key(self, tmp_path):
        """Threads writing the same key (two daemon flushes that built
        the same kernel) must not rename each other's temp files away."""
        store = KernelStore(tmp_path)
        key = kernel_key(np.arange(2), np.arange(2), "algo")
        errors = []
        start = threading.Barrier(8)

        def writer():
            start.wait()
            for _ in range(50):
                try:
                    store.put(key, PERM, algorithm="algo", m=2, n=2)
                except Exception as exc:  # noqa: BLE001 - collected below
                    errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert np.array_equal(store.get(key), PERM)
        assert store.verify() == {key: "ok"}
        assert not list(tmp_path.rglob("*.tmp.*"))


class TestCounterSidecar:
    """Persisted dominance counters ride next to the permutation and are
    sha256-pinned by the manifest — never trusted, never fatal."""

    def _counter_bytes(self):
        from repro.core.dominance import WaveletCounter, counter_to_bytes

        return counter_to_bytes(WaveletCounter(PERM))

    def test_round_trip(self, tmp_path):
        from repro.core.dominance import counter_from_bytes

        store = KernelStore(tmp_path)
        data = self._counter_bytes()
        key = kernel_key(np.arange(2), np.arange(2), "algo")
        store.put(key, PERM, algorithm="algo", m=2, n=2, counter=data)
        perm, revived = store.get_with_counter(key)
        assert np.array_equal(perm, PERM)
        assert revived == data
        counter = counter_from_bytes(revived)
        assert counter.count(0, 4) == 4

    def test_get_with_counter_on_miss(self, tmp_path):
        store = KernelStore(tmp_path)
        assert store.get_with_counter("ab" + "0" * 62) == (None, None)

    def test_pre_sidecar_artifact_loads_without_counter(self, tmp_path):
        store = KernelStore(tmp_path)
        key = put_one(store)  # no counter argument — the old manifest shape
        perm, data = store.get_with_counter(key)
        assert np.array_equal(perm, PERM)
        assert data is None

    def test_put_without_counter_drops_stale_sidecar(self, tmp_path):
        store = KernelStore(tmp_path)
        key = kernel_key(np.arange(2), np.arange(2), "algo")
        store.put(key, PERM, algorithm="algo", m=2, n=2, counter=self._counter_bytes())
        assert store._counter_path(key).exists()
        store.put(key, PERM, algorithm="algo", m=2, n=2)
        assert not store._counter_path(key).exists()
        perm, data = store.get_with_counter(key)
        assert np.array_equal(perm, PERM) and data is None

    def test_corrupt_sidecar_is_dropped_not_fatal(self, tmp_path):
        store = KernelStore(tmp_path)
        key = kernel_key(np.arange(2), np.arange(2), "algo")
        store.put(key, PERM, algorithm="algo", m=2, n=2, counter=self._counter_bytes())
        store._counter_path(key).write_bytes(b"flipped bits")
        perm, data = store.get_with_counter(key)
        assert np.array_equal(perm, PERM)  # permutation still verified-good
        assert data is None
        assert store.stats()["corrupt"] == 1

    def test_missing_sidecar_file_is_a_soft_miss(self, tmp_path):
        store = KernelStore(tmp_path)
        key = kernel_key(np.arange(2), np.arange(2), "algo")
        store.put(key, PERM, algorithm="algo", m=2, n=2, counter=self._counter_bytes())
        store._counter_path(key).unlink()
        perm, data = store.get_with_counter(key)
        assert np.array_equal(perm, PERM) and data is None

    def test_discard_removes_sidecar(self, tmp_path):
        store = KernelStore(tmp_path)
        key = kernel_key(np.arange(2), np.arange(2), "algo")
        store.put(key, PERM, algorithm="algo", m=2, n=2, counter=self._counter_bytes())
        freed = store.discard(key)
        assert freed > 0
        assert not store._counter_path(key).exists()

    def test_verify_flags_orphan_sidecar(self, tmp_path):
        store = KernelStore(tmp_path)
        key = put_one(store)
        orphan = store._counter_path("cd" + "0" * 62)
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"stray")
        report = store.verify()
        assert report[key] == "ok"
        assert report["cd" + "0" * 62].startswith("orphan")
        store.gc()
        assert not orphan.exists()


class TestCorruption:
    """No byte of an artifact may flip without detection."""

    def test_every_payload_byte_flip_detected(self, tmp_path):
        store = KernelStore(tmp_path)
        key = put_one(store)
        path = store._payload_path(key)
        original = path.read_bytes()
        for pos in range(len(original)):
            corrupted = bytearray(original)
            corrupted[pos] ^= 0xFF
            path.write_bytes(bytes(corrupted))
            with pytest.raises(CheckpointCorruptionError):
                store.get(key)
        path.write_bytes(original)
        assert np.array_equal(store.get(key), PERM)

    def test_every_manifest_byte_flip_detected(self, tmp_path):
        store = KernelStore(tmp_path)
        key = put_one(store)
        path = store._manifest_path(key)
        original = path.read_bytes()
        for pos in range(len(original)):
            corrupted = bytearray(original)
            corrupted[pos] ^= 0xFF
            path.write_bytes(bytes(corrupted))
            with pytest.raises(CheckpointCorruptionError):
                store.get(key)
        path.write_bytes(original)
        assert np.array_equal(store.get(key), PERM)

    def test_truncated_payload_detected(self, tmp_path):
        store = KernelStore(tmp_path)
        key = put_one(store)
        path = store._payload_path(key)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CheckpointCorruptionError, match="truncated"):
            store.get(key)

    def test_version_mismatch_detected(self, tmp_path):
        store = KernelStore(tmp_path)
        key = put_one(store)
        path = store._manifest_path(key)
        manifest = json.loads(path.read_bytes())
        manifest["format"] = STORE_VERSION + 1
        manifest["manifest_sha256"] = _manifest_digest(manifest)
        path.write_bytes(json.dumps(manifest, sort_keys=True).encode("ascii"))
        with pytest.raises(CheckpointCorruptionError, match="version mismatch"):
            store.get(key)

    def test_non_permutation_payload_detected(self, tmp_path):
        store = KernelStore(tmp_path)
        key = put_one(store)
        bad = np.array([0, 0, 1, 2], dtype="<i8").tobytes()  # repeated column
        store._payload_path(key).write_bytes(bad)
        manifest = json.loads(store._manifest_path(key).read_bytes())
        import hashlib

        manifest["sha256"] = hashlib.sha256(bad).hexdigest()
        manifest["manifest_sha256"] = _manifest_digest(manifest)
        store._manifest_path(key).write_bytes(
            json.dumps(manifest, sort_keys=True).encode("ascii")
        )
        with pytest.raises(CheckpointCorruptionError, match="not a permutation"):
            store.get(key)

    def test_orphan_payload_is_a_miss_and_cleaned(self, tmp_path):
        store = KernelStore(tmp_path)
        key = put_one(store)
        store._manifest_path(key).unlink()
        assert store.get(key) is None
        assert store.stats()["misses"] == 1
        assert not store._payload_path(key).exists()

    def test_get_or_compute_recovers_from_corruption(self, tmp_path):
        """A corrupt artifact is counted, discarded and recomputed —
        never returned."""
        store = KernelStore(tmp_path)
        key = put_one(store)
        payload = store._payload_path(key)
        payload.write_bytes(b"\x00" + payload.read_bytes()[1:])
        fresh = np.array([1, 3, 0, 2], dtype=np.int64)
        got = store.get_or_compute(key, lambda: fresh, algorithm="algo", m=2, n=2)
        assert np.array_equal(got, fresh)
        stats = store.stats()
        assert stats["corrupt"] == 1 and stats["writes"] == 2
        assert np.array_equal(store.get(key), fresh)  # healed on disk


class TestMaintenance:
    def test_verify_reports_all_states(self, tmp_path):
        store = KernelStore(tmp_path)
        ok = put_one(store, algorithm="a1")
        bad = put_one(store, algorithm="a2")
        orphan = put_one(store, algorithm="a3")
        store._payload_path(bad).write_bytes(b"junk")
        store._manifest_path(orphan).unlink()
        report = store.verify()
        assert report[ok] == "ok"
        assert report[bad].startswith("corrupt")
        assert report[orphan].startswith("orphan")

    def test_gc_removes_bad_keeps_good(self, tmp_path):
        store = KernelStore(tmp_path)
        ok = put_one(store, algorithm="a1")
        bad = put_one(store, algorithm="a2")
        store._payload_path(bad).write_bytes(b"junk")
        (store.objects / "ab").mkdir(exist_ok=True)
        (store.objects / "ab" / "x.perm.tmp.123").write_bytes(b"leftover")
        counts = store.gc()
        assert counts["corrupt"] == 1 and counts["tmp"] == 1 and counts["kept"] == 1
        assert store.verify() == {ok: "ok"}

    def test_gc_dry_run_removes_nothing(self, tmp_path):
        store = KernelStore(tmp_path)
        bad = put_one(store)
        store._payload_path(bad).write_bytes(b"junk")
        counts = store.gc(dry_run=True)
        assert counts["corrupt"] == 1
        assert store._manifest_path(bad).exists()

    def test_gc_max_age(self, tmp_path):
        import os
        import time

        store = KernelStore(tmp_path)
        old = put_one(store)
        stale = time.time() - 10 * 86400
        os.utime(store._manifest_path(old), (stale, stale))
        assert store.gc(max_age_days=30)["kept"] == 1
        assert store.gc(max_age_days=5)["aged"] == 1
        assert store.get(old) is None

    def test_entries_and_keys(self, tmp_path):
        store = KernelStore(tmp_path)
        key = put_one(store)
        assert list(store.keys()) == [key]
        (entry,) = store.entries()
        assert entry["key"] == key and entry["status"] == "ok"
