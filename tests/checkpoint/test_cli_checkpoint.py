"""Tests for the checkpoint-facing CLI surface."""

import re

import pytest

from repro.cli import main

A, B = "BAABCBCA", "BAABCABCABACA"
POOL = ["--backend", "processes", "--transport", "shm", "--workers", "2"]


def run_semilocal(tmp_path, *extra):
    return main(
        ["semilocal", A, B, "--algorithm", "semi_hybrid_iterative",
         "--checkpoint-dir", str(tmp_path / "store"), *extra]
    )


class TestSemilocalCheckpoint:
    def test_checkpointed_run(self, tmp_path, capsys):
        assert run_semilocal(tmp_path) == 0
        out = capsys.readouterr().out
        assert "LCS(a, b) = 8" in out
        # a fresh run writes every artifact once (a leaf whose slices
        # repeat a sibling's may read the sibling's artifact instead)
        writes = int(re.search(r"checkpoint: .*writes=(\d+)", out).group(1))
        assert main(["checkpoint", "list", str(tmp_path / "store")]) == 0
        listed = re.search(r"(\d+) artifact\(s\)", capsys.readouterr().out)
        assert writes == int(listed.group(1))

    def test_resume_is_one_hit(self, tmp_path, capsys):
        assert run_semilocal(tmp_path) == 0
        capsys.readouterr()
        assert run_semilocal(tmp_path, "--resume") == 0
        out = capsys.readouterr().out
        assert "LCS(a, b) = 8" in out
        assert "checkpoint: hits=1, misses=0" in out

    def test_requires_grid_algorithm(self, tmp_path, capsys):
        # semi_hybrid is Listing 6, not the checkpointed Listing 7 grid
        for algorithm in ("semi_rowmajor", "semi_hybrid"):
            assert main(
                ["semilocal", A, B, "--algorithm", algorithm,
                 "--checkpoint-dir", str(tmp_path / "store")]
            ) == 2
            err = capsys.readouterr().err
            assert err.startswith("repro-lcs: error:") and err.count("\n") == 1, err
        assert not (tmp_path / "store").exists()


class TestParallelCheckpoint:
    def test_checkpointed_run(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["parallel", A, B, "--checkpoint-dir", store]) == 0
        capsys.readouterr()
        assert main(["parallel", A, B, "--checkpoint-dir", store, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "LCS(a, b) = 8" in out
        assert "checkpoint: hits=1, misses=0" in out

    def test_pool_run_counts_worker_writes(self, tmp_path, capsys):
        # the store work happens in the workers: the fresh run's line
        # must count every artifact they committed
        store = str(tmp_path / "store")
        assert main(["parallel", A, B, *POOL, "--checkpoint-dir", store]) == 0
        out = capsys.readouterr().out
        assert "LCS(a, b) = 8" in out
        writes = int(re.search(r"checkpoint: .*writes=(\d+)", out).group(1))
        assert main(["checkpoint", "list", store]) == 0
        listed = re.search(r"(\d+) artifact\(s\)", capsys.readouterr().out)
        assert writes == int(listed.group(1)) == 3  # two leaves and the root

    def test_pool_resume_is_one_hit(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["parallel", A, B, *POOL, "--checkpoint-dir", store]) == 0
        capsys.readouterr()
        assert main(["parallel", A, B, *POOL, "--checkpoint-dir", store, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "LCS(a, b) = 8" in out
        assert "checkpoint: hits=1, misses=0" in out

    def test_requires_hybrid_algorithm(self, tmp_path, capsys):
        assert main(
            ["parallel", A, B, "--algorithm", "combing",
             "--checkpoint-dir", str(tmp_path / "store")]
        ) == 2
        assert "error" in capsys.readouterr().err

    def test_chaos_abort_after_crashes(self, tmp_path):
        from repro.parallel import ChaosProcessDeath

        # a grid has one leaf per worker: two workers give two leaves and
        # a compose, so the "death" strikes the third task
        with pytest.raises(ChaosProcessDeath):
            main(
                ["parallel", A * 4, B * 4, "--backend", "threads", "--checkpoint-dir",
                 str(tmp_path / "store"), "--chaos-abort-after", "2"]
            )
        # the two completed tasks were persisted before the "death"
        assert main(["checkpoint", "list", str(tmp_path / "store")]) == 0


class TestCheckpointSubcommand:
    def test_list_verify_gc(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        run_semilocal(tmp_path)
        capsys.readouterr()
        assert main(["checkpoint", "list", store]) == 0
        out = capsys.readouterr().out
        assert "artifact(s)" in out and "algo=semi_hybrid_iterative" in out
        assert main(["checkpoint", "verify", store]) == 0
        assert "0 bad" in capsys.readouterr().out
        assert main(["checkpoint", "gc", store, "--dry-run"]) == 0
        assert "would remove" in capsys.readouterr().out

    def test_verify_flags_corruption(self, tmp_path, capsys):
        from repro.checkpoint import KernelStore

        run_semilocal(tmp_path)
        store = KernelStore(tmp_path / "store")
        key = next(iter(store.keys()))
        payload = store._payload_path(key)
        payload.write_bytes(b"\x00" + payload.read_bytes()[1:])
        capsys.readouterr()
        assert main(["checkpoint", "verify", str(tmp_path / "store")]) == 1
        assert "corrupt" in capsys.readouterr().out
        assert main(["checkpoint", "gc", str(tmp_path / "store")]) == 0
        capsys.readouterr()
        assert main(["checkpoint", "verify", str(tmp_path / "store")]) == 0

    def test_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["checkpoint", "list", str(tmp_path / "nope")]) == 2
        assert "no checkpoint store" in capsys.readouterr().err


class TestMainErrorHandling:
    def test_file_not_found_exits_2(self, tmp_path, capsys):
        assert main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-lcs: error:")

    def test_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out
