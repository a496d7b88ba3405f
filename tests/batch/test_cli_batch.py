"""The ``repro-lcs batch`` subcommand."""

import pytest

import repro
from repro.cli import main
from repro.parallel import shared_memory_available

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)

PAIRS = [("design", "define"), ("abcab", "acaba"), ("", "xyz"), ("banana", "ananas")]


@pytest.fixture
def pairs_file(tmp_path):
    path = tmp_path / "pairs.tsv"
    lines = [f"{a}\t{b}" for a, b in PAIRS]
    lines.insert(2, "")  # blank lines are skipped
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _expected():
    return [repro.lcs(a, b) for a, b in PAIRS]


def _parse_scores(out):
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert [int(i) for i, _ in rows] == list(range(len(rows)))
    return [int(s) for _, s in rows]


class TestBatchCommand:
    def test_scores(self, pairs_file, capsys):
        assert main(["batch", pairs_file]) == 0
        captured = capsys.readouterr()
        assert _parse_scores(captured.out) == _expected()
        assert "pairs/s" in captured.err

    def test_kernels_flag(self, pairs_file, capsys):
        assert main(["batch", pairs_file, "--kernels"]) == 0
        assert _parse_scores(capsys.readouterr().out) == _expected()

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("".join(f"{a}\t{b}\n" for a, b in PAIRS))
        )
        assert main(["batch", "-"]) == 0
        assert _parse_scores(capsys.readouterr().out) == _expected()

    def test_algorithm_flag_rejected(self, pairs_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["batch", pairs_file, "--algorithm", "semi_rowmajor"])
        assert exc.value.code == 2
        assert "--algorithm" in capsys.readouterr().err

    def test_serial_backend(self, pairs_file, capsys):
        assert main(["batch", pairs_file, "--backend", "serial"]) == 0
        assert _parse_scores(capsys.readouterr().out) == _expected()

    @needs_shm
    def test_processes_shm_backend(self, pairs_file, capsys):
        assert (
            main(
                [
                    "batch",
                    pairs_file,
                    "--backend",
                    "processes",
                    "--workers",
                    "2",
                    "--transport",
                    "shm",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert _parse_scores(captured.out) == _expected()
        assert "transport:" in captured.err

    def test_malformed_line_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\tc\n", encoding="utf-8")
        assert main(["batch", str(path)]) == 2
        assert "two TAB-separated columns" in capsys.readouterr().err

    def test_missing_file_errors(self, capsys):
        assert main(["batch", "/nonexistent/pairs.tsv"]) == 2
        assert "error" in capsys.readouterr().err

    def test_metrics_out(self, pairs_file, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(["batch", pairs_file, "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        import json

        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["metrics"]["batch.pairs"]["value"] >= len(PAIRS)
