"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestLcs:
    def test_score(self, capsys):
        assert main(["lcs", "design", "define"]) == 0
        assert "= 4" in capsys.readouterr().out

    def test_witness(self, capsys):
        main(["lcs", "abc", "abc", "--witness"])
        assert "'abc'" in capsys.readouterr().out


class TestSemilocal:
    def test_basic(self, capsys):
        assert main(["semilocal", "abcab", "acaba"]) == 0
        out = capsys.readouterr().out
        assert "LCS(a, b)" in out

    def test_h_matrix(self, capsys):
        assert main(["semilocal", "ab", "ba", "--h-matrix"]) == 0
        assert "[" in capsys.readouterr().out

    def test_h_matrix_too_large(self, capsys):
        assert main(["semilocal", "a" * 60, "b" * 60, "--h-matrix"]) == 1

    def test_query(self, capsys):
        assert main(["semilocal", "abc", "abcabc", "--query", "string-substring", "0", "3"]) == 0
        assert "string-substring(0, 3) = 3" in capsys.readouterr().out


class TestBitAndTrace:
    def test_bit(self, capsys):
        assert main(["bit", "1000", "0100"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_bit_variants(self, capsys):
        for v in ("old", "new1", "new2"):
            main(["bit", "1100", "0110", "--variant", v])
        outs = capsys.readouterr().out.split()
        assert len(set(outs)) == 1

    def test_trace(self, capsys):
        assert main(["trace", "1000", "0100"]) == 0
        assert "anti-diagonal" in capsys.readouterr().out


class TestRemovedFlags:
    """Knobs that could only ever pick a speed are gone; argparse rejects
    them with exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["batch", "-", "--algorithm", "semi_rowmajor"],
            ["serve", "--algorithm", "semi_rowmajor"],
            ["bit", "1000", "0100", "--multi-diag"],
        ],
    )
    def test_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestBraid:
    def test_ascii(self, capsys):
        assert main(["braid", "ab", "ba"]) == 0
        out = capsys.readouterr().out
        assert "kernel:" in out

    def test_svg(self, tmp_path, capsys):
        svg = tmp_path / "braid.svg"
        assert main(["braid", "ab", "ba", "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")


class TestDiff:
    def test_diff_files(self, tmp_path, capsys):
        old = tmp_path / "old.txt"
        new = tmp_path / "new.txt"
        old.write_text("a\nb\nc\n")
        new.write_text("a\nc\nd\n")
        assert main(["diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "-b" in out and "+d" in out and "similarity" in out


class TestParallel:
    def test_serial_backend(self, capsys):
        assert main(["parallel", "abcab", "acaba"]) == 0
        out = capsys.readouterr().out
        assert "LCS(a, b) = 4" in out
        assert "degraded_rounds: 0" in out

    def test_chaos_with_retries_still_correct(self, capsys):
        assert (
            main(
                ["parallel", "abcabcab", "acabacba", "--chaos-fail-rate", "0.3",
                 "--retries", "3", "--seed", "5"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "LCS(a, b) = 6" in out

    def test_chaos_without_retries_degrades(self, capsys):
        import warnings

        from repro.errors import DegradedExecutionWarning

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecutionWarning)
            assert (
                main(
                    ["parallel", "abcab", "acaba", "--chaos-fail-rate", "1.0",
                     "--retries", "0"]
                )
                == 0
            )
        out = capsys.readouterr().out
        assert "LCS(a, b) = 4" in out

    @pytest.mark.parametrize("algorithm", ["combing", "load-balanced"])
    def test_wavefront_on_process_pool_is_rejected(self, algorithm, capsys):
        """The in-place wavefront combers refuse a process pool up front:
        exit 2 with one error line, not a degraded serial run."""
        code = main(
            ["parallel", "abcab", "acaba", "--algorithm", algorithm,
             "--backend", "processes", "--workers", "2"]
        )
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro-lcs: error:"), lines
        assert "LCS" not in captured.out

    def test_algorithms_agree(self, capsys):
        for algo in ("hybrid", "combing", "load-balanced", "steady-ant"):
            assert main(["parallel", "abcabc", "bcabca", "--algorithm", algo]) == 0
        outs = [l for l in capsys.readouterr().out.splitlines() if l.startswith("LCS")]
        assert len(set(outs)) == 1


class TestBench:
    def test_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig4a" in out and "fig9e" in out

    def test_unknown(self, capsys):
        assert main(["bench", "fig99"]) == 1

    def test_run_one(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.02")
        assert main(["bench", "fig9b"]) == 0
        assert "bit_new_2" in capsys.readouterr().out


class TestGenomes:
    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "strains.fasta"
        assert main(["genomes", "--preset", "phage-ms2", "--count", "2", "--output", str(out)]) == 0
        text = out.read_text()
        assert text.count(">") == 2

    def test_unknown_preset(self):
        assert main(["genomes", "--preset", "unicorn"]) == 1
