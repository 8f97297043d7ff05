"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "CLGP+L0", "--l1-size", "8192", "--benchmarks", "gzip"])
        assert args.scheme == "CLGP+L0"
        assert args.l1_size == 8192

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "NOPE"])


class TestCommands:
    def test_tables_command(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 3" in out
        assert "0.045um" in out

    def test_run_command_small(self, capsys):
        code = main(["run", "base", "--benchmarks", "gzip",
                     "--instructions", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "HMEAN IPC" in out

    def test_figure_command_small(self, capsys):
        code = main(["figure", "4", "--benchmarks", "gzip",
                     "--instructions", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CLGP" in out

    def test_speedups_command_small(self, capsys):
        code = main(["speedups", "--benchmarks", "gzip",
                     "--instructions", "1000"])
        assert code == 0
        assert "CLGP vs FDP" in capsys.readouterr().out

    def test_run_accepts_jobs(self, capsys):
        code = main(["run", "base", "--benchmarks", "gzip,mcf",
                     "--instructions", "800", "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        # Parallel output keeps the serial benchmark order.
        assert out.index("gzip") < out.index("mcf")

    def test_figure_accepts_jobs(self, capsys):
        code = main(["figure", "4", "--benchmarks", "gzip",
                     "--instructions", "800", "--jobs", "2"])
        assert code == 0
        assert "CLGP" in capsys.readouterr().out

    def test_negative_jobs_rejected_via_resolver(self, capsys):
        for argv in (["run", "base"], ["figure", "5"], ["speedups"]):
            code = main(argv + ["--benchmarks", "gzip",
                                "--instructions", "800", "--jobs", "-3"])
            assert code == 2
            assert "jobs" in capsys.readouterr().err

    def test_figure_sampled(self, capsys):
        code = main(["figure", "4", "--benchmarks", "gzip",
                     "--instructions", "4000", "--sampled"])
        assert code == 0
        assert "[sampled]" in capsys.readouterr().out


class TestFigure6DefaultDetection:
    """`figure 6` falls back to the full SPECint list only when the user
    did not override --benchmarks; the comparison must be on parsed lists,
    not raw strings (whitespace or trailing commas are not overrides)."""

    def _capture(self, monkeypatch):
        calls = {}

        def fake_series(session, **kwargs):
            calls.update(kwargs)
            return {"HMEAN": {}}

        from repro.api import Session
        monkeypatch.setattr(Session, "figure6_series", fake_series)
        return calls

    def test_whitespace_default_mix_means_no_override(self, monkeypatch, capsys):
        calls = self._capture(monkeypatch)
        assert main(["figure", "6", "--benchmarks", " gzip, gcc , eon,mcf,",
                     "--instructions", "500"]) == 0
        assert calls["benchmarks"] is None

    def test_reordered_mix_is_an_override(self, monkeypatch, capsys):
        calls = self._capture(monkeypatch)
        assert main(["figure", "6", "--benchmarks", "mcf,gzip,gcc,eon",
                     "--instructions", "500"]) == 0
        assert calls["benchmarks"] == ["mcf", "gzip", "gcc", "eon"]


class TestSampleCommand:
    def test_selection_table(self, capsys):
        code = main(["sample", "gzip", "--instructions", "6000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Interval selection for gzip" in out
        assert "coverage" in out
        assert "Sampled run" in out

    def test_compare_reports_error_and_speedup(self, capsys):
        code = main(["sample", "gzip", "--instructions", "6000",
                     "--compare"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Full run" in out
        assert "relative IPC error" in out

    def test_kmeans_method(self, capsys):
        code = main(["sample", "gzip", "--instructions", "6000",
                     "--method", "kmeans", "--intervals", "2"])
        assert code == 0
        assert "method kmeans" in capsys.readouterr().out

    def test_no_result_cache_remeasures_the_intervals(self, tmp_path,
                                                      monkeypatch):
        from repro.sampling import sampled

        argv = ["sample", "gzip", "--instructions", "6000",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        calls = []
        measure = sampled._measure_intervals

        def counting(*args, **kwargs):
            calls.append(args)
            return measure(*args, **kwargs)

        monkeypatch.setattr(sampled, "_measure_intervals", counting)
        assert main(argv) == 0
        assert calls == []          # the stored measurement replays
        assert main(argv + ["--no-result-cache"]) == 0
        assert len(calls) == 1

    def test_unknown_benchmark_rejected(self, capsys):
        code = main(["sample", "quake"])
        assert code == 2
        assert "quake" in capsys.readouterr().err
