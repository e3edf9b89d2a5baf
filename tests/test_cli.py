"""Smoke tests for the `python -m repro` CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["overview"])
        assert args.base == 4000
        assert args.dim == 32
        assert not args.skewed

    def test_config_error_is_a_usage_error(self, capsys):
        assert main(["serve-bench", "--workers", "0", "--base", "300"]) == 2
        err = capsys.readouterr().err
        assert err == "error: serve_num_workers must be at least 1\n"

    def test_simulate_flags(self):
        args = build_parser().parse_args(
            ["simulate", "--days", "3", "--rate", "0.05", "--skewed"]
        )
        assert args.days == 3
        assert args.rate == 0.05
        assert args.skewed


class TestCommands:
    BASE = ["--base", "600", "--queries", "10"]

    def test_overview(self, capsys):
        assert main(["overview", *self.BASE]) == 0
        out = capsys.readouterr().out
        assert "postings:" in out and "replicas:" in out

    def test_sweep_nprobe(self, capsys):
        assert main(["sweep-nprobe", *self.BASE]) == 0
        out = capsys.readouterr().out
        assert "recall10@10" in out

    def test_simulate(self, capsys):
        assert main(
            ["simulate", *self.BASE, "--days", "2", "--rate", "0.02"]
        ) == 0
        out = capsys.readouterr().out
        assert "mean recall" in out

    def test_compare_without_diskann(self, capsys):
        assert main(
            [
                "compare",
                *self.BASE,
                "--days", "2",
                "--rate", "0.02",
                "--skip-diskann",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "SPFresh" in out and "SPANN+" in out
