"""Smoke tests for the `python -m repro` CLI."""

from functools import partial

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.core.config import SPFreshConfig


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["overview"])
        assert args.base == 4000
        assert args.dim == 32
        assert not args.skewed

    def test_config_error_is_a_usage_error(self, capsys, monkeypatch):
        # overview is handed a config that validate() refuses.
        monkeypatch.setattr(
            cli, "SPFreshConfig", partial(SPFreshConfig, default_nprobe=0)
        )
        assert main(["overview", "--base", "300"]) == 2
        err = capsys.readouterr().err
        assert err == "error: default_nprobe must be at least 1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["overview", "--base", "0"],
            ["overview", "--dim", "0"],
            ["sweep-nprobe", "--queries", "0"],
            ["simulate", "--days", "0"],
            ["compare", "--days", "-3"],
            ["overview", "--base", "many"],
        ],
        ids=["base", "dim", "queries", "days", "negative", "not-a-number"],
    )
    def test_shape_flags_must_be_positive(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"argument {argv[1]}: must be a positive integer" in errors[0]

    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_seed_must_be_non_negative(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["overview", "--seed", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "argument --seed: must be a non-negative integer" in errors[0]
        assert build_parser().parse_args(["overview", "--seed", "0"]).seed == 0

    def test_record_too_big_for_a_block_is_a_usage_error(self, capsys):
        # One exact record is 9 + 4 * 1100 bytes, more than a 4096-byte block.
        assert main(["overview", "--base", "300", "--dim", "1100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "block_size 4096" in err

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

    def test_compare_drives_all_three_engines(self, capsys):
        assert main(["compare", "--base", "600", "--days", "2"]) == 0
        out = capsys.readouterr().out
        for name in ("SPFresh", "SPANN+", "DiskANN"):
            assert f"running {name}..." in out
