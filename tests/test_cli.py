"""CLI surface: parser wiring and the cheap informational commands."""

import pytest

from repro.cli import build_parser, main


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["collect", "binomial", "--seed", "3"])
    assert args.command == "collect"
    assert args.benchmark == "binomial" and args.seed == 3
    args = parser.parse_args(["search", "bonds", "--outer", "2",
                              "--inner", "1", "--epochs", "4"])
    assert (args.outer, args.inner, args.epochs) == (2, 1, 4)


def test_parser_rejects_unknown_benchmark():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["collect", "fluidsim"])


def test_list_and_loc_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "minibude" in out and "particlefilter" in out
    assert main(["loc"]) == 0
    out = capsys.readouterr().out
    assert "directives" in out


def test_collect_command(tmp_path, capsys):
    assert main(["collect", "bonds", "--workdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "collected training data" in out
    assert (tmp_path / "bonds.rh5").exists()


def test_evaluate_command(tmp_path, capsys):
    assert main(["evaluate", "bonds", "--epochs", "1",
                 "--workdir", str(tmp_path)]) == 0
    assert "speedup         : " in capsys.readouterr().out


def test_search_command(tmp_path, capsys):
    assert main(["search", "bonds", "--outer", "1", "--inner", "1",
                 "--epochs", "1", "--workdir", str(tmp_path)]) == 0
    assert "Pareto front (latency s, validation error):" in \
        capsys.readouterr().out


def test_serve_command(tmp_path, capsys):
    assert main(["serve", "bonds", "--epochs", "1", "--rows", "64",
                 "--chunk", "32", "--workdir", str(tmp_path)]) == 0
    assert "serving 1 region(s) on SerialBackend" in capsys.readouterr().out


def test_stats_command(tmp_path, capsys):
    assert main(["stats", "--workdir", str(tmp_path)]) == 0
    assert "repro stats" in capsys.readouterr().out
