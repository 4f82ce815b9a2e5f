"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_requires_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure"])

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--apps", "linpack"])

    @pytest.mark.parametrize("argv", [
        ["replay", "t.dim", "--scheduler", "heap"],
        ["query", "cell", "--scheduler", "heap"],
    ])
    def test_removed_scheduler_option_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "--scheduler" in capsys.readouterr().err


class TestCommands:
    def test_cell(self, capsys):
        rc = main(["cell", "--app", "alya", "--nranks", "8",
                   "--iterations", "12"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "power savings" in out
        assert "GT" in out

    def test_table3_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "t3.csv"
        rc = main(["table3", "--apps", "alya", "--iterations", "12",
                   "--csv", str(csv_path)])
        assert rc == 0
        assert "ALYA" in capsys.readouterr().out
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "app,nranks,gt_us,hit_rate_pct"
        assert len(lines) == 6  # header + 5 sizes

    def test_figure_small(self, capsys):
        rc = main(["figure", "--number", "9", "--apps", "alya",
                   "--sizes-limit", "1", "--iterations", "12"])
        assert rc == 0
        assert "Figure 9" in capsys.readouterr().out

    def test_timeline(self, capsys):
        rc = main(["timeline", "--app", "alya", "--nranks", "8",
                   "--iterations", "12", "--bins", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "power modes" in out
        assert "rank   0" in out

    def test_fig10(self, capsys):
        rc = main(["fig10", "--app", "alya", "--sizes", "8",
                   "--iterations", "12"])
        assert rc == 0
        assert "best GT" in capsys.readouterr().out


class TestGenReplay:
    def test_gen_then_replay(self, tmp_path, capsys):
        path = tmp_path / "alya8.dim"
        rc = main(["gen", "--app", "alya", "--nranks", "8",
                   "--iterations", "10", "-o", str(path)])
        assert rc == 0
        assert path.exists()
        assert "wrote" in capsys.readouterr().out

        rc = main(["replay", str(path), "--displacement", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "power savings" in out
        assert "GT =" in out

    def test_replay_rejects_unbalanced(self, tmp_path, capsys):
        bad = tmp_path / "bad.dim"
        bad.write_text(
            "#TRACE name=bad nranks=2\n#RANK 0\nP 1 1 64 0\n#RANK 1\n"
        )
        with pytest.raises(SystemExit):
            main(["replay", str(bad)])
