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


    @pytest.mark.parametrize("command", ["topo-sweep", "fault-sweep", "bench"])
    def test_merged_sweep_commands_are_unknown(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--verify"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["cell", "--app", "alya", "--nranks", "4"], id="cell-csv"),
        pytest.param(["timeline"], id="timeline-csv"),
        pytest.param(["gen", "--app", "alya", "--nranks", "4", "-o", "a.dim"],
                     id="gen-csv"),
        pytest.param(["replay", "a.dim"], id="replay-csv"),
    ])
    def test_csv_where_nothing_writes_one_is_a_usage_error(
        self, argv, tmp_path, capsys
    ):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--csv", str(out)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --csv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["gen", "--app", "alya", "--nranks", "4", "-o", "a.dim",
                      "--workers", "2"], id="gen-workers"),
        pytest.param(["replay", "a.dim", "--iterations", "4"],
                     id="replay-iterations"),
    ])
    def test_ignored_shared_option_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {argv[-2]}" in err


class TestBadSpecs:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--topologies", "torus:bogus=3"],
        ["sweep", "--policies", "policy:hca=gate:t_react_us=nan"],
        ["sweep", "--faults", "faults:bogus=1"],
        ["cluster-sweep", "--jobs", "poisson:n=3,mean_gap_us=nan"],
    ])
    def test_one_line_and_exit_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert argv[-1] in lines[0]


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

    def test_figure_workers_output_equals_serial(self, monkeypatch, capsys):
        from repro.experiments import clear_cache, figs7_9

        seen = []
        run_cells = figs7_9.run_cells

        def spy(specs, **kw):
            seen.append(kw.get("workers"))
            return run_cells(specs, **kw)

        monkeypatch.setattr(figs7_9, "run_cells", spy)
        argv = ["figure", "--number", "9", "--apps", "alya",
                "--sizes-limit", "2", "--iterations", "6"]
        outputs = []
        for extra in ([], ["--workers", "2"]):
            clear_cache()  # the parallel run must not be a memo hit
            assert main(argv + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert seen == [None, 2]
        assert outputs[0] == outputs[1]

    def test_cell_workers_reach_the_planning_pass(self, monkeypatch, capsys):
        from repro.core import runtime
        from repro.experiments import clear_cache

        seen = []

        def serial_map(fn, items, *, workers):
            seen.append(workers)
            return [fn(item) for item in items]

        monkeypatch.setattr(runtime, "run_resilient", serial_map)
        clear_cache()
        assert main(["cell", "--app", "alya", "--nranks", "4",
                     "--iterations", "6", "--workers", "2"]) == 0
        assert seen == [2]

    def test_fig10(self, capsys):
        rc = main(["fig10", "--app", "alya", "--sizes", "8",
                   "--iterations", "12"])
        assert rc == 0
        assert "best GT" in capsys.readouterr().out


class TestBadNumbers:
    """Counts and displacements are checked by argparse: a bad value
    exits 2 with one error line, no traceback (each of these ended in a
    ``ValueError`` traceback and exit 1 when it reached the pipeline)."""

    @pytest.mark.parametrize("argv, flag", [
        (["cell", "--app", "alya", "--nranks", "8", "--iterations", "0"],
         "--iterations"),
        (["cell", "--app", "alya", "--nranks", "0"], "--nranks"),
        (["replay", "t.dim", "--displacement", "1.5"], "--displacement"),
        (["cell", "--app", "alya", "--nranks", "8", "--displacement", "-1"],
         "--displacement"),
        (["gen", "--app", "alya", "--nranks", "4", "-o", "a.dim",
          "--iterations", "0"], "--iterations"),
        (["fig10", "--sizes", "8", "0"], "--sizes"),
        (["timeline", "--bins", "0"], "--bins"),
        (["figure", "--number", "7", "--sizes-limit", "0"], "--sizes-limit"),
        (["cluster-sweep", "--num-hosts", "0"], "--num-hosts"),
        (["cluster-sweep", "--cell-retries", "-1"], "--cell-retries"),
        (["cluster-sweep", "--cell-timeout", "0"], "--cell-timeout"),
        (["sweep", "--cell-timeout", "nan"], "--cell-timeout"),
    ])
    def test_exit_2_with_one_error_line(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}: must be" in errors[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, flag", [
        (["query", "ping", "--timeout", "nan"], "--timeout"),
        (["query", "ping", "--retries", "-1"], "--retries"),
        (["query", "ping", "--connect-timeout", "nan"], "--connect-timeout"),
        (["serve", "--retries", "-1"], "--retries"),
        (["serve", "--deadline", "0"], "--deadline"),
    ])
    def test_service_numbers_checked_before_any_socket(
        self, argv, flag, monkeypatch, capsys
    ):
        import socket

        def no_socket(*_args, **_kwargs):
            raise AssertionError("a bad number must not open a socket")

        monkeypatch.setattr(socket, "socket", no_socket)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}: must be" in errors[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("env, value, message", [
        ("REPRO_CELL_TIMEOUT_S", "nan", "must be finite"),
        ("REPRO_CELL_RETRIES", "-1", "must be >= 0"),
        ("REPRO_WORKERS", "0", "must be >= 1"),
    ])
    def test_bad_env_knob_is_one_error_line(
        self, env, value, message, monkeypatch, capsys
    ):
        monkeypatch.setenv(env, value)
        assert main(["cluster-sweep", "--iterations", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert errors == [f"error: {env} {message}, got {value!r}"]
        assert "Traceback" not in captured.err

    def test_num_hosts_below_a_job_fails_before_any_cell(self, capsys):
        # 1 host passes argparse, but every default stream has 8-rank jobs
        assert main(["cluster-sweep", "--num-hosts", "1",
                     "--iterations", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and "num_hosts=1" in errors[0]

    def test_gen_reads_repro_iterations(self, tmp_path, monkeypatch, capsys):
        from repro.trace.io import load_trace

        monkeypatch.setenv("REPRO_ITERATIONS", "4")
        path = tmp_path / "a.dim"
        assert main(["gen", "--app", "alya", "--nranks", "4",
                     "-o", str(path)]) == 0
        assert load_trace(path).meta["iterations"] == 4


class TestGenReplay:
    """``replay`` runs a trace file through the cell pipeline: on a
    ``gen``-written trace it prints what ``cell`` prints for the same
    app, ranks, iterations and topology, on either kernel."""

    def test_gen_then_replay(self, tmp_path, capsys):
        path = tmp_path / "gromacs16.dim"
        rc = main(["gen", "--app", "gromacs", "--nranks", "16",
                   "--iterations", "10", "-o", str(path)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out

        for topology in ("fitted", "torus:k=4,n=2"):
            shared = ["--displacement", "0.05", "--topology", topology]
            assert main(["cell", "--app", "gromacs", "--nranks", "16",
                         "--iterations", "10", *shared]) == 0
            want = capsys.readouterr().out
            assert "power savings" in want
            for kernel in ("fast", "reference"):
                assert main(["replay", str(path), "--kernel", kernel,
                             *shared]) == 0
                assert capsys.readouterr().out == want, (topology, kernel)

    def test_replay_rejects_unbalanced(self, tmp_path, capsys):
        bad = tmp_path / "bad.dim"
        bad.write_text(
            "#TRACE name=bad nranks=2\n#RANK 0\nP 1 1 64 0\n#RANK 1\n"
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", str(bad)])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("content", [None, "garbage\n"],
                             ids=["missing", "malformed"])
    def test_bad_trace_file_is_a_usage_error(self, content, tmp_path, capsys):
        path = tmp_path / "t.dim"
        if content is not None:
            path.write_text(content)
        assert main(["replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
