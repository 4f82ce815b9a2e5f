"""Command-line interface: regenerate the paper's artefacts from a shell.

Usage (after ``pip install -e .``)::

    python -m repro.cli table1 [--apps alya gromacs] [--iterations 30]
    python -m repro.cli table3
    python -m repro.cli table4 [--nranks 16]
    python -m repro.cli figure --number 9 [--sizes-limit 3]
    python -m repro.cli fig10 [--app gromacs --sizes 64 128]
    python -m repro.cli cell --app alya --nranks 8 --displacement 0.01
    python -m repro.cli timeline --app gromacs --nranks 16
    python -m repro.cli gen --app alya --nranks 8 -o alya8.dim
    python -m repro.cli replay alya8.dim [--displacement 0.01]
    python -m repro.cli sweep [--verify] [--topologies fitted torus:n=2 ...]
                              [--faults none faults:...] [--policies ...]
    python -m repro.cli cluster-sweep [--verify] [--jobs poisson:n=3,...]
    python -m repro.cli serve [--socket PATH] [--queue-limit 32]
    python -m repro.cli query cell --app alya --nranks 8 [--timeout 30]

Each subcommand prints the regenerated table/figure; on the tables,
figures and sweeps ``--csv PATH`` also writes machine-readable output.
``gen`` exports a synthetic trace to the text ``.dim`` format; ``replay``
runs any trace file (hand-written ones included) through the cell
pipeline ``cell`` runs, so on a ``gen``-written trace it prints what
``cell`` prints for the same inputs, on either ``--kernel`` (the
compiled-program fast kernel or the reference interpreter; bit-for-bit
identical).  ``--workers N`` (or ``REPRO_WORKERS``; every subcommand
that replays takes it) fans the per-rank planning passes and the
independent cells of the grids out over worker processes; results are
identical to the sequential run.  Usage errors (exit 2): a shared
option a subcommand would ignore (``--csv`` on ``cell``, ``--workers``
on ``gen``, ``--iterations`` on ``replay``, ...), a count below its
minimum (``--iterations`` 1, ``--nranks`` 2, ...), a displacement outside
[0, 1), a bad spec string, a missing or malformed trace file.
``sweep`` replays paper workloads over topology x fault x power-policy
specs (each option's help gives its grammar; ``--faults`` defaults to
``none``, a clean sweep); a genuinely partitioned fabric becomes a
``partitioned`` row instead of killing the grid, ``--verify`` pins the
fast kernel bit-for-bit against the reference on every cell, and
``--checkpoint PATH`` journals completed cells so an interrupted sweep
resumes (a cell whose inputs changed is recomputed).  ``cluster-sweep``
admits multi-job streams (``--jobs``) onto one shared fabric per cell
under host-placement policies (``--placements``) and reports
per-tenant savings plus each job's slowdown against its own isolated
run; its ``--verify`` also checks that per-job link energies sum to the
fabric-level total.  ``serve``
runs the resident simulation daemon (``repro.service``): warm LRU caches
of compiled traces, fabrics and planning passes, a bounded admission
queue shedding ``SERVICE_BUSY``, per-request deadlines, idempotent
request keys and drain-then-exit on SIGTERM; warm results are
bit-for-bit identical to cold runs.  ``query`` is the matching blocking
client (``ping``/``stats``/``cell``/``shutdown``) with capped jittered
retry backoff; structured failures map to exit codes (3 busy,
4 deadline, 5 execution error, 6 unavailable).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from typing import Sequence

from .analysis import render_timeline
from .cluster import PLACEMENT_POLICIES, jobs_help
from .concurrency import MIN_CELL_TIMEOUT_S
from .experiments import (
    SWEEP_COLUMNS,
    default_iterations,
    format_cluster_sweep,
    format_fig10,
    format_figure,
    format_sweep,
    format_table1,
    format_table3,
    format_table4,
    run_cell,
    run_cluster_sweep,
    run_fig10,
    run_figure,
    run_sweep,
    run_table1,
    run_table3,
    run_table4,
)
from .experiments.common import build_cell, replay_displacements, trace_cell_key
from .network import faults_help, topology_help
from .power.policies import policy_help
from .specs import SpecError
from .trace.io import TraceParseError, load_trace
from .workloads import APPLICATIONS


class _UsageError(Exception):
    """A bad input named on the command line (exit 2, one line)."""


def _report(text: str, csv_path: str | None, header: Sequence[str],
            rows: Sequence[Sequence]) -> None:
    """Print a table or figure; with ``--csv`` also write its rows."""

    print(text)
    if csv_path:
        with open(csv_path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            writer.writerows(rows)
        print(f"[csv written to {csv_path}]", file=sys.stderr)


def _cmd_table1(args) -> None:
    rows = run_table1(apps=args.apps, iterations=args.iterations,
                      workers=args.workers)
    _report(format_table1(rows), args.csv,
            ["app", "nranks",
             "short_n", "short_int_pct", "short_time_pct",
             "med_n", "med_int_pct", "med_time_pct",
             "long_n", "long_int_pct", "long_time_pct"],
            [r.cells() for r in rows])


def _cmd_table3(args) -> None:
    rows = run_table3(apps=args.apps, iterations=args.iterations,
                      workers=args.workers)
    _report(format_table3(rows), args.csv,
            ["app", "nranks", "gt_us", "hit_rate_pct"],
            [(r.app, r.nranks, r.gt_us, r.hit_rate_pct) for r in rows])


def _cmd_table4(args) -> None:
    rows = run_table4(apps=args.apps, nranks=args.nranks,
                      iterations=args.iterations, workers=args.workers)
    _report(format_table4(rows), args.csv,
            ["app", "ppa_call_fraction_pct", "per_invoked_call_us",
             "per_all_calls_us"],
            [(r.app, r.ppa_call_fraction_pct, r.per_invoked_call_us,
              r.per_all_calls_us) for r in rows])


def _cmd_figure(args) -> None:
    result = run_figure(args.number, apps=args.apps,
                        iterations=args.iterations,
                        sizes_limit=args.sizes_limit,
                        workers=args.workers)
    _report(format_figure(result), args.csv,
            ["app", "nranks", "savings_pct", "slowdown_pct"],
            [(app, n, sav, slow) for app, series in result.series.items()
             for n, sav, slow in zip(series.sizes, series.savings_pct,
                                     series.slowdown_pct)])


def _cmd_fig10(args) -> None:
    curves = run_fig10(args.app, sizes=tuple(args.sizes),
                       iterations=args.iterations)
    _report(format_fig10(curves), args.csv,
            ["app", "nranks", "gt_us", "hit_rate_pct"],
            [(c.app, c.nranks, p.gt_us, p.hit_rate_pct)
             for c in curves for p in c.points])


def _print_cell(name: str, cell, displacement: float, topology: str) -> None:
    """The report of ``cell`` and ``replay``: one cell, one displacement."""

    m = cell.managed[displacement]
    print(f"{name} @ {cell.nranks} ranks, displacement "
          f"{displacement * 100:.0f}%, topology {topology}")
    print(f"  baseline        : {cell.baseline.exec_time_us / 1e3:.3f} ms")
    print(f"  GT              : {cell.gt_us:.0f} us")
    print(f"  hit rate        : {cell.hit_rate_pct:.1f} %")
    print(f"  power savings   : {m.power_savings_pct:.2f} %")
    print(f"  exec-time incr. : {m.exec_time_increase_pct:.3f} %")
    print(f"  shutdowns       : {m.total_shutdowns}")
    print(f"  mispredictions  : {m.total_mispredictions} "
          f"({m.total_penalty_us:.0f} us penalty)")


def _cmd_cell(args) -> None:
    cell = run_cell(args.app, args.nranks,
                    displacements=(args.displacement,),
                    iterations=args.iterations,
                    topology=args.topology)
    _print_cell(args.app, cell, args.displacement, args.topology)


def _cmd_timeline(args) -> None:
    cell = run_cell(args.app, args.nranks,
                    displacements=(args.displacement,),
                    iterations=args.iterations)
    m = cell.managed[args.displacement]
    print(render_timeline(
        m.accounts, m.exec_time_us, bins=args.bins,
        title=f"{args.app} @ {args.nranks}: IB link power modes",
    ))


def _cmd_gen(args) -> None:
    from .trace.io import save_trace
    from .workloads import make_trace

    trace = make_trace(args.app, args.nranks,
                       iterations=args.iterations or default_iterations(),
                       seed=args.seed, scaling=args.scaling)
    save_trace(trace, args.output)
    print(f"wrote {args.output}: {trace.nranks} ranks, "
          f"{trace.total_mpi_calls} MPI calls, "
          f"{trace.total_records} records")


def _cmd_replay(args) -> None:
    try:
        trace = load_trace(args.trace)
    except OSError as exc:
        raise _UsageError(f"{args.trace}: {exc.strerror}") from None
    except TraceParseError as exc:
        raise _UsageError(f"{args.trace}: {exc}") from None
    problems = trace.check_p2p_balance()
    if problems:
        print("trace is not communication-balanced:", file=sys.stderr)
        for p in problems[:10]:
            print(f"  {p}", file=sys.stderr)
        raise SystemExit(2)
    key = trace_cell_key(trace, topology=args.topology, kernel=args.kernel)
    cell = build_cell(key, trace=trace)
    cell.managed = replay_displacements(cell, key, [args.displacement])
    _print_cell(trace.name, cell, args.displacement, args.topology)


def _cmd_sweep(args) -> None:
    rows = run_sweep(
        apps=args.apps,
        nranks_list=tuple(args.nranks),
        topologies=args.topologies,
        fault_specs=args.faults,
        policies=args.policies,
        displacement=args.displacement,
        iterations=args.iterations,
        workers=args.workers,
        verify=args.verify,
        timeout_s=args.cell_timeout,
        retries=args.cell_retries,
        checkpoint=args.checkpoint,
    )
    _report(format_sweep(rows), args.csv, SWEEP_COLUMNS,
            [r.cells() for r in rows])
    if args.verify:
        print("[fast == reference kernel equality verified on every cell]",
              file=sys.stderr)


def _cmd_cluster_sweep(args) -> None:
    rows = run_cluster_sweep(
        job_streams=args.jobs,
        placements=args.placements,
        topologies=args.topologies,
        num_hosts=args.num_hosts,
        displacement=args.displacement,
        iterations=args.iterations,
        faults=args.faults,
        workers=args.workers,
        verify=args.verify,
        timeout_s=args.cell_timeout,
        retries=args.cell_retries,
        checkpoint=args.checkpoint,
    )
    _report(format_cluster_sweep(rows), args.csv,
            ["topology", "jobs", "placement", "status", "njobs",
             "num_hosts", "makespan_us", "mean_savings_pct",
             "mean_slowdown_pct", "mean_queue_wait_us",
             "energy_mismatch_us", "wake_timeouts", "detail"],
            [r.cells() for r in rows])
    if args.verify:
        print("[fast == reference kernel cluster equality verified; "
              "per-job energy rollups sum to the fabric total]",
              file=sys.stderr)


def _cmd_serve(args) -> None:
    from .service import ServiceConfig, ServiceDaemon

    config = ServiceConfig.from_env(
        socket_path=args.socket,
        queue_limit=args.queue_limit,
        deadline_s=args.deadline,
        cache_cells=args.cache_cells,
        retries=args.retries,
        workers=args.workers,
        test_hooks=args.test_hooks or None,
    )
    daemon = ServiceDaemon(config)
    print(f"[serving on {config.socket_path} "
          f"(queue={config.queue_limit}, cache={config.cache_cells} cells"
          f"{', test hooks ON' if config.test_hooks else ''})]",
          file=sys.stderr, flush=True)
    raise SystemExit(daemon.serve_forever())


def _cmd_query(args) -> None:
    import json

    from .service import ServiceClient
    from .service.client import (
        ServiceBusy,
        ServiceError,
        ServiceTimeout,
        ServiceUnavailable,
    )

    client = ServiceClient(
        args.socket, retries=args.retries,
        connect_timeout_s=args.connect_timeout,
    )
    try:
        if args.op != "cell":  # ping, stats, shutdown
            reply = {"result": getattr(client, args.op)()}
        else:
            spec = {"app": args.app, "nranks": args.nranks}
            for field in ("displacement", "iterations", "seed", "scaling",
                          "topology", "kernel", "faults", "policy"):
                value = getattr(args, field)
                if value is not None:
                    spec[field] = value
            reply = client.cell(timeout_s=args.timeout, **spec)
    except ServiceBusy as exc:
        print(f"query: daemon busy: {exc} {exc.details}", file=sys.stderr)
        raise SystemExit(3)
    except ServiceTimeout as exc:
        print(f"query: deadline exceeded: {exc} {exc.details}",
              file=sys.stderr)
        raise SystemExit(4)
    except ServiceUnavailable as exc:
        print(f"query: {exc}", file=sys.stderr)
        raise SystemExit(6)
    except ServiceError as exc:
        print(f"query: {exc.code}: {exc} {exc.details}", file=sys.stderr)
        raise SystemExit(5)
    print(json.dumps(reply, indent=2, sort_keys=True))


def _checked(convert, ok, what: str):
    """argparse type: ``convert(raw)``, a usage error unless ``ok``."""

    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {convert.__name__}, got {raw!r}"
            ) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {raw}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_non_negative_int = _checked(int, lambda v: v >= 0, ">= 0")
_timeout_s = _checked(
    float, lambda v: math.isfinite(v) and v >= MIN_CELL_TIMEOUT_S,
    f"finite and >= {MIN_CELL_TIMEOUT_S}",
)
_seconds = _checked(
    float, lambda v: math.isfinite(v) and v > 0, "finite and > 0"
)
_nranks = _checked(int, lambda v: v >= 2, ">= 2")
_displacement = _checked(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        # only the shared options a subcommand honours (default: all
        # three): anywhere else the flag is a usage error, not a no-op
        flags = flags or ("--iterations", "--csv", "--workers")
        if "--iterations" in flags:
            p.add_argument("--iterations", type=_positive_int, default=None,
                           help="trace length (default: REPRO_ITERATIONS "
                                "or 40)")
        if "--csv" in flags:
            p.add_argument("--csv", default=None,
                           help="also write CSV here")
        if "--workers" in flags:
            p.add_argument("--workers", type=_positive_int, default=None,
                           help="worker processes (>= 1) for per-rank "
                                "planning passes and independent grid "
                                "cells; explicit value wins over the "
                                "REPRO_WORKERS env var (default: "
                                "REPRO_WORKERS or 1)")

    def harness_options(p):
        p.add_argument("--cell-timeout", type=_timeout_s, default=None,
                       help="per-cell wall-clock timeout in seconds "
                            "(default: REPRO_CELL_TIMEOUT_S or none)")
        p.add_argument("--cell-retries", type=_non_negative_int,
                       default=None,
                       help="re-attempts for crashed/stalled cells "
                            "(default: REPRO_CELL_RETRIES or 2)")
        p.add_argument("--checkpoint", default=None,
                       help="journal file: completed cells are appended "
                            "and a rerun resumes from it; a rerun with "
                            "any changed input recomputes that cell")

    def spec_option(p, flag, what, grammar, **kw):
        # the grammar text is generated from the spec's schema
        p.add_argument(flag, help=f"{what}. Grammar: {grammar()}", **kw)

    def topology_option(p):
        spec_option(p, "--topology", "topology spec", topology_help,
                    default="fitted")

    p = sub.add_parser("table1", help="idle-interval distribution")
    p.add_argument("--apps", nargs="*", default=None, choices=APPLICATIONS)
    common(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table3", help="GT selection + hit rate")
    p.add_argument("--apps", nargs="*", default=None, choices=APPLICATIONS)
    common(p)
    p.set_defaults(func=_cmd_table3)

    p = sub.add_parser("table4", help="PPA overheads")
    p.add_argument("--apps", nargs="*", default=None, choices=APPLICATIONS)
    p.add_argument("--nranks", type=_nranks, default=16)
    common(p)
    p.set_defaults(func=_cmd_table4)

    p = sub.add_parser("figure", help="Figs. 7/8/9: savings & slowdown")
    p.add_argument("--number", type=int, required=True, choices=(7, 8, 9))
    p.add_argument("--apps", nargs="*", default=None, choices=APPLICATIONS)
    p.add_argument("--sizes-limit", type=_positive_int, default=None)
    common(p)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("fig10", help="hit rate vs GT sweep")
    p.add_argument("--app", default="gromacs", choices=APPLICATIONS)
    p.add_argument("--sizes", nargs="*", type=_nranks, default=[64, 128])
    common(p)
    p.set_defaults(func=_cmd_fig10)

    p = sub.add_parser("cell", help="one (app, nranks) pipeline run")
    p.add_argument("--app", required=True, choices=APPLICATIONS)
    p.add_argument("--nranks", type=_nranks, required=True)
    p.add_argument("--displacement", type=_displacement, default=0.01)
    topology_option(p)
    common(p, "--iterations", "--workers")
    p.set_defaults(func=_cmd_cell)

    p = sub.add_parser(
        "sweep",
        help="savings/slowdown vs topology x faults x power policy "
             "(paper workloads; partition-safe, crash/hang-proof grid)",
    )
    p.add_argument("--apps", nargs="*", default=None, choices=APPLICATIONS)
    p.add_argument("--nranks", nargs="*", type=_nranks, default=[16])
    spec_option(p, "--topologies", "topology specs (default: fitted + "
                "torus + dragonfly + fattree2)", topology_help,
                nargs="*", default=None)
    spec_option(p, "--faults", "fault specs (default: 'none', a clean "
                "sweep)", faults_help, nargs="*", default=None)
    spec_option(p, "--policies", "power-policy specs (default: the "
                "paper's HCA-only gating)", policy_help,
                nargs="*", default=None)
    p.add_argument("--displacement", type=_displacement, default=0.05)
    p.add_argument("--verify", action="store_true",
                   help="re-run every cell on the reference replay kernel "
                        "and fail on any fast/reference divergence — "
                        "including divergent partitions")
    harness_options(p)
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "cluster-sweep",
        help="multi-job streams on one shared fabric: per-tenant savings "
             "and slowdown-vs-isolated x placement x topology",
    )
    spec_option(p, "--jobs", "job-stream specs (default: a static pair "
                "+ a two-tenant Poisson mix)", jobs_help,
                nargs="*", default=None)
    p.add_argument(
        "--placements", nargs="*", default=None,
        choices=PLACEMENT_POLICIES,
        help="host-placement policies (default: packed + spread)",
    )
    spec_option(p, "--topologies", "topology specs (default: fitted + "
                "torus)", topology_help, nargs="*", default=None)
    p.add_argument("--num-hosts", type=_positive_int, default=None,
                   help="shared-fabric host count (default: every job at "
                        "once when the family allows, else the family's "
                        "natural size — the FCFS queue absorbs overflow)")
    p.add_argument("--displacement", type=_displacement, default=0.05)
    spec_option(p, "--faults", "fault spec armed on the shared fabric "
                "(isolated references stay pristine)", faults_help,
                default="none")
    p.add_argument("--verify", action="store_true",
                   help="re-run every cell on the reference kernel, fail "
                        "on any divergence, and check the per-job "
                        "energy-sum invariant")
    harness_options(p)
    common(p)
    p.set_defaults(func=_cmd_cluster_sweep)

    p = sub.add_parser("timeline", help="Fig. 6 power-mode timeline")
    p.add_argument("--app", default="gromacs", choices=APPLICATIONS)
    p.add_argument("--nranks", type=_nranks, default=16)
    p.add_argument("--displacement", type=_displacement, default=0.10)
    p.add_argument("--bins", type=_positive_int, default=96)
    common(p, "--iterations", "--workers")
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser("gen", help="write a synthetic trace to a .dim file")
    p.add_argument("--app", required=True, choices=APPLICATIONS)
    p.add_argument("--nranks", type=_nranks, required=True)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--scaling", default="strong", choices=("strong", "weak"))
    p.add_argument("-o", "--output", required=True)
    common(p, "--iterations")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("replay", help="full pipeline on a trace file")
    p.add_argument("trace", help="path to a .dim trace file")
    p.add_argument("--displacement", type=_displacement, default=0.01)
    p.add_argument("--kernel", default="fast", choices=("fast", "reference"),
                   help="replay kernel: compiled programs + flat hop "
                        "tables (fast) or the record interpreter + "
                        "per-message route walk (reference); bit-for-bit "
                        "identical")
    topology_option(p)
    common(p, "--workers")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "serve",
        help="run the resident simulation daemon on a Unix socket",
    )
    p.add_argument("--socket", default=None,
                   help="Unix socket path (default: REPRO_SERVICE_SOCKET "
                        "or a per-user path under the temp dir)")
    p.add_argument("--queue-limit", type=_positive_int, default=None,
                   help="bounded admission queue depth; beyond it requests "
                        "are shed with SERVICE_BUSY (default: "
                        "REPRO_SERVICE_QUEUE or 32)")
    p.add_argument("--deadline", type=_seconds, default=None,
                   help="default per-request deadline in seconds (default: "
                        "REPRO_SERVICE_TIMEOUT_S or none)")
    p.add_argument("--cache-cells", type=_positive_int, default=None,
                   help="LRU capacity for warm cells "
                        "(default: REPRO_SERVICE_CACHE_CELLS or 8)")
    p.add_argument("--retries", type=_non_negative_int, default=None,
                   help="worker retries for sweep fan-outs (default: "
                        "REPRO_SERVICE_RETRIES or 0)")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="worker processes for sweep fan-outs (default: "
                        "REPRO_WORKERS or 1)")
    p.add_argument("--test-hooks", action="store_true",
                   help="enable the test-only failpoints (block/unblock, "
                        "kill_worker, hang_worker) — never in production")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "query",
        help="query a running simulation daemon (blocking client)",
    )
    p.add_argument("op", choices=("ping", "stats", "cell", "shutdown"),
                   help="operation: health check, counters, one cell "
                        "run/replay, or drain-then-exit")
    p.add_argument("--socket", default=None,
                   help="Unix socket path (default: REPRO_SERVICE_SOCKET "
                        "or the per-user default)")
    p.add_argument("--app", default="alya", choices=APPLICATIONS)
    p.add_argument("--nranks", type=_nranks, default=8)
    p.add_argument("--displacement", type=_displacement, default=None)
    p.add_argument("--iterations", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scaling", default=None, choices=("strong", "weak"))
    p.add_argument("--kernel", default=None, choices=("fast", "reference"))
    spec_option(p, "--topology", "topology spec", topology_help,
                default=None)
    spec_option(p, "--faults", "fault spec (default none)", faults_help,
                default=None)
    spec_option(p, "--policy", "power-policy spec", policy_help,
                default=None)
    p.add_argument("--timeout", type=_seconds, default=None,
                   help="server-side deadline for this request in seconds; "
                        "expiry returns a structured DEADLINE_EXCEEDED "
                        "error (exit code 4)")
    p.add_argument("--retries", type=_non_negative_int, default=3,
                   help="client retries for connect failures and "
                        "SERVICE_BUSY sheds, with capped jittered "
                        "exponential backoff (default 3)")
    p.add_argument("--connect-timeout", type=_seconds, default=5.0,
                   help="socket connect timeout in seconds (default 5)")
    p.set_defaults(func=_cmd_query, workers=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    workers = getattr(args, "workers", None)
    previous = os.environ.get("REPRO_WORKERS")
    if workers is not None:
        # one env knob reaches every per-rank pass below the experiment
        # drivers without threading a parameter through each of them;
        # restored afterwards so programmatic main() calls don't leak
        # parallelism into the rest of the process
        os.environ["REPRO_WORKERS"] = str(workers)
    try:
        args.func(args)
    except (SpecError, _UsageError) as exc:  # one line, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if workers is not None and previous is None:
            del os.environ["REPRO_WORKERS"]
        elif workers is not None:
            os.environ["REPRO_WORKERS"] = previous
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
