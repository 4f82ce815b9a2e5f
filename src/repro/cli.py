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
    python -m repro.cli topo-sweep [--topologies fitted torus:n=2 ...]
    python -m repro.cli fault-sweep [--verify] [--faults none faults:...]
    python -m repro.cli cluster-sweep [--verify] [--jobs poisson:n=3,...]
    python -m repro.cli bench [--smoke] [--topology torus:n=2]
    python -m repro.cli serve [--socket PATH] [--queue-limit 32]
    python -m repro.cli query cell --app alya --nranks 8 [--timeout 30]

Each subcommand prints the regenerated table/figure; ``--csv PATH``
additionally writes machine-readable output.  ``gen``/``replay`` export
synthetic traces to the text ``.dim`` format and run the full pipeline
on any trace file (including hand-written ones); ``replay`` takes
``--kernel`` to select the compiled-program fast kernel or the
reference interpreter (bit-for-bit identical).  ``--workers N``
(or ``REPRO_WORKERS``) fans the per-rank planning passes and the
independent cells of the figure/table/sweep grids out over worker
processes; results are identical to the sequential run.  ``topo-sweep``
replays paper workloads across topology families (``--topology`` /
``--topologies`` take spec strings like ``torus:k=4,n=2`` — the
``repro.network.topologies`` registry documents each family's
parameters).  ``fault-sweep`` runs the pipeline across topology
families with deterministic fault injection armed (``--faults`` takes
spec strings like ``faults:seed=7,link_fail=0.15`` — see
``repro.network.faults``); a genuinely partitioned fabric becomes a
``partitioned`` row instead of killing the grid, ``--verify`` pins the
fast kernel bit-for-bit against the reference under faults, and
``--checkpoint PATH`` journals completed cells so an interrupted sweep
resumes.  ``cluster-sweep`` admits multi-job streams onto one shared
fabric per cell (``--jobs`` takes job-stream specs like
``poisson:n=3,mean_gap_us=1500,seed=3`` — see ``repro.cluster.jobs`` —
and ``--placements`` picks host-placement policies) and reports
per-tenant savings plus each job's slowdown against its own isolated
run; ``--verify`` additionally pins the fast-kernel cluster replay
bit-for-bit against the reference kernel and checks that
per-job attributed link energies sum to the fabric-level total.
``bench`` times
the pipeline stages and writes ``BENCH_pipeline.json`` (schema 6:
per-displacement managed replay detail, the helper-spawn counter
(asserted 0 on the fast kernel) and the fault spec dimension); with
``--smoke``
it fails on a >3x slowdown against the recorded reference, and with
``--profile`` it captures both the baseline and the managed replay
stages under cProfile, prints the
top functions and dumps the stats next to the benchmark output.
``serve`` runs the resident simulation daemon (``repro.service``): a
Unix-socket server with warm LRU caches of compiled traces, built
fabrics and planning passes, a bounded admission queue with explicit
``SERVICE_BUSY`` shedding, per-request deadlines, idempotent request
keys and drain-then-exit on SIGTERM; warm results are bit-for-bit
identical to cold runs.  ``query`` is the matching blocking client
(``ping``/``stats``/``cell``/``shutdown``) with capped jittered retry
backoff; structured failures map to exit codes (3 busy, 4 deadline,
5 execution error, 6 unavailable).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Sequence

from .analysis import render_timeline
from .cluster import PLACEMENT_POLICIES, jobs_help
from .experiments import (
    format_cluster_sweep,
    format_fault_sweep,
    format_fig10,
    format_figure,
    format_table1,
    format_table3,
    format_table4,
    format_topo_sweep,
    run_cell,
    run_cluster_sweep,
    run_fault_sweep,
    run_fig10,
    run_figure,
    run_table1,
    run_table3,
    run_table4,
    run_topo_sweep,
)
from .network import faults_help, topology_help
from .power.policies import policy_help
from .workloads import APPLICATIONS


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"[csv written to {path}]", file=sys.stderr)


def _cmd_table1(args) -> None:
    rows = run_table1(apps=args.apps, iterations=args.iterations,
                      workers=args.workers)
    print(format_table1(rows))
    if args.csv:
        _write_csv(
            args.csv,
            ["app", "nranks",
             "short_n", "short_int_pct", "short_time_pct",
             "med_n", "med_int_pct", "med_time_pct",
             "long_n", "long_int_pct", "long_time_pct"],
            [r.cells() for r in rows],
        )


def _cmd_table3(args) -> None:
    rows = run_table3(apps=args.apps, iterations=args.iterations,
                      workers=args.workers)
    print(format_table3(rows))
    if args.csv:
        _write_csv(
            args.csv,
            ["app", "nranks", "gt_us", "hit_rate_pct"],
            [(r.app, r.nranks, r.gt_us, r.hit_rate_pct) for r in rows],
        )


def _cmd_table4(args) -> None:
    rows = run_table4(apps=args.apps, nranks=args.nranks,
                      iterations=args.iterations, workers=args.workers)
    print(format_table4(rows))
    if args.csv:
        _write_csv(
            args.csv,
            ["app", "ppa_call_fraction_pct", "per_invoked_call_us",
             "per_all_calls_us"],
            [(r.app, r.ppa_call_fraction_pct, r.per_invoked_call_us,
              r.per_all_calls_us) for r in rows],
        )


def _cmd_figure(args) -> None:
    result = run_figure(args.number, apps=args.apps,
                        iterations=args.iterations,
                        sizes_limit=args.sizes_limit)
    print(format_figure(result))
    if args.csv:
        rows = []
        for app, series in result.series.items():
            for n, sav, slow in zip(series.sizes, series.savings_pct,
                                    series.slowdown_pct):
                rows.append((app, n, sav, slow))
        _write_csv(args.csv,
                   ["app", "nranks", "savings_pct", "slowdown_pct"], rows)


def _cmd_fig10(args) -> None:
    curves = run_fig10(args.app, sizes=tuple(args.sizes),
                       iterations=args.iterations)
    print(format_fig10(curves))
    if args.csv:
        rows = []
        for c in curves:
            for p in c.points:
                rows.append((c.app, c.nranks, p.gt_us, p.hit_rate_pct))
        _write_csv(args.csv,
                   ["app", "nranks", "gt_us", "hit_rate_pct"], rows)


def _cmd_cell(args) -> None:
    cell = run_cell(args.app, args.nranks,
                    displacements=(args.displacement,),
                    iterations=args.iterations,
                    topology=args.topology)
    m = cell.managed[args.displacement]
    print(f"{args.app} @ {args.nranks} ranks, displacement "
          f"{args.displacement * 100:.0f}%, topology {args.topology}")
    print(f"  GT              : {cell.gt_us:.0f} us")
    print(f"  hit rate        : {cell.hit_rate_pct:.1f} %")
    print(f"  power savings   : {m.power_savings_pct:.2f} %")
    print(f"  exec-time incr. : {m.exec_time_increase_pct:.3f} %")
    print(f"  shutdowns       : {m.total_shutdowns}")
    print(f"  mispredictions  : {m.total_mispredictions} "
          f"({m.total_penalty_us:.0f} us penalty)")


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

    iters = args.iterations or 40
    trace = make_trace(args.app, args.nranks, iterations=iters,
                       seed=args.seed, scaling=args.scaling)
    save_trace(trace, args.output)
    print(f"wrote {args.output}: {trace.nranks} ranks, "
          f"{trace.total_mpi_calls} MPI calls, "
          f"{trace.total_records} records")


def _cmd_replay(args) -> None:
    from .core import RuntimeConfig, plan_trace_directives, select_gt
    from .sim import ReplayConfig, replay_baseline, replay_managed
    from .trace.io import load_trace

    trace = load_trace(args.trace)
    problems = trace.check_p2p_balance()
    if problems:
        print("trace is not communication-balanced:", file=sys.stderr)
        for p in problems[:10]:
            print(f"  {p}", file=sys.stderr)
        raise SystemExit(2)
    replay_cfg = ReplayConfig(kernel=args.kernel, topology=args.topology)
    baseline = replay_baseline(trace, replay_cfg)
    print(f"{trace.name}: {trace.nranks} ranks, baseline "
          f"{baseline.exec_time_us / 1e3:.3f} ms "
          f"[{args.kernel} kernel, {args.topology} topology]")
    gt = select_gt(baseline.event_logs)
    print(f"GT = {gt.gt_us:.0f} us, hit rate = {gt.hit_rate_pct:.1f}%")
    cfg = RuntimeConfig(gt_us=gt.gt_us, displacement=args.displacement)
    directives, stats = plan_trace_directives(baseline.event_logs, cfg)
    managed = replay_managed(
        trace, directives,
        baseline_exec_time_us=baseline.exec_time_us,
        displacement=args.displacement,
        grouping_thresholds_us=[gt.gt_us] * trace.nranks,
        config=replay_cfg,
        runtime_stats=stats,
    )
    print(f"power savings   : {managed.power_savings_pct:.2f} %")
    print(f"exec-time incr. : {managed.exec_time_increase_pct:.3f} %")
    print(f"shutdowns       : {managed.total_shutdowns}")


def _cmd_topo_sweep(args) -> None:
    rows = run_topo_sweep(
        apps=args.apps,
        nranks_list=tuple(args.nranks),
        topologies=args.topologies,
        policies=args.policies,
        displacement=args.displacement,
        iterations=args.iterations,
        workers=args.workers,
        verify=args.verify,
    )
    print(format_topo_sweep(rows))
    if args.verify:
        print("[fast == reference kernel equality verified on every "
              "(policy, family) pair]", file=sys.stderr)
    if args.csv:
        _write_csv(
            args.csv,
            ["policy", "topology", "family", "app", "nranks", "hosts",
             "switches", "links", "gt_us", "hit_rate_pct", "savings_pct",
             "slowdown_pct", "trunk_savings_pct", "switch_savings_pct"],
            [r.cells() for r in rows],
        )


def _cmd_fault_sweep(args) -> None:
    rows = run_fault_sweep(
        apps=args.apps,
        nranks_list=tuple(args.nranks),
        topologies=args.topologies,
        fault_specs=args.faults,
        displacement=args.displacement,
        iterations=args.iterations,
        workers=args.workers,
        verify=args.verify,
        timeout_s=args.cell_timeout,
        retries=args.cell_retries,
        checkpoint=args.checkpoint,
    )
    print(format_fault_sweep(rows))
    if args.verify:
        print("[fast == reference kernel equality verified under faults "
              "on every family]", file=sys.stderr)
    if args.csv:
        _write_csv(
            args.csv,
            ["topology", "faults", "app", "nranks", "status", "gt_us",
             "savings_pct", "slowdown_pct", "events_applied", "reroutes",
             "inflight_retries", "wake_timeouts", "detail"],
            [r.cells() for r in rows],
        )


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
    print(format_cluster_sweep(rows))
    if args.verify:
        print("[fast == reference kernel cluster equality verified; "
              "per-job energy rollups sum to the fabric total]",
              file=sys.stderr)
    if args.csv:
        _write_csv(
            args.csv,
            ["topology", "jobs", "placement", "status", "njobs",
             "num_hosts", "makespan_us", "mean_savings_pct",
             "mean_slowdown_pct", "mean_queue_wait_us",
             "energy_mismatch_us", "wake_timeouts", "detail"],
            [r.cells() for r in rows],
        )


def _cmd_bench(args) -> None:
    from . import perf

    iterations = args.iterations
    if args.smoke and iterations is None:
        iterations = 10
    profile_path = None
    if args.profile:
        if args.smoke or args.csv:
            # profiling inflates the replay stages several-fold; gating,
            # recording or exporting those timings would be meaningless
            print("bench: --profile cannot be combined with --smoke "
                  "or --csv", file=sys.stderr)
            raise SystemExit(2)
        profile_path = (
            perf.output_path(args.topology, args.faults, args.policy).parent
            / "replay_profile.prof"
        )
    result = perf.run_pipeline_benchmark(
        app=args.app, nranks=args.nranks, iterations=iterations,
        profile_path=profile_path, topology=args.topology,
        faults=args.faults, policy=args.policy,
    )
    if args.profile:
        print(result.pop("profile_top"))
        print(f"[replay cProfile stats written to {result['profile_path']}]",
              file=sys.stderr)
    print(perf.format_benchmark(result))
    if args.profile:
        # profiled stage timings are inflated several-fold; never let
        # them overwrite the last clean recording
        print("[benchmark JSON not written: timings include cProfile "
              "overhead]", file=sys.stderr)
        return
    out = perf.output_path(args.topology, args.faults, args.policy)
    perf.write_benchmark(result, out)
    print(f"[benchmark written to {out}]", file=sys.stderr)
    if args.csv:
        _write_csv(
            args.csv,
            ["stage", "seconds"],
            list(result["stages"].items()),
        )
    if not args.smoke:
        return
    ref_path = perf.reference_path(args.topology, args.faults, args.policy)
    if not ref_path.exists():
        perf.write_benchmark(result, ref_path)
        print(f"[no reference found; recorded {ref_path}]", file=sys.stderr)
        return
    import json

    reference = json.loads(ref_path.read_text(encoding="utf-8"))
    problems = perf.compare_benchmark(result, reference)
    if problems:
        print("perf regression gate FAILED:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        raise SystemExit(1)
    print("perf regression gate passed (all stages within "
          f"{perf.MAX_SLOWDOWN:.0f}x of the reference)")


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
        if args.op == "ping":
            reply = {"result": client.ping()}
        elif args.op == "stats":
            reply = {"result": client.stats()}
        elif args.op == "shutdown":
            reply = {"result": client.shutdown()}
        else:  # cell
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


def _positive_int(raw: str) -> int:
    """argparse type for counts that must be >= 1 (e.g. ``--workers``)."""

    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {raw}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--iterations", type=int, default=None,
                       help="trace length (default: REPRO_ITERATIONS or 40)")
        p.add_argument("--csv", default=None, help="also write CSV here")
        p.add_argument("--workers", type=_positive_int, default=None,
                       help="worker processes (>= 1) for per-rank planning "
                            "passes and independent grid cells; explicit "
                            "value wins over the REPRO_WORKERS env var "
                            "(default: REPRO_WORKERS or 1)")

    def topology_option(p):
        p.add_argument(
            "--topology", default="fitted",
            help="topology spec 'family[:key=value,...]'. Families: "
                 + topology_help(),
        )

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
    p.add_argument("--nranks", type=int, default=16)
    common(p)
    p.set_defaults(func=_cmd_table4)

    p = sub.add_parser("figure", help="Figs. 7/8/9: savings & slowdown")
    p.add_argument("--number", type=int, required=True, choices=(7, 8, 9))
    p.add_argument("--apps", nargs="*", default=None, choices=APPLICATIONS)
    p.add_argument("--sizes-limit", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("fig10", help="hit rate vs GT sweep")
    p.add_argument("--app", default="gromacs", choices=APPLICATIONS)
    p.add_argument("--sizes", nargs="*", type=int, default=[64, 128])
    common(p)
    p.set_defaults(func=_cmd_fig10)

    p = sub.add_parser("cell", help="one (app, nranks) pipeline run")
    p.add_argument("--app", required=True, choices=APPLICATIONS)
    p.add_argument("--nranks", type=int, required=True)
    p.add_argument("--displacement", type=float, default=0.01)
    topology_option(p)
    common(p)
    p.set_defaults(func=_cmd_cell)

    p = sub.add_parser(
        "topo-sweep",
        help="energy savings vs topology family (paper workloads x "
             "families x nranks)",
    )
    p.add_argument("--apps", nargs="*", default=None, choices=APPLICATIONS)
    p.add_argument("--nranks", nargs="*", type=int, default=[16])
    p.add_argument(
        "--topologies", nargs="*", default=None,
        help="topology specs 'family[:key=value,...]' (default: fitted + "
             "torus + dragonfly + fattree2). Families: " + topology_help(),
    )
    p.add_argument(
        "--policies", nargs="*", default=None,
        help="power-policy specs (default: the paper's HCA-only gating). "
             "Grammar: " + policy_help(),
    )
    p.add_argument("--displacement", type=float, default=0.05)
    p.add_argument("--verify", action="store_true",
                   help="re-run every cell on the reference replay kernel "
                        "and fail on any fast/reference divergence")
    common(p)
    p.set_defaults(func=_cmd_topo_sweep)

    p = sub.add_parser(
        "fault-sweep",
        help="savings/slowdown vs fault rate x topology (deterministic "
             "fault injection; partition-safe, crash/hang-proof grid)",
    )
    p.add_argument("--apps", nargs="*", default=None, choices=APPLICATIONS)
    p.add_argument("--nranks", nargs="*", type=int, default=[8])
    p.add_argument(
        "--topologies", nargs="*", default=None,
        help="topology specs 'family[:key=value,...]' (default: fitted + "
             "torus + dragonfly + fattree2). Families: " + topology_help(),
    )
    p.add_argument(
        "--faults", nargs="*", default=None,
        help="fault specs (default: 'none' + a moderate schedule). "
             "Grammar: " + faults_help(),
    )
    p.add_argument("--displacement", type=float, default=0.05)
    p.add_argument("--verify", action="store_true",
                   help="re-run every cell on the reference replay kernel "
                        "and fail on any fast/reference divergence — "
                        "including divergent partitions")
    p.add_argument("--cell-timeout", type=float, default=None,
                   help="per-cell wall-clock timeout in seconds "
                        "(default: REPRO_CELL_TIMEOUT_S or none)")
    p.add_argument("--cell-retries", type=int, default=None,
                   help="re-attempts for crashed/stalled cells "
                        "(default: REPRO_CELL_RETRIES or 2)")
    p.add_argument("--checkpoint", default=None,
                   help="journal file: completed cells are appended and a "
                        "rerun resumes from it")
    common(p)
    p.set_defaults(func=_cmd_fault_sweep)

    p = sub.add_parser(
        "cluster-sweep",
        help="multi-job streams on one shared fabric: per-tenant savings "
             "and slowdown-vs-isolated x placement x topology",
    )
    p.add_argument(
        "--jobs", nargs="*", default=None,
        help="job-stream specs (default: a static pair + a two-tenant "
             "Poisson mix). Grammar: " + jobs_help(),
    )
    p.add_argument(
        "--placements", nargs="*", default=None,
        choices=PLACEMENT_POLICIES,
        help="host-placement policies (default: packed + spread)",
    )
    p.add_argument(
        "--topologies", nargs="*", default=None,
        help="topology specs 'family[:key=value,...]' (default: fitted + "
             "torus). Families: " + topology_help(),
    )
    p.add_argument("--num-hosts", type=int, default=None,
                   help="shared-fabric host count (default: every job at "
                        "once when the family allows, else the family's "
                        "natural size — the FCFS queue absorbs overflow)")
    p.add_argument("--displacement", type=float, default=0.05)
    p.add_argument("--faults", default="none",
                   help="fault spec armed on the shared fabric "
                        "(isolated references stay pristine). Grammar: "
                        + faults_help())
    p.add_argument("--verify", action="store_true",
                   help="re-run every cell on the reference kernel, fail "
                        "on any divergence, and check the per-job "
                        "energy-sum invariant")
    p.add_argument("--cell-timeout", type=float, default=None,
                   help="per-cell wall-clock timeout in seconds "
                        "(default: REPRO_CELL_TIMEOUT_S or none)")
    p.add_argument("--cell-retries", type=int, default=None,
                   help="re-attempts for crashed/stalled cells "
                        "(default: REPRO_CELL_RETRIES or 2)")
    p.add_argument("--checkpoint", default=None,
                   help="journal file: completed cells are appended and a "
                        "rerun resumes from it")
    common(p)
    p.set_defaults(func=_cmd_cluster_sweep)

    p = sub.add_parser("timeline", help="Fig. 6 power-mode timeline")
    p.add_argument("--app", default="gromacs", choices=APPLICATIONS)
    p.add_argument("--nranks", type=int, default=16)
    p.add_argument("--displacement", type=float, default=0.10)
    p.add_argument("--bins", type=int, default=96)
    common(p)
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser("gen", help="write a synthetic trace to a .dim file")
    p.add_argument("--app", required=True, choices=APPLICATIONS)
    p.add_argument("--nranks", type=int, required=True)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--scaling", default="strong", choices=("strong", "weak"))
    p.add_argument("-o", "--output", required=True)
    common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("replay", help="full pipeline on a trace file")
    p.add_argument("trace", help="path to a .dim trace file")
    p.add_argument("--displacement", type=float, default=0.01)
    p.add_argument("--kernel", default="fast", choices=("fast", "reference"),
                   help="replay kernel: compiled programs + flat hop "
                        "tables (fast) or the record interpreter + "
                        "per-message route walk (reference); bit-for-bit "
                        "identical")
    topology_option(p)
    common(p)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("bench", help="pipeline perf-regression benchmark")
    p.add_argument("--app", default="alya", choices=APPLICATIONS)
    p.add_argument("--nranks", type=int, default=64)
    p.add_argument("--smoke", action="store_true",
                   help="compare against the recorded reference JSON and "
                        "fail on a >3x stage slowdown (iterations "
                        "defaults to 10)")
    p.add_argument("--profile", action="store_true",
                   help="capture the replay stages under cProfile, print "
                        "the top functions and dump the stats next to the "
                        "benchmark output")
    p.add_argument("--faults", default="none",
                   help="fault spec for the replay stages (default none; "
                        "faulted benchmarks are written/compared "
                        "separately from the clean reference). Grammar: "
                        + faults_help())
    p.add_argument("--policy", default=None,
                   help="power-policy spec for the managed replays "
                        "(default: the paper's HCA-only gating; "
                        "non-default recordings are written/compared "
                        "separately). Grammar: " + policy_help())
    topology_option(p)
    common(p)
    p.set_defaults(func=_cmd_bench)

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
    p.add_argument("--deadline", type=float, default=None,
                   help="default per-request deadline in seconds (default: "
                        "REPRO_SERVICE_TIMEOUT_S or none)")
    p.add_argument("--cache-cells", type=_positive_int, default=None,
                   help="LRU capacity for warm cell artefact bundles "
                        "(default: REPRO_SERVICE_CACHE_CELLS or 8)")
    p.add_argument("--retries", type=int, default=None,
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
    p.add_argument("--nranks", type=int, default=8)
    p.add_argument("--displacement", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scaling", default=None, choices=("strong", "weak"))
    p.add_argument("--kernel", default=None, choices=("fast", "reference"))
    p.add_argument("--topology", default=None,
                   help="topology spec 'family[:key=value,...]'. Families: "
                        + topology_help())
    p.add_argument("--faults", default=None,
                   help="fault spec (default none). Grammar: "
                        + faults_help())
    p.add_argument("--policy", default=None,
                   help="power-policy spec. Grammar: " + policy_help())
    p.add_argument("--timeout", type=float, default=None,
                   help="server-side deadline for this request in seconds; "
                        "expiry returns a structured DEADLINE_EXCEEDED "
                        "error (exit code 4)")
    p.add_argument("--retries", type=int, default=3,
                   help="client retries for connect failures and "
                        "SERVICE_BUSY sheds, with capped jittered "
                        "exponential backoff (default 3)")
    p.add_argument("--connect-timeout", type=float, default=5.0,
                   help="socket connect timeout in seconds (default 5)")
    p.set_defaults(func=_cmd_query, workers=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    workers = getattr(args, "workers", None)
    if workers is None:
        args.func(args)
        return 0
    # one env knob reaches every per-rank pass below the experiment
    # drivers without threading a parameter through each of them;
    # restored afterwards so programmatic main() calls don't leak
    # parallelism into the rest of the process
    previous = os.environ.get("REPRO_WORKERS")
    os.environ["REPRO_WORKERS"] = str(workers)
    try:
        args.func(args)
    finally:
        if previous is None:
            del os.environ["REPRO_WORKERS"]
        else:
            os.environ["REPRO_WORKERS"] = previous
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
