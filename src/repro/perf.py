"""Pipeline performance-regression benchmark (``BENCH_pipeline.json``).

Times every pipeline stage — trace generation, the baseline replay, the
GT sweep, the shared software-side planning pass, and the managed
replays — on a fixed seed, so successive PRs accumulate a wall-clock
trajectory.  ``python -m repro.cli bench`` runs it; ``--smoke`` compares
against the recorded reference JSON and fails on a >3x slowdown of any
stage (tolerant enough to absorb machine-to-machine noise, tight enough
to catch an accidental return to per-candidate or per-displacement
passes).

Schema 6 mirrors the ``run_cell`` replay structure (one shared fabric
and one compiled program set, reset/reused between replays) and times
the replay pipeline of the compiled-program fast kernel: a
``program_compile_s`` stage for the trace -> opcode lowering, the
default-path ``baseline_replay_s``/``managed_replay_s`` (the managed
stage runs the directive-compiled programs and includes the
per-displacement directive weave).  The config carries a **topology
dimension** (``--topology``, any family spec from
:mod:`repro.network.topologies`) and a **fault dimension**
(``--faults``, a spec from :mod:`repro.network.faults`; default
``"none"`` keeps every existing reference number untouched); timings
recorded on one (family, fault spec) pair never gate against a
reference recorded on another.  A
``replay_detail`` section records the fast-kernel instrumentation:
fabric build time, static-route pairs compiled and their compile time,
the collective schedule-cache hit/miss counters, the compiled
instruction count, a **helper-spawn counter** (0 by contract — the
zero-spawn rendezvous invariant; the bench refuses to record a
fast-kernel run that spawned helpers) and a ``managed`` list with
**per-displacement** stage timings, simulated exec times and per-run
spawn counts.  Every ``replay_detail`` counter is **per-run**, not
process-cumulative: the bench starts from a cleared schedule cache
(which also zeroes the hit/miss counters); for reporting against a
warm cache that must not be cleared,
``schedule_cache_stats(since=...)`` returns the equivalent
non-destructive delta.  Schema 9 additionally times the **simulation service** round trip: an
in-process :class:`repro.service.ServiceDaemon` is started on a
throwaway socket and queried twice for the same cell —
``query_cold_s`` pays the full pipeline plus the protocol overhead,
``query_warm_s`` must be served entirely from the daemon's warm caches
(the bench refuses to record a "warm" query that re-ran any pipeline
stage), so the recorded ratio *is* the service's value proposition and
a cache regression fails the recording itself.  The daemon's cache and
stage-run counters land in ``replay_detail["service"]``.
``replay_detail`` is informational — only
``stages`` is gated.  ``profile_path``
(``repro.cli bench --profile``) additionally captures the two
default-path replay stages under :mod:`cProfile` and dumps the stats
for offline ``pstats``/``snakeviz`` digging.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
from typing import Mapping, Sequence

from .constants import DISPLACEMENT_FACTORS

#: stage-level slowdown (current / reference) that fails the smoke gate
MAX_SLOWDOWN = 3.0

#: benchmark schema version (bump when stages change incomparably)
SCHEMA = 9


def _repo_root() -> pathlib.Path:
    """The checkout root when running from a source tree, else the cwd."""

    here = pathlib.Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "benchmarks").is_dir():
            return parent
    return pathlib.Path.cwd()


def _topology_slug(topology: str) -> str:
    """Filesystem-safe tag for a topology (or fault) spec string."""

    return "".join(c if c.isalnum() else "-" for c in topology).strip("-")


def _bench_name(
    topology: str, faults: str = "none", policy: str | None = None
) -> str:
    """One file per (topology, faults, policy) triple: recording a
    torus, a faulted or a trunk-managed reference never clobbers (or
    cross-gates against) the default clean fitted one."""

    from .power.policies import DEFAULT_POLICY

    name = "BENCH_pipeline"
    if topology != "fitted":
        name += f".{_topology_slug(topology)}"
    if faults != "none":
        name += f".{_topology_slug(faults)}"
    if policy is not None and policy != DEFAULT_POLICY:
        name += f".{_topology_slug(policy)}"
    return name + ".json"


def reference_path(
    topology: str = "fitted", faults: str = "none", policy: str | None = None
) -> pathlib.Path:
    """The smoke-gate reference for the (topology, faults, policy) triple."""

    return _repo_root() / "benchmarks" / _bench_name(topology, faults, policy)


def output_path(
    topology: str = "fitted", faults: str = "none", policy: str | None = None
) -> pathlib.Path:
    return (
        _repo_root() / "benchmarks" / "out"
        / _bench_name(topology, faults, policy)
    )


class _ReplayProfiler:
    """Optional cProfile capture around the replay stages."""

    def __init__(self, enabled: bool) -> None:
        self.profile = None
        if enabled:
            import cProfile

            self.profile = cProfile.Profile()

    def __enter__(self):
        if self.profile is not None:
            self.profile.enable()
        return self

    def __exit__(self, *exc):
        if self.profile is not None:
            self.profile.disable()
        return False

    def dump(self, path: pathlib.Path) -> None:
        assert self.profile is not None
        path.parent.mkdir(parents=True, exist_ok=True)
        self.profile.dump_stats(str(path))

    def top_lines(self, n: int = 25) -> str:
        import io
        import pstats

        assert self.profile is not None
        buf = io.StringIO()
        stats = pstats.Stats(self.profile, stream=buf)
        stats.sort_stats("cumulative").print_stats(n)
        return buf.getvalue()


def run_pipeline_benchmark(
    app: str = "alya",
    nranks: int = 64,
    iterations: int | None = None,
    seed: int = 1234,
    displacements: Sequence[float] = DISPLACEMENT_FACTORS,
    profile_path: pathlib.Path | str | None = None,
    topology: str = "fitted",
    faults: str = "none",
    policy: str | None = None,
) -> dict:
    """Time each pipeline stage once; returns the JSON-ready record.

    ``profile_path`` additionally runs the two replay stages under
    cProfile, dumps the stats there, and attaches the top functions to
    the returned record (``profile_top``).  ``topology`` selects the
    fabric family (a spec string), ``faults`` the fault-injection
    schedule (``"none"`` keeps the replay fault-free) and ``policy``
    the power-policy scenario (default: the paper's HCA-only gating);
    all three are part of the comparison key, so per-family, faulted
    and non-default-policy references never cross-gate against the
    clean ones.
    """

    from .concurrency import resolve_workers
    from .core import plan_trace_directives_shared, select_gt_detailed
    from .core.runtime import RuntimeConfig
    from .experiments.common import default_iterations
    from .power.states import WRPSParams
    from .sim import (
        ReplayConfig,
        compile_trace,
        fabric_for,
        replay_baseline,
        replay_managed,
    )
    from .sim.collectives import clear_schedule_cache, schedule_cache_stats
    from .workloads import make_trace

    from .power.policies import DEFAULT_POLICY

    iters = iterations if iterations is not None else default_iterations()
    params = WRPSParams.paper()
    policy = policy or DEFAULT_POLICY
    replay_cfg = ReplayConfig(
        seed=seed, topology=topology, faults=faults, policy=policy
    )
    stages: dict[str, float] = {}
    # cold schedule cache: stage timings stay reproducible whatever ran
    # in this process before, and it also zeroes the process-cumulative
    # hit/miss counters, so the replay_detail below is per-run by
    # construction (a reporter that must not clear a shared warm cache
    # would use ``schedule_cache_stats(since=...)`` instead)
    clear_schedule_cache()
    profiler = _ReplayProfiler(profile_path is not None)

    t0 = time.perf_counter()
    trace = make_trace(app, nranks, iterations=iters, seed=seed)
    stages["trace_generation_s"] = time.perf_counter() - t0

    # one compiled program set serves every replay below, like run_cell
    t0 = time.perf_counter()
    programs = compile_trace(trace)
    stages["program_compile_s"] = time.perf_counter() - t0

    # one fabric serves the baseline and every managed replay (reset
    # between runs), exactly like run_cell: construction and static
    # route/hop-table compilation (for the trace's communication pairs,
    # known from the compiled programs) are paid once per cell
    t0 = time.perf_counter()
    fabric = fabric_for(nranks, replay_cfg)
    fabric.precompile_pairs(programs.comm_pairs())
    stages["fabric_build_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    with profiler:
        baseline = replay_baseline(
            trace, replay_cfg, fabric=fabric, programs=programs
        )
    stages["baseline_replay_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    selection = select_gt_detailed(baseline.event_logs)
    stages["gt_sweep_s"] = time.perf_counter() - t0

    gt_us = max(selection.best.gt_us, params.min_worthwhile_idle_us)
    # planning covers the shared software-side pass *and* the
    # per-displacement directive re-emission (rebind) — both are
    # planning work, so the managed stage below times replays only
    t0 = time.perf_counter()
    plan = plan_trace_directives_shared(
        baseline.event_logs, RuntimeConfig(gt_us=gt_us, wrps=params)
    )
    bound = [(disp,) + plan.rebind_displacement(disp) for disp in displacements]
    stages["planning_pass_s"] = time.perf_counter() - t0

    managed_detail: list[dict] = []
    helper_spawns = baseline.helper_spawns
    t0 = time.perf_counter()
    with profiler:
        for disp, directives, stats in bound:
            t_disp = time.perf_counter()
            managed = replay_managed(
                trace,
                directives,
                baseline_exec_time_us=baseline.exec_time_us,
                displacement=disp,
                grouping_thresholds_us=[gt_us] * nranks,
                config=replay_cfg,
                wrps=params,
                runtime_stats=stats,
                fabric=fabric,
                programs=programs,
            )
            managed_detail.append(
                {
                    "displacement": disp,
                    "seconds": time.perf_counter() - t_disp,
                    "exec_time_us": managed.exec_time_us,
                    "helper_spawns": managed.helper_spawns,
                }
            )
            helper_spawns += managed.helper_spawns
    stages["managed_replay_s"] = time.perf_counter() - t0

    if replay_cfg.kernel == "fast" and helper_spawns != 0:
        # the zero-spawn invariant: every nonblocking/rendezvous
        # operation runs processlessly — a reintroduced helper spawn is
        # a regression the bench must not record as normal
        raise RuntimeError(
            f"fast kernel spawned {helper_spawns} helper process(es); "
            "the managed-replay fast path is spawn-free by contract"
        )

    # schema 9: the simulation-service round trip, cold then warm, via
    # a real socket against an in-process daemon — the warm query must
    # be served entirely from the daemon's caches (stage counters), so
    # the cold/warm ratio below is a recorded, gate-able fact
    service_stats = None
    if not profiler.profile:  # service timings are meaningless profiled
        import os
        import tempfile

        from .service import ServiceClient, ServiceConfig, ServiceDaemon

        sock = os.path.join(
            tempfile.mkdtemp(prefix="repro-bench-service-"), "bench.sock"
        )
        daemon = ServiceDaemon(ServiceConfig(socket_path=sock))
        daemon.start()
        try:
            client = ServiceClient(sock, retries=0)
            spec = dict(
                app=app, nranks=nranks, displacement=displacements[0],
                iterations=iters, seed=seed, topology=topology,
                faults=faults, policy=policy,
            )
            t0 = time.perf_counter()
            cold_reply = client.cell(**spec)
            stages["query_cold_s"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            warm_reply = client.cell(**spec)
            stages["query_warm_s"] = time.perf_counter() - t0
            if warm_reply["stages_ran"]:
                raise RuntimeError(
                    "service warm query re-ran pipeline stage(s) "
                    f"{warm_reply['stages_ran']}; a warm hit must cost "
                    "zero stages by contract"
                )
            if warm_reply["result"] != cold_reply["result"]:
                raise RuntimeError(
                    "service warm reply differs from the cold reply; "
                    "the warm == cold determinism contract is broken"
                )
            daemon_stats = daemon.stats()
            service_stats = {
                "caches": daemon_stats["caches"],
                "stage_runs": daemon_stats["stage_runs"],
            }
        finally:
            daemon.stop(drain=True)

    cache = schedule_cache_stats()
    result = {
        "schema": SCHEMA,
        "config": {
            "app": app,
            "nranks": nranks,
            "iterations": iters,
            "seed": seed,
            "displacements": list(displacements),
            # part of the comparison key: parallel timings must never be
            # gated against (or recorded as) a sequential reference
            "workers": resolve_workers(None),
            "kernel": replay_cfg.kernel,
            "topology": topology,
            "faults": faults,
            # schema 8: the power-policy scenario is part of the key —
            # a trunk/switch-managed replay does strictly more per-hop
            # work than the paper's HCA-only default and must never be
            # gated against (or recorded as) a default-policy reference
            "policy": policy,
            # single-job benchmark: schema 7 records the jobs dimension
            # explicitly so clean one-job timings are never compared
            # against a multi-job cluster recording
            "jobs": 1,
            "selected_gt_us": selection.best.gt_us,
            "hit_rate_pct": selection.best.hit_rate_pct,
        },
        "stages": stages,
        # informational fast-kernel instrumentation (not gated)
        "replay_detail": {
            "route_pairs_compiled": fabric.routes.pairs_compiled,
            "route_compile_s": fabric.routes.compile_seconds,
            "collective_schedule_hits": cache["hits"],
            "collective_schedule_misses": cache["misses"],
            "compiled_instructions": programs.total_instructions,
            # zero-spawn invariant: helper processes spawned across the
            # baseline + managed replays (0 by contract; the bench
            # refuses to record a fast-kernel run that spawned any)
            "helper_spawns": helper_spawns,
            # per-displacement managed stage timings (informational)
            "managed": managed_detail,
            # fault-injection outcome of the baseline replay (None when
            # faults are off — the clean schema is byte-stable)
            "faults": (
                None if baseline.faults is None
                else dataclasses.asdict(baseline.faults)
            ),
            # schema 9: daemon-side cache hit/miss/eviction counters and
            # per-stage run counts behind query_cold_s/query_warm_s
            # (None under --profile, where the service stages are skipped)
            "service": service_stats,
        },
    }
    if profile_path is not None:
        path = pathlib.Path(profile_path)
        profiler.dump(path)
        result["profile_top"] = profiler.top_lines()
        result["profile_path"] = str(path)
    return result


def write_benchmark(result: Mapping, path: pathlib.Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")


def compare_benchmark(
    result: Mapping, reference: Mapping, max_slowdown: float = MAX_SLOWDOWN
) -> list[str]:
    """Stage-level regressions of ``result`` vs ``reference``.

    Returns human-readable violation strings (empty = pass).  Configs
    must match for timings to be comparable; a mismatch is reported as a
    violation rather than silently compared.
    """

    if reference.get("schema") != result.get("schema"):
        return [
            f"benchmark schema changed "
            f"({reference.get('schema')} -> {result.get('schema')}); "
            "re-record the reference JSON"
        ]
    if reference.get("config") != result.get("config"):
        return [
            "benchmark config differs from the reference "
            f"({reference.get('config')} vs {result.get('config')}); "
            "re-record the reference JSON"
        ]
    problems: list[str] = []
    ref_stages: Mapping[str, float] = reference.get("stages", {})
    for stage, seconds in result.get("stages", {}).items():
        ref = ref_stages.get(stage)
        if ref is None:
            problems.append(f"stage {stage} missing from the reference")
            continue
        # a stage currently running in <20ms cannot be a meaningful
        # regression no matter the ratio (a 2ms reference stage jittering
        # to 7ms is scheduler noise); any real blow-up of a protected
        # stage (smallest reference ~10ms at 3x) clears this floor and
        # still trips the ratio test
        if seconds < 20e-3:
            continue
        ratio = seconds / ref if ref > 0 else float("inf")
        if ratio > max_slowdown:
            problems.append(
                f"{stage}: {seconds:.3f}s vs reference {ref:.3f}s "
                f"({ratio:.1f}x > {max_slowdown:.1f}x)"
            )
    return problems


def format_benchmark(result: Mapping) -> str:
    cfg = result["config"]
    lines = [
        f"pipeline benchmark: {cfg['app']} @ {cfg['nranks']} ranks, "
        f"{cfg['iterations']} iterations (seed {cfg['seed']}, "
        f"topology {cfg.get('topology', 'fitted')})",
        f"  selected GT {cfg['selected_gt_us']:.0f} us, "
        f"hit rate {cfg['hit_rate_pct']:.1f}%",
    ]
    if cfg.get("faults", "none") != "none":
        lines.append(f"  faults: {cfg['faults']}")
    for stage, seconds in result["stages"].items():
        lines.append(f"  {stage:22s} {seconds * 1e3:10.1f} ms")
    detail = result.get("replay_detail")
    if detail:
        lines.append(
            "  replay detail: "
            f"{detail['route_pairs_compiled']} route pairs compiled "
            f"in {detail['route_compile_s'] * 1e3:.1f} ms, "
            f"schedule cache {detail['collective_schedule_hits']} hits / "
            f"{detail['collective_schedule_misses']} misses, "
            f"{detail.get('compiled_instructions', 0)} compiled instructions, "
            f"{detail.get('helper_spawns', 0)} helper spawns"
        )
        for row in detail.get("managed", ()):
            lines.append(
                f"    managed d={row['displacement']:<5g} "
                f"{row['seconds'] * 1e3:8.1f} ms "
                f"(exec {row['exec_time_us'] / 1e3:.3f} ms, "
                f"{row['helper_spawns']} spawns)"
            )
        service = detail.get("service")
        if service:
            caches = service["caches"]
            lines.append(
                "  service detail: result cache "
                f"{caches['results']['hits']} hits / "
                f"{caches['results']['misses']} misses, "
                f"cells {caches['cells']['size']} resident"
            )
    return "\n".join(lines)
