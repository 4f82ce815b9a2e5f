"""Per-tenant savings/slowdown under multi-job contention: the cluster sweep.

Every other sweep replays one job at a time.  This one admits
a whole job *stream* (:mod:`repro.cluster.jobs`) onto one shared fabric
in each (topology, stream, placement) cell, pooled across cells and
reset after each (see below), and reports what multi-tenancy does to
the paper's metrics: per-job savings still come out of each
job's own directives, but concurrent jobs now contend on trunk links,
so the interesting column is **slowdown vs isolated** — each job's
in-cluster span against its own single-job managed replay.

Per-job pipeline: each distinct (app, nranks) in the stream runs the
full *isolated* pipeline once (:func:`~repro.experiments.common.
run_cell`, memoised and deduplicated via :func:`~repro.concurrency.
unique_by`) — baseline replay, GT selection, planning — and its
directives are carried into the cluster replay unchanged.  On a warm
memo a job costs one rebind and one weave: the fast kernel replays the
cell's compiled programs and the reference kernel, which interprets
records, the trace the cell keeps, so no trace is regenerated.  The
isolated reference always runs on a pristine fabric, even when the
cluster replay is faulted: the planning side has no knowledge of the
fault schedule (it plans from clean baseline gaps), and the
slowdown-vs-isolated column should isolate *contention + faults*
against a clean yardstick.

The shared fabric is checked out of the pipeline's fabric pool
(:func:`~repro.experiments.common.checked_out`), like every single-job
replay's: every cell with the same host count and build signature
(seed, topology, routing) replays on one fabric whose routes and hop
tables were compiled once, and the pool resets it after the cell's
replays, on return and on a raise, so the next cell starts pristine.

Each cell runs through :func:`~repro.experiments.sweep.sweep_cell`, the
body the single-job sweep runs too: a partitioned cell becomes a
``partitioned`` row instead of killing the grid, and ``verify=True``
re-runs the cell on the reference kernel and asserts bit-for-bit
equality of :func:`cluster_observables`.  Every run also passes the
energy-sum consistency check (per-job attributed link energy must sum
to the fabric-level total integrated over the independent episode
registry).  The grid fans out through
:func:`~repro.concurrency.run_resilient` with journal checkpointing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from ..cluster import (
    PLACEMENT_POLICIES,
    ClusterBaselineResult,
    ClusterJob,
    ClusterResult,
    Job,
    parse_jobs,
    replay_cluster_baseline,
    replay_cluster_managed,
)
from ..concurrency import (
    resolve_cell_retries,
    resolve_cell_timeout,
    resolve_workers,
    run_resilient,
    unique_by,
)
from ..network.faults import NO_FAULTS, FabricPartitioned, parse_faults
from ..network.topologies import DEFAULT_TOPOLOGY, build_topology
from ..power.states import WRPSParams
from ..sim.dimemas import ReplayConfig
from ..specs import SpecError
from .common import checked_out, default_iterations, run_cell
from .sweep import sweep_cell

#: the default stream axis: a deterministic two-job stream (the control
#: — light contention) + a three-job two-tenant Poisson mix
DEFAULT_JOB_STREAMS: tuple[str, ...] = (
    "static:n=2,gap_us=2000,ranks=8",
    "poisson:n=3,mean_gap_us=1500,seed=3,apps=alya|gromacs,ranks=8|4,tenants=2",
)

#: the default placement axis: locality-best vs contention-worst
DEFAULT_PLACEMENTS: tuple[str, ...] = ("packed", "spread")

#: topology families exercised by default (fitted grows with the
#: stream; the torus is fixed-size, so streams overflow into the queue)
DEFAULT_CLUSTER_TOPOLOGIES: tuple[str, ...] = (
    "fitted",
    "torus:n=2",
)

#: relative tolerance of the energy-sum consistency check: the fabric
#: total and the per-job sums accumulate the same interval integrals in
#: different orders, so only float re-association separates them
ENERGY_SUM_RTOL = 1e-9


@dataclass(slots=True)
class ClusterCell:
    """Everything one (topology, stream, placement) cell produced."""

    jobs: tuple[Job, ...]
    placement: str
    num_hosts: int
    baseline: ClusterBaselineResult
    managed: ClusterResult


def resolve_cluster_hosts(topology: str, jobs: Sequence[Job]) -> int:
    """Host count for a stream: every job at once if the family allows.

    The fitted family grows with demand, so the fabric is sized for the
    whole stream running concurrently; a fixed-size family (a ``torus``
    with its arities given) caps at its natural size and the scheduler's
    FCFS queue absorbs the overflow.  A family too small for even the
    largest single job fails here, named.
    """

    return _cluster_hosts(
        topology, sum(job.nranks for job in jobs),
        max(job.nranks for job in jobs),
    )


@functools.lru_cache(maxsize=256)
def _cluster_hosts(topology: str, desired: int, biggest: int) -> int:
    """:func:`resolve_cluster_hosts` on its pure inputs, memoised: the
    topology built to size the cluster is thrown away."""

    try:
        return build_topology(topology, desired).num_hosts
    except ValueError:
        return build_topology(topology, biggest).num_hosts


def run_cluster_cell(
    jobs_spec: str,
    *,
    placement: str = "packed",
    num_hosts: int | None = None,
    displacement: float = 0.05,
    iterations: int | None = None,
    seed: int = 1234,
    topology: str = DEFAULT_TOPOLOGY,
    kernel: str = "fast",
    faults: str = NO_FAULTS,
) -> ClusterCell:
    """Run the full multi-job pipeline for one cell.

    Isolated single-job pipelines (one per distinct (app, nranks), on a
    pristine fabric — see the module docstring) produce each job's
    directives and its slowdown yardstick; then the whole stream replays
    twice on a pooled fabric, baseline and managed.
    """

    jobs = parse_jobs(jobs_spec)
    iters = iterations if iterations is not None else default_iterations()
    cfg = ReplayConfig(
        seed=seed, topology=topology, kernel=kernel, faults=faults,
    )
    if num_hosts is None:
        num_hosts = resolve_cluster_hosts(topology, jobs)

    # one isolated pipeline per distinct workload shape, not per job
    unique, index_of = unique_by(jobs, key=lambda j: (j.app, j.nranks))
    prepared = []
    for job in unique:
        cell = run_cell(
            job.app, job.nranks, displacements=(displacement,),
            iterations=iters, seed=seed, topology=topology, kernel=kernel,
        )
        directives, _stats = cell.plan.rebind_displacement(displacement)
        fast = kernel != "reference"
        prepared.append(
            dict(
                # the fast kernel replays the cell's compiled programs;
                # only the reference interpreter needs the records
                trace=cell.programs if fast else cell.trace,
                base_programs=cell.programs if fast else None,
                woven_programs=(
                    cell.programs.with_directives(directives) if fast
                    else None
                ),
                directives=directives,
                gt_us=cell.planned_gt_us,
                isolated_exec_time_us=cell.managed[displacement].exec_time_us,
            )
        )

    def cluster_jobs(managed: bool) -> list[ClusterJob]:
        out = []
        for job, slot in zip(jobs, index_of):
            p = prepared[slot]
            out.append(
                ClusterJob(
                    job=job,
                    trace=p["trace"],
                    programs=(
                        p["woven_programs"] if managed
                        else p["base_programs"]
                    ),
                    directives=p["directives"] if managed else None,
                    grouping_thresholds_us=[p["gt_us"]] * job.nranks,
                    isolated_exec_time_us=p["isolated_exec_time_us"],
                    displacement=displacement,
                )
            )
        return out

    # one pooled fabric for both replays; the scheduler compiles each
    # job's pairs at its placement
    with checked_out(num_hosts, cfg) as fabric:
        baseline = replay_cluster_baseline(
            cluster_jobs(managed=False), cfg, num_hosts=num_hosts,
            placement=placement, fabric=fabric,
        )
        managed = replay_cluster_managed(
            cluster_jobs(managed=True), cfg, num_hosts=num_hosts,
            placement=placement, wrps=WRPSParams.paper(), fabric=fabric,
        )
    return ClusterCell(
        jobs=jobs,
        placement=placement,
        num_hosts=num_hosts,
        baseline=baseline,
        managed=managed,
    )


@dataclass(frozen=True, slots=True)
class ClusterSweepRow:
    """One (topology, stream, placement) cell of the sweep."""

    topology: str
    jobs_spec: str
    placement: str
    status: str  # "ok" or "partitioned"
    njobs: int
    num_hosts: int
    makespan_us: float
    mean_savings_pct: float
    mean_slowdown_pct: float  # vs each job's own isolated managed run
    mean_queue_wait_us: float
    energy_mismatch_us: float
    wake_timeouts: int
    detail: str = ""

    def cells(self) -> tuple:
        return (
            self.topology, self.jobs_spec, self.placement, self.status,
            self.njobs, self.num_hosts, self.makespan_us,
            self.mean_savings_pct, self.mean_slowdown_pct,
            self.mean_queue_wait_us, self.energy_mismatch_us,
            self.wake_timeouts, self.detail,
        )


def check_energy_sum(managed: ClusterResult) -> None:
    """Assert per-job link energies sum to the fabric-level total."""

    mismatch = managed.energy_mismatch_us()
    tol = ENERGY_SUM_RTOL * max(1.0, managed.fabric_link_energy_us)
    if mismatch > tol:
        raise AssertionError(
            f"per-job link energies sum to within {mismatch} us of the "
            f"fabric total {managed.fabric_link_energy_us} us "
            f"(tolerance {tol}) — a link episode was dropped or "
            "double-attributed"
        )


def cluster_observables(spec: dict, cell: ClusterCell) -> dict:
    """What ``verify`` requires the two kernels to agree on."""

    managed = cell.managed
    return {
        "baseline makespan": cell.baseline.exec_time_us,
        "managed makespan": managed.exec_time_us,
        "job spans": [m.exec_time_us for m in managed.jobs],
        "job windows": [(m.cluster.start_us, m.cluster.finish_us)
                        for m in managed.jobs],
        "job placements": [m.cluster.hosts for m in managed.jobs],
        "job savings": [m.power for m in managed.jobs],
        "event streams": [m.event_logs for m in managed.jobs],
        "fabric energy": managed.fabric_link_energy_us,
        "tenants": managed.tenants,
        "faults": managed.faults,
    }


def _checked_cluster_cell(**spec) -> ClusterCell:
    """:func:`run_cluster_cell` plus the energy-sum invariant, which
    every run of a sweep cell — fast or reference — must satisfy."""

    cell = run_cluster_cell(**spec)
    check_energy_sum(cell.managed)
    return cell


def _cluster_row(spec: dict, cell: ClusterCell) -> ClusterSweepRow:
    managed = cell.managed
    summary = managed.faults
    n = len(managed.jobs)
    return ClusterSweepRow(
        topology=spec["topology"],
        jobs_spec=spec["jobs_spec"],
        placement=spec["placement"],
        status="ok",
        njobs=n,
        num_hosts=cell.num_hosts,
        makespan_us=managed.exec_time_us,
        mean_savings_pct=sum(m.power_savings_pct for m in managed.jobs) / n,
        mean_slowdown_pct=sum(
            m.cluster.slowdown_vs_isolated_pct for m in managed.jobs
        ) / n,
        mean_queue_wait_us=sum(
            m.cluster.queue_wait_us for m in managed.jobs
        ) / n,
        energy_mismatch_us=managed.energy_mismatch_us(),
        wake_timeouts=summary.wake_timeouts if summary else 0,
    )


def _cluster_partition_row(
    spec: dict, exc: FabricPartitioned
) -> ClusterSweepRow:
    return ClusterSweepRow(
        topology=spec["topology"],
        jobs_spec=spec["jobs_spec"],
        placement=spec["placement"],
        status="partitioned",
        njobs=len(parse_jobs(spec["jobs_spec"])),
        num_hosts=0,
        makespan_us=0.0,
        mean_savings_pct=0.0,
        mean_slowdown_pct=0.0,
        mean_queue_wait_us=0.0,
        energy_mismatch_us=0.0,
        wake_timeouts=0,
        detail=str(exc),
    )


def _cluster_sweep_worker(job: dict) -> ClusterSweepRow:
    """One sweep cell, in a worker process or in-process (module-level
    for pickling); :func:`~repro.experiments.sweep.sweep_cell` runs it,
    so ``verify`` pins the reference kernel to the same observables or
    the same partition."""

    return sweep_cell(
        _checked_cluster_cell, job["spec"], verify=job["verify"],
        where=_job_label(job), observables=cluster_observables,
        row=_cluster_row, partition_row=_cluster_partition_row,
    )


def _job_label(job: dict) -> str:
    spec = job["spec"]
    return f"{spec['jobs_spec']} {spec['placement']} {spec['topology']}"


def run_cluster_sweep(
    job_streams: Sequence[str] | None = None,
    *,
    placements: Sequence[str] | None = None,
    topologies: Sequence[str] | None = None,
    num_hosts: int | None = None,
    displacement: float = 0.05,
    iterations: int | None = None,
    seed: int = 1234,
    faults: str = NO_FAULTS,
    workers: int | None = None,
    verify: bool = False,
    timeout_s: float | None = None,
    retries: int | None = None,
    checkpoint: str | None = None,
) -> list[ClusterSweepRow]:
    """The multi-tenancy table (topology-major row order).

    Stream, placement and fault specs are validated up front, and so is
    ``num_hosts`` against every stream's largest job; a typo fails the
    sweep before any cell runs.  Parallel output is bit-for-bit equal
    to serial (pinned by the cluster sweep tests).
    """

    job_streams = tuple(job_streams or DEFAULT_JOB_STREAMS)
    placements = tuple(placements or DEFAULT_PLACEMENTS)
    topologies = tuple(topologies or DEFAULT_CLUSTER_TOPOLOGIES)
    for stream in job_streams:
        # fail fast, with the spec named in the error
        biggest = max(job.nranks for job in parse_jobs(stream))
        if num_hosts is not None and num_hosts < biggest:
            raise SpecError(
                f"num_hosts={num_hosts} is smaller than the {biggest}-rank "
                f"job of stream {stream!r}: it could never be admitted"
            )
    for p in placements:
        if p not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {p!r}; pick from "
                f"{', '.join(PLACEMENT_POLICIES)}"
            )
    parse_faults(faults)
    if iterations is None:
        iterations = default_iterations()
    jobs = [
        {
            "spec": dict(
                jobs_spec=stream, placement=placement, num_hosts=num_hosts,
                displacement=displacement, iterations=iterations, seed=seed,
                topology=topology, faults=faults,
            ),
            "verify": verify,
        }
        for topology in topologies
        for stream in job_streams
        for placement in placements
    ]
    return run_resilient(
        _cluster_sweep_worker, jobs,
        workers=resolve_workers(workers),
        timeout_s=resolve_cell_timeout(timeout_s),
        retries=resolve_cell_retries(retries),
        label=_job_label,
        checkpoint=checkpoint,
    )


def format_cluster_sweep(rows: Sequence[ClusterSweepRow]) -> str:
    """Render the sweep as a table, grouped by (topology, stream)."""

    header = (
        f"{'Placement':10s} {'status':>11s} {'jobs':>4s} {'hosts':>5s} "
        f"{'makespan[us]':>12s} {'savings%':>9s} {'slowdn%':>8s} "
        f"{'wait[us]':>9s} {'wake':>5s}"
    )
    lines: list[str] = []
    previous = None
    for row in rows:
        group = (row.topology, row.jobs_spec)
        if group != previous:
            if previous is not None:
                lines.append("")
            lines.append(f"# {row.topology}  [{row.jobs_spec}]")
            lines.append(header)
            lines.append("-" * len(header))
            previous = group
        lines.append(
            f"{row.placement:10s} {row.status:>11s} {row.njobs:>4d} "
            f"{row.num_hosts:>5d} {row.makespan_us:>12.1f} "
            f"{row.mean_savings_pct:>9.2f} {row.mean_slowdown_pct:>8.3f} "
            f"{row.mean_queue_wait_us:>9.1f} {row.wake_timeouts:>5d}"
        )
        if row.status == "partitioned" and row.detail:
            lines.append(f"    -> {row.detail}")
    return "\n".join(lines)
