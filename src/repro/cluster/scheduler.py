"""The cluster scheduler: admission of a job stream onto one composition.

A :class:`ClusterScheduler` admits a stream of :class:`ClusterJob`\\ s
(FCFS, with arrival times realised as engine events), places each on
free hosts (:mod:`repro.cluster.placement`) and admits it as its own
world into one :class:`~repro.sim.dimemas.Composition` — the same
engine/fabric/power-domain object a single-job replay runs in.  Each
job keeps its own compiled trace, matching layer, collective tag space
and power directives; jobs interact **only** through shared link
occupancy (trunk contention), the shared fabric-level power controllers
(trunk/switch policies) and, under fault injection, the shared fault
timeline.

Power accounting across tenants: each admitted job opens an HCA
controller *episode* per host at its admission time.  An episode stays
open past job completion — the link idles in its last programmed state
until the host is handed to the next tenant (which reactivates the
lanes and closes the old account) or the run ends, the single-job
convention (accounts close at the engine's final time).  One job
admitted at t=0 is therefore exactly the single-job replay
(``tests/cluster/test_scheduler.py`` pins it under every power policy).

Determinism contract: ``(seed, topology, job stream) -> identical
timeline``.  Admissions are engine events ordered by ``(time, seq)``;
placement is deterministic per (policy, free set, seed, job index); no
draw depends on wall clock, ``hash()`` or dict iteration over
non-deterministic keys.  The cluster differential tier
(``tests/sim/test_differential_cluster.py``) pins the fast kernel
bit-for-bit to the ``"reference"`` kernel oracle, multi-job, on three
topology families, under faults and under non-default power policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..power.states import WRPSParams
from ..sim.dimemas import Composition, ReplayConfig, check_rank_inputs
from ..sim.mpi import MPIWorld
from ..sim.program import CompiledTrace
from ..sim.results import ManagedResult
from ..trace.trace import Trace
from .jobs import Job
from .placement import PLACEMENT_POLICIES, PlacementError, leaf_groups, place_job


@dataclass(slots=True)
class ClusterJob:
    """One stream entry with its prepared replay inputs.

    The driver (``repro.experiments.cluster_sweep``) builds these from
    the isolated per-job pipeline: ``programs`` is the compiled program
    set for the fast kernel (directive-woven for a managed run, the
    base set for a baseline run; ``None`` on the reference kernel,
    which interprets ``trace`` records), ``directives`` the per-rank
    directive dicts for the reference kernel, and
    ``isolated_exec_time_us`` the job's *isolated* managed span — the
    reference for slowdown-vs-isolated.

    ``trace`` is the job's :class:`~repro.trace.trace.Trace` — which
    only the reference kernel needs — or, on the fast kernel, its base
    :class:`~repro.sim.program.CompiledTrace`: either one names the job
    (``name``, ``nranks``, ``total_records``), so a warm cluster replay
    never regenerates a trace.
    """

    job: Job
    trace: Trace | CompiledTrace
    programs: object | None = None
    directives: Sequence[dict] | None = None
    grouping_thresholds_us: Sequence[float] = ()
    isolated_exec_time_us: float = 0.0
    displacement: float = 0.0


@dataclass(slots=True)
class JobAttribution:
    """Cluster-side identity + rollup of one job (``ManagedResult.cluster``)."""

    index: int
    app: str
    tenant: str
    arrival_us: float
    start_us: float
    finish_us: float
    hosts: tuple[int, ...]
    #: energy (us at nominal power) integrated over the job's HCA-link
    #: episodes — its attributed share of fabric link energy
    link_energy_us: float = 0.0
    #: the same job replayed alone on a right-sized fabric (managed)
    isolated_exec_time_us: float = 0.0

    @property
    def span_us(self) -> float:
        return self.finish_us - self.start_us

    @property
    def queue_wait_us(self) -> float:
        return self.start_us - self.arrival_us

    @property
    def slowdown_vs_isolated_pct(self) -> float:
        if self.isolated_exec_time_us <= 0:
            return 0.0
        return 100.0 * (self.span_us / self.isolated_exec_time_us - 1.0)


@dataclass(slots=True)
class JobSpan:
    """One job's window in a cluster *baseline* replay."""

    job: Job
    hosts: tuple[int, ...]
    start_us: float
    finish_us: float
    event_logs: list = field(default_factory=list)

    @property
    def span_us(self) -> float:
        return self.finish_us - self.start_us

    @property
    def queue_wait_us(self) -> float:
        return self.start_us - self.job.arrival_us


@dataclass(frozen=True, slots=True)
class TenantRollup:
    """Per-tenant aggregation over a cluster managed replay."""

    tenant: str
    jobs: int
    link_energy_us: float
    mean_savings_pct: float
    mean_slowdown_vs_isolated_pct: float
    mean_queue_wait_us: float


@dataclass(slots=True)
class ClusterBaselineResult:
    """Outcome of a multi-job replay with always-on links."""

    topology: str
    num_hosts: int
    exec_time_us: float
    jobs: list[JobSpan]
    messages_sent: int
    bytes_carried: int
    helper_spawns: int = 0
    faults: object | None = None


@dataclass(slots=True)
class ClusterResult:
    """Outcome of a multi-job replay with per-job power management.

    ``jobs[i]`` is a full :class:`~repro.sim.results.ManagedResult`
    whose ``cluster`` field carries the :class:`JobAttribution` and
    whose class rows cover its HCA episodes; ``class_savings`` holds the
    fabric-level trunk/switch rows, whose controllers span the whole
    run.  ``fabric_link_energy_us`` is integrated independently over the
    HCA episode registry, so ``energy_mismatch_us()`` is a real
    consistency check (a mis-attributed or dropped episode shows up as
    a nonzero mismatch), not an identity.
    """

    topology: str
    num_hosts: int
    exec_time_us: float
    jobs: list[ManagedResult]
    tenants: dict[str, TenantRollup]
    fabric_link_energy_us: float
    helper_spawns: int = 0
    faults: object | None = None
    class_savings: tuple = ()

    @property
    def job_link_energy_sum_us(self) -> float:
        return sum(m.cluster.link_energy_us for m in self.jobs)

    def energy_mismatch_us(self) -> float:
        """|fabric-level total - sum of per-job rollups| (want ~0)."""

        return abs(self.fabric_link_energy_us - self.job_link_energy_sum_us)


@dataclass(slots=True)
class _JobRun:
    cj: ClusterJob
    live_ranks: int
    hosts: tuple[int, ...] = ()
    world: MPIWorld | None = None
    start_us: float = -1.0
    finish_us: float = -1.0
    rank_links: list | None = None


class ClusterScheduler:
    """Admits a job stream onto one shared fabric and runs it.

    One instance runs one replay (baseline or managed, per
    ``managed=``; a managed run honours ``config.policy``); build a
    fresh scheduler per run, exactly as the single-job drivers build a
    fresh composition per replay.  The fabric may be shared across runs
    (it is ``reset()`` like the single-job ``fabric=`` idiom).
    """

    def __init__(
        self,
        cluster_jobs: Sequence[ClusterJob],
        config: ReplayConfig | None = None,
        *,
        num_hosts: int | None = None,
        placement: str = "packed",
        managed: bool = False,
        wrps: WRPSParams | None = None,
        fabric=None,
    ) -> None:
        if not cluster_jobs:
            raise ValueError("need at least one job")
        if placement not in PLACEMENT_POLICIES:
            raise PlacementError(
                f"unknown placement policy {placement!r}; pick one of "
                f"{', '.join(PLACEMENT_POLICIES)}"
            )
        self.cfg = config or ReplayConfig()
        # FCFS admission order: by arrival time, stream index the
        # deterministic tie-break
        self.cluster_jobs = sorted(
            cluster_jobs, key=lambda cj: (cj.job.arrival_us, cj.job.index)
        )
        if len({cj.job.index for cj in self.cluster_jobs}) != len(
            self.cluster_jobs
        ):
            raise ValueError("job indices must be unique within a stream")
        fast = self.cfg.kernel != "reference"
        for cj in self.cluster_jobs:
            try:
                check_rank_inputs(
                    cj.job.nranks, trace=cj.trace, programs=cj.programs,
                    directives=cj.directives,
                )
            except ValueError as exc:
                raise ValueError(f"job {cj.job.index}: {exc}") from None
            interpreted = not fast or cj.programs is None
            if interpreted and not isinstance(cj.trace, Trace):
                raise ValueError(
                    f"job {cj.job.index}: the reference kernel interprets "
                    "trace records — give the ClusterJob its Trace"
                )
        if num_hosts is None:
            num_hosts = sum(cj.job.nranks for cj in self.cluster_jobs)
        biggest = max(cj.job.nranks for cj in self.cluster_jobs)
        if biggest > num_hosts:
            raise ValueError(
                f"job needs {biggest} hosts but the cluster has only "
                f"{num_hosts} — it could never be admitted"
            )
        self.num_hosts = num_hosts
        self.placement = placement
        self.managed = managed
        self.composition = Composition(
            self.cfg, num_hosts, fabric=fabric, managed=managed, wrps=wrps
        )
        self.fabric = self.composition.fabric
        self.engine = self.composition.engine
        self._groups = leaf_groups(self.fabric.topo)
        self._free: set[int] = set(range(self.fabric.topo.num_hosts))
        self._pending: list[_JobRun] = []  # FIFO queue of unplaced jobs
        self._runs: list[_JobRun] = []

    # -- admission -----------------------------------------------------------

    def _arrive(self, run: _JobRun) -> None:
        self._pending.append(run)
        self._drain()

    def _drain(self) -> None:
        # strict FCFS: the queue head blocks later (smaller) jobs — no
        # backfilling, so admission order never depends on timing luck
        while self._pending:
            run = self._pending[0]
            hosts = place_job(
                self.placement,
                self._groups,
                self._free,
                run.cj.job.nranks,
                seed=self.cfg.seed,
                job_index=run.cj.job.index,
            )
            if hosts is None:
                return
            self._pending.pop(0)
            self._launch(run, hosts)

    def _launch(self, run: _JobRun, hosts: tuple[int, ...]) -> None:
        cj = run.cj
        self._free.difference_update(hosts)
        run.hosts = hosts
        run.start_us = self.engine.now
        programs = cj.programs if self.cfg.kernel != "reference" else None
        if programs is not None:
            # routes for every global pair this job communicates on,
            # before its first byte (the subnet-manager convention)
            self.fabric.precompile_pairs(
                {(hosts[s], hosts[d]) for s, d in programs.comm_pair_set}
            )
        run.world, run.rank_links = self.composition.admit(
            hosts, cj.trace, programs, cj.directives,
            name=f"job{cj.job.index}:", on_exit=lambda: self._rank_exit(run),
        )
        self._runs.append(run)

    def _rank_exit(self, run: _JobRun) -> None:
        run.live_ranks -= 1
        if run.live_ranks == 0:
            run.finish_us = self.engine.now
            # hosts free immediately; the HCA episodes stay open (the
            # link idles in its last programmed state) until handoff or
            # end of run — see the module docstring
            self._free.update(run.hosts)
            self._drain()

    # -- the run -------------------------------------------------------------

    def run(self) -> float:
        """Replay the whole stream; returns the cluster makespan."""

        for cj in self.cluster_jobs:
            run = _JobRun(cj=cj, live_ranks=cj.job.nranks)
            self.engine.call_at(
                cj.job.arrival_us, (lambda r=run: self._arrive(r))
            )
        self.exec_time_us = self.composition.run()
        return self.exec_time_us

    # -- result assembly -----------------------------------------------------

    def baseline_result(self) -> ClusterBaselineResult:
        spans = [
            JobSpan(
                job=run.cj.job,
                hosts=run.hosts,
                start_us=run.start_us,
                finish_us=run.finish_us,
                event_logs=run.world.event_logs,
            )
            for run in self._runs
        ]
        return ClusterBaselineResult(
            topology=self.cfg.topology,
            num_hosts=self.num_hosts,
            exec_time_us=self.exec_time_us,
            jobs=spans,
            messages_sent=self.fabric.messages_sent,
            bytes_carried=self.fabric.total_bytes_carried(),
            helper_spawns=self.composition.helper_spawns,
            faults=self.composition.fault_summary(),
        )

    def managed_result(self) -> ClusterResult:
        comp = self.composition
        job_results: list[ManagedResult] = []
        for run in self._runs:
            cj = run.cj
            # every episode is already closed (handoff or end-of-run), so
            # savings integrate over each account's own absolute window
            mr = comp.managed_result(
                run.world,
                run.rank_links,
                run.hosts,
                trace_name=cj.trace.name,
                exec_time_us=run.finish_us - run.start_us,
                baseline_exec_time_us=cj.isolated_exec_time_us,
                displacement=cj.displacement,
                grouping_thresholds_us=list(cj.grouping_thresholds_us),
            )
            mr.cluster = JobAttribution(
                index=cj.job.index,
                app=cj.job.app,
                tenant=cj.job.tenant,
                arrival_us=cj.job.arrival_us,
                start_us=run.start_us,
                finish_us=run.finish_us,
                hosts=run.hosts,
                link_energy_us=sum(a.energy() for a in mr.accounts),
                isolated_exec_time_us=cj.isolated_exec_time_us,
            )
            job_results.append(mr)
        tenants: dict[str, list[ManagedResult]] = {}
        for mr in job_results:
            tenants.setdefault(mr.cluster.tenant, []).append(mr)
        rollups = {
            tenant: TenantRollup(
                tenant=tenant,
                jobs=len(group),
                link_energy_us=sum(
                    m.cluster.link_energy_us for m in group
                ),
                mean_savings_pct=sum(
                    m.power_savings_pct for m in group
                ) / len(group),
                mean_slowdown_vs_isolated_pct=sum(
                    m.cluster.slowdown_vs_isolated_pct for m in group
                ) / len(group),
                mean_queue_wait_us=sum(
                    m.cluster.queue_wait_us for m in group
                ) / len(group),
            )
            for tenant, group in sorted(tenants.items())
        }
        return ClusterResult(
            topology=self.cfg.topology,
            num_hosts=self.num_hosts,
            exec_time_us=self.exec_time_us,
            jobs=job_results,
            tenants=rollups,
            # integrated over the episode registry, independent of the
            # per-job lists — the energy-sum consistency check's left arm
            fabric_link_energy_us=sum(
                ml.account.energy() for ml in comp.power.episodes
            ),
            helper_spawns=self.composition.helper_spawns,
            faults=comp.fault_summary(),
            class_savings=comp.power.fabric_rows(),
        )


def replay_cluster_baseline(
    cluster_jobs: Sequence[ClusterJob],
    config: ReplayConfig | None = None,
    *,
    num_hosts: int | None = None,
    placement: str = "packed",
    fabric=None,
) -> ClusterBaselineResult:
    """Run the stream with always-on links on one shared fabric."""

    sched = ClusterScheduler(
        cluster_jobs, config, num_hosts=num_hosts, placement=placement,
        managed=False, fabric=fabric,
    )
    sched.run()
    return sched.baseline_result()


def replay_cluster_managed(
    cluster_jobs: Sequence[ClusterJob],
    config: ReplayConfig | None = None,
    *,
    num_hosts: int | None = None,
    placement: str = "packed",
    wrps: WRPSParams | None = None,
    fabric=None,
) -> ClusterResult:
    """Run the stream with each job's power directives and the config's
    power policy applied."""

    sched = ClusterScheduler(
        cluster_jobs, config, num_hosts=num_hosts, placement=placement,
        managed=True, wrps=wrps, fabric=fabric,
    )
    sched.run()
    return sched.managed_result()
