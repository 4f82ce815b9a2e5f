"""The cluster scheduler: many jobs, one engine, one shared fabric.

Every replay in the repo so far owned its whole fabric.  This module
composes *several* replays onto one :class:`~repro.network.fabric.
Fabric`: a :class:`ClusterScheduler` admits a stream of
:class:`ClusterJob`\\ s (FCFS, with arrival times realised as engine
events), places each on free hosts (:mod:`repro.cluster.placement`),
and runs each job as its own :class:`~repro.sim.mpi.MPIWorld` over a
:class:`FabricSlice` — a rank->host translation view.  Each job keeps
its own compiled trace, matching layer, collective tag space and power
directives; jobs interact **only** through shared link occupancy (trunk
contention) and, under fault injection, through the shared fault
timeline.

Why a slice works: :class:`MPIWorld` touches its fabric through exactly
two members — ``topo.num_hosts`` (capacity validation) and
``transfer_hot`` (both kernels' transfer path) — so a thin view that
translates rank indices to global host indices composes worlds onto one
fabric with zero changes to the replay hot loops.

Power accounting across tenants: a shared ``managed`` dict (keyed by
link identity, as in ``replay_managed``) backs one power hook for all
jobs; each admitted job opens a :class:`~repro.power.controller.
ManagedLink` *episode* per HCA link at its admission time.  An episode
stays open past job completion — the link idles in its last programmed
state until the host is handed to the next tenant (which reactivates
the lanes and closes the old account) or the run ends.  That matches
the single-job convention (accounts close at the engine's final time),
which is what makes the isolation invariant exact: one job through the
cluster layer is bit-for-bit the plain ``replay_baseline`` /
``replay_managed`` path (pinned by ``tests/cluster/test_scheduler.py``).

Determinism contract: ``(seed, topology, job stream) -> identical
timeline``.  Admissions are engine events ordered by ``(time, seq)``;
placement is deterministic per (policy, free set, seed, job index); no
draw depends on wall clock, ``hash()`` or dict iteration over
non-deterministic keys.  The cluster differential tier
(``tests/sim/test_differential_cluster.py``) pins every (kernel,
scheduler) combination bit-for-bit to the ``("reference", "heap")``
oracle, multi-job, on three topology families, including a faulted
fabric.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

from ..network.faults import FabricPartitioned, parse_faults
from ..network.links import LinkPowerMode
from ..power.controller import ManagedLink
from ..power.model import aggregate
from ..power.policies import DEFAULT_POLICY, parse_policy
from ..power.states import WRPSParams
from ..power.switchpower import fabric_switch_rollup
from ..sim.dimemas import ReplayConfig, fabric_for
from ..sim.engine import Engine
from ..sim.mpi import MPIWorld
from ..sim.program import CompiledTrace
from ..sim.results import ManagedResult
from ..trace.trace import Trace
from .jobs import Job
from .placement import PLACEMENT_POLICIES, PlacementError, leaf_groups, place_job


class _SliceTopo:
    """The one topology member :class:`MPIWorld` reads: the host count."""

    __slots__ = ("num_hosts",)

    def __init__(self, num_hosts: int) -> None:
        self.num_hosts = num_hosts


class FabricSlice:
    """A job's rank->host windowed view of the shared fabric.

    ``hosts[rank]`` is the global host index carrying that rank; the
    slice forwards ``transfer_hot`` with both endpoints translated, so
    the job's traffic reserves the *shared* links (that is the whole
    point: trunk contention between jobs) while the job's code keeps
    addressing ranks 0..nranks-1.
    """

    __slots__ = ("fabric", "hosts", "topo")

    def __init__(self, fabric, hosts: Sequence[int]) -> None:
        hosts = tuple(hosts)
        if len(set(hosts)) != len(hosts):
            raise ValueError(f"placement repeats hosts: {hosts}")
        n = fabric.topo.num_hosts
        for h in hosts:
            if not 0 <= h < n:
                raise ValueError(
                    f"placement host {h} outside fabric (0..{n - 1})"
                )
        self.fabric = fabric
        self.hosts = hosts
        self.topo = _SliceTopo(len(hosts))

    def transfer_hot(
        self,
        src_rank: int,
        dst_rank: int,
        size_bytes: int,
        earliest_us: float,
        on_power_block=None,
    ) -> tuple[float, float]:
        hosts = self.hosts
        return self.fabric.transfer_hot(
            hosts[src_rank], hosts[dst_rank], size_bytes, earliest_us,
            on_power_block,
        )

    def host_link(self, rank: int):
        return self.fabric.host_link(self.hosts[rank])


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
    whose ``cluster`` field carries the :class:`JobAttribution`;
    ``fabric_link_energy_us`` is integrated independently over the
    per-link episode registry, so ``energy_mismatch_us()`` is a real
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

    @property
    def job_link_energy_sum_us(self) -> float:
        return sum(m.cluster.link_energy_us for m in self.jobs)

    def energy_mismatch_us(self) -> float:
        """|fabric-level total - sum of per-job rollups| (want ~0)."""

        return abs(self.fabric_link_energy_us - self.job_link_energy_sum_us)


@dataclass(slots=True)
class _JobRun:
    cj: ClusterJob
    hosts: tuple[int, ...] = ()
    world: MPIWorld | None = None
    start_us: float = -1.0
    finish_us: float = -1.0
    live_ranks: int = 0
    rank_links: list = field(default_factory=list)


class ClusterScheduler:
    """Admits a job stream onto one shared fabric and runs it.

    One instance runs one replay (baseline or managed, per
    ``managed=``); build a fresh scheduler per run, exactly as the
    single-job drivers build a fresh engine per replay.  The fabric may
    be shared across runs (it is ``reset()`` like the single-job
    ``fabric=`` idiom).
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
        if not parse_policy(self.cfg.policy).is_default:
            # the cluster's episode handoff (finish + reopen per tenant)
            # is built around the HCA gate; composing reactive trunk /
            # switch gating with multi-tenant link occupancy is a
            # separate piece of work — refuse loudly rather than report
            # numbers the accounting model does not back
            raise ValueError(
                f"cluster replays support only the default power policy "
                f"({DEFAULT_POLICY!r}); got {self.cfg.policy!r} — run "
                "non-default policies through the single-job topo-sweep "
                "pipeline"
            )
        # FCFS admission order: by arrival time, stream index the
        # deterministic tie-break
        self.cluster_jobs = sorted(
            cluster_jobs, key=lambda cj: (cj.job.arrival_us, cj.job.index)
        )
        if len({cj.job.index for cj in self.cluster_jobs}) != len(
            self.cluster_jobs
        ):
            raise ValueError("job indices must be unique within a stream")
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
        self.wrps = wrps or WRPSParams.paper()

        if fabric is None:
            fabric = fabric_for(num_hosts, self.cfg)
        else:
            expected = (
                self.cfg.seed, self.cfg.hosts_per_leaf,
                self.cfg.random_routing, self.cfg.topology,
            )
            signature = getattr(fabric, "build_signature", None)
            if signature is not None and signature != expected:
                raise ValueError(
                    f"fabric was built for {signature}, cluster config "
                    f"wants {expected}; build one with fabric_for()"
                )
            if fabric.topo.num_hosts < num_hosts:
                raise ValueError(
                    f"shared fabric has {fabric.topo.num_hosts} hosts, "
                    f"cluster needs {num_hosts}"
                )
            fabric.reset()
        self.fabric = fabric
        self.fabric.use_fast_path = self.cfg.kernel != "reference"
        spec = parse_faults(self.cfg.faults)
        if spec is not None and spec.active:
            self.fabric.install_faults(spec)

        self.engine = Engine(scheduler=self.cfg.scheduler)
        self._groups = leaf_groups(self.fabric.topo)
        self._free: set[int] = set(range(self.fabric.topo.num_hosts))
        self._pending: list[_JobRun] = []  # FIFO queue of unplaced jobs
        self._runs: list[_JobRun] = []
        self._worlds: list[MPIWorld] = []
        self._ranks_spawned = 0
        # managed-power state: the shared hook's probe dict, the open
        # episode per occupied host, and the append-only per-link
        # episode registry the fabric-level energy integrates over
        self._managed_links: dict[int, ManagedLink] = {}
        self._open_episode: dict[int, ManagedLink] = {}
        self._episodes: list[ManagedLink] = []
        self._wake_faults = self.fabric.wake_fault_model()

    # -- engine wiring -------------------------------------------------------

    def _power_hook(self, link, t_us: float) -> float:
        ml = self._managed_links.get(id(link))
        if ml is None:
            return link.ready_time(t_us)
        return ml.request_full(t_us)

    def _blocked_all(self) -> list[str]:
        out: list[str] = []
        for world in self._worlds:
            out.extend(world._blocked_helpers())
        return out

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
        engine = self.engine
        now = engine.now
        cj = run.cj
        nranks = cj.job.nranks
        self._free.difference_update(hosts)
        run.hosts = hosts
        run.start_us = now
        run.live_ranks = nranks

        fslice = FabricSlice(self.fabric, hosts)
        world = MPIWorld(
            engine,
            fslice,
            nranks,
            eager_threshold_bytes=self.cfg.eager_threshold_bytes,
            power_hook=self._power_hook if self.managed else None,
            cpu_speedup=self.cfg.cpu_speedup,
            name_prefix=f"job{cj.job.index}:",
        )
        # each world installs itself as the engine's blocked reporter;
        # re-install the cluster-level multiplexer so deadlock reports
        # cover every job's in-flight rendezvous continuations
        self._worlds.append(world)
        engine.blocked_reporter = self._blocked_all
        run.world = world

        on_shutdown = None
        if self.managed:
            for rank, host in enumerate(hosts):
                link = self.fabric.host_link(host)
                prev = self._open_episode.get(host)
                if prev is not None:
                    # host handoff: the previous tenant's episode ends
                    # here and the lanes come back up for the new one
                    prev.finish(now)
                    prev.link.mode = LinkPowerMode.FULL
                    prev.link.reactivation_done_us = 0.0
                ml = ManagedLink.create(
                    link,
                    self.wrps,
                    wake_faults=self._wake_faults,
                    wake_key=host,
                    start_us=now,
                )
                self._managed_links[id(link)] = ml
                self._open_episode[host] = ml
                self._episodes.append(ml)
                run.rank_links.append(ml)
            on_shutdown = self._make_on_shutdown(run)

        use_programs = self.cfg.kernel != "reference" and cj.programs is not None
        if use_programs:
            # routes for every global pair this job communicates on,
            # before its first byte (the subnet-manager convention)
            self.fabric.precompile_pairs(
                {(hosts[s], hosts[d]) for s, d in cj.programs.comm_pairs()}
            )
            for rank in range(nranks):
                gen = world.run_program(
                    rank, cj.programs.programs[rank], on_shutdown=on_shutdown
                )
                engine.spawn(
                    self._rank_body(run, gen),
                    name=f"job{cj.job.index}:rank{rank}",
                )
                self._ranks_spawned += 1
        else:
            if not isinstance(cj.trace, Trace):
                raise ValueError(
                    f"job {cj.job.index}: the reference kernel interprets "
                    "trace records — give the ClusterJob its Trace"
                )
            directives = cj.directives
            for proc in cj.trace.processes:
                gen = world.rank_program(
                    proc.rank,
                    proc.records,
                    directives=(
                        directives[proc.rank] if directives is not None
                        else None
                    ),
                    on_shutdown=on_shutdown,
                )
                engine.spawn(
                    self._rank_body(run, gen),
                    name=f"job{cj.job.index}:rank{proc.rank}",
                )
                self._ranks_spawned += 1
        self._runs.append(run)

    def _make_on_shutdown(self, run: _JobRun):
        engine = self.engine
        links = run.rank_links

        def on_shutdown(
            rank: int, t_us: float, timer_us: float, delay_us: float = 0.0
        ) -> None:
            ml = links[rank]
            if delay_us > 0.0:
                def fire(ml=ml, t=t_us + delay_us, timer=timer_us):
                    if not ml.account.closed:  # episode torn down already
                        ml.shutdown(t, timer)

                engine.call_at(t_us + delay_us, fire)
            elif not ml.account.closed:
                ml.shutdown(t_us, timer_us)

        return on_shutdown

    def _rank_body(self, run: _JobRun, gen):
        yield from gen
        run.live_ranks -= 1
        if run.live_ranks == 0:
            self._complete(run)

    def _complete(self, run: _JobRun) -> None:
        run.finish_us = self.engine.now
        # hosts free immediately; the managed-link episodes stay open
        # (the link idles in its last programmed state) until handoff
        # or end of run — see the module docstring
        self._free.update(run.hosts)
        self._drain()

    # -- the run -------------------------------------------------------------

    def run(self) -> float:
        """Replay the whole stream; returns the cluster makespan."""

        for run in (
            _JobRun(cj=cj, live_ranks=cj.job.nranks)
            for cj in self.cluster_jobs
        ):
            self.engine.call_at(
                run.cj.job.arrival_us,
                (lambda r=run: self._arrive(r)),
            )
        try:
            exec_time = self.engine.run()
        except FabricPartitioned as exc:
            raise exc.with_blocked(self.engine.blocked_names()) from None
        if self.managed:
            for ml in self._open_episode.values():
                ml.finish(exec_time)
        self.exec_time_us = exec_time
        return exec_time

    @property
    def helper_spawns(self) -> int:
        """Engine spawns beyond the admitted ranks (the zero-spawn
        invariant, cluster-wide)."""

        return max(0, self.engine.spawn_count - self._ranks_spawned)

    # -- result assembly -----------------------------------------------------

    def _fold_fault_summary(self):
        summary = self.fabric.fault_summary()
        if summary is None:
            return None
        return dataclasses.replace(
            summary,
            wake_timeouts=sum(
                ml.counters.wake_timeouts for ml in self._episodes
            ),
            wake_timeout_extra_us=sum(
                ml.counters.wake_timeout_extra_us for ml in self._episodes
            ),
        )

    def baseline_result(self) -> ClusterBaselineResult:
        exec_time = self.exec_time_us
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
            exec_time_us=exec_time,
            jobs=spans,
            messages_sent=self.fabric.messages_sent,
            bytes_carried=self.fabric.total_bytes_carried(),
            helper_spawns=self.helper_spawns,
            faults=self.fabric.fault_summary(),
        )

    def managed_result(self) -> ClusterResult:
        exec_time = self.exec_time_us
        job_results: list[ManagedResult] = []
        for run in self._runs:
            cj = run.cj
            accounts = [ml.account for ml in run.rank_links]
            span = run.finish_us - run.start_us
            # every episode is already closed (handoff or end-of-run), so
            # the wall argument is inert; savings integrate over each
            # account's own absolute window
            report = aggregate(accounts, exec_time)
            attribution = JobAttribution(
                index=cj.job.index,
                app=cj.job.app,
                tenant=cj.job.tenant,
                arrival_us=cj.job.arrival_us,
                start_us=run.start_us,
                finish_us=run.finish_us,
                hosts=run.hosts,
                link_energy_us=sum(a.energy() for a in accounts),
                isolated_exec_time_us=cj.isolated_exec_time_us,
            )
            job_results.append(
                ManagedResult(
                    trace_name=cj.trace.name,
                    nranks=cj.job.nranks,
                    exec_time_us=span,
                    baseline_exec_time_us=cj.isolated_exec_time_us,
                    power=report,
                    counters=[ml.counters for ml in run.rank_links],
                    event_logs=run.world.event_logs,
                    displacement=cj.displacement,
                    grouping_thresholds_us=list(cj.grouping_thresholds_us),
                    accounts=accounts,
                    topology=self.cfg.topology,
                    switch_savings=fabric_switch_rollup(
                        self.fabric,
                        accounts,
                        link_savings_pct=report.per_link_savings_pct,
                        hosts=run.hosts,
                    ),
                    helper_spawns=0,
                    faults=None,
                    cluster=attribution,
                )
            )
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
            exec_time_us=exec_time,
            jobs=job_results,
            tenants=rollups,
            # integrated over the episode registry, independent of the
            # per-job lists — the energy-sum consistency check's left arm
            fabric_link_energy_us=sum(
                ml.account.energy() for ml in self._episodes
            ),
            helper_spawns=self.helper_spawns,
            faults=self._fold_fault_summary(),
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
    """Run the stream with each job's power directives applied."""

    sched = ClusterScheduler(
        cluster_jobs, config, num_hosts=num_hosts, placement=placement,
        managed=True, wrps=wrps, fabric=fabric,
    )
    sched.run()
    return sched.managed_result()
