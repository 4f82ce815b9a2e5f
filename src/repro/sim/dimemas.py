"""The replay composition and its entry points (the Dimemas role).

The paper's methodology (Section IV-A) is two runs of one trace:

* :func:`replay_baseline` — "we first run the simulation without any
  modification of the traces" — the power-unaware run that yields the
  original execution time and the timed per-rank MPI event streams.
* :func:`replay_managed` — the relaunched simulation with the power
  mechanism's directives applied (PPA overheads at call boundaries,
  turn-off instructions with programmed timers, reactivation penalties on
  mispredictions) and per-link energy accounting.

The directives are produced by :mod:`repro.core.runtime` from the
baseline event streams, exactly as the paper inserts new events into the
traces after applying the PPA.

Both runs go through one :class:`Composition`: one engine, one checked
out fabric, one or more :class:`~repro.sim.mpi.MPIWorld`\\ s admitted
onto host sets, and (managed) one :class:`PowerDomain` holding every
power controller behind a single fabric hook.  A single-job replay is
the one-world composition on the identity host map; the multi-job
cluster layer (:mod:`repro.cluster.scheduler`) admits a job stream
through the same object, so both paths share every line of engine,
world, rank-spawn and power wiring.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from ..constants import EAGER_THRESHOLD_BYTES
from ..network.fabric import Fabric
from ..network.faults import NO_FAULTS, FabricPartitioned, parse_faults
from ..network.links import LinkPowerMode
from ..network.topologies import DEFAULT_TOPOLOGY, parse_topology
from ..power.controller import ManagedLink, PowerEventCounters
from ..power.model import PowerReport, aggregate
from ..power.policies import (
    DEFAULT_POLICY,
    GatedSwitch,
    IdleGatedLink,
    LeveledLink,
    PolicySpec,
    _PowerShadow,
    class_savings_rows,
    fold_hook,
    parse_policy,
)
from ..power.switchpower import fabric_switch_rollup
from ..power.states import WRPSParams
from ..trace.trace import Trace
from .engine import Engine
from .mpi import MPIWorld, RankDirective
from .program import CompiledTrace, compile_trace
from .results import BaselineResult, ManagedResult

#: replay kernels selectable via ``ReplayConfig(kernel=...)``
KERNELS = ("fast", "reference")


@dataclass(frozen=True, slots=True)
class ReplayConfig:
    """Knobs of one replay (defaults = the paper's Table II).

    ``kernel`` selects the replay implementation end to end: ``"fast"``
    runs each rank as a compiled opcode program
    (:mod:`repro.sim.program`) over the precompiled-route flat-hop-table
    fabric kernel; ``"reference"`` interprets the raw trace records
    (:meth:`~repro.sim.mpi.MPIWorld.rank_program`) over the
    straightforward per-message route walk.  Both kernels are
    bit-for-bit identical; the reference kernel exists as the
    equivalence oracle for the differential test harness
    (``tests/sim/test_differential_kernels.py``).

    ``topology`` is a topology spec string (``"fitted"``,
    ``"torus:k=4,n=2"``, ``"dragonfly:a=4,p=2,h=2"``,
    ``"fattree2:leaf=18,ratio=3"``, ... — see
    :mod:`repro.network.topologies`); the default keeps the paper's
    right-sized two-level XGFT, for which ``hosts_per_leaf`` applies.
    """

    seed: int = 0
    hosts_per_leaf: int = 18
    random_routing: bool = True
    eager_threshold_bytes: int = EAGER_THRESHOLD_BYTES
    cpu_speedup: float = 1.0
    kernel: str = "fast"
    topology: str = DEFAULT_TOPOLOGY
    #: fault spec string (``"none"`` or ``"faults:seed=7,link_fail=..."``
    #: — see :mod:`repro.network.faults`); the compiled fault schedule is
    #: a pure function of (seed, topology, spec), so every kernel sees
    #: the identical fault timeline
    faults: str = NO_FAULTS
    #: power-policy spec string (``"policy:hca=gate,trunk=width"``,
    #: ``"none"``, ... — see :mod:`repro.power.policies`); selects which
    #: link classes are managed and by which policy family.  The default
    #: is the paper's setup (HCA gating only) and replays bit-for-bit
    #: identically to the pre-registry pipeline
    policy: str = DEFAULT_POLICY

    def __post_init__(self) -> None:
        if self.kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; pick one of {KERNELS}"
            )
        # fail fast on a typo'd family/parameter string; the topology
        # itself is built lazily per fabric
        parse_topology(self.topology)
        # same fail-fast for the fault spec (plan compiled per fabric)
        parse_faults(self.faults)
        # and for the policy spec (controllers built per managed replay)
        parse_policy(self.policy)

    @property
    def build_signature(self) -> tuple:
        """The fields a fabric's construction reads: (seed,
        hosts_per_leaf, random_routing, topology)."""

        return (self.seed, self.hosts_per_leaf, self.random_routing,
                self.topology)


def fabric_for(nranks: int, config: ReplayConfig | None = None) -> Fabric:
    """Build the fabric one replay of ``config`` would build.

    Exposed so a fabric can be built once and passed to several
    replays (``fabric=`` below; the pipeline's fabric pool,
    :func:`repro.experiments.common.checked_out`, builds through it):
    construction and route compilation are displacement-independent,
    only the per-replay busy / power state differs, and
    :meth:`Fabric.reset` clears that.
    """

    cfg = config or ReplayConfig()
    fabric = Fabric.for_ranks(
        nranks,
        seed=cfg.seed,
        hosts_per_leaf=cfg.hosts_per_leaf,
        random_routing=cfg.random_routing,
        topology=None if cfg.topology == DEFAULT_TOPOLOGY else cfg.topology,
    )
    # remember the build parameters so a later replay with a different
    # config cannot silently run on the wrong topology/routes
    fabric.build_signature = cfg.build_signature
    return fabric


def _resolve_inputs(
    source: Trace | CompiledTrace,
    config: ReplayConfig,
    programs: CompiledTrace | None,
) -> tuple[Trace | None, CompiledTrace | None]:
    """Split a replay's input into ``(trace, programs)`` for its kernel.

    ``source`` is the trace, or, on the fast kernel, the base
    :func:`~repro.sim.program.compile_trace` result on its own: the
    compiled programs carry the rank set, ``nranks`` and name, so a
    warm replay needs no ``Trace``.  ``programs`` reuses a pre-compiled
    set beside a trace (the ``fabric=`` idiom); compiled for a
    different trace it is rejected rather than silently replayed.  The
    returned programs are None on the reference kernel, which
    interprets the trace's records.
    """

    if isinstance(source, CompiledTrace):
        if programs is not None and programs is not source:
            raise ValueError(
                "got two program sets: pass the compiled programs either "
                "as the replay's source or as programs=, not both"
            )
        trace, programs = None, source
    else:
        trace = source
    if programs is not None and programs.managed:
        # guard on every kernel: the reference path would silently
        # ignore the set, masking the sharing mistake on one kernel only
        raise ValueError(
            "programs= must be the shared base compile_trace() result; "
            "a directive-specialised set is private to the managed "
            "replay that wove it (replay_managed specialises the base "
            "set itself)"
        )
    if config.kernel == "reference":
        if trace is None:
            raise ValueError(
                "the reference kernel interprets trace records: replay "
                "the Trace, not its compiled programs"
            )
        return trace, None
    if programs is None:
        return trace, compile_trace(trace)
    if trace is not None and not programs.matches(trace):
        raise ValueError(
            f"programs were compiled for trace "
            f"({programs.trace_name!r}, {programs.nranks} ranks, "
            f"{programs.total_records} records); replay got "
            f"({trace.name!r}, {trace.nranks} ranks, "
            f"{trace.total_records} records) — compile_trace() the "
            "right trace"
        )
    return trace, programs


def check_rank_inputs(
    nranks: int,
    *,
    trace: Trace | CompiledTrace | None = None,
    programs: CompiledTrace | None = None,
    directives: Sequence | None = None,
) -> None:
    """Reject replay inputs sized for a different rank count."""

    for what, given in (("trace", trace), ("programs", programs)):
        if given is not None and given.nranks != nranks:
            raise ValueError(f"{what} has {given.nranks} ranks, need {nranks}")
    if directives is not None and len(directives) != nranks:
        raise ValueError(
            f"need directives for {nranks} ranks, got {len(directives)}"
        )


class PowerDomain:
    """Every power controller of one replay, behind one fabric hook.

    One policy object per power domain: the spec's reactive trunk/switch
    controllers are opened once at t=0 over the whole fabric and finished
    at the makespan; prediction-driven HCA controllers open per admitted
    host set (:meth:`open_hosts`).  A host handed to a new world closes
    the previous world's controller — its *episode* — at the handoff, so
    ``episodes`` (every HCA controller ever opened) is the registry
    fabric-level HCA energy integrates over.

    Reactive classes work by *pinning* their links' ``mode`` to LOW so
    the fabric's power-block hook fires on every transfer through them
    (the controllers do all timeline accounting themselves — the pinned
    mode is purely the hook trigger).  When the switch class is active
    the pinning covers HCA links too, so each HCA controller drives a
    :class:`_PowerShadow` that carries its FULL/LOW state machine without
    disturbing the pinned hook trigger.

    The hook differs per kernel, as the fabric's transfer bodies do.
    The reference kernel's hook calls ``request_full`` on every
    controller of the link, and the reactive ones scan their channels'
    busy logs.  The fast kernel's is :func:`~repro.power.policies.
    fold_hook` over one flat entry per link: the HCA controller alone,
    or ``(hca or None, gates)`` with each :class:`GatedSwitch` entered
    as its inner :class:`IdleGatedLink`.  Its gates fold the last
    reserved link into a running max, which is exact only because the
    pinning routes every reservation on a managed channel through the
    hook.  The lone-HCA entry of the default policy is called directly
    on both kernels.
    """

    def __init__(
        self, engine: Engine, fabric: Fabric, spec: PolicySpec,
        wrps: WRPSParams,
    ) -> None:
        self.engine = engine
        self.fabric = fabric
        self.spec = spec
        self.wrps = wrps
        self.wake_faults = fabric.wake_fault_model()
        # keyed by link object identity: the hook runs per below-full-
        # width hop on the replay hot path, and the fabric owns the link
        # objects for the whole replay, so id() is stable and probe-
        # allocation-free.  A link with several controllers (a trunk's
        # idle gate composed with its endpoint switches' gates) waits
        # for all of them (the components reactivate in parallel).
        managed: dict[int, object] = {}
        self._fold = fabric.use_fast_path
        if self._fold:
            hook = fold_hook(managed)
        else:
            def hook(link, t_us: float) -> float:
                ml = managed.get(id(link))
                if ml is None:
                    return link.ready_time(t_us)
                if type(ml) is tuple:
                    ready = t_us
                    for c in ml:
                        r = c.request_full(t_us)
                        if r > ready:
                            ready = r
                    return ready
                return ml.request_full(t_us)

        self.managed = managed
        self.hook = hook
        #: the fabric-level controllers per link, in deterministic
        #: (sorted-node) order; an HCA episode composes in front of them
        self._fabric_ctrl: dict[int, tuple] = {}
        self.trunk_links: list[IdleGatedLink] = []
        self.gated_switches: list[GatedSwitch] = []
        switches = [fabric.switches[node] for node in sorted(fabric.switches)]
        if spec.trunk.active:
            for sw in switches:
                for link in sw.ports:
                    if link.is_host_link or id(link) in self._fabric_ctrl:
                        continue
                    tl = IdleGatedLink.create(link, spec.trunk)
                    self.trunk_links.append(tl)
                    self._fabric_ctrl[id(link)] = (tl,)
                    link.mode = LinkPowerMode.LOW
        if spec.switch.active:
            for sw in switches:
                gs = GatedSwitch.create(sw, spec.switch)
                self.gated_switches.append(gs)
                for link in sw.ports:
                    key = id(link)
                    ctrl = self._fabric_ctrl.get(key, ())
                    self._fabric_ctrl[key] = ctrl + (gs,)
                    link.mode = LinkPowerMode.LOW
        for key, ctrl in self._fabric_ctrl.items():
            managed[key] = self._entry(None, ctrl)
        #: host -> its open HCA episode
        self._open: dict[int, object] = {}
        self.episodes: list = []

    def _entry(self, hca, ctrl: tuple):
        """The hook's entry for a link with HCA controller ``hca`` (or
        None) and fabric-level controllers ``ctrl``."""

        if not ctrl:
            return hca
        if self._fold:
            gates = tuple(
                c.gate if isinstance(c, GatedSwitch) else c for c in ctrl
            )
            return (hca, gates)
        if hca is not None:
            ctrl = (hca,) + ctrl
        return ctrl[0] if len(ctrl) == 1 else ctrl

    def open_hosts(self, hosts: Sequence[int], t_us: float) -> list:
        """Open an HCA controller per host at ``t_us``; returns them in
        host order (all None when the hca class is unmanaged)."""

        spec = self.spec
        if not spec.hca.active:
            return [None] * len(hosts)
        hca_wrps = spec.hca.wrps(self.wrps)
        out = []
        for host in hosts:
            prev = self._open.get(host)
            if prev is not None:
                # host handoff: the previous episode ends here and its
                # own target (the link, or the shadow standing in for a
                # pinned link) comes back up for the new one
                prev.finish(t_us)
                prev.link.mode = LinkPowerMode.FULL
                prev.link.reactivation_done_us = 0.0
            link = self.fabric.host_link(host)
            target = _PowerShadow() if spec.switch.active else link
            if spec.hca.policy == "gate":
                ml = ManagedLink.create(
                    target, hca_wrps, wake_faults=self.wake_faults,
                    wake_key=host, start_us=t_us,
                )
            else:
                ml = LeveledLink.create(
                    target, spec.hca, self.wrps, wake_faults=self.wake_faults,
                    wake_key=host, start_us=t_us,
                )
            self.managed[id(link)] = self._entry(
                ml, self._fabric_ctrl.get(id(link), ())
            )
            self._open[host] = ml
            self.episodes.append(ml)
            out.append(ml)
        return out

    def on_shutdown(self, links: list):
        """The turn-off callback for a world whose rank r owns ``links[r]``."""

        call_at = self.engine.call_at

        def on_shutdown(
            rank: int, t_us: float, timer_us: float, delay_us: float = 0.0
        ) -> None:
            ml = links[rank]
            if ml is None:
                # hca class unmanaged: the runtime's PPA overheads still
                # perturb timing, but there is no link to turn off
                return
            if delay_us > 0.0:
                # delayed turn-off (reactive baseline): route through the
                # event queue so per-link operations stay time-ordered
                def fire(t=t_us + delay_us):
                    if not ml.account.closed:  # episode handed off since
                        ml.shutdown(t, timer_us)

                call_at(t_us + delay_us, fire)
            elif not ml.account.closed:
                ml.shutdown(t_us, timer_us)

        return on_shutdown

    def finish(self, t_end_us: float) -> None:
        for c in (*self._open.values(), *self.trunk_links,
                  *self.gated_switches):
            c.finish(t_end_us)

    def fabric_rows(self) -> tuple:
        """Class-savings rows of the fabric-level (trunk/switch) classes."""

        return class_savings_rows(self.spec, {
            "trunk": [tl.account for tl in self.trunk_links],
            "switch": [gs.account for gs in self.gated_switches],
        })


class Composition:
    """One engine, one checked-out fabric, its worlds, one power domain.

    ``num_hosts`` is the host count the composition needs.  A passed
    ``fabric`` (the reuse idiom: construction and route compilation are
    run-invariant) must match ``config``'s build signature and size; it
    is reset, not rebuilt.  ``managed`` arms a :class:`PowerDomain` for
    ``config.policy``.  Build one per replay.
    """

    def __init__(
        self,
        config: ReplayConfig,
        num_hosts: int,
        *,
        fabric: Fabric | None = None,
        managed: bool = False,
        wrps: WRPSParams | None = None,
    ) -> None:
        if fabric is None:
            fabric = fabric_for(num_hosts, config)
        else:
            expected = config.build_signature
            signature = getattr(fabric, "build_signature", None)
            if signature is not None and signature != expected:
                raise ValueError(
                    f"fabric was built for (seed, hosts_per_leaf, "
                    f"random_routing, topology)={signature}, replay config "
                    f"wants {expected}; build a matching fabric with "
                    "fabric_for()"
                )
            if fabric.topo.num_hosts < num_hosts:
                raise ValueError(
                    f"fabric has {fabric.topo.num_hosts} hosts, replay "
                    f"needs {num_hosts}"
                )
            fabric.reset()
        fabric.use_fast_path = config.kernel != "reference"
        faults = parse_faults(config.faults)
        if faults is not None and faults.active:
            fabric.install_faults(faults)
        self.cfg = config
        self.fabric = fabric
        self.engine = Engine()
        self.power = (
            PowerDomain(
                self.engine, fabric, parse_policy(config.policy),
                wrps or WRPSParams.paper(),
            )
            if managed else None
        )
        self.worlds: list[MPIWorld] = []
        self.exec_time_us = 0.0
        self._ranks = 0

    def admit(
        self,
        hosts: Sequence[int],
        trace: Trace | None,
        programs: CompiledTrace | None,
        directives: Sequence[dict[int, RankDirective]] | None = None,
        *,
        name: str = "",
        on_exit=None,
    ) -> tuple[MPIWorld, list | None]:
        """Place one world on ``hosts`` (rank r on ``hosts[r]``) now.

        Ranks run the compiled ``programs`` when given, else interpret
        ``trace``'s records with ``directives``.  The world hands its
        ranks' hosts to the shared fabric itself, so ``hosts`` must be
        distinct hosts of the fabric (``ValueError`` otherwise).
        ``name`` prefixes the world's process names; ``on_exit()`` runs
        as each rank finishes.  Returns the world and its per-rank HCA
        controllers (None on a baseline composition).
        """

        hosts = tuple(hosts)
        nranks = len(hosts)
        if len(set(hosts)) != nranks:
            raise ValueError(f"placement repeats hosts: {hosts}")
        n = self.fabric.topo.num_hosts
        for h in hosts:
            if not 0 <= h < n:
                raise ValueError(
                    f"placement host {h} outside fabric (0..{n - 1})"
                )
        engine, power, cfg = self.engine, self.power, self.cfg
        world = MPIWorld(
            engine,
            self.fabric,
            nranks,
            hosts=hosts,
            eager_threshold_bytes=cfg.eager_threshold_bytes,
            power_hook=power.hook if power is not None else None,
            cpu_speedup=cfg.cpu_speedup,
            name_prefix=name,
        )
        # each world installs itself as the engine's blocked reporter;
        # the composition's covers every world's in-flight rendezvous sends
        self.worlds.append(world)
        engine.blocked_reporter = self._blocked
        links = on_shutdown = None
        if power is not None:
            links = power.open_hosts(hosts, engine.now)
            on_shutdown = power.on_shutdown(links)
        if programs is not None:
            bodies = (
                (p.rank, world.run_program(p.rank, p, on_shutdown=on_shutdown))
                for p in programs.programs
            )
        else:
            bodies = (
                (p.rank, world.rank_program(
                    p.rank, p.records,
                    None if directives is None else directives[p.rank],
                    on_shutdown,
                ))
                for p in trace.processes
            )
        for rank, body in bodies:
            engine.spawn(body, name=f"{name}rank{rank}", on_exit=on_exit)
            self._ranks += 1
        return world, links

    def _blocked(self) -> list[str]:
        return [n for world in self.worlds for n in world._blocked_helpers()]

    def run(self) -> float:
        """Run to completion; returns (and keeps) the makespan.

        :class:`FabricPartitioned` unwinds from inside a transfer with
        the fault timeline attached; enriching it here with the engine's
        blocked processes turns "the run died" into a readable report on
        both kernels, within bounded simulated time (no wall-clock
        hang).  Either way the engine and worlds are torn down on exit.
        """

        engine = self.engine
        try:
            t_end = engine.run()
        except FabricPartitioned as exc:
            raise exc.with_blocked(engine.blocked_names()) from None
        finally:
            self._teardown()
        if self.power is not None:
            self.power.finish(t_end)
        self.exec_time_us = t_end
        return t_end

    def _teardown(self) -> None:
        """Break the run's reference cycles so refcounting frees them."""

        engine = self.engine
        engine.blocked_reporter = engine._schedule = engine.starting = None
        engine._signal_pool.clear()
        for world in self.worlds:
            world._rdv_pool.clear()

    @property
    def helper_spawns(self) -> int:
        """Engine spawns beyond the admitted ranks (the zero-spawn
        invariant)."""

        return max(0, self.engine.spawn_count - self._ranks)

    def fault_summary(self):
        """The fabric's fault summary; on a managed composition with the
        wake-timeout spikes (consumed inside the HCA controllers,
        invisible to the fabric) folded in."""

        summary = self.fabric.fault_summary()
        if summary is None or self.power is None:
            return summary
        episodes = self.power.episodes
        return dataclasses.replace(
            summary,
            wake_timeouts=sum(ml.counters.wake_timeouts for ml in episodes),
            wake_timeout_extra_us=sum(
                ml.counters.wake_timeout_extra_us for ml in episodes
            ),
        )

    def managed_result(
        self,
        world: MPIWorld,
        links: list,
        hosts: Sequence[int],
        *,
        fabric_rows: bool = False,
        **fields,
    ) -> ManagedResult:
        """One world's :class:`ManagedResult` over its HCA controllers.

        ``fields`` carries the caller's identity and timing fields;
        ``fabric_rows`` appends the trunk/switch class rows (a one-world
        replay reports the whole domain).
        """

        power = self.power
        owned = [(h, ml) for h, ml in zip(hosts, links) if ml is not None]
        accounts = [ml.account for _, ml in owned]
        if accounts:
            report = aggregate(accounts, self.exec_time_us)
        else:
            # hca class unmanaged: the paper's per-process average is vacuous
            report = PowerReport(0.0, (), 0.0, 0, self.exec_time_us)
        rows = class_savings_rows(power.spec, {"hca": accounts})
        return ManagedResult(
            nranks=world.nranks,
            power=report,
            counters=[
                PowerEventCounters() if ml is None else ml.counters
                for ml in links
            ],
            event_logs=world.event_logs,
            accounts=accounts,
            topology=self.cfg.topology,
            switch_savings=fabric_switch_rollup(
                self.fabric,
                accounts,
                link_savings_pct=report.per_link_savings_pct,
                hosts=[h for h, _ in owned],
                switch_accounts=(
                    {gs.node: gs.account for gs in power.gated_switches}
                    or None
                ),
            ),
            policy=power.spec.describe(),
            class_savings=rows + power.fabric_rows() if fabric_rows else rows,
            **fields,
        )


def replay_baseline(
    trace: Trace | CompiledTrace,
    config: ReplayConfig | None = None,
    *,
    fabric: Fabric | None = None,
    programs: CompiledTrace | None = None,
) -> BaselineResult:
    """Replay with always-on links; returns timing and event streams.

    ``trace`` is the trace to replay or, on the fast kernel, its
    compiled programs alone (see :func:`_resolve_inputs`).  ``fabric``
    reuses a pre-built (matching) fabric: it is reset, not rebuilt, so
    compiled routes and hop tables are shared across runs.  ``programs``
    likewise reuses a :func:`~repro.sim.program.compile_trace` result
    for the fast kernel beside a trace (compiled on the fly when
    omitted; ignored by the reference kernel, which interprets records).
    """

    cfg = config or ReplayConfig()
    source = trace
    trace, progs = _resolve_inputs(source, cfg, programs)
    comp = Composition(cfg, source.nranks, fabric=fabric)
    world, _ = comp.admit(range(source.nranks), trace, progs)
    exec_time = comp.run()
    return BaselineResult(
        trace_name=source.name,
        nranks=source.nranks,
        exec_time_us=exec_time,
        event_logs=world.event_logs,
        messages_sent=comp.fabric.messages_sent,
        bytes_carried=comp.fabric.total_bytes_carried(),
        helper_spawns=comp.helper_spawns,
        faults=comp.fault_summary(),
    )


def replay_managed(
    trace: Trace | CompiledTrace,
    directives: Sequence[dict[int, RankDirective]],
    *,
    baseline_exec_time_us: float,
    displacement: float,
    grouping_thresholds_us: Sequence[float],
    config: ReplayConfig | None = None,
    wrps: WRPSParams | None = None,
    runtime_stats: Sequence | None = None,
    fabric: Fabric | None = None,
    programs: CompiledTrace | None = None,
) -> ManagedResult:
    """Replay with the power mechanism's directives applied.

    ``trace`` is the trace or, on the fast kernel, its base compiled
    programs alone (a warm what-if replays from the programs it already
    holds).  ``directives[rank]`` maps MPI-call index to
    :class:`RankDirective`.  The policy spec's controllers manage the
    links (by default each rank's HCA link becomes a
    :class:`ManagedLink`); transfers that find a link below full width
    pay the reactivation penalty through the fabric's power hook.
    ``fabric`` reuses a pre-built fabric (reset, not rebuilt) —
    ``run_cell`` passes one fabric to the baseline replay and every
    per-displacement managed replay of a cell — and ``programs`` shares
    one compiled program set the same way.
    """

    cfg = config or ReplayConfig()
    source = trace
    trace, progs = _resolve_inputs(source, cfg, programs)
    nranks = source.nranks
    check_rank_inputs(nranks, directives=directives)
    comp = Composition(cfg, nranks, fabric=fabric, managed=True, wrps=wrps)
    if progs is not None:
        # resolve the per-call directive lookups at compile time: the
        # shared base program set is woven with this displacement's
        # directives (dedicated overhead/shutdown opcodes, fused where
        # semantics allow), so the driver runs the same probe-free hot
        # loop as the baseline replay
        progs = progs.with_directives(directives)
    hosts = range(nranks)
    world, links = comp.admit(hosts, trace, progs, directives)
    exec_time = comp.run()
    return comp.managed_result(
        world,
        links,
        hosts,
        fabric_rows=True,
        trace_name=source.name,
        exec_time_us=exec_time,
        baseline_exec_time_us=baseline_exec_time_us,
        displacement=displacement,
        grouping_thresholds_us=list(grouping_thresholds_us),
        runtime_stats=list(runtime_stats) if runtime_stats is not None else [],
        helper_spawns=comp.helper_spawns,
        faults=comp.fault_summary(),
    )
