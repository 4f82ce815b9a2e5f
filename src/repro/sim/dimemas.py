"""Top-level replay drivers (the Dimemas role).

Two entry points mirror the paper's methodology (Section IV-A):

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
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..constants import EAGER_THRESHOLD_BYTES
from ..network.fabric import Fabric
from ..network.faults import NO_FAULTS, FabricPartitioned, parse_faults
from ..network.links import Link, LinkPowerMode
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


def fabric_for(nranks: int, config: ReplayConfig | None = None) -> Fabric:
    """Build the fabric one replay of ``config`` would build.

    Exposed so drivers can construct the fabric once and pass it to
    several replays (``fabric=`` below): construction and route
    compilation are displacement-independent, only the per-replay busy /
    power state differs, and :meth:`Fabric.reset` clears that.
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
    fabric.build_signature = (
        cfg.seed, cfg.hosts_per_leaf, cfg.random_routing, cfg.topology
    )
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


def _spawn_ranks(
    engine: Engine,
    world: MPIWorld,
    trace: Trace | None,
    programs: CompiledTrace | None,
    directives: Sequence[dict[int, RankDirective]] | None = None,
    on_shutdown=None,
) -> None:
    """Spawn every rank: compiled programs, else the record interpreter."""

    if programs is not None:
        for prog in programs.programs:
            engine.spawn(
                world.run_program(
                    prog.rank, prog, on_shutdown=on_shutdown
                ),
                name=f"rank{prog.rank}",
            )
        return
    for proc in trace.processes:
        engine.spawn(
            world.rank_program(
                proc.rank,
                proc.records,
                directives=(
                    directives[proc.rank] if directives is not None else None
                ),
                on_shutdown=on_shutdown,
            ),
            name=f"rank{proc.rank}",
        )


def _build_world(
    nranks: int,
    config: ReplayConfig,
    power_hook=None,
    fabric: Fabric | None = None,
) -> tuple[Engine, Fabric, MPIWorld]:
    engine = Engine()
    if fabric is None:
        fabric = fabric_for(nranks, config)
    else:
        expected = (
            config.seed, config.hosts_per_leaf, config.random_routing,
            config.topology,
        )
        signature = getattr(fabric, "build_signature", None)
        if signature is not None and signature != expected:
            raise ValueError(
                f"fabric was built for (seed, hosts_per_leaf, "
                f"random_routing)={signature}, replay config wants "
                f"{expected}; build a matching fabric with fabric_for()"
            )
        fabric.reset()
    fabric.use_fast_path = config.kernel != "reference"
    spec = parse_faults(config.faults)
    if spec is not None and spec.active:
        fabric.install_faults(spec)
    world = MPIWorld(
        engine,
        fabric,
        nranks,
        eager_threshold_bytes=config.eager_threshold_bytes,
        power_hook=power_hook,
        cpu_speedup=config.cpu_speedup,
    )
    return engine, fabric, world


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
    engine, fabric, world = _build_world(source.nranks, cfg, fabric=fabric)
    _spawn_ranks(engine, world, trace, progs)
    exec_time = _run_engine(engine)
    return BaselineResult(
        trace_name=source.name,
        nranks=source.nranks,
        exec_time_us=exec_time,
        event_logs=world.event_logs,
        messages_sent=fabric.messages_sent,
        bytes_carried=fabric.total_bytes_carried(),
        helper_spawns=world.helper_spawns,
        faults=fabric.fault_summary(),
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
    :class:`RankDirective`.  Each rank's HCA link becomes a
    :class:`ManagedLink`; transfers that find a link below full width
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
    if len(directives) != nranks:
        raise ValueError(
            f"need directives for {nranks} ranks, got {len(directives)}"
        )
    params = wrps or WRPSParams.paper()
    spec = parse_policy(cfg.policy)

    # keyed by link object identity: the hook runs per below-full-width
    # hop on the replay hot path, and the fabric owns the link objects
    # for the whole replay, so id() is stable and probe-allocation-free.
    # A link with several controllers (a trunk's idle gate composed with
    # its endpoint switches' gates) maps to a tuple; the transfer waits
    # for all of them (the components reactivate in parallel).
    managed: dict[int, object] = {}

    def power_hook(link: Link, t_us: float) -> float:
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

    engine, fabric, world = _build_world(
        nranks, cfg, power_hook=power_hook, fabric=fabric
    )

    rank_links, trunk_links, gated_switches = _build_policy_controllers(
        fabric, nranks, spec, params, managed
    )

    def on_shutdown(
        rank: int, t_us: float, timer_us: float, delay_us: float = 0.0
    ) -> None:
        ml = rank_links[rank]
        if ml is None:
            # hca class unmanaged: the runtime's PPA overheads still
            # perturb timing, but there is no link to turn off
            return
        if delay_us > 0.0:
            # delayed turn-off (reactive baseline): route through the
            # event queue so per-link operations stay time-ordered
            engine.call_at(
                t_us + delay_us,
                lambda: ml.shutdown(t_us + delay_us, timer_us),
            )
        else:
            ml.shutdown(t_us, timer_us)

    if progs is not None:
        # resolve the per-call directive lookups at compile time: the
        # shared base program set is woven with this displacement's
        # directives (dedicated overhead/shutdown opcodes, fused where
        # semantics allow), so the driver below runs the same
        # probe-free hot loop as the baseline replay
        progs = progs.with_directives(directives)
    _spawn_ranks(engine, world, trace, progs, directives, on_shutdown)
    exec_time = _run_engine(engine)

    hca_links = [ml for ml in rank_links if ml is not None]
    for ml in hca_links:
        ml.finish(exec_time)
    for tl in trunk_links:
        tl.finish(exec_time)
    for gs in gated_switches:
        gs.finish(exec_time)
    if hca_links:
        report = aggregate([ml.account for ml in hca_links], exec_time)
        accounts = [ml.account for ml in hca_links]
    else:
        # hca class unmanaged: the paper's per-process average is vacuous
        report = PowerReport(0.0, (), 0.0, 0, exec_time)
        accounts = []

    fault_summary = fabric.fault_summary()
    if fault_summary is not None:
        # fold the wake-timeout spikes (consumed inside the managed
        # links, invisible to the fabric) into the replay's summary
        fault_summary = dataclasses.replace(
            fault_summary,
            wake_timeouts=sum(ml.counters.wake_timeouts for ml in hca_links),
            wake_timeout_extra_us=sum(
                ml.counters.wake_timeout_extra_us for ml in hca_links
            ),
        )

    class_accounts: dict[str, list] = {}
    if hca_links:
        class_accounts["hca"] = accounts
    if trunk_links:
        class_accounts["trunk"] = [tl.account for tl in trunk_links]
    if gated_switches:
        class_accounts["switch"] = [gs.account for gs in gated_switches]

    return ManagedResult(
        trace_name=source.name,
        nranks=nranks,
        exec_time_us=exec_time,
        baseline_exec_time_us=baseline_exec_time_us,
        power=report,
        counters=[
            ml.counters if ml is not None else PowerEventCounters()
            for ml in rank_links
        ],
        event_logs=world.event_logs,
        displacement=displacement,
        grouping_thresholds_us=list(grouping_thresholds_us),
        runtime_stats=list(runtime_stats) if runtime_stats is not None else [],
        accounts=accounts,
        topology=cfg.topology,
        switch_savings=fabric_switch_rollup(
            fabric,
            accounts,
            link_savings_pct=report.per_link_savings_pct,
            switch_accounts=(
                {gs.node: gs.account for gs in gated_switches}
                if gated_switches
                else None
            ),
        ),
        helper_spawns=world.helper_spawns,
        faults=fault_summary,
        policy=spec.describe(),
        class_savings=class_savings_rows(spec, class_accounts),
    )


def _build_policy_controllers(
    fabric: Fabric,
    nranks: int,
    spec: PolicySpec,
    params: WRPSParams,
    managed: dict[int, object],
) -> tuple[list, list, list]:
    """Instantiate the policy spec's controllers over one fabric.

    Registers every controller in ``managed`` (keyed by link identity)
    and returns ``(rank_links, trunk_links, gated_switches)``:
    ``rank_links[rank]`` is that rank's prediction-driven HCA controller
    (None when the hca class is unmanaged), the other two are the
    reactive controllers in deterministic (sorted-node) order.

    Reactive classes work by *pinning* their links' ``mode`` to LOW so
    the fabric's power-block hook fires on every transfer through them
    (the controllers do all timeline accounting themselves — the pinned
    mode is purely the hook trigger).  When the switch class is active
    the pinning covers HCA links too, so each HCA's prediction-driven
    controller is rehomed onto a :class:`_PowerShadow` that carries its
    FULL/LOW state machine without disturbing the pinned hook trigger.
    """

    wake_faults = fabric.wake_fault_model()
    switch_active = spec.switch.active

    rank_links: list = [None] * nranks
    if spec.hca.active:
        hca_params = spec.hca.wrps(params)
        for rank in range(nranks):
            link = fabric.host_link(rank)
            target = _PowerShadow() if switch_active else link
            if spec.hca.policy == "gate":
                ml = ManagedLink.create(
                    target, hca_params, wake_faults=wake_faults, wake_key=rank
                )
            else:
                ml = LeveledLink.create(
                    target, spec.hca, params,
                    wake_faults=wake_faults, wake_key=rank,
                )
            rank_links[rank] = ml
            managed[id(link)] = ml

    trunk_links: list = []
    if spec.trunk.active:
        seen: set[int] = set()
        for node in sorted(fabric.switches):
            for link in fabric.switches[node].ports:
                if link.is_host_link or id(link) in seen:
                    continue
                seen.add(id(link))
                tl = IdleGatedLink.create(link, spec.trunk)
                trunk_links.append(tl)
                managed[id(link)] = tl
                link.mode = LinkPowerMode.LOW

    gated_switches: list = []
    if switch_active:
        for node in sorted(fabric.switches):
            gs = GatedSwitch.create(fabric.switches[node], spec.switch)
            gated_switches.append(gs)
            for link in fabric.switches[node].ports:
                prev = managed.get(id(link))
                if prev is None:
                    managed[id(link)] = gs
                elif type(prev) is tuple:
                    managed[id(link)] = prev + (gs,)
                else:
                    managed[id(link)] = (prev, gs)
                link.mode = LinkPowerMode.LOW
    return rank_links, trunk_links, gated_switches


def _run_engine(engine: Engine) -> float:
    """Run to completion; a partition surfaces with the blocked ranks.

    :class:`FabricPartitioned` unwinds from inside a transfer with the
    fault timeline attached; enriching it here with the engine's blocked
    processes turns "the run died" into a readable report on both
    kernels, within bounded simulated time (no wall-clock hang).
    """

    try:
        return engine.run()
    except FabricPartitioned as exc:
        raise exc.with_blocked(engine.blocked_names()) from None
