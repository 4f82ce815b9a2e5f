"""The PMPI interposition runtime: PPA + power mode control per process.

This module glues the pieces exactly the way the paper's Figure 1 shows:
intercept every MPI call; while no prediction holds, run the pattern
prediction component (gram formation + PPA); once a pattern is declared,
switch to the power-mode-control component, which verifies each gram
against the prediction and issues turn-off instructions with programmed
timers; on a pattern misprediction, relaunch the PPA.

Following the paper's trace-driven methodology (Section IV-A), the
runtime consumes the *baseline* timed event stream of one rank and emits
:class:`~repro.sim.mpi.RankDirective` instrumentation — PMPI overheads
per call plus shutdown directives attached to the MPI call after which
the turn-off instruction executes.  The managed replay then applies the
directives, and the reactivation penalties of both misprediction types
emerge from the simulation itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from ..concurrency import resolve_workers, run_resilient
from ..constants import T_REACT_US
from ..power.states import WRPSParams
from ..sim.mpi import RankDirective
from ..trace.events import EventLog, MPIEvent
from .grams import GramBuilder
from .overheads import OverheadModel, OverheadReport
from .powerctl import (
    GramCheck,
    PowerControlConfig,
    PowerModeMonitor,
    ShutdownPlan,
    shutdown_timer_us,
)
from .ppa import PPA, PPAConfig, PredictionDeclaration


@dataclass(slots=True)
class RuntimeStats:
    """Per-rank bookkeeping the experiments aggregate."""

    total_calls: int = 0
    predicted_calls: int = 0
    grams_total: int = 0
    grams_matched: int = 0
    pattern_mispredictions: int = 0
    declarations: int = 0
    fast_rearms: int = 0
    shutdowns_planned: int = 0
    ppa_invoked_calls: int = 0
    ppa_operations: int = 0
    ppa_overhead_us: float = 0.0
    intercept_overhead_us: float = 0.0
    #: how many full software-side passes produced this record: always 1
    #: after a real pass; displacement rebinds *copy* the value instead of
    #: re-running, so it stays 1 no matter how many displacement factors
    #: share the plan.
    planning_passes: int = 0

    @property
    def hit_rate_pct(self) -> float:
        """The Table III "MPI call hit rate": correctly predicted calls."""

        if self.total_calls == 0:
            return 0.0
        return 100.0 * self.predicted_calls / self.total_calls

    def overhead_report(self, model: OverheadModel) -> OverheadReport:
        return OverheadReport.from_counts(
            total_calls=self.total_calls,
            invoked_calls=self.ppa_invoked_calls,
            ppa_overhead_us=self.ppa_overhead_us,
            intercept_us=model.intercept_us,
        )


@dataclass(frozen=True, slots=True)
class RuntimeConfig:
    """Per-run configuration of the mechanism."""

    gt_us: float
    displacement: float = 0.01
    wrps: WRPSParams = field(default_factory=WRPSParams.paper)
    ppa: PPAConfig = field(default_factory=PPAConfig)
    overheads: OverheadModel = field(default_factory=OverheadModel)
    #: include PMPI overheads in the emitted directives (the paper does;
    #: disable for the oracle/no-overhead ablation)
    charge_overheads: bool = True


class PMPIRuntime:
    """The mechanism for one MPI process.

    With ``defer_displacement=True`` the displacement-*independent*
    software side runs normally, but instead of resolving Algorithm 3's
    timer arithmetic the runtime records each consultable idle estimate
    as a :class:`ShutdownCandidate`; :class:`RankPlan` later re-emits the
    timers for any displacement factor without another pass.
    """

    def __init__(
        self, config: RuntimeConfig, *, defer_displacement: bool = False
    ) -> None:
        self.config = config
        self.builder = GramBuilder(config.gt_us)
        self.ppa = PPA(config.ppa)
        self.monitor: PowerModeMonitor | None = None
        self.stats = RuntimeStats()
        self.directives: dict[int, RankDirective] = {}
        self.defer_displacement = defer_displacement
        self.shutdown_candidates: list[ShutdownCandidate] = []
        self._pcc = PowerControlConfig(
            displacement=config.displacement,
            gt_us=config.gt_us,
            t_react_us=config.wrps.t_react_us,
            t_deact_us=config.wrps.t_deact_us,
        )
        self._gram_count = 0
        self._last_exit_us: float | None = None

    # --------------------------------------------------------------- process

    @property
    def predicting(self) -> bool:
        return self.monitor is not None

    def process_stream(
        self, events: EventLog | Sequence[MPIEvent]
    ) -> dict[int, RankDirective]:
        """Run the mechanism over one rank's timed event stream."""

        log = EventLog.of(events)
        on_event = self.on_event
        for index, (call, enter, exit_) in enumerate(log.rows()):
            on_event(index, call, enter, exit_)
        self.finish()
        self.stats.planning_passes = 1
        return self.directives

    def on_event(
        self, index: int, call: int, enter_us: float, exit_us: float
    ) -> None:
        """Handle one intercepted MPI call: its code and its bracket."""

        cfg = self.config
        stats = self.stats
        stats.total_calls += 1
        pre = cfg.overheads.intercept_us if cfg.charge_overheads else 0.0
        stats.intercept_overhead_us += pre
        post = 0.0
        shutdown: ShutdownPlan | None = None

        gap: float | None = None
        if self._last_exit_us is not None:
            gap = enter_us - self._last_exit_us
        self._last_exit_us = exit_us

        # gram formation happens once per event regardless of mode; the
        # builder's >= GT rule is the same condition the monitor uses to
        # recognise a boundary, so the two stay consistent by design
        closed = self.builder.feed(call, enter_us, exit_us)
        if closed is not None:
            self._gram_count += 1
            stats.grams_total += 1

        if self.monitor is not None:
            if closed is not None:
                self.ppa.append_only(closed)
            shutdown = self._predict_step(index, call, gap)
        else:
            post = self._learn_step(closed)

        if pre > 0 or post > 0 or shutdown is not None:
            self._attach(
                index, pre, post,
                None if shutdown is None else shutdown.timer_us,
            )

    def finish(self) -> None:
        """Flush the trailing gram at end of stream (learning mode only)."""

        closed = self.builder.flush()
        if closed is not None:
            self._gram_count += 1
            self.stats.grams_total += 1
            if self.monitor is None:
                self.ppa.append_only(closed)

    # -------------------------------------------------------------- learning

    def _learn_step(self, closed) -> float:
        """Run the PPA on a freshly closed gram (if any).

        Returns the PPA overhead to charge on this call.
        """

        ops_before = self.ppa.operations
        declaration: PredictionDeclaration | None = None
        if closed is not None:
            declaration = self.ppa.add_gram(closed)
        ops = self.ppa.operations - ops_before
        overhead = 0.0
        if ops > 0:
            self.stats.ppa_invoked_calls += 1
            self.stats.ppa_operations += ops
            overhead = (
                self.config.overheads.ppa_cost_us(ops)
                if self.config.charge_overheads
                else 0.0
            )
            self.stats.ppa_overhead_us += overhead
        if declaration is not None:
            self._activate(declaration)
        return overhead

    def _activate(self, declaration: PredictionDeclaration) -> None:
        """Switch to the power-mode-control component.

        The anchor gram is the one currently open in the builder; any of
        its calls that already arrived are replayed into the monitor so
        the cycle position is exact.  If the open prefix already deviates
        from the pattern, the activation is abandoned (stay learning).
        """

        monitor = PowerModeMonitor(declaration.record, self._pcc)
        for call_id in self.builder.open_calls:
            if monitor.feed_call(call_id) is GramCheck.MISMATCH:
                return
        self.stats.declarations += 1
        if declaration.fast_rearm:
            self.stats.fast_rearms += 1
        self.monitor = monitor

    # ------------------------------------------------------------ predicting

    def _predict_step(
        self, index: int, call: int, gap: float | None
    ) -> ShutdownPlan | None:
        """Power-mode-control component for one call."""

        monitor = self.monitor
        assert monitor is not None

        if gap is not None and gap >= self.config.gt_us:
            if not monitor.begin_new_gram(gap):
                self._mispredict()
                return None
        check = monitor.feed_call(call)
        if check is GramCheck.MISMATCH:
            self._mispredict()
            return None
        if check is GramCheck.MATCH_COMPLETE:
            self.stats.grams_matched += 1
            self.stats.predicted_calls += len(
                monitor.record.key[(monitor.cycle_pos - 1) % monitor.record.size]
            )
            if self.defer_displacement:
                idle = monitor.pending_idle_us()
                if idle is not None:
                    self.shutdown_candidates.append(
                        ShutdownCandidate(index=index, idle_us=idle)
                    )
                return None
            plan = monitor.plan_shutdown()
            if plan is not None:
                self.stats.shutdowns_planned += 1
            return plan
        return None

    def _mispredict(self) -> None:
        """Pattern misprediction: relaunch the pattern prediction part."""

        self.stats.pattern_mispredictions += 1
        self.monitor = None
        # resume scanning with the grams that close from here on; history
        # stays in the pattern list so detected patterns can fast re-arm
        self.ppa.relaunch(len(self.ppa.grams))

    # ---------------------------------------------------------------- output

    def _attach(
        self, index: int, pre: float, post: float, timer: float | None
    ) -> None:
        # directives are frozen: build the call's one directive (summed
        # onto an earlier one at the same index, if any) in one go
        d = self.directives.get(index)
        if d is None:
            self.directives[index] = RankDirective(
                0.0 + pre, 0.0 + post, timer
            )
        else:
            self.directives[index] = RankDirective(
                d.pre_overhead_us + pre,
                d.post_overhead_us + post,
                d.shutdown_timer_us if timer is None else timer,
                d.shutdown_delay_us,
            )


@dataclass(frozen=True, slots=True)
class ShutdownCandidate:
    """A consultable boundary recorded by the deferred planning pass.

    ``idle_us`` is the EWMA idle estimate at the moment the predicted
    gram completed at MPI call ``index`` — everything Algorithm 3 needs
    apart from the displacement factor.
    """

    index: int
    idle_us: float


@dataclass(slots=True)
class RankPlan:
    """One rank's displacement-independent software side, run once.

    ``directives`` carry the PMPI overheads (no timers);
    ``rebind_displacement`` re-emits the shutdown timers for any
    displacement factor with exactly the float arithmetic of
    :meth:`repro.core.powerctl.PowerModeMonitor.plan_shutdown`, so the
    result is bit-for-bit equal to a dedicated per-displacement pass.

    The rebind is copy-on-write: it builds a new directive only at a
    candidate index that gets a timer and shares every other entry with
    the plan (:class:`~repro.sim.mpi.RankDirective` is frozen, so a
    shared entry cannot be changed through a rebind result).
    """

    directives: dict[int, RankDirective]
    candidates: list[ShutdownCandidate]
    stats: RuntimeStats
    gt_us: float
    t_react_us: float
    t_deact_us: float

    def rebind_displacement(
        self, displacement: float
    ) -> tuple[dict[int, RankDirective], RuntimeStats]:
        if not 0.0 <= displacement < 1.0:
            raise ValueError("displacement factor must be in [0, 1)")
        directives = dict(self.directives)
        planned = 0
        for cand in self.candidates:
            timer = shutdown_timer_us(
                cand.idle_us,
                displacement=displacement,
                gt_us=self.gt_us,
                t_react_us=self.t_react_us,
                t_deact_us=self.t_deact_us,
            )
            if timer is None:
                continue
            d = directives.get(cand.index)
            if d is None:
                directives[cand.index] = RankDirective(shutdown_timer_us=timer)
            else:
                directives[cand.index] = RankDirective(
                    d.pre_overhead_us, d.post_overhead_us, timer,
                    d.shutdown_delay_us,
                )
            planned += 1
        stats = replace(self.stats, shutdowns_planned=planned)
        return directives, stats


@dataclass(slots=True)
class TracePlan:
    """The displacement-independent planning pass for a whole trace."""

    ranks: list[RankPlan]

    def rebind_displacement(
        self, displacement: float
    ) -> tuple[list[dict[int, RankDirective]], list[RuntimeStats]]:
        """Directives + stats for ``displacement``, without re-planning."""

        directives: list[dict[int, RankDirective]] = []
        stats: list[RuntimeStats] = []
        for rank_plan in self.ranks:
            d, s = rank_plan.rebind_displacement(displacement)
            directives.append(d)
            stats.append(s)
        return directives, stats


def _broadcast_configs(
    event_logs: Sequence[EventLog | Sequence[MPIEvent]],
    config: RuntimeConfig | Sequence[RuntimeConfig],
) -> list[RuntimeConfig]:
    if isinstance(config, RuntimeConfig):
        return [config] * len(event_logs)
    configs = list(config)
    if len(configs) != len(event_logs):
        raise ValueError(
            f"need one config per rank: {len(configs)} != {len(event_logs)}"
        )
    return configs


def _plan_rank(
    args: tuple[EventLog | Sequence[MPIEvent], RuntimeConfig, bool],
) -> tuple[dict[int, RankDirective], RuntimeStats, list[ShutdownCandidate]]:
    """Worker body: one rank's full software-side pass (picklable)."""

    events, cfg, defer = args
    runtime = PMPIRuntime(cfg, defer_displacement=defer)
    directives = runtime.process_stream(events)
    return directives, runtime.stats, runtime.shutdown_candidates


def plan_trace_directives(
    event_logs: Sequence[EventLog | Sequence[MPIEvent]],
    config: RuntimeConfig | Sequence[RuntimeConfig],
    *,
    workers: int | None = None,
) -> tuple[list[dict[int, RankDirective]], list[RuntimeStats]]:
    """Run the mechanism on every rank's baseline stream.

    ``config`` may be shared or per-rank (the paper uses one GT per
    application/size, i.e. shared).  Returns per-rank directives and
    statistics, ready for :func:`repro.sim.dimemas.replay_managed`.
    Ranks are independent; ``workers`` (or ``REPRO_WORKERS``) > 1 fans
    them out over processes with identical results.
    """

    configs = _broadcast_configs(event_logs, config)
    results = run_resilient(
        _plan_rank,
        [(events, cfg, False) for events, cfg in zip(event_logs, configs)],
        workers=resolve_workers(workers),
    )
    return [r[0] for r in results], [r[1] for r in results]


def plan_trace_directives_shared(
    event_logs: Sequence[EventLog | Sequence[MPIEvent]],
    config: RuntimeConfig | Sequence[RuntimeConfig],
    *,
    workers: int | None = None,
) -> TracePlan:
    """One displacement-independent planning pass for the whole trace.

    The returned :class:`TracePlan` re-emits per-displacement directives
    via :meth:`TracePlan.rebind_displacement`; Figs. 7-9 share a single
    pass this way instead of re-running the runtime per displacement.
    """

    configs = _broadcast_configs(event_logs, config)
    results = run_resilient(
        _plan_rank,
        [(events, cfg, True) for events, cfg in zip(event_logs, configs)],
        workers=resolve_workers(workers),
    )
    return TracePlan(
        ranks=[
            RankPlan(
                directives=directives,
                candidates=candidates,
                stats=stats,
                gt_us=cfg.gt_us,
                t_react_us=cfg.wrps.t_react_us,
                t_deact_us=cfg.wrps.t_deact_us,
            )
            for (directives, stats, candidates), cfg in zip(results, configs)
        ]
    )
