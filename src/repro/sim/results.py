"""Result containers for baseline and managed replays."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..power.controller import PowerEventCounters
from ..power.model import PowerReport
from ..trace.events import MPIEvent, idle_gaps
from ..trace.intervals import IdleDistribution, distribution_from_gaps, merge_gap_streams


@dataclass(slots=True)
class BaselineResult:
    """Outcome of the power-unaware replay (links always on)."""

    trace_name: str
    nranks: int
    exec_time_us: float
    event_logs: list[list[MPIEvent]]
    messages_sent: int
    bytes_carried: int
    #: helper processes spawned by the MPI layer during the replay —
    #: 0 since the zero-spawn rendezvous/irecv refactor (the bench and
    #: regression tests assert on it)
    helper_spawns: int = 0
    #: :class:`repro.network.faults.FaultSummary` when fault injection
    #: was armed for this replay, else None
    faults: object | None = None

    def rank_gaps(self, rank: int) -> np.ndarray:
        return np.asarray(idle_gaps(self.event_logs[rank]), dtype=np.float64)

    def all_gaps(self) -> np.ndarray:
        return merge_gap_streams([idle_gaps(log) for log in self.event_logs])

    def idle_distribution(self) -> IdleDistribution:
        """Table I row for this run (aggregated over ranks)."""

        return distribution_from_gaps(self.all_gaps())


@dataclass(slots=True)
class ManagedResult:
    """Outcome of a replay with the power-saving mechanism active."""

    trace_name: str
    nranks: int
    exec_time_us: float
    baseline_exec_time_us: float
    power: PowerReport
    counters: list[PowerEventCounters]
    event_logs: list[list[MPIEvent]]
    displacement: float
    grouping_thresholds_us: list[float]
    #: per-rank PPA bookkeeping forwarded from the runtime pass
    runtime_stats: list = field(default_factory=list)
    #: per-rank HCA-link energy accounts (power-state timelines), for
    #: Paraver-style visualisation and fine-grained analysis
    accounts: list = field(default_factory=list)
    #: the fabric's topology spec string (``ReplayConfig.topology``)
    topology: str = "fitted"
    #: per-switch whole-switch savings rollup
    #: (:func:`repro.power.switchpower.fabric_switch_rollup`) — radix
    #: aware, so heterogeneous families aggregate correctly
    switch_savings: tuple = ()
    #: helper processes spawned by the MPI layer during the replay —
    #: 0 since the zero-spawn rendezvous/irecv refactor (the bench and
    #: regression tests assert on it)
    helper_spawns: int = 0
    #: :class:`repro.network.faults.FaultSummary` when fault injection
    #: was armed for this replay (wake-timeout counters folded in), else
    #: None
    faults: object | None = None
    #: :class:`repro.cluster.scheduler.JobAttribution` when this result
    #: is one job of a multi-job cluster replay (arrival/start/finish,
    #: placement, tenant, job-attributed link energy and the
    #: slowdown-vs-isolated reference), else None.  In that case
    #: ``exec_time_us`` is the job's in-cluster span and
    #: ``baseline_exec_time_us`` is its *isolated* managed span, so
    #: ``exec_time_increase_pct`` reads as slowdown-vs-isolated.
    cluster: object | None = None
    #: canonical power-policy spec this replay ran under
    #: (:meth:`repro.power.policies.PolicySpec.describe`)
    policy: str = "policy:hca=gate"
    #: per-link-class energy rollup
    #: (:class:`repro.power.policies.ClassSavings` rows, canonical class
    #: order) — one row per *managed* class, so the default spec yields
    #: a single hca row
    class_savings: tuple = ()

    @property
    def fleet_switch_savings_pct(self) -> float:
        """Radix-weighted whole-switch savings over the fabric."""

        from ..power.switchpower import rollup_fleet_savings_pct

        return rollup_fleet_savings_pct(self.switch_savings)

    @property
    def exec_time_increase_pct(self) -> float:
        """The Figures 7-9(b) metric."""

        if self.baseline_exec_time_us <= 0:
            return 0.0
        return 100.0 * (
            self.exec_time_us / self.baseline_exec_time_us - 1.0
        )

    @property
    def power_savings_pct(self) -> float:
        """The Figures 7-9(a) metric."""

        return self.power.mean_savings_pct

    def class_savings_for(self, link_class: str):
        """The :class:`ClassSavings` row of one link class, or None."""

        for row in self.class_savings:
            if row.link_class == link_class:
                return row
        return None

    @property
    def trunk_savings_pct(self) -> float:
        """Mean energy savings over managed trunk links (0 if unmanaged)."""

        row = self.class_savings_for("trunk")
        return row.savings_pct if row is not None else 0.0

    @property
    def total_shutdowns(self) -> int:
        return sum(c.shutdowns for c in self.counters)

    @property
    def total_mispredictions(self) -> int:
        return sum(
            c.emergency_reactivations + c.late_reactivations for c in self.counters
        )

    @property
    def total_penalty_us(self) -> float:
        return sum(c.total_penalty_us for c in self.counters)

    def summary_line(self) -> str:
        return (
            f"{self.trace_name:10s} P={self.nranks:<4d} "
            f"savings={self.power_savings_pct:6.2f}% "
            f"slowdown={self.exec_time_increase_pct:5.2f}% "
            f"shutdowns={self.total_shutdowns} "
            f"mispred={self.total_mispredictions}"
        )
