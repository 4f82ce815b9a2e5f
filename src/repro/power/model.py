"""Energy accounting: per-link power-state timelines and their integrals.

Every managed link owns a :class:`LinkEnergyAccount` that records the
piecewise-constant power-state timeline produced by the controller.  At
the end of a run the account is *closed* at the simulation end time and
integrated; the run-level savings number the paper reports —

    power savings [%] = (1 - E_managed / E_always_on) * 100

— is the residency-weighted average over links (E_always_on is nominal
power times wall time).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Sequence

from ..network.links import LinkPowerMode
from .states import WRPSParams


@dataclass(frozen=True, slots=True)
class StateInterval:
    """One segment of a link's power timeline.

    ``power`` overrides the mode's nominal power fraction for this
    segment — multi-level policies park a link at intermediate operating
    points (2X width, half clock) that all map to mode LOW but draw
    different power.  ``None`` means "the mode's nominal draw", which is
    what the paper's on/off gate always records.
    """

    start_us: float
    end_us: float
    mode: LinkPowerMode
    power: float | None = None

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


@dataclass(slots=True)
class LinkEnergyAccount:
    """Power-state timeline of one link.

    The timeline always starts at t=0 in FULL mode.  Transitions are
    appended in nondecreasing time order; the final interval is open
    until :meth:`close` pins the simulation end.
    """

    params: WRPSParams
    intervals: list[StateInterval] = field(default_factory=list)
    _mode: LinkPowerMode = LinkPowerMode.FULL
    _since_us: float = 0.0
    _closed: bool = False
    transitions_to_low: int = 0
    _power: float | None = None
    #: timeline origin — a cluster job admitted mid-run opens its episode
    #: at its admission time instead of t=0
    start_us: InitVar[float] = 0.0

    def __post_init__(self, start_us: float) -> None:
        if start_us:
            self._since_us = start_us

    @property
    def closed(self) -> bool:
        """True once :meth:`close` pinned the end of the timeline.

        Cluster replays use this to drop power directives that trail a
        job's torn-down link episode (the link has been handed to the
        next tenant or the run has ended).
        """

        return self._closed

    def switch_mode(self, t_us: float, mode: LinkPowerMode) -> None:
        """Enter ``mode`` at time ``t_us`` (at the mode's nominal power)."""

        self.set_state(t_us, mode, None)

    def set_state(
        self, t_us: float, mode: LinkPowerMode, power: float | None
    ) -> None:
        """Enter ``mode`` at ``t_us``, drawing ``power`` while resident.

        Unlike the mode-only path this splits the timeline even when the
        mode is unchanged but the power differs — a multi-level policy
        stepping 2X→1X stays in LOW while its draw drops.  A ``power``
        equal to the mode's nominal draw is recorded as ``None``, so a
        rung at the nominal LOW draw leaves the same timeline as the
        on/off gate.
        """

        if self._closed:
            raise RuntimeError("account already closed")
        if t_us < self._since_us - 1e-9:
            raise ValueError(
                f"time went backwards: {t_us} < {self._since_us}"
            )
        t_us = max(t_us, self._since_us)
        if power is not None and power == self.params.power_of(mode):
            power = None  # the mode's nominal draw: recorded as such
        if mode is self._mode and power == self._power:
            return
        if t_us > self._since_us:
            self.intervals.append(
                StateInterval(self._since_us, t_us, self._mode, self._power)
            )
        if mode is LinkPowerMode.LOW and self._mode is not LinkPowerMode.LOW:
            self.transitions_to_low += 1
        self._mode = mode
        self._power = power
        self._since_us = t_us

    def close(self, t_end_us: float) -> None:
        if self._closed:
            return
        if t_end_us > self._since_us:
            self.intervals.append(
                StateInterval(self._since_us, t_end_us, self._mode, self._power)
            )
        self._closed = True

    # -- integrals -----------------------------------------------------------

    def integrate(self) -> tuple[float, float, float]:
        """One pass over the timeline: ``(total_us, energy_us, low_us)``.

        Exactly the sums the per-metric helpers below produce, accumulated
        together so run-level aggregation touches each interval once
        instead of four times.  The accumulation order matches the
        individual ``sum()`` passes, so the floats are bit-identical.
        """

        total = 0.0
        energy = 0.0
        low = 0.0
        power_of = self.params.power_of
        low_mode = LinkPowerMode.LOW
        for i in self.intervals:
            d = i.end_us - i.start_us
            total += d
            p = i.power
            energy += (power_of(i.mode) if p is None else p) * d
            if i.mode is low_mode:
                low += d
        return total, energy, low

    def residency_us(self, mode: LinkPowerMode) -> float:
        return sum(i.duration_us for i in self.intervals if i.mode is mode)

    @property
    def total_us(self) -> float:
        return sum(i.duration_us for i in self.intervals)

    def energy(self) -> float:
        """Integral of normalised power over the timeline (units: us)."""

        power_of = self.params.power_of
        return sum(
            (power_of(i.mode) if i.power is None else i.power) * i.duration_us
            for i in self.intervals
        )

    def savings_fraction(self) -> float:
        """1 - E/E_always_on over this link's timeline."""

        total = self.total_us
        if total <= 0:
            return 0.0
        return 1.0 - self.energy() / total

    def low_power_fraction_of_time(self) -> float:
        total = self.total_us
        if total <= 0:
            return 0.0
        return self.residency_us(LinkPowerMode.LOW) / total


@dataclass(frozen=True, slots=True)
class PowerReport:
    """Aggregated power outcome of one simulated run."""

    mean_savings_pct: float
    per_link_savings_pct: tuple[float, ...]
    mean_low_residency_pct: float
    total_transitions_to_low: int
    wall_time_us: float


def aggregate(
    accounts: Sequence[LinkEnergyAccount], wall_time_us: float
) -> PowerReport:
    """Close and integrate all accounts; average over links.

    The paper averages "over all MPI processes" — i.e. over HCA links —
    which is what callers pass here.
    """

    if not accounts:
        raise ValueError("no accounts to aggregate")
    savings: list[float] = []
    low_res: list[float] = []
    transitions = 0
    for acc in accounts:
        acc.close(wall_time_us)
        total, energy, low = acc.integrate()
        if total > 0:
            savings.append(100.0 * (1.0 - energy / total))
            low_res.append(100.0 * (low / total))
        else:
            savings.append(0.0)
            low_res.append(0.0)
        transitions += acc.transitions_to_low
    return PowerReport(
        mean_savings_pct=sum(savings) / len(savings),
        per_link_savings_pct=tuple(savings),
        mean_low_residency_pct=sum(low_res) / len(low_res),
        total_transitions_to_low=transitions,
        wall_time_us=wall_time_us,
    )
