"""Energy accounting: per-link power-state timelines and their integrals.

Every managed link owns a :class:`LinkEnergyAccount` that records the
piecewise-constant power-state timeline produced by the controller.  At
the end of a run the account is *closed* at the simulation end time and
integrated; the run-level savings number the paper reports —

    power savings [%] = (1 - E_managed / E_always_on) * 100

— is the residency-weighted average over links (E_always_on is nominal
power times wall time).

An account changes state several times per shutdown, inside every
managed replay, so it keeps its timeline as flat per-link columns
(breakpoints, resolved draws, mode codes) and builds no object per
interval; :attr:`LinkEnergyAccount.intervals` builds the
:class:`StateInterval` list on demand for the readers that want one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice
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


#: mode codes of the account's mode column, and the modes they name
_FULL, _LOW, _TRANSITION = 0, 1, 2
_MODES = (LinkPowerMode.FULL, LinkPowerMode.LOW, LinkPowerMode.TRANSITION)
# the members as module globals: reading ``LinkPowerMode.FULL`` goes
# through the enum metaclass, several times slower than a global
_FULL_MODE, _LOW_MODE, _ = _MODES


class LinkEnergyAccount:
    """Power-state timeline of one link, stored as flat columns.

    The timeline always starts in FULL mode at ``start_us`` (default
    t=0; a cluster job admitted mid-run opens its episode at its
    admission time).  Transitions are appended in nondecreasing time
    order; the final interval is open until :meth:`close` pins the
    simulation end.

    Interval ``i`` spans ``[_bounds[i], _bounds[i + 1])``: the
    intervals are contiguous, so ``_bounds`` (``array('d')``) holds the
    origin followed by each interval's end.  ``_draws`` (``array('d')``)
    holds the power each interval draws, already resolved from the
    mode's nominal draw or the ``set_state`` override, and ``_modes``
    (``array('B')``) its mode code.  The three nominal draws are read
    from ``params`` once, at construction.

    No per-interval object is built while a replay runs: ``intervals``
    builds the :class:`StateInterval` list on demand for its readers
    (timeline rendering, the differential tiers).  The override is not
    stored per interval: ``set_state`` records an override equal to the
    mode's nominal draw as ``None``, so an interval's override is
    ``None`` exactly when its draw equals the nominal one, and
    ``intervals`` recovers it from the draw column.
    """

    __slots__ = (
        "params", "transitions_to_low", "_bounds", "_draws", "_modes",
        "_nominal", "_code", "_power", "_draw", "_since_us", "_closed",
    )

    def __init__(self, params: WRPSParams, start_us: float = 0.0) -> None:
        self.params = params
        self.transitions_to_low = 0
        self._bounds = array("d", (start_us,))
        self._draws = array("d")
        self._modes = array("B")
        #: nominal draw per mode code
        self._nominal = tuple(params.power_of(m) for m in _MODES)
        #: the open interval's mode code, raw override and resolved draw
        self._code = _FULL
        self._power: float | None = None
        self._draw = self._nominal[_FULL]
        self._since_us = start_us
        self._closed = False

    def __eq__(self, other: object) -> bool:
        # equal timelines and open state, as the dataclass this replaced
        # compared: replay results holding accounts are compared whole
        if other.__class__ is not LinkEnergyAccount:
            return NotImplemented
        return self._state() == other._state()

    __hash__ = None  # mutable

    def _state(self) -> tuple:
        return (
            self.params, self._bounds, self._draws, self._modes,
            self._code, self._power, self._since_us, self._closed,
            self.transitions_to_low,
        )

    @property
    def closed(self) -> bool:
        """True once :meth:`close` pinned the end of the timeline.

        Cluster replays use this to drop power directives that trail a
        job's torn-down link episode (the link has been handed to the
        next tenant or the run has ended).
        """

        return self._closed

    def switch_mode(self, t_us: float, mode: LinkPowerMode) -> None:
        """Enter ``mode`` at time ``t_us`` (at the mode's nominal power).

        :meth:`set_state` with ``power=None``, spelled out: this runs
        several times per shutdown, so it saves the extra call.
        """

        if self._closed:
            raise RuntimeError("account already closed")
        since = self._since_us
        if t_us < since - 1e-9:
            raise ValueError(f"time went backwards: {t_us} < {since}")
        if mode is _FULL_MODE:
            code = _FULL
        elif mode is _LOW_MODE:
            code = _LOW
        else:
            code = _TRANSITION
        if code == self._code and self._power is None:
            return
        if t_us > since:
            self._bounds.append(t_us)
            self._draws.append(self._draw)
            self._modes.append(self._code)
            self._since_us = t_us
        if code == _LOW and self._code != _LOW:
            self.transitions_to_low += 1
        self._code = code
        self._power = None
        self._draw = self._nominal[code]

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
        since = self._since_us
        if t_us < since - 1e-9:
            raise ValueError(f"time went backwards: {t_us} < {since}")
        if mode is _FULL_MODE:
            code = _FULL
        elif mode is _LOW_MODE:
            code = _LOW
        else:
            code = _TRANSITION
        draw = self._nominal[code]
        if power is not None:
            if power == draw:
                power = None  # the mode's nominal draw: recorded as such
            else:
                draw = power
        if code == self._code and power == self._power:
            return
        if t_us > since:
            self._bounds.append(t_us)
            self._draws.append(self._draw)
            self._modes.append(self._code)
            self._since_us = t_us
        if code == _LOW and self._code != _LOW:
            self.transitions_to_low += 1
        self._code = code
        self._power = power
        self._draw = draw

    def close(self, t_end_us: float) -> None:
        if self._closed:
            return
        if t_end_us > self._since_us:
            self._bounds.append(t_end_us)
            self._draws.append(self._draw)
            self._modes.append(self._code)
        self._closed = True

    @property
    def intervals(self) -> list[StateInterval]:
        """The timeline as :class:`StateInterval` objects, built on demand."""

        bounds = self._bounds
        nominal = self._nominal
        return [
            StateInterval(start, end, _MODES[code],
                          None if draw == nominal[code] else draw)
            for start, end, draw, code in zip(
                bounds, islice(bounds, 1, None), self._draws, self._modes
            )
        ]

    # -- integrals -----------------------------------------------------------
    #
    # Every integral is a plain sequential sum over the columns, in
    # timeline order, so the floats equal the sums over ``intervals``
    # bit for bit.  The per-metric helpers start from int 0, so an
    # empty timeline sums to 0, as ``sum()`` over ``intervals`` does.

    def integrate(self) -> tuple[float, float, float]:
        """One pass over the timeline: ``(total_us, energy_us, low_us)``.

        Exactly the sums the per-metric helpers below produce, accumulated
        together so run-level aggregation touches each interval once
        instead of four times.
        """

        total = 0.0
        energy = 0.0
        low = 0.0
        bounds = self._bounds
        start = bounds[0]
        for end, draw, code in zip(
            islice(bounds, 1, None), self._draws, self._modes
        ):
            d = end - start
            total += d
            energy += draw * d
            if code == _LOW:
                low += d
            start = end
        return total, energy, low

    def residency_us(self, mode: LinkPowerMode) -> float:
        want = _MODES.index(mode)
        out = 0
        bounds = self._bounds
        start = bounds[0]
        for end, code in zip(islice(bounds, 1, None), self._modes):
            if code == want:
                out += end - start
            start = end
        return out

    @property
    def total_us(self) -> float:
        out = 0
        bounds = self._bounds
        start = bounds[0]
        for end in islice(bounds, 1, None):
            out += end - start
            start = end
        return out

    def energy(self) -> float:
        """Integral of normalised power over the timeline (units: us)."""

        out = 0
        bounds = self._bounds
        start = bounds[0]
        for end, draw in zip(islice(bounds, 1, None), self._draws):
            out += draw * (end - start)
            start = end
        return out

    def savings_fraction(self) -> float:
        """1 - E/E_always_on over this link's timeline."""

        total, energy, _ = self.integrate()
        if total <= 0:
            return 0.0
        return 1.0 - energy / total

    def low_power_fraction_of_time(self) -> float:
        total, _, low = self.integrate()
        if total <= 0:
            return 0.0
        return low / total


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
