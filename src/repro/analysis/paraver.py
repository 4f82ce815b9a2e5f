"""Paraver-style state timelines (the paper's Fig. 6 measurement tool).

The paper measures full-power vs low-power residency with BSC's Paraver
on the re-simulated traces, and Fig. 6 shows the per-process timeline of
link power modes for GROMACS at 16 processes (dark = low power).  This
module renders the same view from the managed replay's per-link energy
accounts: one text row per rank, time binned into character cells::

    rank  0 ..####..####..####..####..
    rank  1 ..####..####..####..####..

``#`` = low power, ``.`` = full power, ``~`` = transitioning (mode mixed
within the bin: majority wins, transition breaks ties).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..network.links import LinkPowerMode
from ..power.model import LinkEnergyAccount, StateInterval
from ..power.rollup import link_low_residency_pct

_GLYPH = {
    LinkPowerMode.FULL: ".",
    LinkPowerMode.LOW: "#",
    LinkPowerMode.TRANSITION: "~",
}


@dataclass(frozen=True, slots=True)
class TimelineRow:
    rank: int
    cells: str
    low_residency_pct: float


def _bin_modes(
    intervals: Sequence[StateInterval], t_end_us: float, bins: int
) -> list[LinkPowerMode]:
    """Majority power mode per time bin."""

    if bins < 1:
        raise ValueError("need at least one bin")
    edges = np.linspace(0.0, t_end_us, bins + 1)
    out: list[LinkPowerMode] = []
    idx = 0
    ivs = list(intervals)
    for b in range(bins):
        lo, hi = edges[b], edges[b + 1]
        residency = {m: 0.0 for m in LinkPowerMode}
        while idx < len(ivs) and ivs[idx].end_us <= lo:
            idx += 1
        j = idx
        while j < len(ivs) and ivs[j].start_us < hi:
            overlap = min(hi, ivs[j].end_us) - max(lo, ivs[j].start_us)
            if overlap > 0:
                residency[ivs[j].mode] += overlap
            j += 1
        # majority mode; transition breaks ties (visible hand-off)
        best = max(
            residency.items(),
            key=lambda kv: (kv[1], kv[0] is LinkPowerMode.TRANSITION),
        )[0]
        if all(v == 0.0 for v in residency.values()):
            best = LinkPowerMode.FULL
        out.append(best)
    return out


def timeline_rows(
    accounts: Sequence[LinkEnergyAccount],
    t_end_us: float,
    *,
    bins: int = 96,
) -> list[TimelineRow]:
    """One rendered row per rank's closed HCA-link account."""

    rows: list[TimelineRow] = []
    for rank, acc in enumerate(accounts):
        modes = _bin_modes(acc.intervals, t_end_us, bins)
        rows.append(
            TimelineRow(
                rank=rank,
                cells="".join(_GLYPH[m] for m in modes),
                low_residency_pct=link_low_residency_pct(acc),
            )
        )
    return rows


def render_timeline(
    accounts: Sequence[LinkEnergyAccount],
    t_end_us: float,
    *,
    bins: int = 96,
    title: str = "IB link power modes",
) -> str:
    """The Fig. 6 view as text ('#' low power, '.' full power)."""

    rows = timeline_rows(accounts, t_end_us, bins=bins)
    width = max(len(r.cells) for r in rows) if rows else 0
    lines = [title, f"  ({'#'} = low power, {'.'} = full, {'~'} = switching)"]
    for r in rows:
        lines.append(f"rank {r.rank:>3d} {r.cells} {r.low_residency_pct:5.1f}% low")
    lines.append("-" * (9 + width))
    mean = sum(r.low_residency_pct for r in rows) / len(rows) if rows else 0.0
    lines.append(f"mean low-power residency: {mean:.1f}%")
    return "\n".join(lines)


def residency_summary(
    accounts: Sequence[LinkEnergyAccount],
) -> dict[str, float]:
    """Aggregate state residencies (fractions of total link-time)."""

    total = sum(a.total_us for a in accounts)
    if total <= 0:
        return {m.value: 0.0 for m in LinkPowerMode}
    return {
        m.value: sum(a.residency_us(m) for a in accounts) / total
        for m in LinkPowerMode
    }
