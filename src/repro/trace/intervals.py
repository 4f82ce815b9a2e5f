"""Idle-interval extraction and the Table I bucket statistics.

The paper motivates lane shutdown by bucketing per-link idle intervals
into three classes (Table I):

* ``T_idle < 20 us``       — adverse: too short to pay the 2x10 us toggle
* ``20 us < T_idle < 200 us`` — usable, moderate savings
* ``T_idle > 200 us``      — the bulk of the savings opportunity

For each bucket it reports the interval count, the share of intervals and
the share of accumulated idle *time*.  We reproduce exactly those columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..constants import IDLE_BUCKET_EDGES_US
from .events import MPIEvent, idle_gaps


@dataclass(frozen=True, slots=True)
class BucketStat:
    """One Table I cell triple for a single bucket."""

    count: int
    interval_share_pct: float
    time_share_pct: float


@dataclass(frozen=True, slots=True)
class IdleDistribution:
    """Full Table I row: three buckets plus totals."""

    short: BucketStat     # T_idle < low edge
    medium: BucketStat    # low edge <= T_idle < high edge
    long: BucketStat      # T_idle >= high edge
    total_intervals: int
    total_idle_us: float

    @property
    def buckets(self) -> tuple[BucketStat, BucketStat, BucketStat]:
        return (self.short, self.medium, self.long)

    @property
    def reducible_time_share_pct(self) -> float:
        """Share of idle time in intervals where shutdown is worthwhile."""

        return self.medium.time_share_pct + self.long.time_share_pct


def distribution_from_gaps(
    gaps_us: Sequence[float] | np.ndarray,
    edges_us: tuple[float, float] = IDLE_BUCKET_EDGES_US,
) -> IdleDistribution:
    """Bucket raw idle gaps into the Table I distribution.

    ``edges_us`` are the (low, high) boundaries; the paper uses (20, 200).
    Zero-length gaps (back-to-back MPI calls) fall in the short bucket.
    """

    low, high = edges_us
    if not low < high:
        raise ValueError(f"bucket edges must be increasing, got {edges_us}")
    gaps = np.asarray(gaps_us, dtype=np.float64)
    if gaps.ndim != 1:
        raise ValueError("gaps must be one-dimensional")
    if gaps.size and gaps.min() < 0:
        raise ValueError("negative idle gap")

    n = int(gaps.size)
    total = float(gaps.sum())
    masks = (gaps < low, (gaps >= low) & (gaps < high), gaps >= high)

    stats = []
    for mask in masks:
        count = int(mask.sum())
        t = float(gaps[mask].sum())
        stats.append(
            BucketStat(
                count=count,
                interval_share_pct=100.0 * count / n if n else 0.0,
                time_share_pct=100.0 * t / total if total > 0 else 0.0,
            )
        )
    return IdleDistribution(stats[0], stats[1], stats[2], n, total)


def distribution_from_events(
    events: Sequence[MPIEvent],
    edges_us: tuple[float, float] = IDLE_BUCKET_EDGES_US,
) -> IdleDistribution:
    """Table I distribution for one rank's timed MPI event stream."""

    return distribution_from_gaps(idle_gaps(events), edges_us)


def merge_gap_streams(streams: Sequence[Sequence[float]]) -> np.ndarray:
    """Concatenate per-rank gap lists into one population.

    Table I aggregates over all link endpoints of a run; the per-rank
    inter-communication gaps are the per-HCA-link idle intervals.
    """

    if not streams:
        return np.empty(0, dtype=np.float64)
    return np.concatenate([np.asarray(s, dtype=np.float64) for s in streams])
