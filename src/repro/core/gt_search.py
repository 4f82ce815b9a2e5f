"""Grouping-threshold evaluation and selection (Section IV-C).

The GT decides which MPI calls merge into one gram.  Too small and jitter
splits grams inconsistently across iterations (mispredictions); too large
and genuine idle windows disappear inside grams (no savings).  The paper
sweeps GT from the 2*T_react minimum upward (Fig. 10) and picks, per
application and process count, the value that maximises the rate of
correctly predicted MPI calls (Table III).

``evaluate_gt`` replays the mechanism's *software* side (gram formation,
PPA, monitor) over baseline event streams — no network simulation.  The
sweep runs on the vectorised :mod:`repro.core.fastscan` layer: per-rank
gap/call arrays are precomputed once, candidates are bucketed into
boundary-equivalence groups in a single pass over the sorted gap array,
and one gram-granular pass per group serves every candidate in it —
bit-for-bit equal to the per-candidate slow path, at ~one runtime pass
instead of one per candidate.  ``select_gt`` applies the paper's
criterion, with ties (within an explicit tolerance) broken towards the
smaller GT (more shutdown windows survive).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from ..concurrency import resolve_workers
from ..constants import MIN_GROUPING_THRESHOLD_US
from ..power.states import WRPSParams
from ..trace.events import EventLog, MPIEvent
from .fastscan import RankScan, count_shutdowns, group_candidates, scan_ranks
from .overheads import OverheadModel
from .ppa import PPAConfig
from .runtime import PMPIRuntime, RuntimeConfig, RuntimeStats

#: hit rates closer than this (in percentage points) count as a tie and
#: the smaller GT wins; hit rates are ratios of call counts, so genuine
#: differences are orders of magnitude larger.
GT_TIE_TOLERANCE_PCT = 1e-9

#: rank sample used by GT selection (the hit-rate curve is a per-rank
#: software property; a small sample is representative).  Consumers that
#: reuse a stored selection sweep (Fig. 10) key on this constant.
DEFAULT_SELECT_MAX_RANKS = 4


@dataclass(frozen=True, slots=True)
class GTEvaluation:
    """Aggregate outcome of running the mechanism at one GT value."""

    gt_us: float
    hit_rate_pct: float
    predicted_calls: int
    total_calls: int
    shutdowns_planned: int
    pattern_mispredictions: int
    grams_total: int


@dataclass(frozen=True, slots=True)
class GTSelection:
    """Outcome of :func:`select_gt_detailed`: the winner plus the full
    sweep it was chosen from (Fig. 10 / Table III consumers reuse the
    sweep instead of re-running it)."""

    best: GTEvaluation
    sweep: tuple[GTEvaluation, ...]

    @property
    def gt_us(self) -> float:
        return self.best.gt_us

    @property
    def hit_rate_pct(self) -> float:
        return self.best.hit_rate_pct


def _aggregate(gt_us: float, stats: Sequence[RuntimeStats]) -> GTEvaluation:
    total = sum(s.total_calls for s in stats)
    predicted = sum(s.predicted_calls for s in stats)
    return GTEvaluation(
        gt_us=gt_us,
        hit_rate_pct=100.0 * predicted / total if total else 0.0,
        predicted_calls=predicted,
        total_calls=total,
        shutdowns_planned=sum(s.shutdowns_planned for s in stats),
        pattern_mispredictions=sum(s.pattern_mispredictions for s in stats),
        grams_total=sum(s.grams_total for s in stats),
    )


def _evaluate_gt_reference(
    event_logs: Sequence[EventLog | Sequence[MPIEvent]],
    gt_us: float,
    *,
    displacement: float = 0.01,
    ppa: PPAConfig | None = None,
) -> GTEvaluation:
    """The seed's per-candidate slow path: one full event-level runtime
    pass per rank.  Kept as the equivalence oracle for the fast sweep
    (``tests/core/test_fastscan.py``)."""

    cfg = RuntimeConfig(
        gt_us=gt_us,
        displacement=displacement,
        ppa=ppa or PPAConfig(),
        overheads=OverheadModel(),
        charge_overheads=False,
    )
    stats: list[RuntimeStats] = []
    for events in event_logs:
        runtime = PMPIRuntime(cfg)
        runtime.process_stream(events)
        stats.append(runtime.stats)
    return _aggregate(gt_us, stats)


def evaluate_gt(
    event_logs: Sequence[EventLog | Sequence[MPIEvent]],
    gt_us: float,
    *,
    displacement: float = 0.01,
    ppa: PPAConfig | None = None,
) -> GTEvaluation:
    """Run the mechanism (software side only) at one GT over all ranks."""

    return gt_sweep(event_logs, [gt_us], displacement=displacement, ppa=ppa)[0]


def default_gt_candidates(
    low_us: float = MIN_GROUPING_THRESHOLD_US, high_us: float = 400.0
) -> list[float]:
    """The paper's Fig. 10 sweep range: 2*T_react up to ~400 us."""

    if low_us < MIN_GROUPING_THRESHOLD_US:
        raise ValueError("GT below the 2*T_react minimum")
    candidates: list[float] = []
    v = low_us
    while v <= high_us + 1e-9:
        candidates.append(round(v, 3))
        # finer steps at the small end, where most applications peak
        v += 2.0 if v < 60.0 else (10.0 if v < 150.0 else 25.0)
    return candidates


def _sample_logs(event_logs, max_ranks):
    logs = list(event_logs)
    if max_ranks is not None and len(logs) > max_ranks:
        step = len(logs) / max_ranks
        logs = [logs[int(i * step)] for i in range(max_ranks)]
    return logs


def gt_sweep(
    event_logs: Sequence[EventLog | Sequence[MPIEvent]],
    candidates: Iterable[float] | None = None,
    *,
    displacement: float = 0.01,
    max_ranks: int | None = None,
    ppa: PPAConfig | None = None,
    workers: int | None = None,
) -> list[GTEvaluation]:
    """Fig. 10: hit rate as a function of GT, in ~one runtime pass.

    ``max_ranks`` caps how many ranks are evaluated (the hit-rate curve
    is a per-rank software property; a sample is representative and keeps
    the sweep fast for large runs).  ``workers`` (or ``REPRO_WORKERS``)
    fans the per-rank scans out over processes.
    """

    logs = _sample_logs(event_logs, max_ranks)
    values = list(candidates) if candidates is not None else default_gt_candidates()
    if not values:
        return []
    wrps = WRPSParams.paper()
    nproc = resolve_workers(workers)

    scans = [RankScan.from_events(events) for events in logs]
    groups = group_candidates(scans, values)
    grouped_outcomes = scan_ranks(
        scans,
        [representative for representative, _members in groups],
        ppa=ppa,
        charge_overheads=False,
        workers=nproc,
    )
    results: dict[float, GTEvaluation] = {}
    for (representative, members), outcomes in zip(groups, grouped_outcomes):
        base = _aggregate(representative, [o.stats for o in outcomes])
        idles = np.concatenate(
            [np.asarray(o.idles_us, np.float64) for o in outcomes]
        ) if outcomes else np.empty(0, np.float64)
        shutdowns = count_shutdowns(
            idles,
            members,
            displacement=displacement,
            t_react_us=wrps.t_react_us,
            t_deact_us=wrps.t_deact_us,
        )
        for gt in members:
            results[gt] = replace(
                base, gt_us=gt, shutdowns_planned=shutdowns[gt]
            )
    return [results[gt] for gt in values]


def select_gt_detailed(
    event_logs: Sequence[EventLog | Sequence[MPIEvent]],
    candidates: Iterable[float] | None = None,
    *,
    displacement: float = 0.01,
    max_ranks: int | None = DEFAULT_SELECT_MAX_RANKS,
    tie_tolerance_pct: float = GT_TIE_TOLERANCE_PCT,
    workers: int | None = None,
) -> GTSelection:
    """Table III criterion with the full sweep attached.

    Maximise the hit rate; among candidates within ``tie_tolerance_pct``
    of the maximum, pick the smallest GT.  The small-GT preference
    implements the paper's observation that "a large GT value will
    reduce the number of idle intervals where shifting to low-power mode
    is possible" — and holds regardless of candidate ordering.
    """

    sweep = gt_sweep(
        event_logs,
        candidates,
        displacement=displacement,
        max_ranks=max_ranks,
        workers=workers,
    )
    if not sweep:
        raise ValueError("empty GT candidate list")
    best_rate = max(ev.hit_rate_pct for ev in sweep)
    ties = [ev for ev in sweep if ev.hit_rate_pct >= best_rate - tie_tolerance_pct]
    best = min(ties, key=lambda ev: ev.gt_us)
    return GTSelection(best=best, sweep=tuple(sweep))


def select_gt(
    event_logs: Sequence[EventLog | Sequence[MPIEvent]],
    candidates: Iterable[float] | None = None,
    *,
    displacement: float = 0.01,
    max_ranks: int | None = DEFAULT_SELECT_MAX_RANKS,
    tie_tolerance_pct: float = GT_TIE_TOLERANCE_PCT,
    workers: int | None = None,
) -> GTEvaluation:
    """Table III criterion: maximise hit rate, prefer the smaller GT."""

    return select_gt_detailed(
        event_logs,
        candidates,
        displacement=displacement,
        max_ranks=max_ranks,
        tie_tolerance_pct=tie_tolerance_pct,
        workers=workers,
    ).best
