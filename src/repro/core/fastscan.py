"""Vectorised planning layer for the GT sweep (single-pass candidates).

The seed implementation re-ran the full PMPI software side (gram
formation + PPA + monitor) from scratch for every GT candidate — ~40
event-level passes per rank for one Fig. 10 curve.  Two observations
make the sweep ~one pass instead:

1. **Gram boundaries only change when GT crosses an observed gap.**
   Each rank's inter-call gap array is precomputed once
   (:class:`RankScan`, numpy); a single ``searchsorted`` over the sorted
   union of all gaps buckets every candidate into a *boundary group*
   (:func:`group_candidates`).  Candidates in one group produce
   identical gram arrays on every rank, and — because the numeric GT
   value otherwise only enters Algorithm 3's shutdown thresholds, which
   never feed back into the matching state — identical runtime
   trajectories.  One pass per group serves all its candidates.

2. **The runtime is gram-granular.**  Learning-mode work happens only
   when a gram closes, and in prediction mode a gram either matches the
   expected signature or fails at a position computable from the two
   signatures.  :func:`scan_rank` therefore replays the mechanism over
   the numpy-split gram array (reusing the real :class:`~repro.core.ppa.
   PPA` so pattern-list state is exact) instead of feeding events one at
   a time.

Per-candidate ``shutdowns_planned`` is recovered from the recorded idle
estimates with the exact guard arithmetic of ``plan_shutdown`` — the
sweep output is bit-for-bit equal to the per-candidate slow path (see
``tests/core/test_fastscan.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..constants import MIN_GROUPING_THRESHOLD_US
from ..trace.events import EventLog, MPIEvent
from .grams import Gram
from .overheads import OverheadModel
from .ppa import PPA, PPAConfig
from .runtime import RuntimeStats

# outcomes of matching one observed gram against the predicted cycle
_COMPLETE = 0   # observed == expected; cycle advances
_PARTIAL = 1    # observed is a proper prefix; mismatch surfaces at the
                # next gram boundary (or never, at end of stream)
_MISMATCH = 2   # diverged before completing the expected gram
_OVERRUN = 3    # completed the expected gram, then kept going


@dataclass(frozen=True)
class RankScan:
    """One rank's event stream, pre-lowered to numpy arrays (built once
    per sweep, shared by every candidate group)."""

    calls: np.ndarray     # int64 MPI call ids
    enter_us: np.ndarray  # float64 call-entry times
    exit_us: np.ndarray   # float64 call-exit times
    gaps_us: np.ndarray   # float64 raw inter-call gaps (len n-1)

    @classmethod
    def from_events(
        cls, events: EventLog | Sequence[MPIEvent]
    ) -> "RankScan":
        log = EventLog.of(events)
        n = len(log)
        calls = np.array(log.calls, np.int64)
        enter = np.array(log.enter_us, np.float64)
        exit_ = np.array(log.exit_us, np.float64)
        gaps = enter[1:] - exit_[:-1] if n > 1 else np.empty(0, np.float64)
        return cls(calls=calls, enter_us=enter, exit_us=exit_, gaps_us=gaps)

    @property
    def n_events(self) -> int:
        return len(self.calls)

    def split_grams(self, gt_us: float) -> tuple[list[Gram], list[float]]:
        """Algorithm 1 as one vector operation: grams + boundary gaps."""

        n = self.n_events
        if n == 0:
            return [], []
        cut = np.nonzero(self.gaps_us >= gt_us)[0]
        starts = [0] + (cut + 1).tolist()
        ends = cut.tolist() + [n - 1]
        calls = self.calls.tolist()
        enter = self.enter_us.tolist()
        exit_ = self.exit_us.tolist()
        grams = [
            Gram(
                signature=tuple(calls[s : e + 1]),
                start_us=enter[s],
                end_us=exit_[e],
                first_call_index=s,
                last_call_index=e,
            )
            for s, e in zip(starts, ends)
        ]
        return grams, self.gaps_us[cut].tolist()


def group_candidates(
    scans: Sequence[RankScan], candidates: Sequence[float]
) -> list[tuple[float, list[float]]]:
    """Bucket GT candidates into boundary-equivalence groups.

    Derived in a single pass over the sorted union of every rank's gap
    array: two candidates land in the same group iff no observed gap
    lies in ``[c1, c2)``, i.e. they cut identical gram boundaries on
    every rank.  Returns ``(representative, members)`` pairs in first-
    seen order; the representative is the group's smallest candidate.
    """

    for gt in candidates:
        if gt < MIN_GROUPING_THRESHOLD_US:
            raise ValueError(
                f"GT must be at least 2*T_react = {MIN_GROUPING_THRESHOLD_US} us, "
                f"got {gt}"
            )
    arrays = [s.gaps_us for s in scans if len(s.gaps_us)]
    all_gaps = (
        np.unique(np.concatenate(arrays)) if arrays else np.empty(0, np.float64)
    )
    keys = np.searchsorted(all_gaps, np.asarray(candidates, np.float64), "left")
    groups: dict[int, list[float]] = {}
    for gt, key in zip(candidates, keys.tolist()):
        groups.setdefault(key, []).append(gt)
    return [(min(members), members) for members in groups.values()]


@dataclass(slots=True)
class RankScanOutcome:
    """One rank's trajectory at one boundary group.

    ``stats`` is exactly the slow path's :class:`RuntimeStats` except
    ``shutdowns_planned`` (left 0); ``idles_us`` holds the EWMA idle
    estimate of every consulted boundary, from which the per-candidate
    shutdown count is recovered.
    """

    stats: RuntimeStats
    idles_us: list[float] = field(default_factory=list)


def scan_rank(
    grams: Sequence[Gram],
    boundary_gaps_us: Sequence[float],
    n_events: int,
    *,
    ppa: PPAConfig | None = None,
    overheads: OverheadModel | None = None,
    charge_overheads: bool = False,
) -> RankScanOutcome:
    """Replay the mechanism's software side at gram granularity.

    Semantically identical to ``PMPIRuntime.process_stream`` over the
    events that produced ``grams`` (a gram closes when the first call of
    its successor arrives; the trailing gram closes at end of stream and
    is never scanned), but the per-event work collapses to one tuple
    comparison per predicted gram.
    """

    cfg = ppa or PPAConfig()
    model = overheads or OverheadModel()
    stats = RuntimeStats()
    stats.planning_passes = 1
    stats.total_calls = n_events
    stats.grams_total = len(grams)
    if charge_overheads:
        stats.intercept_overhead_us = model.intercept_us * n_events
    outcome = RankScanOutcome(stats=stats)
    idles = outcome.idles_us

    engine = PPA(cfg)
    record = None          # active PatternRecord while predicting
    cycle_pos = 0
    partial_pending = False  # previous gram matched a proper prefix
    n = len(grams)

    for i in range(n):
        gram = grams[i]
        if record is not None:
            # ---- prediction mode: gram i-1 closed by gram i's first call
            engine.append_only(grams[i - 1])
            if partial_pending:
                # previous gram ended before the predicted size: the
                # boundary itself is the pattern misprediction
                stats.pattern_mispredictions += 1
                record = None
                partial_pending = False
                engine.relaunch(len(engine.grams))
                continue
            record.observe_gap(
                (cycle_pos - 1) % record.size, boundary_gaps_us[i - 1]
            )
            result, cycle_pos = _match_gram(
                gram.signature, 0, record, cycle_pos, stats, idles
            )
            if result == _PARTIAL:
                partial_pending = True
            elif result != _COMPLETE:  # _MISMATCH or _OVERRUN, mid-gram
                stats.pattern_mispredictions += 1
                record = None
                engine.relaunch(len(engine.grams))
            continue

        # ---- learning mode: gram i's first call closes gram i-1
        if i == 0:
            continue
        ops_before = engine.operations
        declaration = engine.add_gram(grams[i - 1])
        ops = engine.operations - ops_before
        if ops > 0:
            stats.ppa_invoked_calls += 1
            stats.ppa_operations += ops
            if charge_overheads:
                stats.ppa_overhead_us += model.ppa_cost_us(ops)
        if declaration is None:
            continue

        # ---- activation: replay the open gram's only call (gram i's
        # first) into the fresh monitor; abandon on mismatch
        rec = declaration.record
        first_sig = rec.key[0]
        if first_sig[0] != gram.signature[0]:
            continue  # stay learning; rec.detected stays set
        stats.declarations += 1
        if declaration.fast_rearm:
            stats.fast_rearms += 1
        record = rec
        cycle_pos = 0
        if len(first_sig) == 1:
            # the replayed call completed the gram inside activation:
            # no predicted-call credit, no shutdown consult (the slow
            # path's _activate bypasses _predict_step)
            cycle_pos = 1 % rec.size
            if len(gram.signature) > 1:
                # the real gram runs past the predicted size
                stats.pattern_mispredictions += 1
                record = None
                engine.relaunch(len(engine.grams))
        else:
            result, cycle_pos = _match_gram(
                gram.signature, 1, record, cycle_pos, stats, idles
            )
            if result == _PARTIAL:
                partial_pending = True
            elif result != _COMPLETE:
                stats.pattern_mispredictions += 1
                record = None
                engine.relaunch(len(engine.grams))

    return outcome


def _match_gram(observed, offset, record, cycle_pos, stats, idles):
    """Match one observed gram signature against the predicted cycle.

    ``offset`` calls were already fed during activation.  Returns the
    outcome token and the updated cycle position, crediting stats and
    recording the consulted idle estimate exactly where the event-level
    monitor would.
    """

    expected = record.key[cycle_pos]
    if offset == 0 and observed == expected:  # hot path: one comparison
        complete = True
    else:
        n_obs, n_exp = len(observed), len(expected)
        limit = min(n_obs, n_exp)
        j = offset
        while j < limit and observed[j] == expected[j]:
            j += 1
        if j < limit:
            return _MISMATCH, cycle_pos
        if n_obs < n_exp:
            return _PARTIAL, cycle_pos
        complete = n_obs == n_exp
    # the expected gram completed (possibly mid-observed-gram)
    stats.grams_matched += 1
    stats.predicted_calls += len(expected)
    idle = record.predicted_gap_us(cycle_pos)
    if idle is not None:
        idles.append(idle)
    new_cycle = (cycle_pos + 1) % record.size
    if complete:
        return _COMPLETE, new_cycle
    return _OVERRUN, new_cycle


def _scan_rank_worker(args) -> list[RankScanOutcome]:
    """Picklable worker body: one rank scanned at every requested GT.

    Batching all GT representatives into one task means a parallel sweep
    ships each rank's arrays to a worker exactly once and uses a single
    process pool, instead of paying pool startup + pickling per
    boundary group.
    """

    scan, gt_values, ppa_cfg, charge = args
    outcomes: list[RankScanOutcome] = []
    for gt_us in gt_values:
        grams, bgaps = scan.split_grams(gt_us)
        outcomes.append(
            scan_rank(
                grams, bgaps, scan.n_events,
                ppa=ppa_cfg, charge_overheads=charge,
            )
        )
    return outcomes


def scan_ranks(
    scans: Sequence[RankScan],
    gt_values: Sequence[float],
    *,
    ppa: PPAConfig | None = None,
    charge_overheads: bool = False,
    workers: int = 1,
) -> list[list[RankScanOutcome]]:
    """Scan every rank at every GT value (optionally in parallel).

    Returns ``result[gt_index][rank_index]`` outcomes; ranks fan out
    over processes, each handling all GT values for its rank.
    """

    from ..concurrency import run_resilient

    cfg = ppa or PPAConfig()
    per_rank = run_resilient(
        _scan_rank_worker,
        [(scan, list(gt_values), cfg, charge_overheads) for scan in scans],
        workers=workers,
    )
    return [
        [rank_outcomes[g] for rank_outcomes in per_rank]
        for g in range(len(gt_values))
    ]


def count_shutdowns(
    idles_us: np.ndarray,
    candidates: Sequence[float],
    *,
    displacement: float,
    t_react_us: float,
    t_deact_us: float,
) -> dict[float, int]:
    """Per-candidate ``shutdowns_planned`` from consulted idle estimates.

    The vectorised counterpart of :func:`repro.core.powerctl.
    shutdown_timer_us` (property-tested against it): a consult plans a
    shutdown iff ``idle > 2*t_react``, ``idle >= gt`` and
    ``idle - (idle*displacement + t_react) > t_deact``.  Only the middle
    guard depends on the candidate, so the GT-independent filter runs
    once and each candidate costs one ``searchsorted``.
    """

    if len(idles_us) == 0:
        return {gt: 0 for gt in candidates}
    timers = idles_us - (idles_us * displacement + t_react_us)
    eligible = np.sort(
        idles_us[(idles_us > 2.0 * t_react_us) & (timers > t_deact_us)]
    )
    total = len(eligible)
    return {
        gt: total - int(np.searchsorted(eligible, gt, "left"))
        for gt in candidates
    }
