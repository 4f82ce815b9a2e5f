#!/usr/bin/env python
"""Quickstart: run the full power-saving pipeline on one workload.

This walks the paper's methodology end to end on the ALYA-like workload
at 8 processes, through the same two steps every table, figure and the
``repro.cli`` commands run:

* ``build_cell`` — 1. generate a trace (per-rank CPU bursts + MPI
  operations), 2. baseline replay on the fat-tree fabric (always-on
  links), 3. pick the grouping threshold (GT) by hit-rate sweep;
* ``replay_displacements`` — 4. run the PMPI runtime (PPA + power mode
  control) over the baseline event streams to plan lane shutdowns,
  5. managed replay -> power savings and execution-time increase.

Each step reports the pipeline stages it runs as they start.

Run:  python examples/quickstart.py
"""

from repro import build_cell, cell_key, replay_displacements
from repro.experiments.common import STAGES


def narrate(stage: str) -> None:
    print(f"   [{STAGES.index(stage) + 1}/{len(STAGES)}] {stage}")


def main() -> None:
    displacement = 0.01  # the paper's best case (Fig. 9)
    key = cell_key({"app": "alya", "nranks": 8, "iterations": 40})

    print("== build_cell: ALYA-like trace, baseline replay, GT selection")
    cell = build_cell(key, narrate)
    baseline = cell.baseline
    print(f"   {cell.nranks} ranks, "
          f"{sum(len(log) for log in baseline.event_logs)} MPI calls, "
          f"{cell.programs.total_records} records")
    print(f"   baseline execution time: {baseline.exec_time_us / 1e3:.2f} ms, "
          f"{baseline.messages_sent} network messages")
    dist = baseline.idle_distribution()
    print(f"   idle intervals: {dist.total_intervals} total; "
          f"{dist.long.time_share_pct:.1f}% of idle time in >200us windows")
    print(f"   chosen GT = {cell.gt_us:.0f} us, "
          f"predicted-call hit rate = {cell.hit_rate_pct:.1f}%")

    print(f"== replay_displacements: plan shutdowns, managed replay at "
          f"displacement {displacement:.0%}")
    managed = replay_displacements(cell, key, [displacement], narrate)[
        displacement
    ]
    stats = managed.runtime_stats
    print(f"   {sum(s.shutdowns_planned for s in stats)} shutdown directives, "
          f"{sum(s.pattern_mispredictions for s in stats)} pattern "
          f"mispredictions across ranks")
    print(f"   power savings in IB links:   {managed.power_savings_pct:6.2f}%")
    print(f"   execution time increase:     {managed.exec_time_increase_pct:6.2f}%")
    print(f"   low-power residency:         "
          f"{managed.power.mean_low_residency_pct:6.2f}%")
    print(f"   lane shutdowns executed:     {managed.total_shutdowns}")
    print(f"   misprediction penalties:     {managed.total_mispredictions} "
          f"({managed.total_penalty_us:.0f} us total)")


if __name__ == "__main__":
    main()
