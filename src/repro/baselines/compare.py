"""Three-way policy comparison: PPA vs reactive hardware vs oracle.

Used by the ablation bench and the policy-comparison example.  Builds
one cell through the experiment pipeline (trace, programs, fabric,
baseline, GT) and replays it managed under each policy's directives,
collecting (savings, slowdown, wake penalties).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..experiments.common import (
    build_cell,
    cell_key,
    replay_directives,
    replay_displacements,
)
from ..power.states import WRPSParams
from .planners import oracle_directives, reactive_directives


@dataclass(frozen=True, slots=True)
class PolicyOutcome:
    policy: str
    savings_pct: float
    slowdown_pct: float
    shutdowns: int
    wake_penalty_us: float

    def row(self) -> str:
        return (
            f"{self.policy:>10s} {self.savings_pct:>9.2f} "
            f"{self.slowdown_pct:>10.3f} {self.shutdowns:>10d} "
            f"{self.wake_penalty_us:>12.0f}"
        )


@dataclass(frozen=True, slots=True)
class PolicyComparison:
    app: str
    nranks: int
    gt_us: float
    outcomes: tuple[PolicyOutcome, ...]

    def by_name(self, name: str) -> PolicyOutcome:
        for o in self.outcomes:
            if o.policy == name:
                return o
        raise KeyError(name)

    def format(self) -> str:
        lines = [
            f"{self.app} @ {self.nranks} ranks (GT={self.gt_us:.0f} us)",
            f"{'policy':>10s} {'savings%':>9s} {'slowdown%':>10s} "
            f"{'shutdowns':>10s} {'penalty us':>12s}",
        ]
        lines.extend(o.row() for o in self.outcomes)
        return "\n".join(lines)


def compare_policies(
    app: str,
    nranks: int,
    *,
    iterations: int = 40,
    seed: int = 1234,
    displacement: float = 0.01,
    reactive_threshold_us: float | None = None,
    wrps: WRPSParams | None = None,
) -> PolicyComparison:
    """Run PPA, reactive and oracle policies over the same cell.

    The cell (baseline, GT raised to the WRPS break-even, programs)
    comes from :func:`~repro.experiments.common.build_cell`; the ``ppa``
    row is the pipeline's own managed replay, and the comparators replay
    their directives on the same programs and the same pooled fabric.
    """

    key = cell_key(dict(
        app=app, nranks=nranks, iterations=iterations, seed=seed, wrps=wrps,
    ))
    cell = build_cell(key)
    logs = cell.baseline.event_logs
    runs = {
        "ppa": replay_displacements(cell, key, [displacement])[displacement],
        "reactive": replay_directives(
            cell, key, displacement,
            reactive_directives(
                logs, key.wrps, idle_threshold_us=reactive_threshold_us
            ),
        ),
        "oracle": replay_directives(
            cell, key, displacement, oracle_directives(logs, key.wrps)
        ),
    }
    outcomes = tuple(
        PolicyOutcome(
            policy=name,
            savings_pct=managed.power_savings_pct,
            slowdown_pct=managed.exec_time_increase_pct,
            shutdowns=managed.total_shutdowns,
            wake_penalty_us=managed.total_penalty_us,
        )
        for name, managed in runs.items()
    )
    return PolicyComparison(
        app=app, nranks=nranks, gt_us=cell.planned_gt_us, outcomes=outcomes
    )
