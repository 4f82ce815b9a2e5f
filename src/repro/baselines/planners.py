"""Comparator power-management policies.

The paper positions its software prediction against hardware schemes
that "do not have enough global information about the application"
(Section I, related work [6,7,8]).  This module implements the two
bracketing policies so the benches can place the PPA between them:

* :func:`oracle_directives` — **perfect prediction**: a planner with
  exact knowledge of every future idle gap.  It shuts down after every
  call whose following gap clears the break-even and programs the timer
  so the lanes return exactly ``T_react`` before the next call.  This
  bounds from above what *any* prediction-based scheme can achieve
  (modulo managed-run timing drift); it charges no software overheads.
* :func:`reactive_directives` — the classic **hardware on/off policy**:
  power down after the link has been idle for ``tau``; power back up
  *on demand*, with the reactivation latency exposed to the blocked
  communication.  This is the "huge power saving potential, severely
  degraded performance" strawman of the paper's introduction.  The
  planner only uses information a hardware idle-timer would have (the
  elapsed idle time itself); in the replay, every wake-up pays the full
  ``T_react`` on the critical path.

Both produce the same per-rank directive maps as the PMPI runtime, so
they drop into :func:`repro.sim.dimemas.replay_managed` unchanged.
"""

from __future__ import annotations

from typing import Sequence

from ..power.states import WRPSParams
from ..sim.mpi import RankDirective
from ..trace.events import EventLog, MPIEvent

#: a timer value that never fires within any simulated run: the reactive
#: policy relies exclusively on on-demand (emergency) reactivation.
NEVER_US = 1.0e15


def oracle_directives(
    event_logs: Sequence[EventLog | Sequence[MPIEvent]],
    wrps: WRPSParams | None = None,
) -> list[dict[int, RankDirective]]:
    """Perfect-knowledge shutdown plan from baseline event streams."""

    params = wrps or WRPSParams.paper()
    plans: list[dict[int, RankDirective]] = []
    for events in event_logs:
        directives: dict[int, RankDirective] = {}
        for k, gap in enumerate(EventLog.of(events).gaps_us()):
            if gap <= params.min_worthwhile_idle_us:
                continue
            # lanes back up exactly T_react before the next call enters
            timer = gap - params.t_react_us
            if timer <= params.t_deact_us:
                continue
            directives[k] = RankDirective(shutdown_timer_us=timer)
        plans.append(directives)
    return plans


def reactive_directives(
    event_logs: Sequence[EventLog | Sequence[MPIEvent]],
    wrps: WRPSParams | None = None,
    *,
    idle_threshold_us: float | None = None,
) -> list[dict[int, RankDirective]]:
    """Hardware idle-timer plan: off after ``tau`` idle, wake on demand.

    ``idle_threshold_us`` defaults to the break-even ``2 * T_react``.
    A shutdown is planned for every call whose gap exceeded the
    threshold in the baseline (exactly the calls after which a hardware
    idle counter would have expired); the turn-off executes ``tau``
    after the call exits, and the timer never fires — the next transfer
    performs the emergency reactivation and eats ``T_react``.
    """

    params = wrps or WRPSParams.paper()
    tau = (
        idle_threshold_us
        if idle_threshold_us is not None
        else params.min_worthwhile_idle_us
    )
    if tau < 0:
        raise ValueError("idle threshold must be non-negative")
    plans: list[dict[int, RankDirective]] = []
    for events in event_logs:
        directives: dict[int, RankDirective] = {}
        for k, gap in enumerate(EventLog.of(events).gaps_us()):
            if gap <= tau + params.t_deact_us:
                continue  # the idle counter would not have expired
            directives[k] = RankDirective(
                shutdown_timer_us=NEVER_US, shutdown_delay_us=tau
            )
        plans.append(directives)
    return plans
