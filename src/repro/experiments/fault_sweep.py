"""Savings/slowdown vs fault rate x topology: the robustness sweep.

The paper evaluates the link power mechanism on a pristine fabric; real
interconnects degrade — links fail and flap, switches die, reactivations
miss their ``T_react`` deadline.  This sweep runs the full pipeline
(baseline replay, GT selection, planning, managed replays) for each
(topology, fault spec, app, nranks) cell with the deterministic fault
schedule of :mod:`repro.network.faults` armed, and reports the paper's
savings/slowdown metrics next to the fault counters (reroutes, in-flight
retries, wake timeouts).

Three robustness properties distinguish it from the other sweeps:

* a cell whose fabric genuinely partitions does not kill the grid — the
  :class:`~repro.network.faults.FabricPartitioned` report (faulted pair,
  time, blocked ranks) becomes a ``partitioned`` row;
* ``verify=True`` re-runs every cell on the reference replay kernel and
  requires bit-for-bit equality — including the fault summaries, and
  including *identical* partitions (same pair, same simulated time);
* the grid fans out through :func:`~repro.concurrency.run_resilient`,
  so a crashed or stalled worker retries instead of hanging the sweep,
  and ``checkpoint=`` resumes a killed grid from its journal.

With faults disabled (the ``"none"`` spec) every number reproduces the
clean sweeps exactly: the fault machinery is fully out of the replay
path when disarmed.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Sequence

from ..concurrency import (
    ResultJournal,
    resolve_cell_retries,
    resolve_cell_timeout,
    resolve_workers,
    run_resilient,
)
from ..network.faults import NO_FAULTS, FabricPartitioned, parse_faults
from .common import run_cell
from .topo_sweep import DEFAULT_APPS, DEFAULT_TOPOLOGIES

#: the default fault axis: pristine (the control row — must reproduce
#: the clean numbers exactly) + a moderately hostile schedule
DEFAULT_FAULT_SPECS: tuple[str, ...] = (
    NO_FAULTS,
    "faults:seed=7,link_fail=0.15,flap=0.2,degrade=0.2,wake_timeout=0.25,"
    "horizon_us=4000",
)


@dataclass(frozen=True, slots=True)
class FaultSweepRow:
    """One (topology, fault spec, app, nranks) cell of the sweep."""

    topology: str
    faults: str
    app: str
    nranks: int
    status: str  # "ok" or "partitioned"
    gt_us: float
    savings_pct: float
    slowdown_pct: float
    events_applied: int
    reroutes: int
    inflight_retries: int
    wake_timeouts: int
    detail: str = ""

    def cells(self) -> tuple:
        return (
            self.topology, self.faults, self.app, self.nranks, self.status,
            self.gt_us, self.savings_pct, self.slowdown_pct,
            self.events_applied, self.reroutes, self.inflight_retries,
            self.wake_timeouts, self.detail,
        )


def _fault_sweep_worker(job: dict) -> FaultSweepRow:
    """One sweep cell in a worker process (module-level for pickling).

    Catches a genuine partition and returns it as a row; with
    ``verify`` set, re-runs the cell on the reference kernel and
    asserts bit-for-bit equality — same numbers, same fault summaries,
    or the *same* partition (pair and simulated time).
    """

    if multiprocessing.parent_process() is not None:
        os.environ["REPRO_WORKERS"] = "1"  # no nested pools
    spec = job["spec"]
    displacement = job["displacement"]
    verify = job["verify"]
    where = f"{spec['topology']!r}/{spec['faults']!r} ({spec['app']}@{spec['nranks']})"
    try:
        cell = run_cell(**spec)
    except FabricPartitioned as exc:
        if verify:
            try:
                run_cell(**dict(spec, kernel="reference"))
            except FabricPartitioned as ref:
                if ref.key != exc.key:
                    raise AssertionError(
                        f"fast != reference kernel on {where}: partitions "
                        f"diverged ({exc.key} vs {ref.key})"
                    ) from None
            else:
                raise AssertionError(
                    f"fast != reference kernel on {where}: only the fast "
                    "kernel partitioned"
                ) from None
        return FaultSweepRow(
            topology=spec["topology"],
            faults=spec["faults"],
            app=spec["app"],
            nranks=spec["nranks"],
            status="partitioned",
            gt_us=0.0,
            savings_pct=0.0,
            slowdown_pct=0.0,
            events_applied=len(exc.timeline),
            reroutes=0,
            inflight_retries=0,
            wake_timeouts=0,
            detail=str(exc),
        )
    managed = cell.managed[displacement]
    if verify:
        ref = run_cell(**dict(spec, kernel="reference"))
        ref_managed = ref.managed[displacement]
        mismatches = [
            name
            for name, got, want in (
                ("baseline exec", cell.baseline.exec_time_us,
                 ref.baseline.exec_time_us),
                ("managed exec", managed.exec_time_us,
                 ref_managed.exec_time_us),
                ("savings", managed.power_savings_pct,
                 ref_managed.power_savings_pct),
                ("gt", cell.gt_us, ref.gt_us),
                ("baseline faults", cell.baseline.faults,
                 ref.baseline.faults),
                ("managed faults", managed.faults, ref_managed.faults),
            )
            if got != want
        ]
        if mismatches:
            raise AssertionError(
                f"fast != reference kernel on {where}: "
                f"{', '.join(mismatches)} diverged"
            )
    summary = managed.faults
    return FaultSweepRow(
        topology=spec["topology"],
        faults=spec["faults"],
        app=spec["app"],
        nranks=spec["nranks"],
        status="ok",
        gt_us=cell.gt_us,
        savings_pct=managed.power_savings_pct,
        slowdown_pct=managed.exec_time_increase_pct,
        events_applied=summary.events_applied if summary else 0,
        reroutes=summary.reroutes if summary else 0,
        inflight_retries=summary.inflight_retries if summary else 0,
        wake_timeouts=summary.wake_timeouts if summary else 0,
    )


def _job_label(job: dict) -> str:
    spec = job["spec"]
    return (
        f"{spec['app']}@{spec['nranks']} {spec['topology']} {spec['faults']}"
    )


def run_fault_sweep(
    apps: Sequence[str] | None = None,
    *,
    nranks_list: Sequence[int] = (8,),
    topologies: Sequence[str] | None = None,
    fault_specs: Sequence[str] | None = None,
    displacement: float = 0.05,
    iterations: int | None = None,
    seed: int = 1234,
    workers: int | None = None,
    verify: bool = False,
    timeout_s: float | None = None,
    retries: int | None = None,
    checkpoint: str | None = None,
) -> list[FaultSweepRow]:
    """The savings-vs-fault-rate table (topology-major row order).

    Every fault spec is validated up front; a bad spec fails the sweep
    before any cell runs.  The ``"none"`` rows are the control group —
    with faults disabled the pipeline must reproduce the clean sweep
    numbers exactly.
    """

    apps = tuple(apps or DEFAULT_APPS)
    topologies = tuple(topologies or DEFAULT_TOPOLOGIES)
    fault_specs = tuple(fault_specs or DEFAULT_FAULT_SPECS)
    for fs in fault_specs:
        parse_faults(fs)  # fail fast, with the spec named in the error
    jobs = [
        {
            "spec": dict(
                app=app, nranks=nranks, displacements=(displacement,),
                iterations=iterations, seed=seed, topology=topology,
                faults=fs,
            ),
            "displacement": displacement,
            "verify": verify,
        }
        for topology in topologies
        for fs in fault_specs
        for app in apps
        for nranks in nranks_list
    ]
    journal = ResultJournal(checkpoint) if checkpoint else None
    done = journal.load() if journal is not None else {}
    rows: list = [None] * len(jobs)
    pending: list[int] = []
    for i, job in enumerate(jobs):
        key = _job_label(job)
        if key in done:
            rows[i] = done[key]
        else:
            pending.append(i)

    def _on_result(j: int, row: FaultSweepRow) -> None:
        if journal is not None:
            journal.append(_job_label(jobs[pending[j]]), row)

    computed = run_resilient(
        _fault_sweep_worker,
        [jobs[i] for i in pending],
        workers=resolve_workers(workers),
        timeout_s=resolve_cell_timeout(timeout_s),
        retries=resolve_cell_retries(retries),
        label=_job_label,
        on_result=_on_result,
    )
    for i, row in zip(pending, computed):
        rows[i] = row
    return rows


def format_fault_sweep(rows: Sequence[FaultSweepRow]) -> str:
    """Render the sweep as a table, grouped by (topology, fault spec)."""

    header = (
        f"{'Topology':26s} {'App':8s} {'N':>4s} {'status':>11s} "
        f"{'GT[us]':>7s} {'savings%':>9s} {'slowdn%':>8s} "
        f"{'events':>6s} {'rerte':>5s} {'retry':>5s} {'wake':>5s}"
    )
    lines: list[str] = []
    previous = None
    for row in rows:
        group = (row.topology, row.faults)
        if group != previous:
            if previous is not None:
                lines.append("")
            lines.append(f"# {row.topology}  [{row.faults}]")
            lines.append(header)
            lines.append("-" * len(header))
            previous = group
        lines.append(
            f"{row.topology:26s} {row.app:8s} {row.nranks:>4d} "
            f"{row.status:>11s} {row.gt_us:>7.0f} {row.savings_pct:>9.2f} "
            f"{row.slowdown_pct:>8.3f} {row.events_applied:>6d} "
            f"{row.reroutes:>5d} {row.inflight_retries:>5d} "
            f"{row.wake_timeouts:>5d}"
        )
        if row.status == "partitioned" and row.detail:
            lines.append(f"    -> {row.detail}")
    return "\n".join(lines)
