"""Savings/slowdown over topology x faults x policy: the single-job sweep.

The paper evaluates the link power mechanism on exactly one pristine
fabric — the XGFT(2; 18, 14; 1, 18) of Table II.  This sweep runs the
full pipeline (baseline replay, GT selection, planning, managed
replays) for each (topology, fault spec, power policy, app, nranks)
cell: topology families from :mod:`repro.network.topologies`, the
deterministic fault schedules of :mod:`repro.network.faults` and the
power-policy scenarios of :mod:`repro.power.policies`.  Each row
carries the fabric's shape, the paper's GT/hit-rate and
savings/slowdown metrics, the managed-trunk savings, the radix-weighted
whole-switch rollup and the fault counters (reroutes, in-flight
retries, wake timeouts).

A clean sweep is a fault sweep whose only fault spec is ``"none"``;
with faults disarmed every number is the clean pipeline's.  Every cell
runs through :func:`sweep_cell`, the one body the cluster sweep shares:

* a cell whose fabric genuinely partitions does not kill the grid — the
  :class:`~repro.network.faults.FabricPartitioned` report (faulted pair,
  time, blocked ranks) becomes a ``partitioned`` row;
* ``verify=True`` re-runs the cell on the reference replay kernel and
  requires bit-for-bit equality of a named list of observables, or the
  *same* partition (pair and simulated time);
* the grid fans out through :func:`~repro.concurrency.run_resilient`,
  so a crashed or stalled worker retries instead of hanging the sweep,
  results are bit-for-bit independent of ``workers``, and
  ``checkpoint=`` resumes a killed grid from its journal; a job whose
  inputs changed since it was journalled is recomputed.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import astuple, dataclass, fields
from typing import Callable, Sequence

from ..concurrency import (
    resolve_cell_retries,
    resolve_cell_timeout,
    resolve_workers,
    run_resilient,
)
from ..network.faults import NO_FAULTS, FabricPartitioned, parse_faults
from ..network.topologies import build_topology, parse_topology
from ..power.policies import DEFAULT_POLICY, parse_policy
from .common import CellResult, default_iterations, run_cell

#: the default family set: the paper fabric + the three other families
DEFAULT_TOPOLOGIES: tuple[str, ...] = (
    "fitted",
    "torus:n=2",
    "dragonfly:a=4,p=2,h=2",
    "fattree2:leaf=8,ratio=4",
)

DEFAULT_APPS: tuple[str, ...] = ("alya", "gromacs")


def sweep_cell(
    run: Callable,
    spec: dict,
    *,
    verify: bool,
    where: str,
    observables: Callable[[dict, object], dict],
    row: Callable,
    partition_row: Callable,
):
    """Run one sweep cell and return its row: the body every sweep shares.

    ``run(**spec)`` computes the cell; ``row(spec, cell)`` renders it.
    A :class:`FabricPartitioned` becomes ``partition_row(spec, exc)``.
    With ``verify`` the cell is re-run on the reference kernel, which
    must partition the same way (same key: faulted pair and simulated
    time) or produce equal ``observables(spec, cell)`` (a dict of
    named values); any difference raises one :class:`AssertionError` naming
    the cell (``where``) and what diverged.
    """

    if multiprocessing.parent_process() is not None:
        os.environ["REPRO_WORKERS"] = "1"  # no nested pools
    reference = dict(spec, kernel="reference")
    try:
        cell = run(**spec)
    except FabricPartitioned as exc:
        if verify:
            try:
                run(**reference)
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
        return partition_row(spec, exc)
    if verify:
        got = observables(spec, cell)
        want = observables(spec, run(**reference))
        diverged = [name for name, value in got.items()
                    if value != want[name]]
        if diverged:
            raise AssertionError(
                f"fast != reference kernel on {where}: "
                f"{', '.join(diverged)} diverged"
            )
    return row(spec, cell)


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One (topology, fault spec, policy, app, nranks) cell of the sweep.

    A ``partitioned`` row keeps the cell's identity and fabric shape,
    the applied fault timeline's length and the partition report
    (``detail``); its pipeline metrics are zero.
    """

    policy: str
    topology: str
    family: str
    faults: str
    app: str
    nranks: int
    status: str  # "ok" or "partitioned"
    hosts: int
    switches: int
    links: int
    gt_us: float = 0.0
    hit_rate_pct: float = 0.0
    savings_pct: float = 0.0
    slowdown_pct: float = 0.0
    #: mean savings over managed trunk links (0 when unmanaged)
    trunk_savings_pct: float = 0.0
    switch_savings_pct: float = 0.0
    events_applied: int = 0
    reroutes: int = 0
    inflight_retries: int = 0
    wake_timeouts: int = 0
    detail: str = ""

    def cells(self) -> tuple:
        return astuple(self)


#: the CSV header: one column per :class:`SweepRow` field, in order
SWEEP_COLUMNS: tuple[str, ...] = tuple(f.name for f in fields(SweepRow))


def single_job_observables(spec: dict, cell: CellResult) -> dict:
    """What ``verify`` requires the two kernels to agree on."""

    (displacement,) = spec["displacements"]
    managed = cell.managed[displacement]
    return {
        "baseline exec": cell.baseline.exec_time_us,
        "managed exec": managed.exec_time_us,
        "savings": managed.power_savings_pct,
        "class savings": managed.class_savings,
        "gt": cell.gt_us,
        "baseline faults": cell.baseline.faults,
        "managed faults": managed.faults,
    }


def _row(spec: dict, status: str, **metrics) -> SweepRow:
    topology = spec["topology"]
    # the graph is cheap and deterministic to rebuild, and a partitioned
    # cell has no fabric to read it from
    topo = build_topology(topology, spec["nranks"])
    return SweepRow(
        policy=spec["policy"],
        topology=topology,
        family=parse_topology(topology)[0],
        faults=spec["faults"],
        app=spec["app"],
        nranks=spec["nranks"],
        status=status,
        hosts=topo.num_hosts,
        switches=len(topo.switches),
        links=len(topo.edges),
        **metrics,
    )


def _cell_row(spec: dict, cell: CellResult) -> SweepRow:
    (displacement,) = spec["displacements"]
    managed = cell.managed[displacement]
    summary = managed.faults
    return _row(
        spec, "ok",
        gt_us=cell.gt_us,
        hit_rate_pct=cell.hit_rate_pct,
        savings_pct=managed.power_savings_pct,
        slowdown_pct=managed.exec_time_increase_pct,
        trunk_savings_pct=managed.trunk_savings_pct,
        switch_savings_pct=managed.fleet_switch_savings_pct,
        events_applied=summary.events_applied if summary else 0,
        reroutes=summary.reroutes if summary else 0,
        inflight_retries=summary.inflight_retries if summary else 0,
        wake_timeouts=summary.wake_timeouts if summary else 0,
    )


def _partition_row(spec: dict, exc: FabricPartitioned) -> SweepRow:
    return _row(
        spec, "partitioned",
        events_applied=len(exc.timeline), detail=str(exc),
    )


def _job_label(job: dict) -> str:
    spec = job["spec"]
    return (
        f"{spec['app']}@{spec['nranks']} {spec['topology']} "
        f"{spec['faults']} {spec['policy']}"
    )


def _sweep_worker(job: dict) -> SweepRow:
    """One sweep cell, in a worker process or in-process (module-level
    for pickling)."""

    return sweep_cell(
        run_cell, job["spec"], verify=job["verify"], where=_job_label(job),
        observables=single_job_observables, row=_cell_row,
        partition_row=_partition_row,
    )


def run_sweep(
    apps: Sequence[str] | None = None,
    *,
    nranks_list: Sequence[int] = (16,),
    topologies: Sequence[str] | None = None,
    fault_specs: Sequence[str] | None = None,
    policies: Sequence[str] | None = None,
    displacement: float = 0.05,
    iterations: int | None = None,
    seed: int = 1234,
    workers: int | None = None,
    verify: bool = False,
    timeout_s: float | None = None,
    retries: int | None = None,
    checkpoint: str | None = None,
) -> list[SweepRow]:
    """The sweep table over topology × faults × policy × app × nranks.

    Rows come in that axis order, topology outermost.  ``fault_specs``
    defaults to ``("none",)`` (a clean sweep) and ``policies`` to the
    paper's HCA-only gating.  Every topology, fault and policy spec is
    parsed before any cell runs, so a typo fails fast; policies are
    canonicalised through :func:`repro.power.policies.parse_policy`, so
    equivalent spellings share cells.
    """

    apps = tuple(apps or DEFAULT_APPS)
    topologies = tuple(topologies or DEFAULT_TOPOLOGIES)
    fault_specs = tuple(fault_specs or (NO_FAULTS,))
    for topology in topologies:
        parse_topology(topology)
    for fs in fault_specs:
        parse_faults(fs)
    policies = tuple(
        parse_policy(p).describe() for p in (policies or (DEFAULT_POLICY,))
    )
    if iterations is None:
        iterations = default_iterations()
    jobs = [
        {
            "spec": dict(
                app=app, nranks=nranks, displacements=(displacement,),
                iterations=iterations, seed=seed, topology=topology,
                faults=fs, policy=policy,
            ),
            "verify": verify,
        }
        for topology in topologies
        for fs in fault_specs
        for policy in policies
        for app in apps
        for nranks in nranks_list
    ]
    return run_resilient(
        _sweep_worker, jobs,
        workers=resolve_workers(workers),
        timeout_s=resolve_cell_timeout(timeout_s),
        retries=resolve_cell_retries(retries),
        label=_job_label,
        checkpoint=checkpoint,
    )


def format_sweep(rows: Sequence[SweepRow]) -> str:
    """Render the sweep as a table, one block per (topology, fault spec).

    The policy is the last column, so long policy specs do not push the
    numbers out of line.
    """

    header = (
        f"{'App':8s} {'N':>4s} {'status':>11s} {'hosts':>5s} {'sw':>4s} "
        f"{'links':>5s} {'GT[us]':>7s} {'hit%':>6s} {'savings%':>9s} "
        f"{'slowdn%':>8s} {'trunk%':>7s} {'switch%':>8s} {'events':>6s} "
        f"{'rerte':>5s} {'retry':>5s} {'wake':>5s}  Policy"
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
            f"{row.app:8s} {row.nranks:>4d} {row.status:>11s} "
            f"{row.hosts:>5d} {row.switches:>4d} {row.links:>5d} "
            f"{row.gt_us:>7.0f} {row.hit_rate_pct:>6.1f} "
            f"{row.savings_pct:>9.2f} {row.slowdown_pct:>8.3f} "
            f"{row.trunk_savings_pct:>7.2f} {row.switch_savings_pct:>8.2f} "
            f"{row.events_applied:>6d} {row.reroutes:>5d} "
            f"{row.inflight_retries:>5d} {row.wake_timeouts:>5d}  "
            f"{row.policy}"
        )
        if row.status == "partitioned" and row.detail:
            lines.append(f"    -> {row.detail}")
    return "\n".join(lines)
