"""Energy savings vs topology family: the scenario-diversity sweep.

The paper evaluates the link power mechanism on exactly one fabric —
the XGFT(2; 18, 14; 1, 18) of Table II — but how much link energy an
MPI-prediction-driven controller can save depends on the fabric shape:
path diversity, oversubscription and hop counts all change how long
links sit idle and how reactivation penalties propagate.  This sweep
runs the full pipeline (baseline replay, GT selection, planning, managed
replays) for paper workloads across topology families from the
:mod:`repro.network.topologies` registry — and, since the power layer
became a policy registry, across power-policy scenarios from
:mod:`repro.power.policies` — reporting, per (policy, topology, app,
nranks) cell, the paper's savings/slowdown metrics, the managed-trunk
savings, and the radix-weighted whole-switch rollup.

Cells fan out over worker processes via the shared
:func:`~repro.experiments.common.run_cells` machinery — results are
bit-for-bit independent of ``--workers``, and ``verify=True`` re-runs
every cell on the reference replay kernel and fails loudly on any
divergence (the acceptance gates ``make topo-smoke`` and
``make policy-smoke`` run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..network.topologies import build_topology, parse_topology
from ..power.policies import DEFAULT_POLICY, parse_policy
from .common import CellResult, run_cells

#: the default family set: the paper fabric + the three new families
DEFAULT_TOPOLOGIES: tuple[str, ...] = (
    "fitted",
    "torus:n=2",
    "dragonfly:a=4,p=2,h=2",
    "fattree2:leaf=8,ratio=4",
)

DEFAULT_APPS: tuple[str, ...] = ("alya", "gromacs")


@dataclass(frozen=True, slots=True)
class TopoSweepRow:
    """One (policy, topology, app, nranks) cell of the sweep."""

    topology: str
    family: str
    app: str
    nranks: int
    hosts: int
    switches: int
    links: int
    gt_us: float
    hit_rate_pct: float
    savings_pct: float
    slowdown_pct: float
    switch_savings_pct: float
    #: canonical power-policy spec this cell replayed under
    policy: str = DEFAULT_POLICY
    #: mean savings over managed trunk links (0 when unmanaged)
    trunk_savings_pct: float = 0.0

    def cells(self) -> tuple:
        return (
            self.policy, self.topology, self.family, self.app, self.nranks,
            self.hosts, self.switches, self.links,
            self.gt_us, self.hit_rate_pct,
            self.savings_pct, self.slowdown_pct,
            self.trunk_savings_pct, self.switch_savings_pct,
        )


def _build_row(
    cell: CellResult, topology: str, displacement: float
) -> TopoSweepRow:
    family, _ = parse_topology(topology)
    # cell.fabric is stripped when the cell crossed a worker-process
    # boundary; the graph itself is cheap and deterministic to rebuild
    if cell.fabric is not None:
        topo = cell.fabric.topo
    else:
        topo = build_topology(topology, cell.nranks)
    managed = cell.managed[displacement]
    return TopoSweepRow(
        topology=topology,
        family=family,
        app=cell.app,
        nranks=cell.nranks,
        hosts=topo.num_hosts,
        switches=len(topo.switches),
        links=len(topo.edges),
        gt_us=cell.gt_us,
        hit_rate_pct=cell.hit_rate_pct,
        savings_pct=managed.power_savings_pct,
        slowdown_pct=managed.exec_time_increase_pct,
        switch_savings_pct=managed.fleet_switch_savings_pct,
        policy=managed.policy,
        trunk_savings_pct=managed.trunk_savings_pct,
    )


def run_topo_sweep(
    apps: Sequence[str] | None = None,
    *,
    nranks_list: Sequence[int] = (16,),
    topologies: Sequence[str] | None = None,
    policies: Sequence[str] | None = None,
    displacement: float = 0.05,
    iterations: int | None = None,
    seed: int = 1234,
    workers: int | None = None,
    verify: bool = False,
) -> list[TopoSweepRow]:
    """The energy-savings table over policy × topology × workload.

    Row order is topology-major with the policy axis innermost, so each
    fabric's scenarios read as one block.  ``policies`` defaults to the
    paper's single scenario (HCA gating only); specs are canonicalised
    through :func:`repro.power.policies.parse_policy` before anything
    runs, so a typo fails fast and equivalent spellings share cells;
    topology specs are parsed up front too.

    With ``verify=True`` every cell is additionally re-run on the
    reference replay kernel (record interpreter + per-message route
    walk) and any mismatch in execution time or savings — per-class
    trunk/switch savings included — raises; the fast == reference
    equality must hold on every (policy, family) pair.
    """

    apps = tuple(apps or DEFAULT_APPS)
    topologies = tuple(topologies or DEFAULT_TOPOLOGIES)
    for topology in topologies:
        parse_topology(topology)
    policies = tuple(
        parse_policy(p).describe() for p in (policies or (DEFAULT_POLICY,))
    )
    grid = [
        (policy, topology, app, nranks)
        for topology in topologies
        for app in apps
        for nranks in nranks_list
        for policy in policies
    ]
    specs = [
        dict(app=app, nranks=nranks, displacements=(displacement,),
             iterations=iterations, seed=seed, topology=topology,
             policy=policy)
        for policy, topology, app, nranks in grid
    ]
    cells = run_cells(specs, workers=workers)
    if verify:
        reference = run_cells(
            [dict(spec, kernel="reference") for spec in specs],
            workers=workers,
        )
        for (policy, topology, app, nranks), fast, ref in zip(
            grid, cells, reference
        ):
            fm = fast.managed[displacement]
            rm = ref.managed[displacement]
            mismatches = [
                name
                for name, got, want in (
                    ("baseline exec", fast.baseline.exec_time_us,
                     ref.baseline.exec_time_us),
                    ("managed exec", fm.exec_time_us, rm.exec_time_us),
                    ("savings", fm.power_savings_pct, rm.power_savings_pct),
                    ("class savings", fm.class_savings, rm.class_savings),
                    ("gt", fast.gt_us, ref.gt_us),
                )
                if got != want
            ]
            if mismatches:
                raise AssertionError(
                    f"fast != reference kernel on {topology!r} / "
                    f"{policy!r} ({app}@{nranks}): "
                    f"{', '.join(mismatches)} diverged"
                )
    return [
        _build_row(cell, topology, displacement)
        for (_, topology, _, _), cell in zip(grid, cells)
    ]


def format_topo_sweep(rows: Sequence[TopoSweepRow]) -> str:
    """Render the sweep as an energy-savings table, grouped by family.

    The policy column is printed only when the sweep actually spans
    more than one policy scenario, so the single-policy table keeps the
    paper-style layout.
    """

    with_policy = len({row.policy for row in rows}) > 1
    header = (
        (f"{'Policy':34s} " if with_policy else "")
        + f"{'Topology':26s} {'App':8s} {'N':>4s} {'hosts':>5s} {'sw':>4s} "
        f"{'links':>5s} {'GT[us]':>7s} {'hit%':>6s} "
        f"{'savings%':>9s} {'slowdn%':>8s} {'trunk%':>7s} {'switch%':>8s}"
    )
    lines = [header, "-" * len(header)]
    previous = None
    for row in rows:
        if previous is not None and row.topology != previous:
            lines.append("")
        previous = row.topology
        lines.append(
            (f"{row.policy:34s} " if with_policy else "")
            + f"{row.topology:26s} {row.app:8s} {row.nranks:>4d} "
            f"{row.hosts:>5d} {row.switches:>4d} {row.links:>5d} "
            f"{row.gt_us:>7.0f} {row.hit_rate_pct:>6.1f} "
            f"{row.savings_pct:>9.2f} {row.slowdown_pct:>8.3f} "
            f"{row.trunk_savings_pct:>7.2f} {row.switch_savings_pct:>8.2f}"
        )
    return "\n".join(lines)
