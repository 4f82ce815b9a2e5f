"""Table III — chosen grouping threshold and MPI-call hit rate.

For every application and process count, sweeps GT candidates over the
baseline event streams and reports the selected GT (maximum hit rate,
smaller GT preferred) together with the hit rate it achieves — the
paper's Table III columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core import GTEvaluation
from ..workloads import APPLICATIONS, DISPLAY_NAMES
from .common import CellResult, paper_grid, run_cells


@dataclass(frozen=True, slots=True)
class Table3Row:
    app: str
    nranks: int
    gt_us: float
    hit_rate_pct: float
    #: the full sweep the selection was made from (same pass, no rerun):
    #: lets consumers inspect runner-up candidates and curve shape
    sweep: tuple[GTEvaluation, ...] = ()


def build_row(cell: CellResult) -> Table3Row:
    return Table3Row(
        app=cell.app,
        nranks=cell.nranks,
        gt_us=cell.gt_us,
        hit_rate_pct=cell.hit_rate_pct,
        sweep=cell.gt_sweep,
    )


def run_table3(
    apps: Sequence[str] | None = None,
    *,
    iterations: int | None = None,
    seed: int = 1234,
    workers: int | None = None,
) -> list[Table3Row]:
    """All Table III rows; cells fan out over ``workers`` processes
    (default: ``REPRO_WORKERS``), bit-for-bit equal to the serial run."""

    specs = [
        dict(app=app, nranks=nranks, displacements=(),
             iterations=iterations, seed=seed)
        for app in apps or APPLICATIONS
        for nranks in paper_grid(app)
    ]
    return [build_row(cell) for cell in run_cells(specs, workers=workers)]


def format_table3(rows: Sequence[Table3Row]) -> str:
    header = f"{'App':8s} {'N proc':>6s} {'GT [us]':>9s} {'hit rate [%]':>13s}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{DISPLAY_NAMES.get(row.app, row.app):8s} {row.nranks:>6d} "
            f"{row.gt_us:>9.0f} {row.hit_rate_pct:>13.1f}"
        )
    return "\n".join(lines)
