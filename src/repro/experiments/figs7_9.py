"""Figures 7, 8 and 9 — power savings and execution-time increase.

The paper's headline evaluation: for each displacement factor (10 %,
5 %, 1 %), two panels over the 5-application x 5-size grid:

* (a) power savings in IB switches [%];
* (b) execution-time increase [%];

plus the per-size average series.  Figure 7 uses displacement 10 %,
Figure 8 uses 5 %, Figure 9 uses 1 % (the paper's best case: 33.52 %
maximum average savings, ~1 % worst-case average slowdown).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..workloads import APPLICATIONS, DISPLAY_NAMES
from .common import paper_grid, run_cells

#: figure number -> displacement factor, as in the paper
FIGURE_DISPLACEMENTS: dict[int, float] = {7: 0.10, 8: 0.05, 9: 0.01}

#: x-axis labels of the figures (BT's square sizes share columns)
SIZE_COLUMNS: tuple[str, ...] = ("8/9", "16", "32/36", "64", "128/100")


@dataclass(slots=True)
class FigureSeries:
    """One application's line across the five sizes."""

    app: str
    sizes: list[int] = field(default_factory=list)
    savings_pct: list[float] = field(default_factory=list)
    slowdown_pct: list[float] = field(default_factory=list)


@dataclass(slots=True)
class FigureResult:
    figure: int
    displacement: float
    series: dict[str, FigureSeries] = field(default_factory=dict)

    def average_savings(self) -> list[float]:
        return self._average("savings_pct")

    def average_slowdown(self) -> list[float]:
        return self._average("slowdown_pct")

    def _average(self, attr: str) -> list[float]:
        ncols = len(SIZE_COLUMNS)
        out: list[float] = []
        for col in range(ncols):
            vals = [
                getattr(s, attr)[col]
                for s in self.series.values()
                if len(getattr(s, attr)) > col
            ]
            out.append(sum(vals) / len(vals) if vals else 0.0)
        return out

    @property
    def max_average_slowdown_pct(self) -> float:
        return max(self.average_slowdown())


def run_figure(
    figure: int,
    *,
    apps: Sequence[str] | None = None,
    iterations: int | None = None,
    seed: int = 1234,
    sizes_limit: int | None = None,
    workers: int | None = None,
) -> FigureResult:
    """Regenerate one of Figures 7/8/9.

    ``sizes_limit`` truncates the size axis (smoke tests); the full grid
    is used when it is None.  The grid's cells are independent, so with
    ``workers`` (default: ``REPRO_WORKERS``) > 1 they fan out across
    worker processes through :func:`~repro.experiments.common.run_cells`
    — results are bit-for-bit identical to the serial sweep.
    """

    if figure not in FIGURE_DISPLACEMENTS:
        raise ValueError(f"figure must be one of {sorted(FIGURE_DISPLACEMENTS)}")
    disp = FIGURE_DISPLACEMENTS[figure]
    result = FigureResult(figure=figure, displacement=disp)
    grid: list[tuple[str, int]] = []
    for app in apps or APPLICATIONS:
        sizes = paper_grid(app)
        if sizes_limit is not None:
            sizes = sizes[:sizes_limit]
        grid.extend((app, nranks) for nranks in sizes)
    cells = run_cells(
        [
            dict(app=app, nranks=nranks, displacements=(disp,),
                 iterations=iterations, seed=seed)
            for app, nranks in grid
        ],
        workers=workers,
    )
    for (app, nranks), cell in zip(grid, cells):
        series = result.series.get(app)
        if series is None:
            series = result.series[app] = FigureSeries(app=app)
        series.sizes.append(nranks)
        series.savings_pct.append(cell.savings_pct(disp))
        series.slowdown_pct.append(cell.slowdown_pct(disp))
    return result


def format_figure(result: FigureResult) -> str:
    """Both panels as aligned text tables (the figures' data series)."""

    ncols = max(len(s.sizes) for s in result.series.values())
    cols = SIZE_COLUMNS[:ncols]
    out: list[str] = []
    out.append(
        f"Figure {result.figure}: displacement = "
        f"{result.displacement * 100:.0f}%"
    )
    for panel, attr, unit in (
        ("(a) Power savings in IB switches", "savings_pct", "%"),
        ("(b) Execution time increase", "slowdown_pct", "%"),
    ):
        out.append(panel)
        header = f"  {'App':10s}" + "".join(f"{c:>10s}" for c in cols)
        out.append(header)
        for app, series in result.series.items():
            vals = getattr(series, attr)
            row = f"  {DISPLAY_NAMES.get(app, app):10s}" + "".join(
                f"{v:>10.2f}" for v in vals
            )
            out.append(row)
        avg = result.average_savings() if attr == "savings_pct" else result.average_slowdown()
        out.append(
            f"  {'AVERAGE':10s}" + "".join(f"{v:>10.2f}" for v in avg[: len(cols)])
        )
    return "\n".join(out)
