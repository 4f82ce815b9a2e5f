"""Experiment drivers: one module per table/figure of the paper.

Each module's docstring names the table or figure it reproduces.  All
drivers share the memoised :func:`repro.experiments.common.run_cell`
pipeline.
"""

from .cluster_sweep import (
    DEFAULT_JOB_STREAMS,
    DEFAULT_PLACEMENTS,
    ClusterCell,
    ClusterSweepRow,
    format_cluster_sweep,
    run_cluster_cell,
    run_cluster_sweep,
)
from .common import (
    CellResult,
    clear_cache,
    default_iterations,
    paper_grid,
    run_cell,
    run_cells,
    table2_parameters,
)
from .fig10 import Fig10Curve, format_fig10, run_fig10
from .figs7_9 import (
    FIGURE_DISPLACEMENTS,
    FigureResult,
    FigureSeries,
    format_figure,
    run_figure,
)
from .table1 import Table1Row, format_table1, run_table1
from .table3 import Table3Row, format_table3, run_table3
from .table4 import Table4Row, format_table4, run_table4
from .sweep import (
    DEFAULT_TOPOLOGIES,
    SWEEP_COLUMNS,
    SweepRow,
    format_sweep,
    run_sweep,
    sweep_cell,
)

__all__ = [
    "CellResult",
    "clear_cache",
    "default_iterations",
    "paper_grid",
    "run_cell",
    "run_cells",
    "table2_parameters",
    "Fig10Curve",
    "format_fig10",
    "run_fig10",
    "FIGURE_DISPLACEMENTS",
    "FigureResult",
    "FigureSeries",
    "format_figure",
    "run_figure",
    "Table1Row",
    "format_table1",
    "run_table1",
    "Table3Row",
    "format_table3",
    "run_table3",
    "Table4Row",
    "format_table4",
    "run_table4",
    "DEFAULT_TOPOLOGIES",
    "SWEEP_COLUMNS",
    "SweepRow",
    "format_sweep",
    "run_sweep",
    "sweep_cell",
    "DEFAULT_JOB_STREAMS",
    "DEFAULT_PLACEMENTS",
    "ClusterCell",
    "ClusterSweepRow",
    "format_cluster_sweep",
    "run_cluster_cell",
    "run_cluster_sweep",
]
