"""repro — reproduction of *Software-Managed Power Reduction in
Infiniband Links* (Dickov, Pericàs, Carpenter, Navarro, Ayguadé;
ICPP 2014).

The paper's mechanism predicts, from the per-process stream of MPI
calls, when InfiniBand links will be idle, and shuts down three of the
four lanes of each 4X link (Mellanox WRPS: 43 % of nominal power) during
those windows, reactivating them just in time via a per-link hardware
timer.  This package implements the full system:

* :mod:`repro.core` — the contribution: n-gram Pattern Prediction
  Algorithm (PPA), power-mode control with displacement factor, the PMPI
  interposition runtime, grouping-threshold tuning;
* :mod:`repro.trace` — Dimemas-like traces and idle-interval analysis;
* :mod:`repro.workloads` — synthetic GROMACS / ALYA / WRF / NAS BT /
  NAS MG trace generators (substituting the proprietary originals);
* :mod:`repro.network` — XGFT fat-tree InfiniBand fabric with 4X links;
* :mod:`repro.sim` — discrete-event MPI replay (the Dimemas/Venus role);
* :mod:`repro.power` — WRPS power states, hardware timer, energy
  accounting;
* :mod:`repro.experiments` — drivers regenerating every table/figure;
* :mod:`repro.analysis` — Paraver-style timelines and ASCII figures.

Quickstart::

    from repro import run_cell

    cell = run_cell("alya", 8, displacements=(0.01,))
    print(cell.hit_rate_pct, cell.savings_pct(0.01))
"""

from . import constants
from .core import (
    PPA,
    PPAConfig,
    RuntimeConfig,
    RuntimeStats,
    TracePlan,
    build_grams,
    gt_sweep,
    plan_trace_directives_shared,
    select_gt_detailed,
)
from .experiments import run_cell, run_figure, run_table1, run_table3, run_table4
from .experiments.common import (
    build_cell, cell_key, replay_displacements, trace_cell_key,
)
from .power import WRPSParams
from .sim import (
    BaselineResult,
    ManagedResult,
    ReplayConfig,
)
from .trace import MPICall, MPIEvent, Trace
from .workloads import APPLICATIONS, PROCESS_COUNTS, make_trace

__version__ = "1.0.0"

__all__ = [
    "constants",
    "PPA",
    "PPAConfig",
    "RuntimeConfig",
    "RuntimeStats",
    "TracePlan",
    "build_grams",
    "gt_sweep",
    "plan_trace_directives_shared",
    "select_gt_detailed",
    "build_cell",
    "cell_key",
    "replay_displacements",
    "run_cell",
    "run_figure",
    "run_table1",
    "run_table3",
    "run_table4",
    "trace_cell_key",
    "WRPSParams",
    "BaselineResult",
    "ManagedResult",
    "ReplayConfig",
    "MPICall",
    "MPIEvent",
    "Trace",
    "APPLICATIONS",
    "PROCESS_COUNTS",
    "make_trace",
    "__version__",
]
