"""Workload substrate: synthetic traces for the paper's five applications.

Substitutes the proprietary production traces (GROMACS, ALYA, WRF,
NAS BT, NAS MG from MareNostrum-class hardware) with parameterised
generators that reproduce the communication *structure* the mechanism
feeds on.  :mod:`repro.workloads.base` gives the substitution rationale,
and each application module's docstring the structure it reproduces.
"""

from .base import (
    TraceBuilder,
    WorkloadSpec,
    grid_2d,
    grid_coords,
    grid_rank,
    make_builders,
    ring_neighbors,
)
from .registry import (
    APPLICATIONS,
    DISPLAY_NAMES,
    GENERATORS,
    PROCESS_COUNTS,
    make_trace,
    reference_ranks,
)
from .synthetic import allreduce_storm, ring_sweep

__all__ = [
    "TraceBuilder",
    "WorkloadSpec",
    "grid_2d",
    "grid_coords",
    "grid_rank",
    "make_builders",
    "ring_neighbors",
    "APPLICATIONS",
    "DISPLAY_NAMES",
    "GENERATORS",
    "PROCESS_COUNTS",
    "make_trace",
    "reference_ranks",
    "allreduce_storm",
    "ring_sweep",
]
