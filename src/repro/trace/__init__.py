"""Trace substrate: MPI event records, trace containers, idle intervals.

This package plays the role of the Paraver/Dimemas trace tooling in the
paper's methodology: it defines what a trace *is* (per-rank sequences of
compute bursts and MPI operations), how it is stored, and how link idle
intervals are extracted and bucketed (Table I).
"""

from .events import (
    Collective,
    Compute,
    MPICall,
    MPIEvent,
    PointToPoint,
    TraceRecord,
    idle_gaps,
    mpi_records,
)
from .intervals import (
    BucketStat,
    IdleDistribution,
    distribution_from_events,
    distribution_from_gaps,
    merge_gap_streams,
)
from .io import (
    TraceParseError,
    dump_trace,
    dumps_trace,
    load_trace,
    loads_trace,
    parse_trace,
    save_trace,
)
from .trace import ProcessTrace, Trace

__all__ = [
    "Collective",
    "Compute",
    "MPICall",
    "MPIEvent",
    "PointToPoint",
    "TraceRecord",
    "idle_gaps",
    "mpi_records",
    "BucketStat",
    "IdleDistribution",
    "distribution_from_events",
    "distribution_from_gaps",
    "merge_gap_streams",
    "TraceParseError",
    "dump_trace",
    "dumps_trace",
    "load_trace",
    "loads_trace",
    "parse_trace",
    "save_trace",
    "ProcessTrace",
    "Trace",
]
