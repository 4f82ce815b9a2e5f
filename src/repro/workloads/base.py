"""Workload generator framework.

The paper evaluates on MPI traces of five production HPC applications
captured on MareNostrum-class hardware.  Those traces are proprietary, so
this package synthesises per-application traces that reproduce the
*communication structure* the PPA actually consumes: the sequence of MPI
calls per rank, the grouping of calls into bursts (grams), the idle-gap
distribution between bursts (Table I's shape), the degree of iteration
regularity (Table III's hit-rate band), and strong-scaling compute
shrinkage (Figs. 7-9's trend).

Common machinery:

* :class:`WorkloadSpec` — name + nranks + iterations + seed + scaling;
* :class:`TraceBuilder` — per-rank cursor helpers (compute with jitter,
  paired sendrecv, collectives) on top of :class:`repro.trace.Trace`;
* log-normal multiplicative jitter on compute bursts, seeded and
  reproducible, modelling OS noise and per-iteration load imbalance.

Strong scaling divides a fixed total work pool over P ranks (the paper's
runs are strong scaling — "we use strong scaling traces where network
communication becomes more dominant in larger scale runs"); weak scaling
keeps per-rank work constant and is provided for the paper's Section VI
expectation ("our system would benefit more in weak scaling runs").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..trace.events import Collective, MPICall, PointToPoint
from ..trace.trace import ProcessTrace, Trace


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Parameters shared by every application generator."""

    nranks: int
    iterations: int = 30
    seed: int = 1234
    scaling: str = "strong"           # "strong" | "weak"
    #: reference process count at which base_compute_us applies unscaled
    reference_ranks: int = 8
    #: multiplicative compute jitter (log-normal sigma); ~1.5 % noise
    jitter_sigma: float = 0.015

    def __post_init__(self) -> None:
        if self.nranks < 2:
            raise ValueError("need at least 2 ranks")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.scaling not in ("strong", "weak"):
            raise ValueError(f"unknown scaling mode {self.scaling!r}")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")

    def compute_scale(self) -> float:
        """Per-rank compute multiplier for this process count.

        Strong scaling: work pool fixed, per-rank share shrinks like
        ref/P.  Weak scaling: constant per-rank work.
        """

        if self.scaling == "weak":
            return 1.0
        return self.reference_ranks / self.nranks

    def message_scale(self) -> float:
        """Halo-message size multiplier under strong scaling.

        3-D domain decomposition: per-rank volume shrinks like 1/P, the
        halo surface like (1/P)^(2/3).
        """

        if self.scaling == "weak":
            return 1.0
        return (self.reference_ranks / self.nranks) ** (2.0 / 3.0)


class TraceBuilder:
    """Cursor-style helpers for writing one rank's records."""

    def __init__(self, trace: Trace, rank: int, rng: np.random.Generator,
                 jitter_sigma: float) -> None:
        self.trace = trace
        self.rank = rank
        self.proc: ProcessTrace = trace[rank]
        self.rng = rng
        self.jitter_sigma = jitter_sigma

    def compute(self, mean_us: float) -> None:
        """A jittered CPU burst (log-normal multiplicative noise)."""

        if mean_us <= 0:
            return
        if self.jitter_sigma > 0:
            factor = float(
                self.rng.lognormal(mean=0.0, sigma=self.jitter_sigma)
            )
        else:
            factor = 1.0
        self.proc.compute(mean_us * factor)

    def sendrecv(self, dst: int, src: int, size_bytes: int, tag: int = 0) -> None:
        self.proc.append(
            PointToPoint(
                MPICall.SENDRECV, dst, size_bytes, tag, recv_peer=src
            )
        )

    def send(self, dst: int, size_bytes: int, tag: int = 0) -> None:
        self.proc.append(PointToPoint(MPICall.SEND, dst, size_bytes, tag))

    def recv(self, src: int, size_bytes: int, tag: int = 0) -> None:
        self.proc.append(PointToPoint(MPICall.RECV, src, size_bytes, tag))

    def isend(self, dst: int, size_bytes: int, tag: int = 0) -> None:
        self.proc.append(PointToPoint(MPICall.ISEND, dst, size_bytes, tag))

    def irecv(self, src: int, size_bytes: int, tag: int = 0) -> None:
        self.proc.append(PointToPoint(MPICall.IRECV, src, size_bytes, tag))

    def allreduce(self, size_bytes: int) -> None:
        self.proc.append(Collective(MPICall.ALLREDUCE, size_bytes))

    def bcast(self, size_bytes: int, root: int = 0) -> None:
        self.proc.append(Collective(MPICall.BCAST, size_bytes, root))

    def barrier(self) -> None:
        self.proc.append(Collective(MPICall.BARRIER, 0))

    def reduce(self, size_bytes: int, root: int = 0) -> None:
        self.proc.append(Collective(MPICall.REDUCE, size_bytes, root))

    def allgather(self, size_bytes: int) -> None:
        self.proc.append(Collective(MPICall.ALLGATHER, size_bytes))


def make_builders(
    trace: Trace, spec: WorkloadSpec
) -> list[TraceBuilder]:
    """One seeded builder per rank (independent per-rank RNG streams)."""

    seq = np.random.SeedSequence(spec.seed)
    children = seq.spawn(trace.nranks)
    return [
        TraceBuilder(trace, r, np.random.default_rng(children[r]),
                     spec.jitter_sigma)
        for r in range(trace.nranks)
    ]


def ring_neighbors(rank: int, nranks: int) -> tuple[int, int]:
    """(next, previous) rank on a 1-D periodic ring."""

    return (rank + 1) % nranks, (rank - 1) % nranks


def grid_2d(nranks: int) -> tuple[int, int]:
    """Factor ``nranks`` into the most square 2-D grid (rows, cols)."""

    best = (1, nranks)
    for rows in range(1, int(math.isqrt(nranks)) + 1):
        if nranks % rows == 0:
            best = (rows, nranks // rows)
    return best


def grid_coords(rank: int, rows: int, cols: int) -> tuple[int, int]:
    return rank // cols, rank % cols


def grid_rank(r: int, c: int, rows: int, cols: int) -> int:
    return (r % rows) * cols + (c % cols)


WorkloadFn = Callable[[WorkloadSpec], Trace]
