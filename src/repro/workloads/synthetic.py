"""Generic SPMD generators for tests.

These are not tied to any of the paper's five applications; they provide
controlled inputs for unit tests (perfectly periodic streams, known gap
distributions).  ROADMAP item 8a plans ring and barrier-storm goldens on
them.
"""

from __future__ import annotations

from .base import WorkloadSpec, make_builders, ring_neighbors
from ..trace.trace import Trace


def ring_sweep(spec: WorkloadSpec, *, message_bytes: int = 8192,
               gap_us: float = 500.0) -> Trace:
    """The paper's Fig. 2 shape: 3 Sendrecv + 2 Allreduce per iteration.

    Perfectly periodic (up to compute jitter); the PPA should detect the
    ``(41,41,41)(10)(10)`` pattern after three iterations.
    """

    trace = Trace.empty("ring_sweep", spec.nranks,
                        iterations=spec.iterations, seed=spec.seed)
    builders = make_builders(trace, spec)
    for _ in range(spec.iterations):
        for b in builders:
            right, left = ring_neighbors(b.rank, spec.nranks)
            b.sendrecv(right, left, message_bytes, tag=1)
            b.compute(3.0)
            b.sendrecv(left, right, message_bytes, tag=2)
            b.compute(3.0)
            b.sendrecv(right, left, message_bytes, tag=3)
            b.compute(gap_us * spec.compute_scale())
            b.allreduce(64)
            b.compute(gap_us * spec.compute_scale())
            b.allreduce(64)
            b.compute(gap_us * spec.compute_scale())
    return trace


def allreduce_storm(spec: WorkloadSpec, *, payload_bytes: int = 4096,
                    compute_us: float = 300.0) -> Trace:
    """Back-to-back Allreduce iterations (collective-dominated)."""

    trace = Trace.empty("allreduce_storm", spec.nranks,
                        iterations=spec.iterations, seed=spec.seed)
    builders = make_builders(trace, spec)
    for _ in range(spec.iterations):
        for b in builders:
            b.allreduce(payload_bytes)
            b.compute(compute_us * spec.compute_scale())
    return trace
