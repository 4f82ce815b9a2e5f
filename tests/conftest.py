"""Shared fixtures and stream-building helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.trace.events import (
    Collective,
    Compute,
    MPICall,
    MPIEvent,
    PointToPoint,
)
from repro.trace.trace import Trace


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "differential: cross-kernel/scheduler differential matrix "
        "(excluded by `make test-fast`, included by `make test`)",
    )
    config.addinivalue_line(
        "markers",
        "cluster: multi-job cluster tier (job streams, placement, "
        "shared-fabric scheduling; tests/README.md describes what it "
        "pins)",
    )
    config.addinivalue_line(
        "markers",
        "service: simulation-service tier (daemon admission/backpressure, "
        "warm-cache determinism, crash isolation; tests/README.md "
        "describes what it pins)",
    )


def make_event_stream(pattern, *, call_dur_us=3.0, start_us=0.0):
    """Build a timed MPI event stream from (call, gap_before) pairs.

    ``pattern`` is an iterable of ``(MPICall | int, gap_us)``; each event
    starts ``gap_us`` after the previous event's exit.
    """

    events = []
    t = start_us
    for call, gap in pattern:
        t += gap
        try:
            call = MPICall(call)
        except ValueError:
            pass  # synthetic id outside the registry: fine for PPA tests
        ev = MPIEvent(call, t, t + call_dur_us)
        events.append(ev)
        t = ev.exit_us
    return events


def alya_like_stream(iterations: int, *, intra_gap=2.0, inter_gap=500.0,
                     call_dur_us=3.0):
    """The paper's Fig. 2 stream: 41-41-41 _ 10 _ 10 repeating."""

    pattern = []
    for _ in range(iterations):
        pattern.extend([
            (MPICall.SENDRECV, inter_gap),
            (MPICall.SENDRECV, intra_gap),
            (MPICall.SENDRECV, intra_gap),
            (MPICall.ALLREDUCE, inter_gap),
            (MPICall.ALLREDUCE, inter_gap),
        ])
    return make_event_stream(pattern, call_dur_us=call_dur_us)


def ring_trace(nranks=4, iterations=3, *, size=4096, compute_us=200.0,
               name="ring"):
    """A small balanced sendrecv-ring + allreduce trace."""

    trace = Trace.empty(name, nranks)
    for r in range(nranks):
        proc = trace[r]
        for _ in range(iterations):
            proc.compute(compute_us)
            proc.append(
                PointToPoint(MPICall.SENDRECV, (r + 1) % nranks, size,
                             tag=1, recv_peer=(r - 1) % nranks)
            )
            proc.compute(compute_us / 4)
            proc.append(Collective(MPICall.ALLREDUCE, 64))
    return trace


@pytest.fixture
def small_ring_trace():
    return ring_trace()


@pytest.fixture
def alya_stream():
    return alya_like_stream(6)
