"""Differential test harness: every replay variant is one simulator.

The replay pipeline has one selectable fast layer — the
compiled-rank-program kernel (``ReplayConfig(kernel=...)``) — with
``kernel="reference"`` kept as the plain oracle implementation.  This
module is the standing safety net for engine rewrites: it replays a
workload × {ranks, displacement, eager/rendezvous mix} matrix through
**every** kernel and asserts that everything observable is bit-for-bit
identical to the oracle — execution times, per-rank timed event streams,
message/byte counters, per-channel busy logs, switch traffic, power
reports, event counters and the full per-link power-state timelines.

Adding a kernel variant
-----------------------

Add the new kernel to :data:`KERNELS` below once it is selectable through
:class:`repro.sim.ReplayConfig`.  Nothing else changes — the whole
matrix, including the hypothesis-generated random traces, immediately
runs through the new variant and pins it to the oracle.

This file is tier "differential" (``make test-full``); the plain unit
suite skips it via ``make test-fast``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import EAGER_THRESHOLD_BYTES
from repro.core import RuntimeConfig, plan_trace_directives, select_gt
from repro.sim import (
    ReplayConfig,
    fabric_for,
    fabric_usage,
    replay_baseline,
    replay_managed,
)
from repro.sim.collectives import clear_schedule_cache
from repro.trace.events import Collective, MPICall, PointToPoint
from repro.trace.trace import Trace
from repro.workloads import make_trace

pytestmark = pytest.mark.differential

#: the variant axis; the oracle is listed first so every other kernel
#: is compared against it
KERNELS = ("reference", "fast")

#: eager/rendezvous protocol mixes: everything-rendezvous (only
#: zero-byte control messages stay eager), the paper's default mix, and
#: everything-eager
THRESHOLDS = (0, EAGER_THRESHOLD_BYTES, 1 << 30)


def _mixed_trace(nranks: int, iterations: int = 3) -> Trace:
    """P2p ring + nonblocking exchange + collectives, communication-balanced."""

    trace = Trace.empty("mixed", nranks)
    for r in range(nranks):
        p = trace[r]
        right, left = (r + 1) % nranks, (r - 1) % nranks
        for i in range(iterations):
            p.compute(40.0 * (r % 4 + 1))
            p.append(PointToPoint(MPICall.SENDRECV, right, 1 << 15,
                                  tag=i, recv_peer=left))
            p.append(PointToPoint(MPICall.IRECV, left, 6000, tag=100 + i))
            p.append(PointToPoint(MPICall.ISEND, right, 6000, tag=100 + i))
            p.append(PointToPoint(MPICall.WAITALL, r, 0, 0))
            p.append(Collective(MPICall.ALLREDUCE, 512))
            p.append(Collective(MPICall.BCAST, 2048, root=i % nranks))
            p.append(Collective(MPICall.BARRIER, 0))
    return trace


def _baseline_observables(trace, cfg):
    clear_schedule_cache()
    fabric = fabric_for(trace.nranks, cfg)
    result = replay_baseline(trace, cfg, fabric=fabric)
    return {
        "exec_time_us": result.exec_time_us,
        "event_logs": result.event_logs,
        "messages_sent": result.messages_sent,
        "bytes_carried": result.bytes_carried,
        "usage": fabric_usage(fabric, result.exec_time_us),
        "busy_logs": fabric.host_link_busy_logs(),
        "switch_traffic": fabric.switch_traffic(),
    }, result


def _managed_observables(trace, cfg, displacement):
    clear_schedule_cache()
    fabric = fabric_for(trace.nranks, cfg)
    baseline = replay_baseline(trace, cfg, fabric=fabric)
    gt = select_gt(baseline.event_logs)
    directives, stats = plan_trace_directives(
        baseline.event_logs,
        RuntimeConfig(gt_us=gt.gt_us, displacement=displacement),
    )
    managed = replay_managed(
        trace,
        directives,
        baseline_exec_time_us=baseline.exec_time_us,
        displacement=displacement,
        grouping_thresholds_us=[gt.gt_us] * trace.nranks,
        config=cfg,
        runtime_stats=stats,
        fabric=fabric,
    )
    # the zero-spawn invariant holds on every kernel: nonblocking and
    # rendezvous operations run processlessly everywhere
    assert baseline.helper_spawns == 0
    assert managed.helper_spawns == 0
    return {
        "baseline_exec_us": baseline.exec_time_us,
        "exec_time_us": managed.exec_time_us,
        "event_logs": managed.event_logs,
        "power": managed.power,
        "counters": managed.counters,
        "intervals": [acc.intervals for acc in managed.accounts],
        "energy": [acc.energy() for acc in managed.accounts],
        "helper_spawns": managed.helper_spawns,
    }


def _assert_equal(got: dict, want: dict, combo) -> None:
    for key in want:
        assert got[key] == want[key], (combo, key)


class TestBaselineMatrix:
    """Baseline replays: workloads × protocol mixes × all combos."""

    @pytest.mark.parametrize("app,nranks", [
        ("alya", 8), ("gromacs", 8), ("nas_mg", 16),
    ])
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_workload(self, app, nranks, threshold):
        trace = make_trace(app, nranks, iterations=3, seed=11)
        want = None
        for kernel in KERNELS:
            cfg = ReplayConfig(
                seed=11, kernel=kernel,
                eager_threshold_bytes=threshold,
            )
            got, _ = _baseline_observables(trace, cfg)
            if want is None:
                want = got
            else:
                _assert_equal(got, want, kernel)

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_mixed_trace(self, threshold):
        trace = _mixed_trace(6)
        want = None
        for kernel in KERNELS:
            cfg = ReplayConfig(
                seed=5, kernel=kernel,
                eager_threshold_bytes=threshold,
            )
            got, _ = _baseline_observables(trace, cfg)
            if want is None:
                want = got
            else:
                _assert_equal(got, want, kernel)


class TestManagedMatrix:
    """Full managed pipeline (GT + PPA directives) through every combo."""

    @pytest.mark.parametrize("app,nranks", [("alya", 8), ("gromacs", 8)])
    @pytest.mark.parametrize("displacement", (0.02, 0.08))
    @pytest.mark.parametrize("threshold", (0, EAGER_THRESHOLD_BYTES))
    def test_workload(self, app, nranks, displacement, threshold):
        trace = make_trace(app, nranks, iterations=4, seed=23)
        want = None
        for kernel in KERNELS:
            cfg = ReplayConfig(
                seed=23, kernel=kernel,
                eager_threshold_bytes=threshold,
            )
            got = _managed_observables(trace, cfg, displacement)
            if want is None:
                want = got
            else:
                _assert_equal(got, want, kernel)


#: one small instance per non-XGFT topology family (plus the explicit
#: oversubscribed tree): every kernel must stay bit-for-bit on every
#: family, not just the paper fat tree
TOPOLOGIES = (
    "torus:k=3,n=2",
    "dragonfly:a=2,p=2,h=1",
    "fattree2:leaf=4,ratio=2",
)


class TestTopologyMatrix:
    """Non-XGFT fabrics through every combo, baseline and managed."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_baseline(self, topology):
        trace = make_trace("alya", 8, iterations=3, seed=31)
        want = None
        for kernel in KERNELS:
            cfg = ReplayConfig(
                seed=31, kernel=kernel,
                topology=topology,
            )
            got, _ = _baseline_observables(trace, cfg)
            if want is None:
                want = got
            else:
                _assert_equal(got, want, (topology, kernel))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_managed(self, topology):
        trace = make_trace("gromacs", 8, iterations=4, seed=37)
        want = None
        for kernel in KERNELS:
            cfg = ReplayConfig(
                seed=37, kernel=kernel,
                topology=topology,
            )
            got = _managed_observables(trace, cfg, 0.05)
            if want is None:
                want = got
            else:
                _assert_equal(got, want, (topology, kernel))

    def test_topologies_actually_differ(self):
        """The matrix is only meaningful if the families route
        differently — their busy-interval structure must not collapse
        onto the fitted fat tree's."""

        trace = make_trace("alya", 8, iterations=3, seed=31)
        fingerprints = set()
        for topology in ("fitted",) + TOPOLOGIES:
            cfg = ReplayConfig(seed=31, topology=topology)
            got, _ = _baseline_observables(trace, cfg)
            fingerprints.add(
                (got["exec_time_us"],
                 tuple(sorted(got["switch_traffic"].items())))
            )
        assert len(fingerprints) == len(TOPOLOGIES) + 1


class TestDisplacementFanOut:
    """The managed replays of one cell, fanned out over worker
    processes (workers > 1), must be bit-for-bit the serial cell — and
    both must match the reference-kernel cell."""

    SPEC = dict(app="gromacs", nranks=8, iterations=3, seed=41,
                use_cache=False)

    @staticmethod
    def _managed_fingerprint(cell):
        return {
            disp: (
                m.exec_time_us,
                m.event_logs,
                m.power,
                m.counters,
                [acc.intervals for acc in m.accounts],
                m.helper_spawns,
            )
            for disp, m in cell.managed.items()
        }

    def test_workers_bit_for_bit(self):
        import os

        from repro.experiments.common import clear_cache, run_cell

        clear_cache()
        serial = run_cell(**self.SPEC)
        previous = os.environ.get("REPRO_WORKERS")
        os.environ["REPRO_WORKERS"] = "2"
        try:
            clear_cache()
            fanned = run_cell(**self.SPEC)
        finally:
            if previous is None:
                del os.environ["REPRO_WORKERS"]
            else:
                os.environ["REPRO_WORKERS"] = previous
        clear_cache()
        reference = run_cell(**self.SPEC, kernel="reference")
        clear_cache()

        want = self._managed_fingerprint(serial)
        assert self._managed_fingerprint(fanned) == want
        assert self._managed_fingerprint(reference) == want
        assert serial.baseline.exec_time_us == reference.baseline.exec_time_us
        assert all(m.helper_spawns == 0 for m in fanned.managed.values())


class TestRandomTraces:
    """Property-based leg: hypothesis-generated balanced traces must be
    combo-invariant, whatever shape they take."""

    _block = st.one_of(
        st.floats(min_value=0.0, max_value=800.0, allow_nan=False).map(
            lambda d: ("compute", d)
        ),
        st.tuples(st.booleans(), st.integers(1, 1 << 15)).map(
            lambda t: ("ring", t)
        ),
        st.tuples(
            st.sampled_from([
                MPICall.BARRIER, MPICall.BCAST, MPICall.ALLREDUCE,
                MPICall.ALLGATHER, MPICall.ALLTOALL, MPICall.REDUCE,
                MPICall.SCAN, MPICall.REDUCE_SCATTER,
            ]),
            st.integers(0, 1 << 14),
        ).map(lambda t: ("collective", t)),
    )

    @staticmethod
    def _build(nranks, blocks) -> Trace:
        trace = Trace.empty("prop", nranks)
        for bi, (kind, arg) in enumerate(blocks):
            for r in range(nranks):
                p = trace[r]
                if kind == "compute":
                    p.compute(arg)
                elif kind == "ring":
                    fwd, size = arg
                    dst = (r + 1) % nranks if fwd else (r - 1) % nranks
                    src = (r - 1) % nranks if fwd else (r + 1) % nranks
                    p.append(PointToPoint(MPICall.SENDRECV, dst, size,
                                          tag=bi, recv_peer=src))
                else:
                    call, size = arg
                    p.append(Collective(call, size))
        return trace

    @given(
        nranks=st.integers(2, 6),
        blocks=st.lists(_block, min_size=1, max_size=8),
        threshold=st.sampled_from(THRESHOLDS),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_trace_combo_invariant(self, nranks, blocks, threshold):
        trace = self._build(nranks, blocks)
        assert trace.check_p2p_balance() == []
        want = None
        for kernel in KERNELS:
            cfg = ReplayConfig(
                seed=3, kernel=kernel,
                eager_threshold_bytes=threshold,
            )
            got, _ = _baseline_observables(trace, cfg)
            if want is None:
                want = got
            else:
                _assert_equal(got, want, kernel)
