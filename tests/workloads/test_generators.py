"""Tests for the application trace generators."""

import pytest

from repro.trace.events import Compute, MPICall
from repro.workloads import (
    APPLICATIONS,
    PROCESS_COUNTS,
    WorkloadSpec,
    make_trace,
)
from repro.workloads.base import grid_2d, grid_coords, grid_rank, ring_neighbors
from repro.workloads.nas_bt import is_square
from repro.workloads.synthetic import allreduce_storm, ring_sweep


class TestSpecValidation:
    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            WorkloadSpec(nranks=1)
        with pytest.raises(ValueError):
            WorkloadSpec(nranks=4, iterations=0)

    def test_rejects_bad_scaling(self):
        with pytest.raises(ValueError):
            WorkloadSpec(nranks=4, scaling="diagonal")

    def test_strong_scaling_shrinks_compute(self):
        s8 = WorkloadSpec(nranks=8, reference_ranks=8)
        s64 = WorkloadSpec(nranks=64, reference_ranks=8)
        assert s8.compute_scale() == pytest.approx(1.0)
        assert s64.compute_scale() == pytest.approx(1.0 / 8.0)
        assert s64.message_scale() == pytest.approx((1 / 8) ** (2 / 3))

    def test_weak_scaling_constant(self):
        s = WorkloadSpec(nranks=64, scaling="weak", reference_ranks=8)
        assert s.compute_scale() == 1.0
        assert s.message_scale() == 1.0


class TestGridHelpers:
    def test_ring(self):
        assert ring_neighbors(0, 4) == (1, 3)
        assert ring_neighbors(3, 4) == (0, 2)

    def test_grid_2d_square(self):
        assert grid_2d(16) == (4, 4)
        assert grid_2d(12) == (3, 4)

    def test_grid_coords_roundtrip(self):
        rows, cols = 3, 4
        for rank in range(12):
            r, c = grid_coords(rank, rows, cols)
            assert grid_rank(r, c, rows, cols) == rank

    def test_is_square(self):
        assert is_square(9) and is_square(100)
        assert not is_square(8)


@pytest.mark.parametrize("app", APPLICATIONS)
class TestPerApplication:
    def test_balanced(self, app):
        n = PROCESS_COUNTS[app][0]
        trace = make_trace(app, n, iterations=3)
        assert trace.check_p2p_balance() == []

    def test_spmd_collective_order(self, app):
        """All ranks must see the same collective sequence (SPMD)."""

        n = PROCESS_COUNTS[app][0]
        trace = make_trace(app, n, iterations=4)
        seqs = []
        for proc in trace:
            seqs.append(
                tuple(rec.call for rec in proc.mpi_calls
                      if rec.call.is_collective)
            )
        assert len(set(seqs)) == 1

    def test_deterministic_by_seed(self, app):
        n = PROCESS_COUNTS[app][0]
        a = make_trace(app, n, iterations=3, seed=5)
        b = make_trace(app, n, iterations=3, seed=5)
        for pa, pb in zip(a, b):
            assert pa.records == pb.records

    def test_seed_changes_trace(self, app):
        n = PROCESS_COUNTS[app][0]
        a = make_trace(app, n, iterations=3, seed=5)
        b = make_trace(app, n, iterations=3, seed=6)
        assert any(pa.records != pb.records for pa, pb in zip(a, b))

    def test_strong_scaling_reduces_compute(self, app):
        sizes = PROCESS_COUNTS[app]
        small = make_trace(app, sizes[0], iterations=3)
        large = make_trace(app, sizes[2], iterations=3)
        per_rank_small = small[0].total_compute_us
        per_rank_large = large[0].total_compute_us
        assert per_rank_large < per_rank_small

    def test_has_compute_and_mpi(self, app):
        n = PROCESS_COUNTS[app][0]
        trace = make_trace(app, n, iterations=2)
        for proc in trace:
            assert proc.total_compute_us > 0
            assert len(proc.mpi_calls) > 0


class TestBT:
    def test_requires_square(self):
        with pytest.raises(ValueError):
            make_trace("nas_bt", 8, iterations=2)

    def test_paper_sizes_are_square(self):
        for n in PROCESS_COUNTS["nas_bt"]:
            assert is_square(n)


class TestRegistry:
    def test_unknown_app(self):
        with pytest.raises(KeyError):
            make_trace("linpack", 8)

    def test_all_apps_have_five_sizes(self):
        for app in APPLICATIONS:
            assert len(PROCESS_COUNTS[app]) == 5


class TestSynthetic:
    def test_ring_sweep_pattern_shape(self):
        t = ring_sweep(WorkloadSpec(nranks=4, iterations=3))
        counts = t.collective_counts()
        assert counts[MPICall.SENDRECV] == 4 * 3 * 3
        assert counts[MPICall.ALLREDUCE] == 4 * 3 * 2
        assert t.check_p2p_balance() == []

    def test_allreduce_storm(self):
        t = allreduce_storm(WorkloadSpec(nranks=4, iterations=5))
        assert t.collective_counts()[MPICall.ALLREDUCE] == 20


class TestPointToPointMatcher:
    def test_monotone_tags(self):
        from repro.workloads import PointToPointMatcher

        m = PointToPointMatcher(base=100)
        tags = [m.tag() for _ in range(5)]
        assert tags == [100, 101, 102, 103, 104]
