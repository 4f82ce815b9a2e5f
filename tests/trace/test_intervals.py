"""Tests for idle-interval bucketing (Table I machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.intervals import distribution_from_gaps, merge_gap_streams


class TestDistribution:
    def test_bucket_assignment(self):
        gaps = [5.0, 19.999, 20.0, 100.0, 199.9, 200.0, 1000.0]
        d = distribution_from_gaps(gaps)
        assert d.short.count == 2
        assert d.medium.count == 3
        assert d.long.count == 2
        assert d.total_intervals == 7

    def test_shares_sum_to_100(self):
        d = distribution_from_gaps([1.0, 50.0, 300.0, 400.0])
        assert sum(b.interval_share_pct for b in d.buckets) == pytest.approx(100.0)
        assert sum(b.time_share_pct for b in d.buckets) == pytest.approx(100.0)

    def test_time_share_weighted_by_duration(self):
        # one 1000us long gap vs one thousand 1us short gaps: equal time
        gaps = [1000.0] + [1.0] * 1000
        d = distribution_from_gaps(gaps)
        assert d.long.time_share_pct == pytest.approx(50.0)
        assert d.short.interval_share_pct == pytest.approx(100.0 * 1000 / 1001)

    def test_empty(self):
        d = distribution_from_gaps([])
        assert d.total_intervals == 0
        assert d.total_idle_us == 0.0
        assert d.short.time_share_pct == 0.0

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            distribution_from_gaps([-1.0])

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            distribution_from_gaps([1.0], edges_us=(200.0, 20.0))

    def test_custom_edges(self):
        d = distribution_from_gaps([5.0, 15.0], edges_us=(10.0, 20.0))
        assert d.short.count == 1
        assert d.medium.count == 1

    def test_reducible_share(self):
        d = distribution_from_gaps([5.0, 50.0, 500.0])
        assert d.reducible_time_share_pct == pytest.approx(
            100.0 * 550.0 / 555.0
        )


class TestMergeStreams:
    def test_merge(self):
        out = merge_gap_streams([[1.0, 2.0], [3.0]])
        assert sorted(out.tolist()) == [1.0, 2.0, 3.0]

    def test_empty(self):
        assert merge_gap_streams([]).size == 0


# ---------------------------------------------------------------- property

@given(gaps=st.lists(st.floats(min_value=0.0, max_value=1e7,
                               allow_nan=False), max_size=200))
@settings(max_examples=80, deadline=None)
def test_distribution_invariants(gaps):
    d = distribution_from_gaps(gaps)
    assert d.total_intervals == len(gaps)
    assert sum(b.count for b in d.buckets) == len(gaps)
    assert d.total_idle_us == pytest.approx(float(np.sum(gaps)), rel=1e-9)
    if gaps:
        assert sum(b.interval_share_pct for b in d.buckets) == pytest.approx(100.0)
    if d.total_idle_us > 0:
        assert sum(b.time_share_pct for b in d.buckets) == pytest.approx(100.0)
