"""Tests for gram formation (Algorithm 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import MIN_GROUPING_THRESHOLD_US
from repro.core.grams import Gram, GramBuilder, build_grams, gram_gaps_us
from repro.trace.events import EventLog, MPICall, MPIEvent
from tests.conftest import alya_like_stream, make_event_stream


class TestGramBuilder:
    def test_gt_minimum_enforced(self):
        with pytest.raises(ValueError):
            GramBuilder(MIN_GROUPING_THRESHOLD_US - 0.1)
        GramBuilder(MIN_GROUPING_THRESHOLD_US)  # ok

    def test_alya_grouping(self, alya_stream):
        grams = build_grams(alya_stream, 20.0)
        # each iteration: (41,41,41) (10) (10)
        assert len(grams) == 6 * 3
        assert grams[0].signature == (41, 41, 41)
        assert grams[1].signature == (10,)
        assert grams[2].signature == (10,)

    def test_gap_exactly_gt_splits(self):
        events = make_event_stream([
            (MPICall.SEND, 0.0),
            (MPICall.SEND, 20.0),   # gap == GT -> split
            (MPICall.SEND, 19.999),  # gap < GT -> same gram
        ])
        grams = build_grams(events, 20.0)
        assert [g.signature for g in grams] == [(1,), (1, 1)]

    def test_call_indices(self, alya_stream):
        grams = build_grams(alya_stream, 20.0)
        assert grams[0].first_call_index == 0
        assert grams[0].last_call_index == 2
        assert grams[1].first_call_index == 3
        assert grams[1].last_call_index == 3

    def test_timing(self):
        events = make_event_stream([
            (MPICall.SEND, 5.0),
            (MPICall.SEND, 2.0),
            (MPICall.SEND, 100.0),
        ], call_dur_us=1.0)
        grams = build_grams(events, 20.0)
        g0 = grams[0]
        assert g0.start_us == pytest.approx(5.0)
        assert g0.end_us == pytest.approx(9.0)   # 5+1 gap 2 -> 8..9
        assert g0.span_us == pytest.approx(4.0)

    def test_flush_needed_for_tail(self):
        builder = GramBuilder(20.0)
        events = make_event_stream([(MPICall.SEND, 0.0), (MPICall.SEND, 2.0)])
        for call, enter, exit_ in EventLog.of(events).rows():
            assert builder.feed(call, enter, exit_) is None
        tail = builder.flush()
        assert tail is not None
        assert tail.signature == (1, 1)
        assert builder.flush() is None  # idempotent

    def test_open_calls(self):
        builder = GramBuilder(20.0)
        events = make_event_stream([(MPICall.SEND, 0.0), (MPICall.RECV, 1.0)])
        for call, enter, exit_ in EventLog.of(events).rows():
            builder.feed(call, enter, exit_)
        assert builder.open_calls == (1, 2)
        assert builder.open_gram_size == 2

    def test_str(self):
        g = Gram((41, 41, 10), 0.0, 1.0, 0, 2)
        assert str(g) == "41-41-10"
        assert g.n_calls == 3

    def test_gram_gaps(self, alya_stream):
        grams = build_grams(alya_stream, 20.0)
        gaps = gram_gaps_us(grams)
        assert len(gaps) == len(grams) - 1
        assert all(g >= 20.0 for g in gaps)


@given(
    gaps=st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=15.0),   # intra
            st.floats(min_value=30.0, max_value=1e5),   # inter
        ),
        min_size=1, max_size=80,
    )
)
@settings(max_examples=80, deadline=None)
def test_gram_partition_property(gaps):
    """Grams partition the event stream; boundaries are exactly the
    gaps >= GT; concatenated signatures reproduce the call stream."""

    gt = 20.0
    pattern = [(MPICall.SEND, 0.0)] + [(MPICall.SEND, g) for g in gaps]
    events = make_event_stream(pattern, call_dur_us=1.0)
    grams = build_grams(events, gt)
    # total calls preserved
    assert sum(g.n_calls for g in grams) == len(events)
    # number of grams = 1 + number of large gaps
    assert len(grams) == 1 + sum(1 for g in gaps if g >= gt)
    # indices are contiguous
    idx = 0
    for g in grams:
        assert g.first_call_index == idx
        idx = g.last_call_index + 1
    assert idx == len(events)
    # every inter-gram gap is >= GT
    for gap in gram_gaps_us(grams):
        assert gap >= gt - 1e-9
