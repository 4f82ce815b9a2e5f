"""The paper's Fig. 2/3 walkthrough, asserted checkpoint by checkpoint.

These tests pin the reproduction to the published worked example: the
ALYA stream ``41-41-41 _ 10 _ 10`` repeating must produce grams
``(41,41,41) (10) (10)``, the PPA must declare the pattern
``41-41-41_10_10`` exactly on MPI event #21, and prediction must start
at gram position 12.
"""

import pytest

from repro.core.grams import GramBuilder
from repro.core.patterns import format_pattern
from repro.core.ppa import PPA
from repro.trace.events import EventLog
from tests.conftest import alya_like_stream


def drive(events, gt=20.0):
    """Feed a stream; return (declaration, event# at declaration, ppa)."""

    builder = GramBuilder(gt)
    ppa = PPA()
    for i, (call, enter, exit_) in enumerate(EventLog.of(events).rows(), 1):
        closed = builder.feed(call, enter, exit_)
        if closed is not None:
            decl = ppa.add_gram(closed)
            if decl is not None:
                return decl, i, ppa
    return None, None, ppa


class TestFig3Walkthrough:
    def test_declaration_on_event_21(self):
        decl, event_no, _ = drive(alya_like_stream(6))
        assert decl is not None
        assert event_no == 21

    def test_declared_pattern_is_paper_pattern(self):
        decl, _, _ = drive(alya_like_stream(6))
        assert format_pattern(decl.record.key) == "41-41-41_10_10"
        assert decl.record.size == 3
        assert decl.record.n_mpi_calls == 5

    def test_prediction_from_position_12(self):
        decl, _, _ = drive(alya_like_stream(6))
        assert decl.anchor_gram_index == 12

    def test_positions_match_paper_insertions(self):
        # Fig. 3's pattern-list table records the tri-gram at 3, 6, 9
        decl, _, _ = drive(alya_like_stream(6))
        assert decl.record.positions == [3, 6, 9]

    def test_not_fast_rearm(self):
        decl, _, _ = drive(alya_like_stream(6))
        assert not decl.fast_rearm

    def test_max_pattern_size_locked(self):
        _, _, ppa = drive(alya_like_stream(6))
        assert ppa.max_pattern_size == 3

    def test_first_8_events_not_enough(self):
        # Fig. 3: events 1-8 "Not enough grams"
        decl, event_no, _ = drive(alya_like_stream(2)[:8])
        assert decl is None

    def test_gap_estimators_initialised(self):
        decl, _, _ = drive(alya_like_stream(6))
        # at least the two intra-cycle boundaries must be ready
        ready = [est.is_ready for est in decl.record.gap_after]
        assert ready[0] and ready[1]

    def test_predicted_gaps_near_500(self):
        decl, _, _ = drive(alya_like_stream(6))
        for boundary in (0, 1):
            assert decl.record.predicted_gap_us(boundary) == pytest.approx(
                500.0, rel=0.05
            )
