"""General PPA behaviour tests beyond the paper's worked example."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grams import GramBuilder, build_grams
from repro.core.ppa import PPA, PPAConfig
from repro.trace.events import EventLog, MPICall, MPIEvent
from tests.conftest import make_event_stream


def stream_from_units(units, repeats, *, inter_gap=500.0, intra_gap=2.0):
    """Build a stream repeating ``units`` (list of gram call-tuples)."""

    pattern = []
    for _ in range(repeats):
        for unit in units:
            for i, call in enumerate(unit):
                pattern.append((call, inter_gap if i == 0 else intra_gap))
    return make_event_stream(pattern)


def drive(events, gt=20.0, config=None):
    builder = GramBuilder(gt)
    ppa = PPA(config)
    declarations = []
    for call, enter, exit_ in EventLog.of(events).rows():
        closed = builder.feed(call, enter, exit_)
        if closed is not None:
            decl = ppa.add_gram(closed)
            if decl is not None:
                declarations.append(decl)
                return declarations, ppa  # stop at first declaration
    return declarations, ppa


class TestDetection:
    def test_simple_bigram(self):
        # alternating (1)(2) grams: smallest pattern is the bi-gram
        events = stream_from_units([(1,), (2,)], repeats=6)
        decls, ppa = drive(events)
        assert decls, "bi-gram pattern not detected"
        assert decls[0].record.key == ((1,), (2,))

    def test_period_four(self):
        events = stream_from_units([(1,), (2,), (3,), (4,)], repeats=6)
        decls, _ = drive(events)
        assert decls
        assert decls[0].record.size == 4

    def test_identical_gram_stream(self):
        # all grams identical: detected as the minimal bi-gram
        events = stream_from_units([(7,)], repeats=10)
        decls, _ = drive(events)
        assert decls
        assert decls[0].record.key == ((7,), (7,))

    def test_no_pattern_in_random_stream(self):
        # strictly increasing call ids -> nothing ever repeats
        pattern = [(1 + (i % 30), 500.0) for i in range(1, 31)]
        events = make_event_stream(pattern)
        decls, _ = drive(events)
        assert decls == []

    def test_needs_three_appearances(self):
        events = stream_from_units([(1,), (2,), (3,)], repeats=2)
        decls, _ = drive(events)
        assert decls == []
        # declaration needs the 3rd back-to-back occurrence *closed*,
        # i.e. one event beyond 4 full periods: use 5 repeats
        events = stream_from_units([(1,), (2,), (3,)], repeats=5)
        decls, _ = drive(events)
        assert decls

    def test_size_cap_respected(self):
        cfg = PPAConfig(pattern_size_cap=3)
        events = stream_from_units(
            [(1,), (2,), (3,), (4,), (5,), (6,)], repeats=6
        )
        decls, ppa = drive(events, config=cfg)
        if decls:
            assert decls[0].record.size <= 3


class TestRelaunchAndRearm:
    def _declared_ppa(self):
        events = stream_from_units([(1,), (2,)], repeats=5)
        decls, ppa = drive(events)
        assert decls
        return ppa, decls[0]

    def test_relaunch_resets_scanning(self):
        ppa, _ = self._declared_ppa()
        ppa.relaunch(len(ppa.grams))
        assert ppa.candidate is None
        assert ppa.pattern_size == 2
        assert ppa.scan_pos == len(ppa.grams)

    def test_fast_rearm_after_relaunch(self):
        ppa, decl = self._declared_ppa()
        ppa.relaunch(len(ppa.grams))
        # feed one fresh occurrence of the detected pattern
        extra = stream_from_units([(1,), (2,)], repeats=2)
        builder = GramBuilder(20.0)
        redecl = None
        for call, enter, exit_ in EventLog.of(extra).rows():
            closed = builder.feed(call, enter, exit_)
            if closed is not None:
                redecl = ppa.add_gram(closed) or redecl
        assert redecl is not None
        assert redecl.fast_rearm
        assert redecl.record is decl.record

    def test_max_size_persists_across_relaunch(self):
        ppa, _ = self._declared_ppa()
        locked = ppa.max_pattern_size
        ppa.relaunch(len(ppa.grams))
        assert ppa.max_pattern_size == locked


class TestOperationsAccounting:
    def test_operations_monotone(self):
        events = stream_from_units([(1,), (2,)], repeats=4)
        builder = GramBuilder(20.0)
        ppa = PPA()
        last = 0
        for call, enter, exit_ in EventLog.of(events).rows():
            closed = builder.feed(call, enter, exit_)
            if closed is not None:
                ppa.add_gram(closed)
            assert ppa.operations >= last
            last = ppa.operations
        assert last > 0

    def test_append_only_costs_nothing(self):
        from repro.core.grams import Gram

        ppa = PPA()
        before = ppa.operations
        ppa.append_only(Gram((1,), 0.0, 1.0, 0, 0))
        assert ppa.operations == before


# ---------------------------------------------------------------- property

@given(
    unit_sizes=st.lists(st.integers(1, 3), min_size=2, max_size=4),
    repeats=st.integers(6, 9),
    seed=st.integers(0, 100),
)
@settings(max_examples=50, deadline=None)
def test_periodic_streams_always_detected(unit_sizes, repeats, seed):
    """Any strictly periodic gram stream must eventually be declared."""

    import numpy as np

    rng = np.random.default_rng(seed)
    units = [
        tuple(int(rng.integers(1, 20)) for _ in range(n)) for n in unit_sizes
    ]
    events = stream_from_units(units, repeats=repeats)
    decls, ppa = drive(events)
    assert decls, f"no declaration for periodic units {units}"
    rec = decls[0].record
    # the declared pattern, tiled, must reproduce the gram stream: check
    # that its length divides the unit period or the unit period divides
    # it (the PPA may find a rotation or a sub-period)
    grams = build_grams(events, 20.0)
    sigs = [g.signature for g in grams]
    anchor = decls[0].anchor_gram_index
    size = rec.size
    # prediction must be correct at the anchor: the next grams equal the
    # pattern cyclically
    for j in range(min(size * 2, len(sigs) - anchor)):
        assert sigs[anchor + j] == rec.key[j % size]
