"""Tests for the HCA link power controller (hardware timer protocol)."""

import pytest

from repro.network.links import Link, LinkPowerMode
from repro.network.topology import NodeId
from repro.power.controller import ManagedLink
from repro.power.states import WRPSParams


def make_ml(**params):
    link = Link(NodeId(0, 0), NodeId(1, 0))
    p = WRPSParams(**params) if params else WRPSParams.paper()
    return ManagedLink.create(link, p)


class TestShutdown:
    def test_normal_cycle(self):
        ml = make_ml()
        assert ml.shutdown(100.0, timer_us=500.0)
        # during LOW window
        assert ml.link.mode is LinkPowerMode.LOW
        # after the timer fires + reactivation, the link is FULL again
        ready = ml.request_full(700.0)
        assert ready == 700.0
        assert ml.link.mode is LinkPowerMode.FULL
        assert ml.counters.shutdowns == 1
        assert ml.counters.timer_reactivations == 1
        assert ml.counters.emergency_reactivations == 0

    def test_account_timeline(self):
        ml = make_ml()
        ml.shutdown(100.0, timer_us=500.0)
        ml.finish(1000.0)
        acc = ml.account
        # TRANSITION [100,110) deactivation, LOW [110,600),
        # TRANSITION [600,610) reactivation, FULL elsewhere
        assert acc.residency_us(LinkPowerMode.LOW) == pytest.approx(490.0)
        assert acc.residency_us(LinkPowerMode.TRANSITION) == pytest.approx(20.0)
        assert acc.residency_us(LinkPowerMode.FULL) == pytest.approx(490.0)

    def test_too_short_timer_skipped(self):
        ml = make_ml()
        assert not ml.shutdown(0.0, timer_us=5.0)  # <= t_deact
        assert ml.counters.skipped_too_short == 1
        assert ml.link.mode is LinkPowerMode.FULL

    def test_double_shutdown_rejected(self):
        ml = make_ml()
        assert ml.shutdown(0.0, timer_us=100.0)
        assert not ml.shutdown(20.0, timer_us=100.0)  # still LOW
        assert ml.counters.shutdowns == 1
        # rejected-while-not-FULL is its own counter, distinct from the
        # too-short-timer skip; their sum is the pre-split skip count
        assert ml.counters.skipped_not_full == 1
        assert ml.counters.skipped_too_short == 0
        assert ml.counters.skipped_directives == 1

    def test_shutdown_after_cycle_ok(self):
        ml = make_ml()
        assert ml.shutdown(0.0, timer_us=100.0)
        assert ml.shutdown(300.0, timer_us=100.0)  # previous cycle done
        assert ml.counters.shutdowns == 2

    def test_worthwhile(self):
        ml = make_ml()
        assert not ml.worthwhile(20.0)
        assert ml.worthwhile(20.1)


class TestMisprediction:
    def test_emergency_reactivation_in_low(self):
        ml = make_ml()
        ml.shutdown(0.0, timer_us=1000.0)
        # a transfer arrives deep in the LOW window
        ready = ml.request_full(300.0)
        assert ready == pytest.approx(310.0)  # + T_react
        assert ml.counters.emergency_reactivations == 1
        assert ml.counters.total_penalty_us == pytest.approx(10.0)
        assert ml.link.mode is LinkPowerMode.FULL

    def test_arrival_during_deactivation(self):
        ml = make_ml()
        ml.shutdown(0.0, timer_us=1000.0)
        # deactivation runs [0, 10); arrival at 5 must wait for it to
        # finish before the reactivation can start
        ready = ml.request_full(5.0)
        assert ready == pytest.approx(20.0)
        assert ml.counters.total_penalty_us == pytest.approx(15.0)

    def test_late_arrival_mid_reactivation(self):
        ml = make_ml()
        ml.shutdown(0.0, timer_us=100.0)
        # timer fires at 100, reactivation completes at 110;
        # a transfer at 105 pays the residual 5 us
        ready = ml.request_full(105.0)
        assert ready == pytest.approx(110.0)
        assert ml.counters.late_reactivations == 1
        assert ml.counters.total_penalty_us == pytest.approx(5.0)

    def test_request_on_full_link_free(self):
        ml = make_ml()
        assert ml.request_full(50.0) == 50.0
        assert ml.counters.total_penalty_us == 0.0

    def test_emergency_energy_accounting(self):
        ml = make_ml()
        ml.shutdown(0.0, timer_us=1000.0)
        ml.request_full(300.0)
        ml.finish(400.0)
        acc = ml.account
        # LOW only [10, 300)
        assert acc.residency_us(LinkPowerMode.LOW) == pytest.approx(290.0)


class TestFinish:
    def test_finish_mid_low_window(self):
        ml = make_ml()
        ml.shutdown(0.0, timer_us=10_000.0)
        ml.finish(500.0)
        acc = ml.account
        assert acc.total_us == pytest.approx(500.0)
        assert acc.residency_us(LinkPowerMode.LOW) == pytest.approx(490.0)

    def test_finish_after_timer(self):
        ml = make_ml()
        ml.shutdown(0.0, timer_us=100.0)
        ml.finish(500.0)
        assert ml.counters.timer_reactivations == 1
        assert ml.account.residency_us(LinkPowerMode.LOW) == pytest.approx(90.0)

    def test_savings_math(self):
        ml = make_ml()
        ml.shutdown(0.0, timer_us=510.0)
        ml.finish(1000.0)
        # LOW for 500 of 1000 us -> savings = 0.5 * 0.57
        total, energy, _ = ml.account.integrate()
        assert 1.0 - energy / total == pytest.approx(0.5 * 0.57, rel=1e-6)
