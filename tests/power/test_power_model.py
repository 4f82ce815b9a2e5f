"""Tests for power states, energy accounting and switch aggregation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import LOW_POWER_FRACTION
from repro.network.links import LinkPowerMode
from repro.power.model import LinkEnergyAccount, aggregate
from repro.power.states import WRPSParams
from repro.power.switchpower import SwitchPowerModel, fleet_switch_savings_pct


class TestWRPSParams:
    def test_paper_values(self):
        p = WRPSParams.paper()
        assert p.low_power_fraction == pytest.approx(0.43)
        assert p.t_react_us == pytest.approx(10.0)
        assert p.min_worthwhile_idle_us == pytest.approx(20.0)

    def test_power_of(self):
        p = WRPSParams.paper()
        assert p.power_of(LinkPowerMode.FULL) == 1.0
        assert p.power_of(LinkPowerMode.LOW) == pytest.approx(0.43)
        assert p.power_of(LinkPowerMode.TRANSITION) == 1.0

    def test_deep_sleep(self):
        p = WRPSParams.deep_sleep()
        assert p.t_react_us == pytest.approx(1000.0)
        assert p.low_power_fraction < LOW_POWER_FRACTION

    def test_validation(self):
        with pytest.raises(ValueError):
            WRPSParams(low_power_fraction=1.5)
        with pytest.raises(ValueError):
            WRPSParams(t_react_us=-1.0)


class TestEnergyAccount:
    def _acc(self):
        return LinkEnergyAccount(WRPSParams.paper())

    def test_always_full(self):
        acc = self._acc()
        acc.close(100.0)
        assert acc.energy() == pytest.approx(100.0)
        assert acc.savings_fraction() == pytest.approx(0.0)

    def test_full_low_cycle(self):
        acc = self._acc()
        acc.switch_mode(10.0, LinkPowerMode.LOW)
        acc.switch_mode(60.0, LinkPowerMode.FULL)
        acc.close(100.0)
        # 50 us at 0.43, 50 us at 1.0
        assert acc.energy() == pytest.approx(50.0 + 50.0 * 0.43)
        assert acc.residency_us(LinkPowerMode.LOW) == pytest.approx(50.0)
        assert acc.savings_fraction() == pytest.approx(0.5 * 0.57)

    def test_transition_charged_full(self):
        acc = self._acc()
        acc.switch_mode(0.0, LinkPowerMode.TRANSITION)
        acc.switch_mode(10.0, LinkPowerMode.LOW)
        acc.switch_mode(90.0, LinkPowerMode.TRANSITION)
        acc.switch_mode(100.0, LinkPowerMode.FULL)
        acc.close(100.0)
        assert acc.energy() == pytest.approx(20.0 * 1.0 + 80.0 * 0.43)

    def test_same_mode_noop(self):
        acc = self._acc()
        acc.switch_mode(10.0, LinkPowerMode.FULL)
        acc.close(20.0)
        assert len(acc.intervals) == 1

    def test_time_backwards_rejected(self):
        acc = self._acc()
        acc.switch_mode(50.0, LinkPowerMode.LOW)
        with pytest.raises(ValueError):
            acc.switch_mode(40.0, LinkPowerMode.FULL)

    def test_closed_account_frozen(self):
        acc = self._acc()
        acc.close(10.0)
        with pytest.raises(RuntimeError):
            acc.switch_mode(20.0, LinkPowerMode.LOW)

    def test_transitions_counted(self):
        acc = self._acc()
        acc.switch_mode(1.0, LinkPowerMode.LOW)
        acc.switch_mode(2.0, LinkPowerMode.FULL)
        acc.switch_mode(3.0, LinkPowerMode.LOW)
        acc.close(4.0)
        assert acc.transitions_to_low == 2

    def test_max_savings_bound(self):
        acc = self._acc()
        acc.switch_mode(0.0, LinkPowerMode.LOW)
        acc.close(100.0)
        assert acc.savings_fraction() == pytest.approx(1.0 - 0.43)


class TestAggregate:
    def test_mean_over_links(self):
        a1 = LinkEnergyAccount(WRPSParams.paper())
        a1.switch_mode(0.0, LinkPowerMode.LOW)     # 100% low
        a2 = LinkEnergyAccount(WRPSParams.paper())  # 100% full
        report = aggregate([a1, a2], 100.0)
        assert report.mean_savings_pct == pytest.approx(100.0 * 0.57 / 2)
        assert report.mean_low_residency_pct == pytest.approx(50.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], 10.0)


class TestSwitchPower:
    def test_model(self):
        m = SwitchPowerModel()
        assert m.other_share == pytest.approx(0.36)
        assert m.switch_savings_pct(57.0) == pytest.approx(57.0 * 0.64)

    def test_deep_sleep_adds_other_savings(self):
        m = SwitchPowerModel()
        base = m.switch_savings_pct(50.0)
        deep = m.switch_savings_with_deep_sleep_pct(50.0, 80.0, 0.1)
        assert deep > base
        assert deep == pytest.approx(50.0 * 0.64 + 100.0 * 0.8 * 0.9 * 0.36)

    def test_fleet_helper(self):
        a = LinkEnergyAccount(WRPSParams.paper())
        a.switch_mode(0.0, LinkPowerMode.LOW)
        a.close(100.0)
        assert fleet_switch_savings_pct([a]) == pytest.approx(57.0 * 0.64)


# ---------------------------------------------------------------- property

@given(
    changes=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
            st.sampled_from(list(LinkPowerMode)),
        ),
        max_size=30,
    )
)
@settings(max_examples=80, deadline=None)
def test_account_invariants(changes):
    acc = LinkEnergyAccount(WRPSParams.paper())
    for t, mode in sorted(changes, key=lambda c: c[0]):
        acc.switch_mode(t, mode)
    acc.close(1000.0)
    total = acc.total_us
    assert total == pytest.approx(1000.0)
    # residencies partition the timeline
    res = sum(acc.residency_us(m) for m in LinkPowerMode)
    assert res == pytest.approx(total)
    # energy is bounded between all-low and all-full
    assert 0.43 * total - 1e-6 <= acc.energy() <= total + 1e-6
    # savings bounded by the LOW-mode ceiling
    assert -1e-9 <= acc.savings_fraction() <= 0.57 + 1e-9
