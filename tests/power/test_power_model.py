"""Tests for power states, energy accounting and switch aggregation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import LOW_POWER_FRACTION
from repro.network.links import LinkPowerMode
from repro.power.model import LinkEnergyAccount, StateInterval, aggregate
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


# ------------------------------------------------- columnar account vs objects


class _ObjectAccount:
    """The account as a list of :class:`StateInterval` objects: the
    algorithm the columnar :class:`LinkEnergyAccount` replaced, kept
    here as its reference."""

    def __init__(self, params, start_us=0.0):
        self.params = params
        self.intervals = []
        self._mode = LinkPowerMode.FULL
        self._since_us = start_us if start_us else 0.0
        self._closed = False
        self.transitions_to_low = 0
        self._power = None

    def switch_mode(self, t_us, mode):
        self.set_state(t_us, mode, None)

    def set_state(self, t_us, mode, power):
        if self._closed:
            raise RuntimeError("account already closed")
        if t_us < self._since_us - 1e-9:
            raise ValueError("time went backwards")
        t_us = max(t_us, self._since_us)
        if power is not None and power == self.params.power_of(mode):
            power = None
        if mode is self._mode and power == self._power:
            return
        if t_us > self._since_us:
            self.intervals.append(
                StateInterval(self._since_us, t_us, self._mode, self._power)
            )
        if mode is LinkPowerMode.LOW and self._mode is not LinkPowerMode.LOW:
            self.transitions_to_low += 1
        self._mode = mode
        self._power = power
        self._since_us = t_us

    def close(self, t_end_us):
        if self._closed:
            return
        if t_end_us > self._since_us:
            self.intervals.append(
                StateInterval(self._since_us, t_end_us, self._mode, self._power)
            )
        self._closed = True

    def integrate(self):
        total = energy = low = 0.0
        power_of = self.params.power_of
        for i in self.intervals:
            d = i.end_us - i.start_us
            total += d
            p = i.power
            energy += (power_of(i.mode) if p is None else p) * d
            if i.mode is LinkPowerMode.LOW:
                low += d
        return total, energy, low

    def residency_us(self, mode):
        return sum(i.duration_us for i in self.intervals if i.mode is mode)

    @property
    def total_us(self):
        return sum(i.duration_us for i in self.intervals)

    def energy(self):
        power_of = self.params.power_of
        return sum(
            (power_of(i.mode) if i.power is None else i.power) * i.duration_us
            for i in self.intervals
        )

    def savings_fraction(self):
        total = self.total_us
        if total <= 0:
            return 0.0
        return 1.0 - self.energy() / total


_PARAMS = (
    WRPSParams.paper(),
    WRPSParams.deep_sleep(),
    WRPSParams(low_power_fraction=0.3, transition_power_fraction=0.8),
)

# each step lands at ``since + delta``: 0 and the two sub-1e-9 offsets
# take the clamp, -1e-3 must raise on both accounts
_DELTAS = st.one_of(
    st.sampled_from([0.0, -5e-10, -1e-9, -1e-3]),
    st.floats(min_value=1e-6, max_value=500.0, allow_nan=False),
)
# "nominal" asks for the mode's own draw, which is recorded as None
_POWERS = st.sampled_from(
    [None, "nominal", 0.62, 0.2875, 0.43, 0.1, 1.0, 0.0]
)
_STEPS = st.lists(
    st.tuples(
        st.booleans(), _DELTAS, st.sampled_from(list(LinkPowerMode)), _POWERS
    ),
    max_size=40,
)


def _apply(account, step, t_us):
    """One step on ``account``; the exception type it raised, if any."""

    use_set, _, mode, power = step
    if power == "nominal":
        power = account.params.power_of(mode)
    try:
        if use_set:
            account.set_state(t_us, mode, power)
        else:
            account.switch_mode(t_us, mode)
    except (ValueError, RuntimeError) as exc:
        return type(exc)
    return None


@given(
    params=st.sampled_from(_PARAMS),
    start_us=st.sampled_from([0.0, 100.0, 2.5e5]),
    steps=_STEPS,
    tail_us=st.sampled_from([0.0, -1.0, 7.25, 1000.0]),
)
@settings(max_examples=300, deadline=None)
def test_columnar_account_equals_object_account(params, start_us, steps,
                                                tail_us):
    acc = LinkEnergyAccount(params, start_us=start_us)
    ref = _ObjectAccount(params, start_us=start_us)
    for step in steps:
        t_us = ref._since_us + step[1]
        raised = _apply(ref, step, t_us)
        assert _apply(acc, step, t_us) is raised
        if step[1] == -1e-3:
            assert raised is ValueError
    acc.close(ref._since_us + tail_us)
    ref.close(ref._since_us + tail_us)
    assert acc.closed
    # a closed account takes no more writes
    for use_set in (False, True):
        step = (use_set, 1.0, LinkPowerMode.LOW, 0.62)
        assert _apply(acc, step, ref._since_us + 1.0) is RuntimeError

    assert acc.intervals == ref.intervals
    assert acc.transitions_to_low == ref.transitions_to_low
    assert acc.integrate() == ref.integrate()
    for mode in LinkPowerMode:
        assert acc.residency_us(mode) == ref.residency_us(mode)
    assert acc.total_us == ref.total_us
    assert acc.energy() == ref.energy()
    assert acc.savings_fraction() == ref.savings_fraction()
