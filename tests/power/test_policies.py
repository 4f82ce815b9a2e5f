"""Tests for the pluggable power-policy registry.

Covers the spec grammar (deterministic, order-independent, canonical
round-trip), the derived level tables (every ladder is calibrated from
the paper's single WRPS datum), the prediction-driven multi-level
controller (``LeveledLink``), the reactive trunk/switch controllers
(``IdleGatedLink`` / ``GatedSwitch``), and the energy-account extensions
they rely on (``set_state`` power splitting, the ``start_us`` origin).
"""

import pytest
from hypothesis import given, settings, strategies as st
from spec_strategies import FUZZ, spec_text, valid_items

from repro.network.links import Link, LinkPowerMode
from repro.network.topology import NodeId
from repro.power.model import LinkEnergyAccount
from repro.power.policies import (
    CLASS_KEYS,
    DEFAULT_POLICY,
    LINK_CLASSES,
    NO_POLICY,
    ClassPolicy,
    GatedSwitch,
    IdleGatedLink,
    LeveledLink,
    PolicySpec,
    POLICIES,
    PolicySpecError,
    PowerPolicy,
    _static_floor,
    class_savings_rows,
    fold_hook,
    gate_levels,
    parse_policy,
    policy_help,
    scale_levels,
    width_levels,
)
from repro.power.controller import ManagedLink
from repro.power.states import WRPSParams

PAPER = WRPSParams.paper()


def make_link(host: bool = True) -> Link:
    a = NodeId(0, 0) if host else NodeId(0, 1)
    return Link(a, NodeId(1, 1))


class TestGrammar:
    def test_default_spellings(self):
        for spec in (None, "", DEFAULT_POLICY, " policy:hca=gate "):
            parsed = parse_policy(spec)
            assert parsed == PolicySpec()
            assert parsed.is_default
            assert parsed.describe() == DEFAULT_POLICY

    def test_none_disables_everything(self):
        spec = parse_policy(NO_POLICY)
        assert not spec.any_active
        assert spec.describe() == NO_POLICY
        assert parse_policy(spec.describe()) == spec

    def test_order_independence(self):
        a = parse_policy("policy:hca=gate,trunk=width:levels=3,switch=gate")
        b = parse_policy("policy:switch=gate,trunk=width:levels=3,hca=gate")
        c = parse_policy("policy:trunk=width:levels=3,hca=gate,switch=gate")
        assert a == b == c
        # canonical form has the fixed class order regardless of input
        assert a.describe() == (
            "policy:hca=gate,trunk=width:levels=3,switch=gate"
        )

    @pytest.mark.parametrize("spec", [
        "policy:hca=gate",
        "policy:hca=width:levels=3",
        "policy:hca=scale:levels=4",
        "policy:trunk=gate",
        "policy:hca=gate,trunk=gate:gate_after_us=50",
        "policy:hca=gate:t_react_us=5,trunk=width:levels=2,switch=gate",
        "policy:hca=none,trunk=gate",
        "none",
    ])
    def test_canonical_round_trip(self, spec):
        parsed = parse_policy(spec)
        assert parse_policy(parsed.describe()) == parsed
        # describe is a fixed point
        assert parse_policy(parsed.describe()).describe() == parsed.describe()

    def test_params_bind_to_most_recent_class(self):
        spec = parse_policy("policy:hca=width,levels=2,trunk=gate")
        assert spec.hca.levels == 2
        assert spec.trunk.levels == 0
        # the same parameter through the ':' shorthand is identical
        assert spec == parse_policy("policy:hca=width:levels=2,trunk=gate")

    def test_unassigned_classes_stay_unmanaged(self):
        spec = parse_policy("policy:trunk=gate")
        assert not spec.hca.active
        assert spec.trunk.active
        assert not spec.switch.active

    @pytest.mark.parametrize("bad", [
        "hca=gate",                      # missing 'policy:' head
        "policy:",                       # empty body
        "policy:hca",                    # not key=value
        "policy:hca=gate,hca=gate",      # duplicate class
        "policy:hca=bogus",              # unknown family
        "policy:levels=3",               # parameter before any class
        "policy:hca=gate:foo=3",         # unknown parameter
        "policy:hca=gate:levels=abc",    # bad coercion
        "policy:hca=none:levels=2",      # 'none' takes no parameters
        "policy:hca=gate:low=1.5",       # low out of [0, 1]
        "policy:hca=gate:t_react_us=-1",  # negative transition time
        "policy:hca=width:levels=5",     # width ladder is 4X→2X→1X
        "policy:hca=scale:levels=9",     # scale ladder caps at 5
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(PolicySpecError):
            parse_policy(bad)

    def test_errors_are_value_errors(self):
        # callers that validate spec strings catch ValueError, like the
        # faults/topology grammars
        with pytest.raises(ValueError):
            parse_policy("policy:hca=bogus")

    @pytest.mark.parametrize("bad", [
        "policy:hca=width:levels=2,levels=3",   # silently levels=3
        "policy:hca=gate:t_react_us=nan",
        "policy:hca=gate:t_react_us=inf",
        "policy:trunk=gate:gate_after_us=inf",
        "policy:hca=gate:levels=-1",            # gate ignored it
    ])
    def test_once_accepted_specs_rejected(self, bad):
        with pytest.raises(PolicySpecError):
            parse_policy(bad)

    def test_a_key_may_repeat_once_per_class(self):
        spec = parse_policy("policy:hca=width,levels=2,trunk=width,levels=3")
        assert (spec.hca.levels, spec.trunk.levels) == (2, 3)

    def test_direct_construction_checked_like_a_parse(self):
        with pytest.raises(PolicySpecError, match="finite"):
            ClassPolicy("gate", t_react_us=float("nan"))

    def test_describe_keeps_every_digit(self):
        # the sweep canonicalises its policies through describe(): a
        # rounded value would replay a different policy
        text = "policy:hca=gate:t_react_us=1.2345678"
        assert parse_policy(text).describe() == text
        spec = parse_policy(
            "policy:hca=width:t_react_us=0.12345678901234567,"
            "low=0.43000000000000005"
        )
        assert parse_policy(spec.describe()) == spec

    def test_help_lists_every_key_from_the_schema(self):
        for name in CLASS_KEYS.keys:
            assert name in policy_help()


#: levels valid for every family (gate ignores it; width 2..3, scale 2..5)
_ONE_CLASS = st.tuples(
    st.sampled_from(sorted(POLICIES)),
    valid_items(CLASS_KEYS, levels=st.sampled_from(["0", "2", "3"])),
).map(lambda fam: fam[0] + (":" + fam[1] if fam[1] else ""))


class TestGrammarFuzz:
    @given(classes=st.fixed_dictionaries(
        {}, optional={cls: _ONE_CLASS for cls in LINK_CLASSES}
    ).filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_valid_specs_round_trip(self, classes):
        text = "policy:" + ",".join(f"{c}={v}" for c, v in classes.items())
        spec = parse_policy(text)
        assert parse_policy(spec.describe()) == spec

    @given(text=spec_text(
        "policy", "none", *LINK_CLASSES, *POLICIES, *CLASS_KEYS.keys
    ))
    @FUZZ
    def test_any_text_parses_or_raises_policy_spec_error(self, text):
        try:
            parse_policy(text)
        except PolicySpecError:
            pass


class TestLevelTables:
    def test_static_floor_from_wrps_datum(self):
        # 1 of 4 lanes at 43 %  =>  floor + (1 - floor)/4 = 0.43
        assert _static_floor(PAPER) == pytest.approx(0.24)

    def test_gate_is_the_paper(self):
        (lv,) = gate_levels(PAPER)
        assert lv.power_fraction == PAPER.low_power_fraction
        assert lv.t_react_us == PAPER.t_react_us
        assert lv.bandwidth_fraction == 0.25

    def test_width_ladder_derived_powers(self):
        two, one = width_levels(PAPER, 3)
        # floor + (1 - floor) * lane_fraction
        assert two.power_fraction == pytest.approx(0.62)
        assert one.power_fraction == pytest.approx(0.43)
        # reactivation scales with lanes to bring back (2 of 3, 3 of 3)
        assert two.t_react_us == pytest.approx(PAPER.t_react_us * 2 / 3)
        assert one.t_react_us == pytest.approx(PAPER.t_react_us)

    def test_scale_ladder_quadratic_powers(self):
        half, quarter = scale_levels(PAPER, 3)
        # floor + (1 - floor) * speed^2: CV^2 f with the rail tracking f
        assert half.power_fraction == pytest.approx(0.43)
        assert quarter.power_fraction == pytest.approx(0.2875)
        # at matched bandwidth, scaling the clock beats dropping lanes
        two, one = width_levels(PAPER, 3)
        assert half.power_fraction < two.power_fraction
        assert quarter.power_fraction < one.power_fraction

    @pytest.mark.parametrize("builder,levels", [
        (width_levels, 3), (scale_levels, 3), (scale_levels, 5),
    ])
    def test_ladders_monotonic(self, builder, levels):
        rungs = builder(PAPER, levels)
        for shallow, deep in zip(rungs, rungs[1:]):
            assert deep.power_fraction < shallow.power_fraction
            assert deep.bandwidth_fraction < shallow.bandwidth_fraction
            assert deep.t_react_us > shallow.t_react_us

    def test_class_policy_overrides(self):
        cpol = ClassPolicy("gate", t_react_us=40.0, low=0.2)
        p = cpol.wrps(PAPER)
        assert p.t_react_us == 40.0
        assert p.low_power_fraction == 0.2
        # default hysteresis is the break-even; explicit value wins
        assert cpol.hysteresis_us(PAPER) == 80.0
        assert ClassPolicy("gate", gate_after_us=7.5).hysteresis_us() == 7.5

    def test_protocol_conformance(self):
        link = make_link()
        assert isinstance(ManagedLink.create(link, PAPER), PowerPolicy)
        assert isinstance(
            LeveledLink.create(make_link(), ClassPolicy("width", levels=3)),
            PowerPolicy,
        )
        assert isinstance(
            IdleGatedLink.create(make_link(False), ClassPolicy("gate")),
            PowerPolicy,
        )


class TestEnergyAccountExtensions:
    def test_set_state_splits_on_power_change(self):
        acc = LinkEnergyAccount(PAPER)
        acc.switch_mode(10.0, LinkPowerMode.TRANSITION)
        acc.set_state(20.0, LinkPowerMode.LOW, 0.62)
        acc.set_state(50.0, LinkPowerMode.LOW, 0.43)  # LOW→LOW, new power
        acc.close(100.0)
        assert len(acc.intervals) == 4
        assert acc.residency_us(LinkPowerMode.LOW) == pytest.approx(80.0)
        # 2X→1X within LOW is one descent, not two
        assert acc.transitions_to_low == 1
        want = 10.0 * 1.0 + 10.0 * 1.0 + 30.0 * 0.62 + 50.0 * 0.43
        assert acc.energy() == pytest.approx(want)
        total, energy, low = acc.integrate()
        assert (total, energy, low) == (
            pytest.approx(100.0), pytest.approx(want), pytest.approx(80.0)
        )

    def test_start_us_origin(self):
        acc = LinkEnergyAccount(PAPER, start_us=100.0)
        acc.switch_mode(150.0, LinkPowerMode.LOW)
        acc.close(200.0)
        assert acc.intervals[0].start_us == 100.0
        assert acc.total_us == pytest.approx(100.0)
        assert acc.residency_us(LinkPowerMode.LOW) == pytest.approx(50.0)


class TestLeveledLink:
    def make(self, policy="width", levels=3):
        return LeveledLink.create(
            make_link(), ClassPolicy(policy, levels=levels), PAPER
        )

    def test_pick_deepest_affordable_rung(self):
        ll = self.make()
        # 2X break-even is 2 * (10 * 2/3) = 13.33 us; 1X is 20 us
        assert ll._pick_level(13.0) is None
        assert ll._pick_level(14.0) == 0
        assert ll._pick_level(20.0) == 0
        assert ll._pick_level(21.0) == 1
        assert not ll.worthwhile(13.0)
        assert ll.worthwhile(14.0)

    def test_shallow_window_parks_at_2x(self):
        ll = self.make()
        assert ll.shutdown(0.0, timer_us=15.0)
        ll.finish(100.0)
        low = [i for i in ll.account.intervals
               if i.mode is LinkPowerMode.LOW]
        assert low and all(i.power == pytest.approx(0.62) for i in low)

    def test_deep_window_parks_at_1x(self):
        ll = self.make()
        assert ll.shutdown(0.0, timer_us=100.0)
        ll.finish(200.0)
        low = [i for i in ll.account.intervals
               if i.mode is LinkPowerMode.LOW]
        # 1X draws the nominal LOW power, recorded as None like the gate
        assert low and all(i.power is None for i in low)
        assert ll.account.params.power_of(LinkPowerMode.LOW) == 0.43

    def test_shallow_rung_cheaper_to_recover(self):
        ll = self.make()
        ll.shutdown(0.0, timer_us=15.0)  # parks at 2X (t_react 6.67)
        ready = ll.request_full(10.0)
        assert ready == pytest.approx(10.0 + PAPER.t_react_us * 2 / 3)
        assert ll.counters.emergency_reactivations == 1

    def test_counter_split(self):
        ll = self.make()
        assert not ll.shutdown(0.0, timer_us=5.0)
        assert ll.counters.skipped_too_short == 1
        assert ll.shutdown(0.0, timer_us=100.0)
        assert not ll.shutdown(20.0, timer_us=100.0)  # still LOW
        assert ll.counters.skipped_not_full == 1
        assert ll.counters.skipped_directives == 2
        assert ll.counters.shutdowns == 1

    def test_timer_fire_reactivates(self):
        ll = self.make()
        ll.shutdown(0.0, timer_us=50.0)  # 1X rung; fires at 50
        assert ll.request_full(100.0) == 100.0
        assert ll.counters.timer_reactivations == 1
        assert ll.counters.total_penalty_us == 0.0


class TestIdleGatedLink:
    """Reactive staircase: descend after observed idleness, pay the
    reached rung's reactivation on the next arrival."""

    def make(self, cpol=None):
        link = make_link(host=False)
        igl = IdleGatedLink.create(link, cpol or ClassPolicy("gate"), PAPER)
        return link, igl

    @staticmethod
    def traffic(link, start, end):
        link.forward.busy_starts.append(start)
        link.forward.busy_ends.append(end)

    def test_no_directive_interface(self):
        _, igl = self.make()
        assert not igl.worthwhile(1e9)
        assert not igl.shutdown(0.0, 1e9)

    def test_arrival_inside_hysteresis_is_free(self):
        link, igl = self.make()
        self.traffic(link, 0.0, 10.0)
        # gate_after = break-even 20 us; 25 is inside the window
        assert igl.request_full(25.0) == 25.0
        assert igl.counters.shutdowns == 0

    def test_emergency_wake_after_idle_gap(self):
        link, igl = self.make()
        self.traffic(link, 0.0, 10.0)
        # idle since 10; gated at 30, LOW at 40; arrival at 100 pays
        # t_react on top of the arrival instant
        ready = igl.request_full(100.0)
        assert ready == pytest.approx(110.0)
        assert igl.counters.shutdowns == 1
        assert igl.counters.emergency_reactivations == 1
        assert igl.counters.total_penalty_us == pytest.approx(10.0)
        igl.finish(120.0)
        acc = igl.account
        assert acc.residency_us(LinkPowerMode.LOW) == pytest.approx(60.0)
        assert acc.residency_us(LinkPowerMode.TRANSITION) == pytest.approx(20.0)

    def test_second_arrival_waits_out_reactivation(self):
        link, igl = self.make()
        self.traffic(link, 0.0, 10.0)
        ready = igl.request_full(100.0)
        assert igl.request_full(105.0) == ready
        assert igl.counters.late_reactivations == 1
        assert igl.counters.total_penalty_us == pytest.approx(15.0)

    def test_arrival_mid_descent_completes_step_first(self):
        link, igl = self.make()
        self.traffic(link, 0.0, 10.0)
        # descent runs [30, 40); the WRPS protocol finishes the step,
        # then reactivates
        ready = igl.request_full(35.0)
        assert ready == pytest.approx(50.0)
        assert igl.counters.total_penalty_us == pytest.approx(15.0)

    def test_trailing_idleness_descends_at_finish(self):
        link, igl = self.make()
        self.traffic(link, 0.0, 10.0)
        igl.finish(1000.0)
        assert igl.counters.shutdowns == 1
        acc = igl.account
        assert acc.residency_us(LinkPowerMode.LOW) == pytest.approx(960.0)
        # an always-idle trunk saves nearly the full LOW headroom
        assert acc.savings_fraction() == pytest.approx(
            (1.0 - 0.43) * 960.0 / 1000.0
        )

    def test_multi_level_staircase(self):
        _, igl = self.make(ClassPolicy("width", levels=3))
        # never any traffic: descend 4X→2X→1X and stay
        igl.finish(1000.0)
        low = [i for i in igl.account.intervals
               if i.mode is LinkPowerMode.LOW]
        # 1X draws the nominal LOW power, recorded as None
        assert [i.power for i in low] == [pytest.approx(0.62), None]
        # the 2X residency ends exactly where the 1X descent completes
        assert low[0].end_us < low[1].start_us


class _FakeSwitch:
    def __init__(self, node, ports):
        self.node = node
        self.ports = ports


class TestGatedSwitch:
    def make(self):
        ports = [make_link(host=False) for _ in range(3)]
        sw = _FakeSwitch(NodeId(7, 1), ports)
        gs = GatedSwitch.create(sw, ClassPolicy("gate"), PAPER)
        return ports, gs

    def test_any_port_traffic_holds_the_gate(self):
        ports, gs = self.make()
        ports[2].backward.busy_starts.append(0.0)
        ports[2].backward.busy_ends.append(90.0)
        # 100 is inside port 2's hysteresis window even though ports 0/1
        # have been idle forever
        assert gs.request_full(100.0) == 100.0
        assert gs.counters.shutdowns == 0

    def test_idle_switch_sleeps(self):
        _, gs = self.make()
        gs.finish(1000.0)
        assert gs.counters.shutdowns == 1
        assert gs.account.savings_fraction() > 0.5
        assert gs.sleep_power_fraction == pytest.approx(0.43)


def _reserve(channel, ready, serial, cut):
    """One hop's reservation as the fabric makes it: a full one, or an
    in-flight fault cut at ``start + cut * serial`` (``cut`` in (-1, 1)),
    which writes a partial busy window only when the link dies after
    the start."""

    start = max(ready, channel.next_free_us)
    end = start + serial
    if cut is not None:
        end = start + cut * serial
        if end <= start:
            return
    channel.next_free_us = end
    channel.busy_starts.append(start)
    channel.busy_ends.append(end)


#: one generated hop: (port, forward?, clock step, serialisation time,
#: in-flight cut fraction or None); steps may be negative, as the head
#: arrival times the hook sees are not monotone across transfers
_HOPS = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.booleans(),
        st.floats(-40.0, 200.0),
        st.floats(0.5, 60.0),
        st.none() | st.floats(-0.99, 0.99),
    ),
    max_size=60,
)

_REACTIVE = (
    ClassPolicy("gate"),
    ClassPolicy("width", levels=3),
    ClassPolicy("scale", levels=4, gate_after_us=5.0),
)


class TestFoldEqualsScan:
    """The fast hook's O(1) busy-end fold answers exactly what the
    scanning controller answers, on a trunk link and on a k-port
    switch, through full reservations and in-flight cuts."""

    @staticmethod
    def build(shape, cpol, k):
        """(links, controller, the gate the fast hook registers)."""

        if shape == "trunk":
            link = make_link(host=False)
            igl = IdleGatedLink.create(link, cpol, PAPER)
            return [link], igl, igl
        ports = [make_link(host=False) for _ in range(k)]
        gs = GatedSwitch.create(_FakeSwitch(NodeId(7, 1), ports), cpol, PAPER)
        return ports, gs, gs.gate

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.sampled_from(("trunk", "switch")),
        cpol=st.sampled_from(_REACTIVE),
        k=st.integers(1, 6),
        hops=_HOPS,
        tail=st.floats(0.0, 500.0),
    )
    def test_fold_matches_scanning_twin(self, shape, cpol, k, hops, tail):
        links, ctrl, gate = self.build(shape, cpol, k)
        twin_links, twin, _ = self.build(shape, cpol, k)
        hook = fold_hook({id(link): (None, (gate,)) for link in links})
        t = 0.0
        for port, forward, step, serial, cut in hops:
            t = max(0.0, t + step)
            i = port % len(links)
            ready = hook(links[i], t)
            assert ready == twin.request_full(t)
            for link in (links[i], twin_links[i]):
                _reserve(
                    link.forward if forward else link.backward,
                    ready, serial, cut,
                )
        t_end = tail + max(
            [t] + [ch.next_free_us for link in links
                   for ch in (link.forward, link.backward)]
        )
        ctrl.finish(t_end)
        twin.finish(t_end)
        assert ctrl.counters == twin.counters
        assert ctrl.account.intervals == twin.account.intervals


class TestClassSavingsRows:
    def test_energies_sum_exactly(self):
        spec = parse_policy("policy:hca=gate,trunk=gate")
        accounts = {"hca": [], "trunk": []}
        for cls, n in (("hca", 2), ("trunk", 3)):
            for k in range(n):
                acc = LinkEnergyAccount(PAPER)
                acc.switch_mode(10.0 * (k + 1), LinkPowerMode.LOW)
                acc.close(100.0)
                accounts[cls].append(acc)
        rows = class_savings_rows(spec, accounts)
        assert [r.link_class for r in rows] == ["hca", "trunk"]
        for row in rows:
            members = accounts[row.link_class]
            assert row.members == len(members)
            assert row.energy_us == sum(a.energy() for a in members)
            assert row.total_us == sum(a.total_us for a in members)
            assert row.savings_pct == pytest.approx(
                100.0 * (1.0 - row.energy_us / row.total_us)
            )

    def test_unmanaged_classes_have_no_row(self):
        rows = class_savings_rows(PolicySpec(), {"hca": []})
        assert rows == ()
