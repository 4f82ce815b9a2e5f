"""Fault subsystem unit tests: spec grammar, plan determinism, failover.

The determinism contract under test: ``(seed, topology, fault spec)``
-> identical fault timeline, independent of process, replay history or
call order (every element draws from its own seeded stream).
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st
from spec_strategies import FUZZ, spec_text, valid_items

from repro.network.fabric import Fabric
from repro.network.faults import (
    DEGRADE,
    FAULT_KEYS,
    LINK_DOWN,
    LINK_UP,
    NO_FAULTS,
    FabricPartitioned,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    FaultSpecError,
    WakeFaultModel,
    compile_fault_plan,
    faults_help,
    parse_faults,
)
from repro.network.routing import failover_route


class TestParseFaults:
    def test_none_forms(self):
        assert parse_faults(None) is None
        assert parse_faults("") is None
        assert parse_faults("none") is None
        assert parse_faults(" none ") is None

    def test_basic_spec(self):
        spec = parse_faults("faults:seed=7,link_fail=0.1,wake_timeout=0.2")
        assert spec.seed == 7
        assert spec.link_fail == 0.1
        assert spec.wake_timeout == 0.2
        assert spec.active

    def test_bare_faults_is_inactive(self):
        spec = parse_faults("faults")
        assert spec is not None and not spec.active

    def test_unknown_key_rejected_with_valid_list(self):
        with pytest.raises(FaultSpecError, match="link_fail"):
            parse_faults("faults:link_fial=0.1")

    def test_malformed_entry_rejected(self):
        with pytest.raises(FaultSpecError, match="key=value"):
            parse_faults("faults:link_fail")

    def test_wrong_head_rejected(self):
        with pytest.raises(FaultSpecError, match="faults:"):
            parse_faults("fault:link_fail=0.1")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(FaultSpecError, match="not numeric"):
            parse_faults("faults:link_fail=lots")

    def test_validation(self):
        with pytest.raises(FaultSpecError, match="probability"):
            FaultSpec(link_fail=1.5)
        with pytest.raises(FaultSpecError, match="degrade_factor"):
            FaultSpec(degrade_factor=0.0)
        with pytest.raises(FaultSpecError, match="flap_down_us"):
            FaultSpec(flap_down_us=2000.0, flap_period_us=1000.0)
        with pytest.raises(FaultSpecError, match="hca"):
            FaultSpec(hca=3)

    def test_describe_round_trips(self):
        text = "faults:seed=9,link_fail=0.2,horizon_us=4000"
        spec = parse_faults(text)
        again = parse_faults(spec.describe())
        assert again == spec

    def test_help_mentions_grammar(self):
        assert "faults:" in faults_help()
        assert NO_FAULTS in faults_help()

    @pytest.mark.parametrize("bad", [
        "faults:flap=0.5,horizon_us=inf",  # every onset at t = inf
        "faults:retry_delay_us=inf",
        "faults:horizon_us=nan",
        "faults:flap_down_us=nan",         # nan >= period was False
        "faults:seed=1,seed=2",            # silently seed=2
    ])
    def test_once_accepted_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            parse_faults(bad)

    def test_direct_construction_checked_like_a_parse(self):
        with pytest.raises(FaultSpecError, match="finite"):
            FaultSpec(horizon_us=float("inf"))

    def test_describe_keeps_every_digit(self):
        spec = parse_faults(
            "faults:flap=0.12345678901234567,horizon_us=1234.5678901234567"
        )
        assert parse_faults(spec.describe()) == spec
        # integral floats keep their short form
        assert parse_faults("faults:horizon_us=4000").describe() == (
            "faults:seed=0,horizon_us=4000"
        )

    def test_help_lists_every_key_from_the_schema(self):
        for name in FAULT_KEYS.keys:
            assert name in faults_help()


#: the cross-field rule flap_down_us < flap_period_us holds for any draw
_FLAP = dict(
    flap_down_us=st.floats(0.0, 1000.0, exclude_min=True).map(repr),
    flap_period_us=st.floats(1000.0, 1e9, exclude_min=True).map(repr),
)


class TestGrammarFuzz:
    @given(items=valid_items(FAULT_KEYS, **_FLAP))
    @settings(max_examples=200, deadline=None)
    def test_valid_specs_round_trip(self, items):
        spec = parse_faults("faults:" + items)
        assert parse_faults(spec.describe()) == spec

    @given(text=spec_text("faults", "none", *FAULT_KEYS.keys))
    @FUZZ
    def test_any_text_parses_or_raises_fault_spec_error(self, text):
        try:
            parse_faults(text)
        except FaultSpecError:
            pass


class TestPlanDeterminism:
    SPEC = "faults:seed=11,link_fail=0.3,flap=0.3,degrade=0.3,switch_fail=0.2"

    def test_identical_plans_for_identical_inputs(self):
        spec = parse_faults(self.SPEC)
        fab_a = Fabric.for_ranks(16, seed=3)
        fab_b = Fabric.for_ranks(16, seed=3)
        plan_a = compile_fault_plan(spec, fab_a)
        plan_b = compile_fault_plan(spec, fab_b)
        assert plan_a.events == plan_b.events
        assert plan_a.down_times == plan_b.down_times

    def test_plan_independent_of_replay_history(self):
        spec = parse_faults(self.SPEC)
        fab = Fabric.for_ranks(16, seed=3)
        before = compile_fault_plan(spec, fab).events
        fab.transfer(0, 7, 1 << 16, 0.0)
        fab.transfer(3, 12, 4096, 5.0)
        assert compile_fault_plan(spec, fab).events == before

    def test_seed_changes_plan(self):
        fab = Fabric.for_ranks(16, seed=3)
        a = compile_fault_plan(parse_faults(self.SPEC), fab)
        b = compile_fault_plan(
            parse_faults(self.SPEC.replace("seed=11", "seed=12")), fab
        )
        assert a.events != b.events

    def test_events_time_sorted(self):
        fab = Fabric.for_ranks(16, seed=3)
        plan = compile_fault_plan(parse_faults(self.SPEC), fab)
        times = [e.t_us for e in plan.events]
        assert times == sorted(times)

    def test_interior_targeting_by_default(self):
        fab = Fabric.for_ranks(16, seed=3)
        spec = parse_faults("faults:seed=1,link_fail=1.0,switch_fail=1.0")
        plan = compile_fault_plan(spec, fab)
        host_edges = {k for k, l in fab.links.items() if l.is_host_link}
        edge_switches = {n for n, s in fab.switches.items() if s.is_edge}
        for ev in plan.events:
            if ev.kind == LINK_DOWN:
                assert ev.element not in host_edges
            else:
                assert ev.element[0] not in edge_switches

    def test_hca_flag_extends_targeting(self):
        fab = Fabric.for_ranks(16, seed=3)
        spec = parse_faults("faults:seed=1,link_fail=1.0,hca=1")
        plan = compile_fault_plan(spec, fab)
        downed = {e.element for e in plan.events if e.kind == LINK_DOWN}
        assert downed == set(fab.links)

    def test_flap_train_shape(self):
        fab = Fabric.for_ranks(16, seed=5)
        spec = parse_faults(
            "faults:seed=5,flap=1.0,flap_cycles=3,flap_down_us=100,"
            "flap_period_us=500"
        )
        plan = compile_fault_plan(spec, fab)
        by_link = {}
        for ev in plan.events:
            by_link.setdefault(ev.element, []).append(ev)
        for events in by_link.values():
            downs = [e.t_us for e in events if e.kind == LINK_DOWN]
            ups = [e.t_us for e in events if e.kind == LINK_UP]
            assert len(downs) == len(ups) == 3
            for d, u in zip(sorted(downs), sorted(ups)):
                assert u == pytest.approx(d + 100.0)


class TestWakeFaultModel:
    def test_spike_deterministic_per_key_and_ordinal(self):
        model = WakeFaultModel(seed=7, prob=0.5, spike_us=123.0)
        draws = [(k, o, model.spike(k, o)) for k in range(8) for o in range(8)]
        again = [(k, o, model.spike(k, o)) for k in range(8) for o in range(8)]
        assert draws == again
        values = {v for _, _, v in draws}
        assert values == {0.0, 123.0}  # some hit, some miss at p=0.5

    def test_plan_exposes_model_only_when_enabled(self):
        fab = Fabric.for_ranks(8, seed=1)
        off = compile_fault_plan(parse_faults("faults:link_fail=0.5"), fab)
        on = compile_fault_plan(
            parse_faults("faults:wake_timeout=0.5,wake_spike_us=42"), fab
        )
        assert off.wake_model() is None
        model = on.wake_model()
        assert model is not None and model.spike_us == 42.0


class TestFailoverRoute:
    def test_avoids_failed_edge(self):
        fab = Fabric.for_ranks(16, seed=3, hosts_per_leaf=4)
        static = fab.routes.path(0, 5)
        # kill one trunk edge of the static path
        trunk = None
        prev = static[0]
        for head in static[1:]:
            key = (prev, head) if prev <= head else (head, prev)
            if not fab.links[key].is_host_link:
                trunk = key
                break
            prev = head
        assert trunk is not None
        path = failover_route(fab.topo, 0, 5, failed_links=frozenset({trunk}))
        assert path is not None
        prev = path[0]
        for head in path[1:]:
            key = (prev, head) if prev <= head else (head, prev)
            assert key != trunk
            prev = head

    def test_returns_none_when_partitioned(self):
        fab = Fabric.for_ranks(16, seed=3, hosts_per_leaf=4)
        # failing every link strands every cross-switch pair
        path = failover_route(
            fab.topo, 0, 5, failed_links=frozenset(fab.links)
        )
        assert path is None

    def test_salt_varies_choice_deterministically(self):
        fab = Fabric.for_ranks(32, seed=3, hosts_per_leaf=4)
        picks = {
            failover_route(fab.topo, 0, 17, seed=9, salt=s) for s in range(16)
        }
        again = {
            failover_route(fab.topo, 0, 17, seed=9, salt=s) for s in range(16)
        }
        assert picks == again
        assert all(p is not None for p in picks)


class TestFabricPartitioned:
    def test_message_and_pickle_round_trip(self):
        ev = FaultEvent(10.0, LINK_DOWN, ("a", "b"))
        exc = FabricPartitioned(2, 9, 123.5, (ev,)).with_blocked(
            ("rank2", "rank9")
        )
        text = str(exc)
        assert "host 2" in text and "host 9" in text
        assert "t=123.5us" in text
        assert "link_down" in text
        assert "rank2" in text
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, FabricPartitioned)
        assert (clone.src_host, clone.dst_host, clone.t_us) == (2, 9, 123.5)
        assert clone.blocked == ("rank2", "rank9")
        assert str(clone) == text


class TestHandBuiltPlans:
    def test_from_events_sorts_and_indexes_downs(self):
        spec = FaultSpec(seed=1)
        plan = FaultPlan.from_events(
            spec,
            [
                FaultEvent(30.0, LINK_UP, ("x", "y")),
                FaultEvent(10.0, LINK_DOWN, ("x", "y")),
                FaultEvent(20.0, DEGRADE, ("y", "z"), factor=0.5),
            ],
        )
        assert [e.t_us for e in plan.events] == [10.0, 20.0, 30.0]
        assert plan.down_times == {("x", "y"): (10.0,)}
