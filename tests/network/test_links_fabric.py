"""Tests for links, channels and the fabric's transfer timing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import (
    LINK_BANDWIDTH_BYTES_PER_US,
    MPI_LATENCY_US,
    SEGMENT_SIZE_BYTES,
)
from repro.network.fabric import Fabric
from repro.network.links import DirectedChannel, Link, LinkPowerMode
from repro.network.topology import NodeId


class TestDirectedChannel:
    def test_serialization_time(self):
        ch = DirectedChannel("t")
        assert ch.serialization_time(5000) == pytest.approx(
            5000 / LINK_BANDWIDTH_BYTES_PER_US
        )

    def test_reserve_sequential(self):
        ch = DirectedChannel("t", bandwidth_bytes_per_us=1000.0)
        s1, e1 = ch.reserve(0.0, 1000)   # 1 us
        s2, e2 = ch.reserve(0.0, 1000)   # queued behind the first
        assert (s1, e1) == (0.0, 1.0)
        assert (s2, e2) == (1.0, 2.0)

    def test_reserve_after_gap(self):
        ch = DirectedChannel("t", bandwidth_bytes_per_us=1000.0)
        ch.reserve(0.0, 1000)
        s, e = ch.reserve(10.0, 500)
        assert s == 10.0
        assert e == pytest.approx(10.5)
        assert len(ch.busy_log) == 2

    def test_adjacent_busy_coalesced(self):
        ch = DirectedChannel("t", bandwidth_bytes_per_us=1000.0)
        ch.reserve(0.0, 1000)
        ch.reserve(0.5, 1000)  # starts exactly when the first ends
        assert len(ch.busy_log) == 1
        assert ch.busy_log[0] == (0.0, 2.0)

    def test_utilization(self):
        ch = DirectedChannel("t", bandwidth_bytes_per_us=1000.0)
        ch.reserve(0.0, 1000)
        assert ch.utilization(2.0) == pytest.approx(0.5)

    def test_reset(self):
        ch = DirectedChannel("t")
        ch.reserve(0.0, 100)
        ch.reset()
        assert ch.next_free_us == 0.0
        assert ch.busy_log == []
        assert ch.bytes_carried == 0


class TestLink:
    def _link(self):
        return Link(NodeId(0, 0), NodeId(1, 0))

    def test_channel_lookup(self):
        link = self._link()
        assert link.channel(NodeId(0, 0)) is link.forward
        assert link.channel(NodeId(1, 0)) is link.backward
        with pytest.raises(KeyError):
            link.channel(NodeId(0, 5))

    def test_host_link_detection(self):
        link = self._link()
        assert link.is_host_link
        assert link.host_index == 0
        trunk = Link(NodeId(1, 0), NodeId(2, 0))
        assert not trunk.is_host_link
        assert trunk.host_index is None

    def test_ready_time_modes(self):
        link = self._link()
        assert link.ready_time(5.0) == 5.0
        link.mode = LinkPowerMode.LOW
        assert link.ready_time(5.0) == pytest.approx(5.0 + link.t_react_us)
        link.mode = LinkPowerMode.TRANSITION
        link.reactivation_done_us = 12.0
        assert link.ready_time(5.0) == 12.0
        assert link.ready_time(20.0) == 20.0


class TestFabricTransfers:
    def test_loopback(self):
        fab = Fabric.for_ranks(4)
        t = fab.transfer(2, 2, 1024, 10.0)
        assert t.hops == 0
        assert t.arrive_us == pytest.approx(10.0 + MPI_LATENCY_US)

    def test_same_leaf_timing(self):
        fab = Fabric.for_ranks(4, random_routing=False)
        size = 2048
        t = fab.transfer(0, 1, size, 0.0)
        ser = size / LINK_BANDWIDTH_BYTES_PER_US
        seg = min(SEGMENT_SIZE_BYTES, size) / LINK_BANDWIDTH_BYTES_PER_US
        expected = MPI_LATENCY_US + seg + fab.hop_latency_us + ser
        assert t.arrive_us == pytest.approx(expected)
        assert t.hops == 2

    def test_pipelining_faster_than_store_forward(self):
        fab = Fabric.for_ranks(64)
        size = 1 << 20  # 1 MB across (up to) 4 hops
        t = fab.transfer(0, 60, size, 0.0)
        ser = size / LINK_BANDWIDTH_BYTES_PER_US
        # cut-through: much less than hops * serialisation
        assert t.wire_us < 2.0 * ser
        assert t.wire_us >= ser

    def test_contention_serialises(self):
        fab = Fabric.for_ranks(4, random_routing=False)
        size = 100_000
        t1 = fab.transfer(0, 1, size, 0.0)
        t2 = fab.transfer(0, 1, size, 0.0)  # same route, same time
        assert t2.arrive_us > t1.arrive_us
        assert t2.depart_us >= t1.depart_us + size / LINK_BANDWIDTH_BYTES_PER_US

    def test_src_release_before_arrival_multihop(self):
        fab = Fabric.for_ranks(64)
        t = fab.transfer(0, 63, 1 << 18, 0.0)
        assert t.src_release_us <= t.arrive_us
        assert t.src_release_us > t.depart_us

    def test_power_block_hook_invoked(self):
        fab = Fabric.for_ranks(4, random_routing=False)
        link = fab.host_link(0)
        link.mode = LinkPowerMode.LOW
        calls = []

        def hook(l, t):
            calls.append((l, t))
            l.mode = LinkPowerMode.FULL
            return t + 10.0  # reactivation penalty

        t = fab.transfer(0, 1, 1024, 0.0, on_power_block=hook)
        assert len(calls) == 1
        assert t.power_wait_us == pytest.approx(10.0)

    def test_default_power_block_waits_react(self):
        fab = Fabric.for_ranks(4, random_routing=False)
        fab.host_link(0).mode = LinkPowerMode.LOW
        t = fab.transfer(0, 1, 1024, 0.0)
        assert t.power_wait_us == pytest.approx(fab.host_link(0).t_react_us)

    def test_rejects_negative_size(self):
        fab = Fabric.for_ranks(4)
        with pytest.raises(ValueError):
            fab.transfer(0, 1, -1, 0.0)

    def test_host_links_and_reset(self):
        fab = Fabric.for_ranks(8)
        assert len(fab.host_links()) == fab.topo.num_hosts
        fab.transfer(0, 5, 4096, 0.0)
        assert fab.total_bytes_carried() > 0
        fab.reset()
        assert fab.total_bytes_carried() == 0
        assert fab.messages_sent == 0

    def test_busy_logs_recorded(self):
        fab = Fabric.for_ranks(4, random_routing=False)
        fab.transfer(0, 1, 4096, 0.0)
        logs = fab.host_link_busy_logs()
        assert logs[0], "source host link must be busy"
        assert logs[1], "destination host link must be busy"


class TestSwitchAccounting:
    def test_switch_forwards_counted(self):
        fab = Fabric.for_ranks(4, random_routing=False)
        fab.transfer(0, 1, 4096, 0.0)   # same leaf: 1 switch hop
        traffic = fab.switch_traffic()
        forwards = sum(m for m, _ in traffic.values())
        assert forwards == 1
        assert sum(b for _, b in traffic.values()) == 4096

    def test_cross_leaf_two_switch_hops(self):
        fab = Fabric.for_ranks(40, random_routing=False)
        fab.transfer(0, 39, 2048, 0.0)  # leaf -> spine -> leaf + dst HCA
        forwards = sum(m for m, _ in fab.switch_traffic().values())
        assert forwards == 3  # src leaf, spine, dst leaf

    def test_reset_clears_switches(self):
        fab = Fabric.for_ranks(4, random_routing=False)
        fab.transfer(0, 1, 4096, 0.0)
        fab.reset()
        assert all(m == 0 for m, _ in fab.switch_traffic().values())


def _channel_state(fab):
    return {
        key: [
            (ch.busy_starts, ch.busy_ends, ch.next_free_us, ch.bytes_carried)
            for ch in (link.forward, link.backward)
        ]
        for key, link in fab.links.items()
    }


def _waking_hook(calls):
    """A power-block hook that logs the call and wakes the link 7.5 us
    later (the controller's role in a managed replay)."""

    def hook(link, t):
        calls.append((link.a, link.b, t))
        link.mode = LinkPowerMode.FULL
        return t + 7.5

    return hook


class TestHotEqualsReference:
    """``transfer_hot`` (the replay kernel over flat hop tables) against
    ``transfer`` (the per-message route walk) on twin fabrics."""

    NRANKS = 40  # three leaves: same-leaf and cross-spine routes

    @given(
        seed=st.integers(0, 3),
        messages=st.lists(
            st.tuples(
                st.integers(0, NRANKS - 1),               # src
                # dst offset: loopback, same leaf, across the spine
                st.sampled_from([0, 1, 2, 17, 18, 39]),
                st.sampled_from([0, 1, 64, 4096, 70_000, 1 << 20]),
                st.floats(0.0, 40.0),                     # gap after last
                st.booleans(),                            # gate src HCA
                st.booleans(),                            # pass the hook
            ),
            min_size=1, max_size=40,
        ),
        precompiled=st.integers(0, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_timings_and_bookkeeping(self, seed, messages, precompiled):
        hot = Fabric.for_ranks(self.NRANKS, seed=seed)
        ref = Fabric.for_ranks(self.NRANKS, seed=seed)
        # a prefix of the pairs is compiled ahead, the rest lazily
        messages = [
            (src, (src + off) % self.NRANKS, *rest)
            for src, off, *rest in messages
        ]
        hot.precompile_pairs({(m[0], m[1]) for m in messages[:precompiled]})
        hot_calls, ref_calls = [], []
        hot_hook, ref_hook = _waking_hook(hot_calls), _waking_hook(ref_calls)
        t = 0.0
        for src, dst, size, gap, gate, hooked in messages:
            t += gap
            if gate:
                hot.host_link(src).mode = LinkPowerMode.LOW
                ref.host_link(src).mode = LinkPowerMode.LOW
            got = hot.transfer_hot(
                src, dst, size, t, hot_hook if hooked else None
            )
            want = ref.transfer(
                src, dst, size, t, on_power_block=ref_hook if hooked else None
            )
            assert got == (want.arrive_us, want.src_release_us)
        assert hot_calls == ref_calls
        assert _channel_state(hot) == _channel_state(ref)
        assert hot.switch_traffic() == ref.switch_traffic()
        assert hot.messages_sent == ref.messages_sent == len(messages)
