"""Fabric-level fault behaviour: failover, degradation, in-flight cuts.

Uses hand-built :meth:`FaultPlan.from_events` plans so each scenario
pins exact fault timing against a known static route.
"""

from collections import Counter

import pytest

from repro.experiments.cluster_sweep import run_cluster_cell
from repro.network.fabric import Fabric
from repro.network.faults import (
    DEGRADE,
    LINK_DOWN,
    LINK_UP,
    RESTORE,
    SWITCH_DOWN,
    FabricPartitioned,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    FaultState,
)
from repro.sim import ReplayConfig, fabric_for, replay_baseline
from repro.workloads import make_trace


def edge_key(a, b):
    return (a, b) if a <= b else (b, a)


def path_edges(path):
    return [edge_key(t, h) for t, h in zip(path, path[1:])]


def make_fabric():
    return Fabric.for_ranks(16, seed=3, hosts_per_leaf=4)


def trunk_edges_of(fab, src, dst):
    """Trunk (non-HCA) edge keys along the static route of (src, dst)."""

    return [
        key
        for key in path_edges(fab.routes.path(src, dst))
        if not fab.links[key].is_host_link
    ]


SRC, DST = 0, 5  # cross-leaf pair on the 4-hosts-per-leaf fabric
SIZE = 1 << 20   # ~210us of serialisation per hop: room to cut mid-flight


class TestFailover:
    def test_reroute_after_link_down(self):
        fab = make_fabric()
        victim = trunk_edges_of(fab, SRC, DST)[0]
        spec = FaultSpec(seed=1)
        fab.install_faults(
            FaultPlan.from_events(spec, [FaultEvent(1.0, LINK_DOWN, victim)])
        )
        timing = fab.transfer(SRC, DST, 4096, 5.0)
        summary = fab.fault_summary()
        assert summary.link_downs == 1
        assert summary.reroutes == 1
        assert summary.migration_wait_us == spec.reroute_penalty_us
        # the migration penalty delays the first transmission
        assert timing.depart_us >= 5.0 + spec.reroute_penalty_us
        # the rerouted path avoids the dead link entirely
        assert not fab.links[victim].forward.busy_starts
        assert not fab.links[victim].backward.busy_starts

    def test_overlay_reused_on_second_transfer(self):
        fab = make_fabric()
        victim = trunk_edges_of(fab, SRC, DST)[0]
        fab.install_faults(
            FaultPlan.from_events(
                FaultSpec(seed=1), [FaultEvent(1.0, LINK_DOWN, victim)]
            )
        )
        fab.transfer(SRC, DST, 4096, 5.0)
        fab.transfer(SRC, DST, 4096, 500.0)
        # one migration: the second transfer rides the cached overlay
        assert fab.fault_summary().reroutes == 1
        assert fab.fault_summary().migration_wait_us == 50.0


class TestDegradation:
    def test_degrade_slows_then_restore_heals(self):
        clean = make_fabric()
        ref = clean.transfer(SRC, DST, SIZE, 20.0)

        degraded = make_fabric()
        victim = trunk_edges_of(degraded, SRC, DST)[0]
        events = [
            FaultEvent(1.0, DEGRADE, victim, factor=0.25),
            FaultEvent(10.0, RESTORE, victim),
        ]
        degraded.install_faults(
            FaultPlan.from_events(FaultSpec(seed=1), events[:1])
        )
        slow = degraded.transfer(SRC, DST, SIZE, 20.0)
        assert slow.wire_us > ref.wire_us
        assert degraded.fault_summary().degrades == 1

        healed = make_fabric()
        healed.install_faults(
            FaultPlan.from_events(FaultSpec(seed=1), events)
        )
        back = healed.transfer(SRC, DST, SIZE, 20.0)
        # restore returns the exact pristine timing (same arithmetic)
        assert back == ref

    def test_rearming_undoes_the_armed_plans_degrades(self):
        clean = make_fabric()
        ref = clean.transfer(SRC, DST, SIZE, 1e5)

        fab = make_fabric()
        victim = trunk_edges_of(fab, SRC, DST)[0]
        fab.install_faults(FaultPlan.from_events(
            FaultSpec(seed=1), [FaultEvent(1.0, DEGRADE, victim, factor=0.25)]
        ))
        fab.transfer(SRC, DST, 4096, 5.0)  # applies the degrade
        assert fab.fault_summary().degrades == 1
        # re-arm without a reset in between
        fab.install_faults("none")
        assert fab.fault_summary() is None
        bandwidths = {
            key: (link.forward.bandwidth_bytes_per_us,
                  link.backward.bandwidth_bytes_per_us)
            for key, link in fab.links.items()
        }
        assert bandwidths == {
            key: (link.forward.bandwidth_bytes_per_us,
                  link.backward.bandwidth_bytes_per_us)
            for key, link in clean.links.items()
        }
        assert fab.transfer(SRC, DST, SIZE, 1e5) == ref


class TestInflightRetry:
    def test_mid_reservation_cut_retries_on_new_route(self):
        fab = make_fabric()
        victim = trunk_edges_of(fab, SRC, DST)[0]
        spec = FaultSpec(seed=1)
        fab.install_faults(
            FaultPlan.from_events(
                spec, [FaultEvent(100.0, LINK_DOWN, victim)]
            )
        )
        timing = fab.transfer(SRC, DST, SIZE, 0.0)
        summary = fab.fault_summary()
        assert summary.inflight_retries == 1
        assert summary.reroutes == 1  # the retry migrates off the dead link
        # the interrupted hop keeps a partial busy window cut at the
        # down instant — those bytes really transited
        link = fab.links[victim]
        partial_ends = link.forward.busy_ends + link.backward.busy_ends
        assert partial_ends == [100.0]
        # the retry restarts after the back-off, so arrival is later than
        # an uninterrupted transfer of the same message
        ref = make_fabric().transfer(SRC, DST, SIZE, 0.0)
        assert timing.arrive_us > ref.arrive_us
        assert timing.depart_us == ref.depart_us  # first attempt's start


class TestPartition:
    def test_no_surviving_route_raises_structured_error(self):
        fab = make_fabric()
        events = [
            FaultEvent(1.0, LINK_DOWN, key) for key in sorted(fab.links)
        ]
        fab.install_faults(FaultPlan.from_events(FaultSpec(seed=1), events))
        with pytest.raises(FabricPartitioned) as excinfo:
            fab.transfer(SRC, DST, 4096, 2.0)
        exc = excinfo.value
        assert (exc.src_host, exc.dst_host) == (SRC, DST)
        assert exc.t_us >= 2.0
        assert exc.timeline  # carries the applied fault history
        assert "no surviving route" in str(exc)

    def test_scheduled_heal_stalls_instead_of_partitioning(self):
        fab = make_fabric()
        trunks = [
            key for key, l in fab.links.items() if not l.is_host_link
        ]
        events = [FaultEvent(1.0, LINK_DOWN, k) for k in trunks]
        events += [FaultEvent(50.0, LINK_UP, k) for k in trunks]
        spec = FaultSpec(seed=1)
        fab.install_faults(FaultPlan.from_events(spec, events))
        timing = fab.transfer(SRC, DST, 4096, 2.0)
        # every candidate route was down but a heal was scheduled: the
        # transfer stalls until the heal plus the retry back-off
        assert timing.depart_us >= 50.0 + spec.retry_delay_us
        summary = fab.fault_summary()
        assert summary.link_ups == len(trunks)
        assert summary.link_downs == len(trunks)


class TestResetRestoresPristine:
    def test_reset_after_faulted_run_equals_fresh(self):
        fab = make_fabric()
        victim = trunk_edges_of(fab, SRC, DST)[0]
        pristine_bw = {
            key: (l.forward.bandwidth_bytes_per_us,
                  l.backward.bandwidth_bytes_per_us)
            for key, l in fab.links.items()
        }
        fab.install_faults(
            FaultPlan.from_events(
                FaultSpec(seed=1),
                [
                    FaultEvent(1.0, DEGRADE, victim, factor=0.25),
                    FaultEvent(150.0, LINK_DOWN, victim),
                ],
            )
        )
        fab.transfer(SRC, DST, SIZE, 20.0)
        fab.transfer(SRC, DST, 4096, 400.0)
        assert fab.fault_summary().events_applied >= 2

        fab.reset()
        assert fab.fault_summary() is None
        for key, link in fab.links.items():
            assert (
                link.forward.bandwidth_bytes_per_us,
                link.backward.bandwidth_bytes_per_us,
            ) == pristine_bw[key]
        # the disarmed fabric times transfers exactly like a fresh one
        assert fab.transfer(SRC, DST, SIZE, 20.0) == (
            make_fabric().transfer(SRC, DST, SIZE, 20.0)
        )


@pytest.fixture
def resolves(monkeypatch):
    """Every ``FaultState.resolve_route`` call as ``(src, dst, exclude)``."""

    calls = []
    real = FaultState.resolve_route

    def spy(self, fabric, src_host, dst_host, now_us=0.0, exclude=None):
        calls.append((src_host, dst_host, exclude))
        return real(self, fabric, src_host, dst_host, now_us, exclude)

    monkeypatch.setattr(FaultState, "resolve_route", spy)
    return calls


@pytest.fixture
def path_hops(monkeypatch):
    """Every ``Fabric._path_hops`` call (the hop-record compiler), as
    the compiled vertex path."""

    calls = []
    real = Fabric._path_hops

    def spy(self, path):
        calls.append(tuple(path))
        return real(self, path)

    monkeypatch.setattr(Fabric, "_path_hops", spy)
    return calls


#: a cross-leaf pair whose static route shares no trunk link with (SRC, DST)
OTHER_SRC, OTHER_DST = 8, 12


class TestRouteCache:
    """The compiled faulted kernel resolves a pair's route once per fault
    epoch; every routing-state change moves the epoch."""

    def test_degrade_only_replay_resolves_each_pair_once(self, resolves):
        trace = make_trace("alya", 8, iterations=3, seed=11)
        cfg = ReplayConfig(
            seed=11, topology="torus:k=3,n=2",
            faults="faults:seed=7,degrade=0.6,horizon_us=2000",
        )
        fabric = fabric_for(trace.nranks, cfg)
        for _ in range(2):  # the cache dies with the replay's fault state
            resolves.clear()
            result = replay_baseline(trace, cfg, fabric=fabric)
            assert result.faults.degrades > 0
            per_pair = Counter(resolves)
            assert per_pair, "the replay must send cross-host messages"
            assert set(per_pair.values()) == {1}

    def _armed(self, events):
        fab = make_fabric()
        fab.install_faults(FaultPlan.from_events(FaultSpec(seed=1), events))
        return fab

    def _send(self, fab, times, pair=(SRC, DST)):
        for t in times:
            fab.transfer_hot(*pair, 4096, t)

    def _off_route_trunk(self, fab):
        mine = set(trunk_edges_of(fab, SRC, DST))
        return trunk_edges_of(fab, OTHER_SRC, OTHER_DST)[0], mine

    def test_link_down_forces_a_reresolve(self, resolves):
        fab = make_fabric()
        victim, mine = self._off_route_trunk(fab)
        assert victim not in mine
        fab = self._armed([FaultEvent(10.0, LINK_DOWN, victim)])
        self._send(fab, (0.0, 5.0))
        assert len(resolves) == 1
        self._send(fab, (20.0, 30.0))
        assert len(resolves) == 2

    def test_link_up_forces_a_reresolve(self, resolves):
        fab = make_fabric()
        victim, _ = self._off_route_trunk(fab)
        fab = self._armed([
            FaultEvent(1.0, LINK_DOWN, victim),
            FaultEvent(10.0, LINK_UP, victim),
        ])
        self._send(fab, (5.0, 6.0))
        assert len(resolves) == 1
        self._send(fab, (20.0, 30.0))
        assert len(resolves) == 2

    def test_switch_down_forces_a_reresolve(self, resolves):
        fab = make_fabric()
        on_route = set(fab.routes.path(SRC, DST))
        spare = next(
            node for node, sw in sorted(fab.switches.items())
            if not sw.is_edge and node not in on_route
        )
        fab = self._armed([FaultEvent(10.0, SWITCH_DOWN, (spare,))])
        self._send(fab, (0.0, 5.0))
        assert len(resolves) == 1
        self._send(fab, (20.0, 30.0))
        assert len(resolves) == 2

    def test_overlay_change_forces_a_reresolve(self, resolves):
        fab = make_fabric()
        victim, _ = self._off_route_trunk(fab)
        fab = self._armed([FaultEvent(1.0, LINK_DOWN, victim)])
        self._send(fab, (5.0, 6.0))
        assert len(resolves) == 1
        # the other pair migrates off the dead link: a new overlay
        self._send(fab, (7.0,), pair=(OTHER_SRC, OTHER_DST))
        assert fab.fault_summary().reroutes == 1
        self._send(fab, (8.0, 9.0))
        assert resolves.count((SRC, DST, None)) == 2

    def test_degrade_keeps_the_route_and_reads_bandwidth_live(self, resolves):
        fab = make_fabric()
        victim = trunk_edges_of(fab, SRC, DST)[0]
        events = [FaultEvent(10.0, DEGRADE, victim, factor=0.25)]
        hot, ref = self._armed(events), self._armed(events)
        for t in (0.0, 500.0):
            got = hot.transfer_hot(SRC, DST, SIZE, t)
            want = ref.transfer(SRC, DST, SIZE, t)
            assert got == (want.arrive_us, want.src_release_us)
        assert resolves.count((SRC, DST, None)) == 1 + 2  # hot once, ref twice
        assert hot.fault_summary().degrades == 1

    def test_live_static_route_compiles_no_records(self, path_hops):
        fab = make_fabric()
        victim, mine = self._off_route_trunk(fab)
        assert victim not in mine
        fab.precompile_pairs([(SRC, DST)])
        key = SRC * fab.topo.num_hosts + DST
        static = fab._hops[key]
        fab.install_faults(FaultPlan.from_events(
            FaultSpec(seed=1), [FaultEvent(1.0, LINK_DOWN, victim)]
        ))
        path_hops.clear()
        # (SRC, DST) keeps its live static route: served from _hops
        self._send(fab, (5.0, 6.0))
        assert path_hops == []
        assert fab._faults.route_cache[key][1] is static
        # the other pair fails over: its path compiles once, then the
        # epoch cache serves it
        self._send(fab, (7.0, 8.0), pair=(OTHER_SRC, OTHER_DST))
        assert fab.fault_summary().reroutes == 1
        overlay = fab._faults.overlay[(OTHER_SRC, OTHER_DST)]
        assert path_hops == [tuple(overlay)]
        assert overlay != fab.routes.path(OTHER_SRC, OTHER_DST)

    def test_inflight_retry_bypasses_the_cache(self, resolves):
        fab = make_fabric()
        victim = trunk_edges_of(fab, SRC, DST)[0]
        events = [FaultEvent(100.0, LINK_DOWN, victim)]
        fab, ref = self._armed(events), self._armed(events)
        got = fab.transfer_hot(SRC, DST, SIZE, 0.0)
        assert resolves == [(SRC, DST, None), (SRC, DST, victim)]
        state = fab._faults
        # the retry's resolve around the dying link was not cached: the
        # pair's entry is still the one from before the cut
        key = SRC * fab.topo.num_hosts + DST
        assert state.route_cache[key][0] < state.epoch
        fab.transfer_hot(SRC, DST, 4096, 2000.0)
        assert resolves[2:] == [(SRC, DST, None)]
        want = ref.transfer(SRC, DST, SIZE, 0.0)
        assert got == (want.arrive_us, want.src_release_us)

    def test_reset_and_install_start_from_an_empty_cache(self, resolves):
        plan = FaultPlan.from_events(
            FaultSpec(seed=1),
            [FaultEvent(1.0, DEGRADE, trunk_edges_of(make_fabric(), SRC,
                                                     DST)[0])],
        )
        fab = make_fabric()
        fab.install_faults(plan)
        self._send(fab, (0.0, 5.0))
        assert fab._faults.route_cache and len(resolves) == 1
        fab.install_faults(plan)
        assert fab._faults.route_cache == {}
        self._send(fab, (10.0,))
        assert len(resolves) == 2
        fab.reset()
        fab.install_faults(plan)
        assert fab._faults.route_cache == {}
        self._send(fab, (10.0,))
        assert len(resolves) == 3


class TestKnownSpuriousPartition:
    """A flap cell that partitions although its only obstacle heals.

    Kept failing on purpose: fixing it changes which flap fault seeds
    the ``cluster-faulted`` benchmark keeps, so it belongs with the next
    change to that benchmark."""

    @pytest.mark.xfail(
        strict=True,
        raises=FabricPartitioned,
        reason=(
            "spurious partition at (18, 20, 11153.6us): the only obstacle "
            "is the in-flight-cut link passed to resolve_route as "
            "`exclude`, but lazy application has already moved the event "
            "cursor past that link's scheduled LINK_UP (another transfer "
            "ran at a later clock), so next_link_up finds no heal and the "
            "transfer raises FabricPartitioned instead of stalling"
        ),
    )
    def test_flap_cell_does_not_partition(self):
        run_cluster_cell(
            "poisson:n=4,mean_gap_us=1500,seed=0,apps=alya|gromacs|nas_mg,"
            "ranks=8|4,tenants=2",
            placement="spread",
            iterations=4,
            seed=100,
            topology="dragonfly:a=4,p=2,h=2",
            faults="faults:seed=0,flap=0.1",
        )
