"""Fabric reuse: reset() must make back-to-back replays equal fresh ones.

``run_cell`` builds one fabric per cell and replays on it repeatedly
(baseline + one managed run per displacement), calling
:meth:`Fabric.reset` between runs instead of rebuilding.  These are the
regression tests for that reuse: every piece of per-run state — channel
reservations and busy logs, link power modes and retuned ``t_react_us``,
switch traffic counters, the message counter — must be fully cleared,
while the static route/hop tables must survive (they are what makes
reuse cheap *and* what keeps routes identical across runs).
"""

import pytest

from repro.constants import T_REACT_US
from repro.core import RuntimeConfig, plan_trace_directives, select_gt
from repro.network.fabric import Fabric
from repro.network.faults import (
    DEGRADE,
    LINK_DOWN,
    FaultEvent,
    FaultPlan,
    FaultSpec,
)
from repro.network.links import LinkPowerMode
from repro.power.states import WRPSParams
from repro.sim import (
    ReplayConfig,
    fabric_for,
    fabric_usage,
    replay_baseline,
    replay_managed,
)
from tests.conftest import ring_trace


class TestResetAudit:
    def test_reset_clears_all_per_run_state(self):
        fab = Fabric.for_ranks(8, seed=3)
        # the replay kernel, so the pairs' hop tables get compiled
        fab.transfer_hot(0, 5, 1 << 16, 0.0)
        fab.transfer_hot(5, 0, 4096, 3.0)
        # then a faulted run: a trunk of the (0, 5) route dies mid-flight,
        # so the fast kernel reads the link's down times and fails over
        path = fab.routes.path(0, 5)
        trunk = next(
            (a, b) if a <= b else (b, a)
            for a, b in zip(path, path[1:])
            if not (a.is_host or b.is_host)
        )
        fab.install_faults(FaultPlan.from_events(
            FaultSpec(seed=3), [FaultEvent(60.0, LINK_DOWN, trunk)]
        ))
        assert fab.links[trunk].downs == (60.0,)
        fab.transfer_hot(0, 5, 1 << 20, 50.0)
        assert fab.fault_summary().inflight_retries == 1
        link = fab.host_link(0)
        link.mode = LinkPowerMode.LOW
        link.reactivation_done_us = 42.0
        link.t_react_us = 777.0  # a managed run retunes this

        pairs_before = fab.routes.pairs_compiled
        hops_before = dict(fab._hops)
        fab.reset()

        assert fab.messages_sent == 0
        assert fab.total_bytes_carried() == 0
        assert fab.fault_summary() is None
        for l in fab.all_links():
            assert l.downs is None
            assert l.mode is LinkPowerMode.FULL
            assert l.reactivation_done_us == 0.0
            assert l.t_react_us == T_REACT_US
            for ch in (l.forward, l.backward):
                assert ch.next_free_us == 0.0
                assert ch.busy_log == []
                assert ch.busy_starts == [] and ch.busy_ends == []
                assert ch.bytes_carried == 0
        assert all(m == 0 and b == 0 for m, b in fab.switch_traffic().values())
        # static routing state survives: same compiled pairs, same tables
        # (the faulted run served the live static route from them and
        # compiled its failover path outside them)
        assert fab.routes.pairs_compiled == pairs_before
        assert fab._hops == hops_before and len(hops_before) == 2
        assert all(fab._hops[k] is v for k, v in hops_before.items())

    def test_mismatched_fabric_rejected(self):
        trace = ring_trace(nranks=4, iterations=2)
        fab = fabric_for(4, ReplayConfig(seed=1))
        with pytest.raises(ValueError, match="fabric was built"):
            replay_baseline(trace, ReplayConfig(seed=2), fabric=fab)

    def test_routes_identical_after_reset(self):
        fab = Fabric.for_ranks(16, seed=9)
        before = {(s, d): fab.routes.path(s, d)
                  for s in range(4) for d in range(4)}
        fab.reset()
        after = {(s, d): fab.routes.path(s, d)
                 for s in range(4) for d in range(4)}
        assert before == after

    @staticmethod
    def _precompiled_while_degraded() -> Fabric:
        """A fabric whose (0, 5) hop table was compiled while host 0's
        link ran at a quarter of its bandwidth, then reset."""

        fab = Fabric.for_ranks(8, seed=1)
        victim = fab.host_link(0)
        fab.install_faults(FaultPlan.from_events(
            FaultSpec(seed=1),
            [FaultEvent(0.0, DEGRADE, (victim.a, victim.b), factor=0.25)],
        ))
        fab.transfer_hot(0, 1, 64, 0.0)  # applies the degradation
        assert fab.fault_summary().degrades == 1
        assert fab.precompile_pairs([(0, 5)]) == 1
        fab.reset()
        return fab

    def test_reset_recompiles_hops_compiled_while_degraded(self):
        got = self._precompiled_while_degraded().transfer_hot(
            0, 5, 1 << 16, 0.0
        )
        want = self._precompiled_while_degraded().transfer(0, 5, 1 << 16, 0.0)
        fresh = Fabric.for_ranks(8, seed=1).transfer_hot(0, 5, 1 << 16, 0.0)
        assert got == (want.arrive_us, want.src_release_us) == fresh


class TestBackToBackReplays:
    def test_baseline_back_to_back_equals_fresh(self):
        trace = ring_trace(nranks=6, iterations=4)
        cfg = ReplayConfig(seed=11)

        shared = fabric_for(trace.nranks, cfg)
        first = replay_baseline(trace, cfg, fabric=shared)
        usage_first = fabric_usage(shared, first.exec_time_us)
        second = replay_baseline(trace, cfg, fabric=shared)
        usage_second = fabric_usage(shared, second.exec_time_us)

        fresh_fab = fabric_for(trace.nranks, cfg)
        fresh = replay_baseline(trace, cfg, fabric=fresh_fab)
        usage_fresh = fabric_usage(fresh_fab, fresh.exec_time_us)

        assert first == second == fresh
        assert usage_first == usage_second == usage_fresh

    def test_managed_back_to_back_equals_fresh(self):
        """The stress case: a managed run leaves links in LOW/TRANSITION
        with retuned t_react; the next replay on the fabric must be
        unaffected."""

        trace = ring_trace(nranks=6, iterations=10)
        cfg = ReplayConfig(seed=4)
        params = WRPSParams.paper()
        baseline = replay_baseline(trace, cfg)
        gt = select_gt(baseline.event_logs)
        directives, _ = plan_trace_directives(
            baseline.event_logs,
            RuntimeConfig(gt_us=gt.gt_us, displacement=0.05, wrps=params),
        )

        def run_managed(fabric):
            return replay_managed(
                trace,
                directives,
                baseline_exec_time_us=baseline.exec_time_us,
                displacement=0.05,
                grouping_thresholds_us=[gt.gt_us] * trace.nranks,
                config=cfg,
                wrps=params,
                fabric=fabric,
            )

        shared = fabric_for(trace.nranks, cfg)
        first = run_managed(shared)
        second = run_managed(shared)
        fresh = run_managed(fabric_for(trace.nranks, cfg))

        for a, b in ((first, second), (first, fresh)):
            assert a.exec_time_us == b.exec_time_us
            assert a.event_logs == b.event_logs
            assert a.power == b.power
            assert a.counters == b.counters
            for acc_a, acc_b in zip(a.accounts, b.accounts):
                assert acc_a.intervals == acc_b.intervals

    def test_baseline_after_managed_on_shared_fabric(self):
        """Interleaving run kinds on one fabric must not leak power state
        into the always-on baseline."""

        trace = ring_trace(nranks=4, iterations=8)
        cfg = ReplayConfig(seed=6)
        fabric = fabric_for(trace.nranks, cfg)
        reference = replay_baseline(trace, cfg, fabric=fabric)

        gt = select_gt(reference.event_logs)
        directives, _ = plan_trace_directives(
            reference.event_logs,
            RuntimeConfig(gt_us=gt.gt_us, displacement=0.05),
        )
        replay_managed(
            trace,
            directives,
            baseline_exec_time_us=reference.exec_time_us,
            displacement=0.05,
            grouping_thresholds_us=[gt.gt_us] * trace.nranks,
            config=cfg,
            fabric=fabric,
        )

        again = replay_baseline(trace, cfg, fabric=fabric)
        assert again == reference

    def test_faulted_back_to_back_equals_fresh(self):
        """Fault injection is per-run state too: reset() must restore
        degraded bandwidths and disarm the fault layer, so replaying the
        same faulted config back-to-back on one fabric equals a fresh
        fabric — fault summaries included."""

        trace = ring_trace(nranks=6, iterations=6)
        cfg = ReplayConfig(
            seed=11,
            faults=(
                "faults:seed=7,link_fail=0.3,flap=0.3,degrade=0.3,"
                "horizon_us=2000"
            ),
        )

        shared = fabric_for(trace.nranks, cfg)
        first = replay_baseline(trace, cfg, fabric=shared)
        second = replay_baseline(trace, cfg, fabric=shared)
        fresh = replay_baseline(trace, cfg, fabric=fabric_for(trace.nranks, cfg))

        assert first.faults is not None
        assert first.faults.events_applied > 0  # the spec actually fired
        assert first == second == fresh

        # and a clean replay right after a faulted one sees no residue
        clean_cfg = ReplayConfig(seed=11)
        after = replay_baseline(trace, clean_cfg, fabric=shared)
        pristine = replay_baseline(trace, clean_cfg)
        assert after.faults is None
        assert after == pristine


class TestPrecompilePairs:
    """``precompile_pairs`` sorts and compiles only the pairs it must."""

    @staticmethod
    def _spied(monkeypatch) -> tuple[Fabric, list]:
        fab = Fabric.for_ranks(8, seed=1)
        seen = []
        compile_hops = fab._compile_hops

        def spy(src, dst):
            seen.append((src, dst))
            return compile_hops(src, dst)

        monkeypatch.setattr(fab, "_compile_hops", spy)
        return fab, seen

    def test_compiles_a_mixed_set_in_ascending_order(self, monkeypatch):
        fab, seen = self._spied(monkeypatch)
        assert fab.precompile_pairs([(2, 7)]) == 1
        mixed = {(5, 1), (3, 3), (2, 7), (0, 6), (5, 0), (1, 1), (0, 4)}
        assert fab.precompile_pairs(set(mixed)) == 4
        # loopback and already-compiled pairs are skipped
        assert seen == [(2, 7), (0, 4), (0, 6), (5, 0), (5, 1)]

    def test_a_fully_compiled_set_compiles_nothing(self, monkeypatch):
        fab, seen = self._spied(monkeypatch)
        pairs = {(s, d) for s in range(4) for d in range(4)}
        assert fab.precompile_pairs(set(pairs)) == 12
        seen.clear()
        # a fresh set each call, as the cluster scheduler hands over
        assert fab.precompile_pairs(set(pairs)) == 0
        assert fab.precompile_pairs(set(pairs) | {(6, 6)}) == 0
        assert seen == []
