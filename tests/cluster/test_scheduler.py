"""Cluster scheduler semantics: isolation, queueing, tenants, energy.

The anchor is the **isolation invariant**: one job admitted at t=0
through the cluster scheduler, packed onto an otherwise-empty fabric
with exactly ``nranks`` hosts, must be bit-for-bit identical to the
plain single-job ``replay_baseline`` / ``replay_managed`` path under
every power policy — execution time, event streams, power report,
per-link accounts, switch rollup and class rows.  Admission is then
pure bookkeeping: any multi-job effect is attributable to sharing,
never to the layer itself.
"""

import pytest

from repro.cluster import (
    ClusterJob,
    Job,
    replay_cluster_baseline,
    replay_cluster_managed,
)
from repro.experiments.common import run_cell
from repro.power.policies import DEFAULT_POLICY, parse_policy
from repro.power.states import WRPSParams
from repro.sim.dimemas import (
    Composition,
    ReplayConfig,
    fabric_for,
    replay_managed,
)
from repro.sim.program import compile_trace
from repro.workloads import make_trace
from tests.sim.test_policy_replay import MATRIX_POLICIES, TOPOLOGY

pytestmark = pytest.mark.cluster

APP, NRANKS, ITERS, SEED, DISP = "alya", 8, 4, 1234, 0.5


def _prepare(iterations, disp):
    cell = run_cell(
        APP, NRANKS, displacements=(disp,), iterations=iterations, seed=SEED
    )
    params = WRPSParams.paper()
    gt_us = max(cell.gt_us, params.min_worthwhile_idle_us)
    directives, _stats = cell.plan.rebind_displacement(disp)
    trace = make_trace(
        APP, NRANKS, iterations=iterations, seed=SEED, scaling="strong"
    )
    return {
        "cell": cell,
        "trace": trace,
        "gt_us": gt_us,
        "disp": disp,
        "directives": directives,
        "woven": cell.programs.with_directives(directives),
    }


@pytest.fixture(scope="module")
def prepared():
    """Isolated pipeline products shared by every test in the module."""

    return _prepare(ITERS, DISP)


@pytest.fixture(scope="module")
def gating():
    """A run long enough for the runtime to predict and gate the HCAs
    (the short ``prepared`` run issues no shutdown)."""

    products = _prepare(8, 0.05)
    assert products["cell"].managed[0.05].total_shutdowns > 0
    return products


def one_job(prepared, *, managed: bool, index=0, arrival=0.0, tenant="t0"):
    job = Job(index=index, app=APP, nranks=NRANKS, arrival_us=arrival,
              tenant=tenant)
    disp = prepared["disp"]
    return ClusterJob(
        job=job,
        trace=prepared["trace"],
        programs=prepared["woven"] if managed else prepared["cell"].programs,
        directives=prepared["directives"] if managed else None,
        grouping_thresholds_us=[prepared["gt_us"]] * NRANKS,
        isolated_exec_time_us=prepared["cell"].managed[disp].exec_time_us,
        displacement=disp,
    )


class TestIsolationInvariant:
    def test_baseline_bit_for_bit(self, prepared):
        iso = prepared["cell"].baseline
        cb = replay_cluster_baseline(
            [one_job(prepared, managed=False)], ReplayConfig(seed=SEED),
            num_hosts=NRANKS, placement="packed",
        )
        assert cb.exec_time_us == iso.exec_time_us
        assert cb.jobs[0].event_logs == iso.event_logs
        assert cb.messages_sent == iso.messages_sent
        assert cb.bytes_carried == iso.bytes_carried
        assert cb.helper_spawns == 0
        assert cb.jobs[0].hosts == tuple(range(NRANKS))  # identity map
        assert cb.jobs[0].queue_wait_us == 0.0

    @pytest.mark.parametrize("policy", (DEFAULT_POLICY, *MATRIX_POLICIES))
    def test_managed_bit_for_bit(self, gating, policy):
        """Every policy, on a tree with trunks for the reactive classes
        to manage: the job's rows plus the cluster's fabric-level rows
        are exactly the single-job replay's rows."""

        cfg = ReplayConfig(seed=SEED, policy=policy, topology=TOPOLOGY)
        iso = replay_managed(
            gating["cell"].programs,
            gating["directives"],
            baseline_exec_time_us=gating["cell"].baseline.exec_time_us,
            displacement=gating["disp"],
            grouping_thresholds_us=[gating["gt_us"]] * NRANKS,
            config=cfg,
        )
        cj = one_job(gating, managed=True)
        cj.isolated_exec_time_us = iso.exec_time_us
        cm = replay_cluster_managed(
            [cj], cfg, num_hosts=NRANKS, placement="packed",
        )
        mr = cm.jobs[0]
        assert mr.exec_time_us == iso.exec_time_us
        assert mr.event_logs == iso.event_logs
        assert mr.power == iso.power
        assert mr.counters == iso.counters
        assert [a.intervals for a in mr.accounts] == [
            a.intervals for a in iso.accounts
        ]
        assert mr.switch_savings == iso.switch_savings
        assert mr.policy == iso.policy == parse_policy(policy).describe()
        assert mr.class_savings + cm.class_savings == iso.class_savings
        assert cm.helper_spawns == 0
        # the cluster-side attribution rides along without disturbing
        # the single-job numbers
        assert mr.cluster.hosts == tuple(range(NRANKS))
        assert mr.baseline_exec_time_us == iso.exec_time_us
        assert mr.exec_time_increase_pct == 0.0

    def test_compiled_programs_stand_in_for_the_trace(self, prepared):
        """The fast kernel names a job from its base programs alone."""

        iso = prepared["cell"].managed[DISP]
        cj = one_job(prepared, managed=True)
        cj.trace = prepared["cell"].programs
        cm = replay_cluster_managed(
            [cj], ReplayConfig(seed=SEED), num_hosts=NRANKS,
        )
        mr = cm.jobs[0]
        assert mr.trace_name == iso.trace_name
        assert mr.exec_time_us == iso.exec_time_us
        assert mr.event_logs == iso.event_logs
        assert mr.power == iso.power
        # the reference interpreter needs the records
        with pytest.raises(ValueError, match="reference kernel"):
            replay_cluster_managed(
                [cj], ReplayConfig(seed=SEED, kernel="reference"),
                num_hosts=NRANKS,
            )


def three_jobs(prepared, arrivals=(0.0, 2000.0, 4000.0)):
    return [
        one_job(prepared, managed=True, index=i, arrival=t,
                tenant=f"t{i % 2}")
        for i, t in enumerate(arrivals)
    ]


class TestMultiJob:
    def test_concurrent_jobs_never_share_hosts(self, prepared):
        cm = replay_cluster_managed(
            three_jobs(prepared), ReplayConfig(seed=SEED),
            num_hosts=3 * NRANKS, placement="spread",
        )
        for a in range(3):
            for b in range(a + 1, 3):
                ja, jb = cm.jobs[a].cluster, cm.jobs[b].cluster
                if ja.start_us < jb.finish_us and jb.start_us < ja.finish_us:
                    assert not (set(ja.hosts) & set(jb.hosts))

    def test_contention_slows_spread_jobs(self, prepared):
        """Spread placement forces trunk sharing: concurrent jobs run
        slower than their isolated selves; packed stays near zero."""

        cfg = ReplayConfig(seed=SEED)
        spread = replay_cluster_managed(
            three_jobs(prepared), cfg, num_hosts=3 * NRANKS,
            placement="spread",
        )
        assert any(
            m.cluster.slowdown_vs_isolated_pct > 1.0 for m in spread.jobs
        )

    def test_fcfs_queueing_on_small_fabric(self, prepared):
        """With room for one job at a time, jobs run strictly in
        arrival order, each waiting for its predecessor."""

        cm = replay_cluster_managed(
            three_jobs(prepared), ReplayConfig(seed=SEED),
            num_hosts=NRANKS, placement="packed",
        )
        att = [m.cluster for m in cm.jobs]
        assert att[1].start_us >= att[0].finish_us
        assert att[2].start_us >= att[1].finish_us
        assert att[0].queue_wait_us == 0.0
        assert att[1].queue_wait_us > 0.0

    def test_energy_rollups_sum_to_fabric_total(self, prepared):
        for placement in ("packed", "spread", "random"):
            cm = replay_cluster_managed(
                three_jobs(prepared), ReplayConfig(seed=SEED),
                num_hosts=NRANKS,  # forces host reuse across episodes
                placement=placement,
            )
            total = cm.fabric_link_energy_us
            assert cm.energy_mismatch_us() <= 1e-9 * max(1.0, total)
            assert total > 0.0

    def test_tenant_rollups(self, prepared):
        cm = replay_cluster_managed(
            three_jobs(prepared), ReplayConfig(seed=SEED),
            num_hosts=3 * NRANKS, placement="packed",
        )
        assert sorted(cm.tenants) == ["t0", "t1"]
        assert cm.tenants["t0"].jobs == 2
        assert cm.tenants["t1"].jobs == 1
        assert (
            cm.tenants["t0"].link_energy_us + cm.tenants["t1"].link_energy_us
            == pytest.approx(cm.job_link_energy_sum_us)
        )

    def test_determinism_same_stream_same_timeline(self, prepared):
        cfg = ReplayConfig(seed=SEED)
        a = replay_cluster_managed(
            three_jobs(prepared), cfg, num_hosts=20, placement="random",
        )
        b = replay_cluster_managed(
            three_jobs(prepared), cfg, num_hosts=20, placement="random",
        )
        assert a.exec_time_us == b.exec_time_us
        assert [m.event_logs for m in a.jobs] == [m.event_logs for m in b.jobs]
        assert [m.power for m in a.jobs] == [m.power for m in b.jobs]
        assert [m.cluster.hosts for m in a.jobs] == [
            m.cluster.hosts for m in b.jobs
        ]

    def test_shared_fabric_reuse_resets_cleanly(self, prepared):
        cfg = ReplayConfig(seed=SEED)
        fabric = fabric_for(2 * NRANKS, cfg)
        jobs = three_jobs(prepared)
        a = replay_cluster_managed(jobs, cfg, num_hosts=2 * NRANKS,
                                   placement="packed", fabric=fabric)
        b = replay_cluster_managed(jobs, cfg, num_hosts=2 * NRANKS,
                                   placement="packed", fabric=fabric)
        assert a.exec_time_us == b.exec_time_us
        assert [m.power for m in a.jobs] == [m.power for m in b.jobs]


class TestValidation:
    def test_oversized_job_rejected(self, prepared):
        with pytest.raises(ValueError, match="could never be admitted"):
            replay_cluster_managed(
                [one_job(prepared, managed=True)], ReplayConfig(seed=SEED),
                num_hosts=NRANKS - 1,
            )

    def test_duplicate_indices_rejected(self, prepared):
        jobs = [one_job(prepared, managed=True),
                one_job(prepared, managed=True)]
        with pytest.raises(ValueError, match="unique"):
            replay_cluster_managed(jobs, ReplayConfig(seed=SEED),
                                   num_hosts=2 * NRANKS)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="at least one job"):
            replay_cluster_managed([], ReplayConfig(seed=SEED))

    def test_unknown_placement_rejected(self, prepared):
        with pytest.raises(ValueError, match="placement"):
            replay_cluster_managed(
                [one_job(prepared, managed=True)], ReplayConfig(seed=SEED),
                num_hosts=NRANKS, placement="bogus",
            )

    def test_admit_rejects_bad_placement(self, prepared):
        cfg = ReplayConfig(seed=SEED)
        comp = Composition(cfg, 4, fabric=fabric_for(4, cfg))
        programs = prepared["cell"].programs
        with pytest.raises(ValueError, match="placement repeats hosts"):
            comp.admit((0, 0, 1), None, programs)
        with pytest.raises(ValueError, match=r"placement host 99 outside "
                           r"fabric \(0\.\.3\)"):
            comp.admit((0, 99), None, programs)
        # a rejected placement admits nothing
        assert comp.worlds == [] and comp.engine.spawn_count == 0

    def test_job_smaller_than_its_programs_rejected(self, prepared):
        cj = one_job(prepared, managed=True)
        cj.job = Job(index=3, app=APP, nranks=4, arrival_us=0.0)
        with pytest.raises(ValueError, match="job 3: trace has 8 ranks"):
            replay_cluster_managed([cj], ReplayConfig(seed=SEED))

    def test_job_larger_than_its_programs_rejected(self, prepared):
        small = compile_trace(make_trace(APP, 4, iterations=2, seed=SEED))
        cj = one_job(prepared, managed=False)
        cj.trace = cj.programs = small
        with pytest.raises(ValueError, match="job 0: trace has 4 ranks"):
            replay_cluster_baseline([cj], ReplayConfig(seed=SEED))

    def test_wrong_directive_count_rejected(self, prepared):
        cj = one_job(prepared, managed=True)
        cj.programs = None
        cj.directives = prepared["directives"][:4]
        with pytest.raises(
            ValueError, match="job 0: need directives for 8 ranks, got 4"
        ):
            replay_cluster_managed(
                [cj], ReplayConfig(seed=SEED, kernel="reference"),
            )


class TestClusterPolicy:
    """Trunk/switch policies on a shared fabric: the per-class rows of a
    multi-job run keep the single-job consistency invariants."""

    FULL_SPEC = "policy:hca=gate,trunk=gate,switch=gate"

    @pytest.fixture(scope="class")
    def full(self, gating):
        return replay_cluster_managed(
            three_jobs(gating),
            ReplayConfig(seed=SEED, policy=self.FULL_SPEC, topology=TOPOLOGY),
            num_hosts=2 * NRANKS, placement="spread",
        )

    def test_rows_split_by_scope(self, full):
        assert [r.link_class for r in full.class_savings] == [
            "trunk", "switch"
        ]
        for mr in full.jobs:
            assert [r.link_class for r in mr.class_savings] == ["hca"]
            assert mr.policy == parse_policy(self.FULL_SPEC).describe()

    def test_hca_rows_are_the_episode_integrals(self, full):
        for mr in full.jobs:
            row = mr.class_savings_for("hca")
            assert row.members == len(mr.accounts) == NRANKS
            assert row.energy_us == sum(a.energy() for a in mr.accounts)
            assert row.total_us == sum(a.total_us for a in mr.accounts)
            assert row.energy_us == mr.cluster.link_energy_us
        assert full.energy_mismatch_us() <= 1e-9 * full.fabric_link_energy_us

    def test_every_row_consistent(self, full):
        rows = [*full.class_savings]
        rows += [r for mr in full.jobs for r in mr.class_savings]
        for row in rows:
            assert row.members > 0
            assert 0.0 <= row.savings_pct < 100.0
            assert 0.0 <= row.low_residency_pct <= 100.0
            assert row.energy_us == pytest.approx(
                row.total_us * (1.0 - row.savings_pct / 100.0)
            )

    def test_fabric_rows_span_the_whole_run(self, full):
        for row in full.class_savings:
            assert row.total_us == pytest.approx(
                row.members * full.exec_time_us
            )
        trunk = full.class_savings[0]
        assert trunk.savings_pct > 0.0
