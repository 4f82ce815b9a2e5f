"""Policy-registry replay semantics and the default-spec compatibility pin.

The non-differential half checks the registry's replay-facing contract
on the fast kernel: equivalent spellings of the default spec are
bit-for-bit one replay, the per-class savings rows reproduce the energy
integrals exactly (the PR-7 fabric-level invariant, now stated per
class), trunk/switch management actually engages on an oversubscribed
fat tree, and ``none`` degrades to a power-unaware replay.

The differential half runs the non-default specs through the fast
kernel against the reference-kernel oracle — the same safety net the
kernels themselves live under.
"""

import pytest

from repro.core import RuntimeConfig, plan_trace_directives, select_gt
from repro.power.policies import DEFAULT_POLICY, parse_policy
from repro.sim import ReplayConfig, fabric_for, replay_baseline, replay_managed
from repro.sim.collectives import clear_schedule_cache
from repro.workloads import make_trace

#: the oversubscribed tree: enough trunk idleness for reactive gating
TOPOLOGY = "fattree2:leaf=4,ratio=2"


def run_policy(policy, *, kernel="fast", app="alya", nranks=8, seed=11,
               displacement=0.05, topology=TOPOLOGY):
    clear_schedule_cache()
    trace = make_trace(app, nranks, iterations=4, seed=seed)
    cfg = ReplayConfig(seed=seed, kernel=kernel, topology=topology,
                       policy=policy)
    fabric = fabric_for(trace.nranks, cfg)
    baseline = replay_baseline(trace, cfg, fabric=fabric)
    gt = select_gt(baseline.event_logs)
    directives, stats = plan_trace_directives(
        baseline.event_logs,
        RuntimeConfig(gt_us=gt.gt_us, displacement=displacement),
    )
    return replay_managed(
        trace,
        directives,
        baseline_exec_time_us=baseline.exec_time_us,
        displacement=displacement,
        grouping_thresholds_us=[gt.gt_us] * trace.nranks,
        config=cfg,
        runtime_stats=stats,
        fabric=fabric,
    )


def observables(m):
    return {
        "exec_time_us": m.exec_time_us,
        "event_logs": m.event_logs,
        "power": m.power,
        "counters": m.counters,
        "intervals": [acc.intervals for acc in m.accounts],
        "policy": m.policy,
        "class_savings": m.class_savings,
        "switch_savings": m.switch_savings,
    }


class TestDefaultSpecPin:
    def test_spellings_are_one_replay(self):
        """Every spelling of the default spec is bit-for-bit the same
        run — and carries exactly one hca class-savings row."""

        want = None
        for spelling in (DEFAULT_POLICY, "", " policy:hca=gate "):
            got = observables(run_policy(spelling))
            if want is None:
                want = got
            else:
                assert got == want, spelling
        assert [r.link_class for r in want["class_savings"]] == ["hca"]
        assert want["policy"] == DEFAULT_POLICY

    def test_bad_spec_fails_at_config_time(self):
        with pytest.raises(ValueError):
            ReplayConfig(policy="policy:hca=bogus")

    def test_none_is_power_unaware(self):
        m = run_policy("none")
        assert m.policy == "none"
        assert m.class_savings == ()
        assert m.power_savings_pct == 0.0
        assert m.total_shutdowns == 0
        # no links are managed, so no wake penalty is ever paid; the
        # residual slowdown is purely the PPA runtime's own overheads
        assert m.total_penalty_us == 0.0
        assert m.total_mispredictions == 0
        assert m.exec_time_us >= m.baseline_exec_time_us


class TestClassSavingsInvariants:
    FULL_SPEC = "policy:hca=gate,trunk=gate,switch=gate"

    @pytest.fixture(scope="class")
    def full(self):
        return run_policy(self.FULL_SPEC)

    def test_rows_in_canonical_order(self, full):
        assert [r.link_class for r in full.class_savings] == [
            "hca", "trunk", "switch"
        ]

    def test_hca_row_is_the_accounts_integral(self, full):
        """Per-class energy must reproduce the fabric-level invariant:
        the row's energy is exactly the sum of its accounts'."""

        row = full.class_savings_for("hca")
        assert row.members == len(full.accounts)
        assert row.energy_us == sum(acc.energy() for acc in full.accounts)
        assert row.total_us == sum(acc.total_us for acc in full.accounts)
        # all hca spans cover the same wall clock, so the energy-weighted
        # row savings equals the paper's per-process average
        assert row.savings_pct == pytest.approx(
            full.power.mean_savings_pct, rel=1e-9
        )

    def test_every_row_consistent(self, full):
        for row in full.class_savings:
            assert row.members > 0
            assert 0.0 <= row.savings_pct < 100.0
            assert 0.0 <= row.low_residency_pct <= 100.0
            assert row.energy_us == pytest.approx(
                row.total_us * (1.0 - row.savings_pct / 100.0)
            )

    def test_trunk_management_engages(self, full):
        """An oversubscribed fat tree leaves trunks idle long enough for
        reactive gating to bank real savings."""

        assert full.trunk_savings_pct > 0.0
        hca_only = run_policy(DEFAULT_POLICY)
        assert hca_only.trunk_savings_pct == 0.0
        assert hca_only.class_savings_for("trunk") is None

    def test_switch_gating_lifts_fleet_rollup(self, full):
        hca_only = run_policy(DEFAULT_POLICY)
        assert (
            full.fleet_switch_savings_pct
            > hca_only.fleet_switch_savings_pct
        )

    def test_policy_echoes_canonical_spec(self, full):
        assert full.policy == parse_policy(self.FULL_SPEC).describe()


#: the variant axis, mirroring test_differential_kernels (oracle first)
KERNELS = ("reference", "fast")

#: the non-default scenarios the matrix pins: multi-level hca ladders,
#: reactive trunk gating, and the fully composed spec
MATRIX_POLICIES = (
    "policy:hca=width:levels=3",
    "policy:hca=scale:levels=3",
    "policy:hca=gate,trunk=gate",
    "policy:hca=gate,trunk=width:levels=3,switch=gate",
    "none",
)


@pytest.mark.differential
class TestPolicyMatrix:
    """Every policy scenario is combo-invariant: whatever the spec, the
    fast layers replay it bit-for-bit like the oracle."""

    @pytest.mark.parametrize("policy", MATRIX_POLICIES)
    def test_combo_invariant(self, policy):
        want = None
        for kernel in KERNELS:
            got = observables(run_policy(policy, kernel=kernel))
            if want is None:
                want = got
            else:
                assert got == want, (policy, kernel)

    @pytest.mark.parametrize("app,topology", [
        ("gromacs", "fitted"),
        ("alya", "torus:k=3,n=2"),
        ("nas_bt", "dragonfly:a=2,p=2,h=1"),
    ])
    def test_full_spec_across_families(self, app, topology):
        """Trunk/switch management stays oracle-identical on every
        topology family, not just the tree it was built for."""

        policy = "policy:hca=gate,trunk=gate,switch=gate"
        nranks = 9 if app == "nas_bt" else 8
        want = None
        for kernel in KERNELS:
            got = observables(run_policy(
                policy, kernel=kernel,
                app=app, nranks=nranks, topology=topology,
            ))
            if want is None:
                want = got
            else:
                assert got == want, (topology, kernel)
