"""The pipeline's fabric pool: warm == fresh, clean after a checkout, bounded.

Every replay of the pipeline checks its fabric out of one pool
(``common.checked_out``), one fabric per (host count, build signature):
a single-job cell's baseline and managed replays, and a cluster cell's
two replays.  These tests pin that reuse to the fresh-fabric yardstick
(a run after ``clear_cache()``, which empties the pool) bit for bit, on
both kernels, across apps, topologies, placements and fault mixes;
check that a checkout leaves the pooled fabric without busy logs or a
fault plan whether its replays return or raise; and that the pool keeps
at most ``common.FABRIC_POOL_SIZE`` fabrics, rebuilding an evicted one
bit-identically.
"""

import pytest

from repro.cluster import parse_jobs
from repro.experiments import common
from repro.experiments.cluster_sweep import (
    cluster_observables,
    resolve_cluster_hosts,
    run_cluster_cell,
)
from repro.experiments.common import clear_cache, run_cell
from repro.network.faults import FabricPartitioned
from repro.sim import ReplayConfig

pytestmark = pytest.mark.cluster

KERNELS = ("fast", "reference")
STREAM = (
    "poisson:n=3,mean_gap_us=1500,seed=11,apps=alya|gromacs,ranks=8|4,"
    "tenants=2"
)
TOPOLOGIES = ("torus:k=4,n=2", "dragonfly:a=4,p=2,h=2")
PLACEMENTS = ("packed", "spread")
#: the two fault mixes of the cluster-faulted benchmark workload
MIXES = (
    "faults:seed=3,degrade=0.3,wake_timeout=0.2",
    "faults:seed=3,flap=0.1",
)
#: partitions the torus a few milliseconds in, after traffic has flowed
PARTITIONING = "faults:seed=1,link_fail=0.5"
#: single-job cells on the cluster cells' first build signature
CELL = dict(nranks=8, iterations=4, seed=5, topology=TOPOLOGIES[0])


def spec(topology=TOPOLOGIES[0], placement="packed", faults=MIXES[0],
         kernel="fast"):
    return dict(
        jobs_spec=STREAM, placement=placement, displacement=0.05,
        iterations=4, seed=5, topology=topology, kernel=kernel,
        faults=faults,
    )


def pool_key(num_hosts, topology=TOPOLOGIES[0], seed=5):
    return (num_hosts,) + ReplayConfig(
        seed=seed, topology=topology,
    ).build_signature


def cluster_hosts(topology):
    return resolve_cluster_hosts(topology, parse_jobs(STREAM))


def outcome(cell_spec):
    """A cell's verified observables, or its partition."""

    try:
        return cluster_observables(cell_spec, run_cluster_cell(**cell_spec))
    except FabricPartitioned as exc:
        return ("partitioned", str(exc))


def fresh(cell_spec):
    """The cell on a fresh fabric (and a cold isolated pipeline)."""

    clear_cache()
    return outcome(cell_spec)


def pooled(topology=TOPOLOGIES[0]):
    """The cluster cells' pooled fabric."""

    return common._FABRICS[pool_key(cluster_hosts(topology), topology)]


def single_job(cell, displacement):
    """Everything a single-job cell's replays must reproduce exactly."""

    managed = cell.managed[displacement]
    return (
        cell.baseline.exec_time_us,
        cell.baseline.faults,
        cell.gt_us,
        managed.exec_time_us,
        managed.power_savings_pct,
        managed.power,
        managed.counters,
        managed.accounts,
        managed.class_savings,
        managed.faults,
        managed.helper_spawns,
    )


def fresh_cell(displacement=0.05, **cell_spec):
    clear_cache()
    return single_job(
        run_cell(**cell_spec, displacements=(displacement,)), displacement
    )


def assert_pristine(fabric):
    assert fabric.messages_sent == 0
    assert fabric.fault_summary() is None  # no fault plan armed
    for link in fabric.links.values():
        for end in link.endpoints:
            channel = link.channel(end)
            assert channel.busy_starts == [] and channel.busy_ends == [], (
                channel.name
            )


@pytest.fixture(autouse=True)
def _cold_pool(monkeypatch):
    # the displacement fan-out would replay in worker processes' pools
    monkeypatch.setenv("REPRO_WORKERS", "1")
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def fabric_builds(monkeypatch):
    """Every fabric the pool builds, as (host count, config)."""

    built = []
    real = common.fabric_for
    monkeypatch.setattr(
        common, "fabric_for",
        lambda *a, **kw: built.append(a) or real(*a, **kw),
    )
    return built


class TestWarmEqualsFresh:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_second_run_on_the_pool_equals_a_fresh_fabric(self, kernel):
        cell = spec(kernel=kernel)
        want = fresh(cell)
        fabric = pooled()
        # dirty the pooled fabric with a different cell of one signature
        assert isinstance(outcome(spec(placement="spread", faults=MIXES[1],
                                       kernel=kernel)), dict)
        assert outcome(cell) == want
        assert outcome(cell) == want
        assert pooled() is fabric

    def test_interleaved_cells_equal_each_cell_alone(self):
        cells = [
            spec(topology=t, placement=p, faults=m)
            for t in TOPOLOGIES for p in PLACEMENTS for m in MIXES
        ]
        alone = [fresh(c) for c in cells]
        clear_cache()
        for order in (range(len(cells)), reversed(range(len(cells)))):
            for i in order:
                assert outcome(cells[i]) == alone[i], cells[i]
        # one fabric per signature: per topology, the cluster's host
        # count and the isolated cells' two rank counts
        assert set(common._FABRICS) == {
            pool_key(n, t) for t in TOPOLOGIES
            for n in (cluster_hosts(t), 4, 8)
        }

    def test_no_fabric_is_built_for_a_seen_signature(self, fabric_builds):
        outcome(spec())
        fabric_builds.clear()
        outcome(spec(placement="spread", faults=MIXES[1]))
        assert fabric_builds == []


class TestPooledFabricIsClean:
    def test_clean_after_return(self):
        result = run_cluster_cell(**spec())
        assert result.baseline.messages_sent > 0
        assert_pristine(pooled())

    def test_clean_after_partition(self):
        with pytest.raises(FabricPartitioned):
            run_cluster_cell(**spec(faults=PARTITIONING))
        assert_pristine(pooled())

    def test_partition_leaves_the_next_cell_equal_to_fresh(self):
        want = fresh(spec())
        assert outcome(spec(faults=PARTITIONING))[0] == "partitioned"
        assert outcome(spec()) == want

    def test_clear_cache_empties_the_pool(self):
        run_cluster_cell(**spec())
        assert pool_key(cluster_hosts(TOPOLOGIES[0])) in common._FABRICS
        clear_cache()
        assert common._FABRICS == {}

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_clean_after_a_raising_managed_replay(self, kernel, monkeypatch):
        cell = dict(CELL, app="alya", kernel=kernel, faults=MIXES[0])
        run_cell(**cell, displacements=(0.05,))
        real = common.replay_managed

        def raises_after(*args, **kwargs):
            real(*args, **kwargs)
            raise RuntimeError("after the replay")

        monkeypatch.setattr(common, "replay_managed", raises_after)
        with pytest.raises(RuntimeError, match="after the replay"):
            run_cell(**cell, displacements=(0.07,))
        (fabric,) = common._FABRICS.values()
        assert_pristine(fabric)


def test_a_pooled_fabric_walks_a_cells_pair_set_once():
    cell = run_cell(**dict(CELL, app="alya"), displacements=(0.05,))
    pairs = cell.programs.comm_pair_set
    (fabric,) = common._FABRICS.values()
    assert fabric._compiled_pairs is pairs
    # a pair dropped from the hop tables shows which call walks the set
    src, dst = min(p for p in pairs if p[0] != p[1])
    del fabric._hops[src * fabric.topo.num_hosts + dst]
    assert fabric.precompile_pairs(pairs) == 0  # remembered: not walked
    assert fabric.precompile_pairs(frozenset(list(pairs))) == 1  # a copy
    assert fabric.precompile_pairs(set(pairs)) == 0


@pytest.mark.parametrize("kernel", KERNELS)
class TestSingleJobCells:
    def test_cells_of_one_signature_share_a_fabric(self, kernel):
        cells = [
            dict(CELL, app="alya", kernel=kernel),
            dict(CELL, app="gromacs", kernel=kernel),
            dict(CELL, app="alya", kernel=kernel, faults=MIXES[0]),
        ]
        alone = [fresh_cell(**c) for c in cells]
        clear_cache()
        fabric = None
        for c, want in zip(cells, alone):
            assert single_job(run_cell(**c, displacements=(0.05,)),
                              0.05) == want, c
            (pooled_fabric,) = common._FABRICS.values()
            assert fabric in (None, pooled_fabric)
            fabric = pooled_fabric

    def test_warm_whatif_builds_no_fabric(self, kernel, fabric_builds):
        cell = dict(CELL, app="alya", kernel=kernel)
        run_cell(**cell, displacements=(0.05,))
        assert len(fabric_builds) == 1
        fabric_builds.clear()
        warm = single_job(run_cell(**cell, displacements=(0.07,)), 0.07)
        assert fabric_builds == []
        assert warm == fresh_cell(0.07, **cell)

    def test_an_evicted_fabric_rebuilds_bit_identically(
        self, kernel, fabric_builds
    ):
        cell = dict(CELL, app="alya", kernel=kernel)
        run_cell(**cell, displacements=(0.05,))
        key = pool_key(8)
        first = common._FABRICS[key]
        # one checkout per other signature pushes the cell's fabric out
        for seed in range(100, 100 + common.FABRIC_POOL_SIZE):
            with common.checked_out(4, ReplayConfig(seed=seed)):
                pass
        assert key not in common._FABRICS
        fabric_builds.clear()
        warm = single_job(run_cell(**cell, displacements=(0.07,)), 0.07)
        assert [(n,) + cfg.build_signature
                for n, cfg in fabric_builds] == [key]
        assert common._FABRICS[key] is not first
        assert warm == fresh_cell(0.07, **cell)

    def test_the_pool_never_exceeds_its_cap(self, kernel, monkeypatch):
        sizes = []
        real = common.fabric_for

        def build(*args, **kwargs):
            sizes.append(len(common._FABRICS))
            return real(*args, **kwargs)

        monkeypatch.setattr(common, "fabric_for", build)
        for seed in range(common.FABRIC_POOL_SIZE + 3):
            run_cell("alya", 4, displacements=(0.05,), iterations=2,
                     seed=seed, kernel=kernel)
            sizes.append(len(common._FABRICS))
        assert len(sizes) == 2 * (common.FABRIC_POOL_SIZE + 3)
        assert max(sizes) == common.FABRIC_POOL_SIZE
