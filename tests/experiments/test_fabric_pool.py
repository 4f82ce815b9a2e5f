"""The cluster path's fabric pool: warm == fresh, and clean after a cell.

``run_cluster_cell`` replays on the pipeline's pooled fabric
(``common.pooled_fabric``), one per (host count, build signature), so a
cell pays no topology build or route compilation once its signature has
been seen.  These tests pin that reuse to the fresh-fabric yardstick
(a cell after ``clear_cache()``, which empties the pool) bit for bit,
on both kernels, across topologies, placements and fault mixes, and
check that a cell leaves the pooled fabric without busy logs whether it
returns or raises ``FabricPartitioned``.
"""

import pytest

from repro.experiments import common
from repro.experiments.cluster_sweep import (
    cluster_observables,
    run_cluster_cell,
)
from repro.experiments.common import clear_cache
from repro.network.faults import FabricPartitioned

pytestmark = pytest.mark.cluster

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


def spec(topology=TOPOLOGIES[0], placement="packed", faults=MIXES[0],
         kernel="fast"):
    return dict(
        jobs_spec=STREAM, placement=placement, displacement=0.05,
        iterations=4, seed=5, topology=topology, kernel=kernel,
        faults=faults,
    )


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


def pooled():
    (fabric,) = common._FABRICS.values()
    return fabric


def assert_pristine(fabric):
    assert fabric.messages_sent == 0
    for link in fabric.links.values():
        for end in link.endpoints:
            channel = link.channel(end)
            assert channel.busy_starts == [] and channel.busy_ends == [], (
                channel.name
            )


@pytest.fixture(autouse=True)
def _cold_pool():
    clear_cache()
    yield
    clear_cache()


class TestWarmEqualsFresh:
    @pytest.mark.parametrize("kernel", ["fast", "reference"])
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
        # one fabric per signature: the host count is the same for
        # both topologies' streams, so one per topology
        assert len(common._FABRICS) == len(TOPOLOGIES)

    def test_no_fabric_is_built_for_a_seen_signature(self, monkeypatch):
        outcome(spec())
        built = []
        real = common.fabric_for
        monkeypatch.setattr(
            common, "fabric_for",
            lambda *a, **kw: built.append(a) or real(*a, **kw),
        )
        outcome(spec(placement="spread", faults=MIXES[1]))
        assert built == []


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
        assert len(common._FABRICS) == 1
        clear_cache()
        assert common._FABRICS == {}
