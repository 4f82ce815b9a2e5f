"""Tests for the network-level probes (repro.sim.venus)."""

import pytest

from repro.sim import fabric_usage, link_usage
from repro.network.fabric import Fabric


@pytest.fixture(scope="module")
def loaded_fabric():
    fab = Fabric.for_ranks(4, random_routing=False)
    fab.transfer(0, 1, 100_000, 0.0)
    fab.transfer(1, 2, 50_000, 10.0)
    return fab


class TestLinkUsage:
    def test_single_link(self, loaded_fabric):
        u = link_usage(loaded_fabric.host_link(0), 1000.0)
        assert u.is_host_link
        assert u.bytes_total == 100_000
        assert u.busy_us > 0.0
        assert 0.0 < u.utilization <= 1.0

    def test_fabric_usage_sorted(self, loaded_fabric):
        rows = fabric_usage(loaded_fabric, 1000.0)
        host_rows = [r for r in rows if r.is_host_link]
        trunk_rows = [r for r in rows if not r.is_host_link]
        # host links listed first
        assert rows[: len(host_rows)] == host_rows
        # host rows sorted busiest first
        totals = [r.bytes_total for r in host_rows]
        assert totals == sorted(totals, reverse=True)
        assert len(trunk_rows) > 0

    def test_conservation(self, loaded_fabric):
        rows = fabric_usage(loaded_fabric, 1000.0)
        host_bytes = sum(r.bytes_total for r in rows if r.is_host_link)
        # each message crosses exactly two host links (src + dst HCA)
        assert host_bytes == 2 * (100_000 + 50_000)
