"""Fixtures for the simulation-service tier: in-process daemons on
throwaway sockets, torn down (clients closed, daemons drained) after
each test."""

from __future__ import annotations

import pytest

from repro.service import ServiceClient, ServiceConfig, ServiceDaemon


@pytest.fixture
def daemon_factory(tmp_path):
    """Start in-process daemons on per-test sockets; drains them all on
    teardown.  Returns ``start(**config_overrides) -> (daemon, client)``."""

    running: list[ServiceDaemon] = []
    clients: list[ServiceClient] = []
    counter = [0]

    def start(**overrides) -> tuple[ServiceDaemon, ServiceClient]:
        counter[0] += 1
        overrides.setdefault(
            "socket_path", str(tmp_path / f"daemon{counter[0]}.sock")
        )
        overrides.setdefault("queue_limit", 8)
        overrides.setdefault("cache_cells", 4)
        daemon = ServiceDaemon(ServiceConfig(**overrides))
        daemon.start()
        running.append(daemon)
        client = ServiceClient(daemon.config.socket_path, retries=0)
        clients.append(client)
        return daemon, client

    yield start
    for client in clients:
        client.close()
    for daemon in running:
        daemon.stop(drain=True, timeout_s=30.0)
