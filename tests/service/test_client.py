"""Client tier: one persistent connection per client, its reconnect,
timeout, fork and close rules, against in-process daemons."""

from __future__ import annotations

import gc
import json
import os
import struct
import threading
import time
import warnings

import pytest

from repro.service import ServiceClient, protocol
from repro.service.client import ServiceTimeout

pytestmark = pytest.mark.service

SMALL_SPEC = dict(app="alya", nranks=8, displacement=0.5, iterations=4)


def _connections(daemon) -> dict:
    return daemon.stats()["connections"]


def _wait_for(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached in time")


def test_requests_share_one_connection(daemon_factory):
    daemon, client = daemon_factory()
    assert _connections(daemon) == {"accepted": 0, "open": 0}
    client.ping()
    client.cell(**SMALL_SPEC)
    client.cell(**SMALL_SPEC)
    assert client.stats()["connections"] == {"accepted": 1, "open": 1}
    client.close()
    _wait_for(lambda: _connections(daemon)["open"] == 0)
    # the next request opens a new connection
    client.ping()
    assert _connections(daemon) == {"accepted": 2, "open": 1}


def test_daemon_restart_reconnects_once(daemon_factory):
    first, client = daemon_factory()
    path = first.config.socket_path
    client.ping()
    first.stop(drain=True)
    second, _ = daemon_factory(socket_path=path)
    # retries=0: the dead connection's reconnect is not a retry
    assert client.retries == 0
    assert client.ping()["pong"] is True
    assert _connections(second)["accepted"] == 1


def test_reply_timeout_drops_connection(daemon_factory):
    daemon, _ = daemon_factory(test_hooks=True)
    path = daemon.config.socket_path
    client = ServiceClient(path, retries=0, request_timeout_s=0.3)
    with pytest.raises(ServiceTimeout):
        client.request({"op": "block"})
    ServiceClient(path, retries=0).request({"op": "unblock"})
    # the block reply arrives late, on the dropped connection; the next
    # request goes over a new one and reads its own reply
    _wait_for(lambda: daemon.stats()["executing"] is None)
    pong = client.ping()
    assert pong["pong"] is True and "blocked" not in pong
    assert client.cell(**SMALL_SPEC)["result"]["spec"]["displacement"] == 0.5


def test_forked_child_opens_its_own_connection(daemon_factory):
    daemon, client = daemon_factory()
    client.ping()
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        # the in-process daemon's threads make fork noisy on newer Pythons
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # child: report and leave without pytest's teardown
        status = 1
        try:
            os.close(read_end)
            accepted = client.stats()["connections"]["accepted"]
            os.write(write_end, json.dumps(accepted).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        child_saw = json.loads(pipe.read())
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert child_saw == 2
    # the parent's connection survived the child closing its copy
    client.ping()
    assert _connections(daemon)["accepted"] == 2


def test_threads_sharing_a_client_get_their_own_replies(daemon_factory):
    daemon, client = daemon_factory()
    displacements = (0.2, 0.4)
    for d in displacements:
        client.cell(**{**SMALL_SPEC, "displacement": d})
    seen: dict[float, list[float]] = {d: [] for d in displacements}

    def ask(d):
        for _ in range(25):
            reply = client.cell(**{**SMALL_SPEC, "displacement": d})
            seen[d].append(reply["result"]["spec"]["displacement"])

    threads = [threading.Thread(target=ask, args=(d,)) for d in displacements]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
    for d in displacements:
        assert seen[d] == [d] * 25
    assert _connections(daemon)["accepted"] == 1


def test_request_after_malformed_frame_succeeds(daemon_factory):
    daemon, client = daemon_factory()
    client.ping()
    conn = client._sock
    conn.sendall(struct.pack(">I", 3) + b"{x}")
    reply = protocol.recv_message(conn)
    assert reply["error"]["code"] == protocol.BAD_REQUEST
    # the daemon closed that connection; the client replaces it
    assert client.ping()["pong"] is True
    assert _connections(daemon)["accepted"] == 2


def test_close_with_block_and_gc_leave_no_resource_warning(daemon_factory):
    daemon, _ = daemon_factory()
    path = daemon.config.socket_path
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with ServiceClient(path, retries=0) as scoped:
            scoped.ping()
        assert scoped._sock is None
        dropped = ServiceClient(path, retries=0)
        dropped.ping()
        del dropped
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    _wait_for(lambda: _connections(daemon)["open"] == 0)
