"""End-to-end smoke gate for the simulation service (`make service-smoke`).

Spawns a **real** daemon subprocess via ``python -m repro.cli serve``
and drives it over the Unix socket, checking every robustness promise
the service makes:

1. cold query == warm query **bit-for-bit**, and the warm query ran no
   pipeline stage beyond the cached-result hit (stage counters);
2. a what-if query (same cell, new displacement) costs exactly one
   ``managed_replay``;
3. twenty repeats over one new client are all result hits (no stage
   ran) and share one connection (``connections.accepted`` grows by 1);
4. a sweep worker killed by SIGKILL mid-request surfaces as a
   structured ``CELL_EXECUTION_ERROR`` naming the cell — and the daemon
   keeps serving afterwards;
5. overload: with the dispatcher held, a full admission queue sheds the
   next request with ``SERVICE_BUSY`` (never a hang), while a cached
   query is still answered;
6. SIGTERM drains: queued requests still get replies, the daemon exits
   0 and removes its socket.

Run directly::

    PYTHONPATH=src python -m repro.service.smoke
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

from .client import ServiceBusy, ServiceClient, ServiceError


def _fail(message: str) -> None:
    print(f"service-smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def _wait_for(predicate, timeout_s: float, what: str) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    _fail(f"timed out after {timeout_s}s waiting for {what}")


def _spawn_daemon(socket_path: str) -> subprocess.Popen:
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--socket", socket_path,
         "--queue-limit", "2",
         "--cache-cells", "4",
         "--test-hooks"],
        env=env,
    )
    client = ServiceClient(socket_path, retries=0)

    def _up() -> bool:
        if proc.poll() is not None:
            _fail(f"daemon exited early with code {proc.returncode}")
        try:
            return bool(client.ping()["pong"])
        except ServiceError:
            return False

    _wait_for(_up, 30.0, "the daemon to answer ping")
    client.close()
    return proc


def main() -> int:
    tmpdir = tempfile.mkdtemp(prefix="repro-service-smoke-")
    socket_path = os.path.join(tmpdir, "daemon.sock")
    proc = _spawn_daemon(socket_path)
    client = ServiceClient(socket_path, retries=0)
    spec = dict(app="alya", nranks=8, displacement=0.5, iterations=6)
    try:
        # 1. cold vs warm: bit-for-bit equal, warm ran zero stages
        t0 = time.monotonic()
        cold = client.cell(**spec)
        cold_s = time.monotonic() - t0
        t0 = time.monotonic()
        warm = client.cell(**spec)
        warm_s = time.monotonic() - t0
        if cold["result"] != warm["result"]:
            _fail("warm reply differs from cold reply")
        if warm["stages_ran"]:
            _fail(f"warm query ran stages {warm['stages_ran']}")
        print(f"service-smoke: cold {cold_s:.3f}s -> warm {warm_s:.3f}s, "
              "bit-for-bit equal")

        # 2. what-if query: exactly one managed replay, nothing rebuilt
        whatif = client.cell(**{**spec, "displacement": 0.25})
        if whatif["stages_ran"] != ["managed_replay"]:
            _fail(f"what-if query ran {whatif['stages_ran']}, expected "
                  "exactly ['managed_replay']")
        print("service-smoke: what-if displacement cost one managed replay")

        # 3. repeats over one client: all hits, one connection
        accepted = client.stats()["connections"]["accepted"]
        with ServiceClient(socket_path, retries=0) as repeater:
            for _ in range(20):
                reply = repeater.cell(**spec)
                if reply["stages_ran"] or reply["result"] != cold["result"]:
                    _fail(f"repeat ran stages {reply['stages_ran']} or "
                          "differs from the cold reply")
        accepted = client.stats()["connections"]["accepted"] - accepted
        if accepted != 1:
            _fail(f"20 repeats over one client opened {accepted} "
                  "connections, expected 1")
        print("service-smoke: 20 repeats were result hits over one "
              "connection")

        # 4. SIGKILL a sweep worker mid-request: structured error, daemon
        # survives and still serves warm results
        sweep_specs = [
            {**spec, "displacement": d} for d in (0.1, 0.3, 0.6)
        ]
        try:
            client.sweep(sweep_specs, workers=2, retries=0,
                         failpoint="kill_worker")
            _fail("kill_worker sweep returned success")
        except ServiceError as exc:
            if exc.code != "CELL_EXECUTION_ERROR":
                _fail(f"kill_worker produced {exc.code}, expected "
                      "CELL_EXECUTION_ERROR")
            crashed_label = exc.details.get("label")
            if not crashed_label:
                _fail("CELL_EXECUTION_ERROR does not name the cell")
        if not client.ping()["pong"]:
            _fail("daemon not answering after worker SIGKILL")
        again = client.cell(**spec)
        if again["result"] != cold["result"] or again["stages_ran"]:
            _fail("warm query broken after worker SIGKILL")
        print("service-smoke: worker SIGKILL -> structured error "
              f"({crashed_label!r}), daemon survived")

        # 5. overload: hold the dispatcher, fill the queue (limit 2),
        # the next admission must shed with SERVICE_BUSY while a cached
        # query is still answered
        blocker = threading.Thread(
            target=lambda: ServiceClient(socket_path, retries=0).request(
                {"op": "block"}
            ),
            daemon=True,
        )
        blocker.start()
        _wait_for(
            lambda: client.stats()["executing"] == "block",
            10.0, "the block op to occupy the dispatcher",
        )
        fillers = []
        for disp in (0.11, 0.22):
            t = threading.Thread(
                target=lambda d=disp: ServiceClient(
                    socket_path, retries=0
                ).cell(**{**spec, "displacement": d}),
                daemon=True,
            )
            t.start()
            fillers.append(t)
        _wait_for(
            lambda: client.stats()["queue_depth"] >= 2,
            10.0, "the admission queue to fill",
        )
        try:
            client.cell(**{**spec, "displacement": 0.33})
            _fail("request admitted beyond the queue limit")
        except ServiceBusy as exc:
            depth = exc.details.get("queue_depth")
            limit = exc.details.get("queue_limit")
            print(f"service-smoke: overload shed with SERVICE_BUSY "
                  f"(depth {depth}/{limit})")
        try:
            hit = client.cell(**spec)
        except ServiceError as exc:
            _fail(f"cached query not answered while the dispatcher is "
                  f"held: {exc.code}")
        if hit["stages_ran"] or hit["result"] != cold["result"]:
            _fail("cached query not answered while the dispatcher is held")
        if not blocker.is_alive():
            _fail("the block hook released before the cached query")
        print("service-smoke: cached query answered while the dispatcher "
              "was held")

        # 6. SIGTERM drain: queued requests complete (the stop event
        # releases the block hook), daemon exits 0, socket removed
        proc.send_signal(signal.SIGTERM)
        for t in fillers:
            t.join(60.0)
            if t.is_alive():
                _fail("queued request did not complete during drain")
        blocker.join(10.0)
        if proc.wait(timeout=60.0) != 0:
            _fail(f"daemon exited {proc.returncode} after SIGTERM")
        if os.path.exists(socket_path):
            _fail("socket not removed on drain")
        print("service-smoke: SIGTERM drained queued work and exited 0")
    finally:
        client.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)
    print("service-smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
