"""The resident simulation daemon: admission, dispatch, drain.

Architecture (all within one process):

* an **acceptor** thread accepts Unix-socket connections and spawns one
  handler thread per connection.  A connection carries any number of
  requests, one at a time (:class:`repro.service.client.ServiceClient`
  keeps one open);
* handler threads parse frames (:mod:`repro.service.protocol`), answer
  control ops (``ping``/``stats``/``shutdown``) immediately — health
  checks work even when the service is saturated — and *admit* work ops
  (``cell``/``sweep``).  A ``cell`` whose result the warm pipeline
  already holds is answered by the handler thread itself
  (:meth:`WarmPipeline.query_cached`, which never computes): it costs
  one socket round trip and is never queued behind other work.  Everything
  else goes into a **bounded queue**.  A full queue sheds the request
  with a structured ``SERVICE_BUSY`` reply naming the depth and limit:
  the daemon never grows an unbounded backlog and never hangs a client;
* one **dispatcher** thread drains the queue and executes requests on
  the warm pipeline (:class:`repro.service.caches.WarmPipeline`), or —
  for multi-cell sweeps — fans them out over worker processes via
  :func:`repro.concurrency.run_resilient` with ``fallback=False``, so a
  SIGKILLed worker becomes a structured ``CELL_EXECUTION_ERROR`` reply
  (label, kind, per-attempt history) instead of a daemon crash, and a
  stalled worker is cancelled at the request deadline and reported as a
  structured timeout.

Robustness contract:

* **overload**: explicit shedding, never an unbounded queue or a hang;
* **deadlines**: a request carries ``timeout_s`` (default
  ``REPRO_SERVICE_TIMEOUT_S``); if it expires while queued the
  dispatcher skips execution, if it expires mid-wait the client gets
  ``DEADLINE_EXCEEDED`` while the computation (still deterministic)
  completes and warms the cache for the retry;
* **idempotency**: requests carry a ``request_id``; a retry of an
  in-flight id joins the pending execution and a retry of a completed
  id is served from a bounded reply cache — client retries never
  double-run a cell;
* **crash isolation**: pool workers dying mid-request surface as
  pickle-safe structured errors naming the cell; the daemon survives
  and the next request succeeds;
* **drain**: SIGTERM (or a ``shutdown`` request) stops admission
  (``SHUTTING_DOWN`` replies), finishes every queued request, replies
  to the waiting clients, removes the socket and exits cleanly.

Environment knobs (all overridable per daemon via
:class:`ServiceConfig`): ``REPRO_SERVICE_SOCKET``,
``REPRO_SERVICE_QUEUE``, ``REPRO_SERVICE_TIMEOUT_S``,
``REPRO_SERVICE_CACHE_CELLS``, ``REPRO_SERVICE_RETRIES``.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import socket
import tempfile
import threading
import time
from dataclasses import asdict, dataclass

from ..concurrency import (
    CellExecutionError,
    resolve_workers,
    run_resilient,
)
from . import protocol
from .caches import (
    LRUCache,
    SpecError,
    WarmPipeline,
    compute_cell_payload,
    normalize_spec,
    spec_key,
)

#: environment knobs
SOCKET_ENV = "REPRO_SERVICE_SOCKET"
QUEUE_ENV = "REPRO_SERVICE_QUEUE"
TIMEOUT_ENV = "REPRO_SERVICE_TIMEOUT_S"
CACHE_ENV = "REPRO_SERVICE_CACHE_CELLS"
RETRIES_ENV = "REPRO_SERVICE_RETRIES"


def default_socket_path() -> str:
    """``REPRO_SERVICE_SOCKET`` or a per-user path under the temp dir."""

    env = os.environ.get(SOCKET_ENV, "").strip()
    if env:
        return env
    return os.path.join(
        tempfile.gettempdir(), f"repro-service-{os.getuid()}.sock"
    )


def _env_int(env: str, default: int, minimum: int = 1) -> int:
    raw = os.environ.get(env, "").strip()
    if not raw:
        return default
    value = int(raw)
    if value < minimum:
        raise ValueError(f"{env} must be >= {minimum}, got {raw!r}")
    return value


def _env_float(env: str, default: float | None) -> float | None:
    raw = os.environ.get(env, "").strip()
    if not raw:
        return default
    value = float(raw)
    if value <= 0:
        raise ValueError(f"{env} must be > 0, got {raw!r}")
    return value


@dataclass(slots=True)
class ServiceConfig:
    """One daemon's knobs (constructor args win over the environment)."""

    socket_path: str = ""
    #: bounded admission queue: a put beyond this sheds (SERVICE_BUSY)
    queue_limit: int = 32
    #: default per-request deadline (seconds); None = no deadline
    deadline_s: float | None = None
    #: LRU capacity for cell artefact bundles (trace/fabric/plan)
    cache_cells: int = 8
    #: LRU capacity for final result payloads
    cache_results: int = 256
    #: worker retries for sweep fan-outs (crashed/stalled cells)
    retries: int = 0
    #: worker processes for sweep fan-outs (None: REPRO_WORKERS or 1)
    workers: int | None = None
    #: enable the test-only failpoints (block/unblock, kill_worker, ...)
    test_hooks: bool = False

    @classmethod
    def from_env(cls, **overrides) -> "ServiceConfig":
        cfg = cls(
            socket_path=default_socket_path(),
            queue_limit=_env_int(QUEUE_ENV, 32),
            deadline_s=_env_float(TIMEOUT_ENV, None),
            cache_cells=_env_int(CACHE_ENV, 8),
            retries=_env_int(RETRIES_ENV, 0, minimum=0),
        )
        for key, value in overrides.items():
            if value is not None:
                setattr(cfg, key, value)
        if not cfg.socket_path:
            cfg.socket_path = default_socket_path()
        return cfg


class _Ticket:
    """One admitted work request travelling handler -> queue -> dispatcher."""

    __slots__ = ("op", "message", "request_id", "deadline", "timeout_s",
                 "reply", "done", "started")

    def __init__(self, op: str, message: dict, request_id: str | None,
                 timeout_s: float | None):
        self.op = op
        self.message = message
        self.request_id = request_id
        self.timeout_s = timeout_s
        self.deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        self.reply: dict | None = None
        self.done = threading.Event()
        self.started = False

    def remaining(self) -> float | None:
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())


def _spec_label(spec: dict) -> str:
    parts = [f"{spec.get('app')}@{spec.get('nranks')}",
             f"d={spec.get('displacement')}"]
    for field in ("topology", "faults", "policy"):
        value = spec.get(field)
        if value and value not in ("fitted", "none", "policy:hca=gate"):
            parts.append(str(value))
    return " ".join(parts)


def _crash_cell_worker(spec: dict) -> dict:
    """Test failpoint: die by SIGKILL inside a pool worker (the daemon's
    in-process path computes normally — it must never kill the daemon)."""

    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return compute_cell_payload(spec)


def _hang_cell_worker(spec: dict) -> dict:
    """Test failpoint: stall a pool worker past any sane deadline."""

    if multiprocessing.parent_process() is not None:
        time.sleep(3600.0)
    return compute_cell_payload(spec)


class ServiceDaemon:
    """The resident server.  ``start()`` spawns the acceptor and
    dispatcher threads and returns; ``serve_forever()`` additionally
    installs SIGTERM/SIGINT handlers and blocks until drain completes
    (the CLI ``serve`` path)."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig.from_env()
        if not self.config.socket_path:
            self.config.socket_path = default_socket_path()
        self.pipeline = WarmPipeline(
            cell_capacity=self.config.cache_cells,
            result_capacity=self.config.cache_results,
        )
        # None is the dispatcher's wake-up sentinel (see stop())
        self._queue: queue.Queue[_Ticket | None] = queue.Queue(
            maxsize=self.config.queue_limit
        )
        self._lock = threading.Lock()
        self._inflight: dict[str, _Ticket] = {}
        self._completed = LRUCache("completed_requests", 256)
        self._counters = {
            "admitted": 0,
            "completed": 0,
            "shed": 0,
            "deadline_timeouts": 0,
            "errors": 0,
            "deduped_served": 0,
            "deduped_joined": 0,
        }
        self._stopping = threading.Event()
        self._drained = threading.Event()
        self._shutdown_requested = threading.Event()
        self._unblock = threading.Event()
        self._executing: str | None = None
        self._started_at = time.monotonic()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        #: open client connections -> their handler threads
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._accepted = 0

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        path = self.config.socket_path
        if os.path.exists(path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.settimeout(0.25)
            try:
                probe.connect(path)
            except OSError:
                os.unlink(path)  # stale socket from a dead daemon
            else:
                probe.close()
                raise RuntimeError(
                    f"another daemon is already listening on {path}"
                )
            finally:
                probe.close()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(64)
        for target, name in (
            (self._accept_loop, "service-acceptor"),
            (self._dispatch_loop, "service-dispatcher"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    def serve_forever(self) -> int:
        """CLI entry: run until SIGTERM/SIGINT, then drain and exit 0."""

        self.start()
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(
                signum, lambda *_: self._shutdown_requested.set()
            )
        self._shutdown_requested.wait()
        self.stop(drain=True)
        return 0

    def stop(self, drain: bool = True, timeout_s: float = 60.0) -> None:
        """Stop admission; with ``drain`` finish queued work first."""

        self._stopping.set()
        if self._listener is not None:
            # closing a listening socket does not wake a thread blocked
            # in accept() on Linux; shutting it down first does
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        try:
            self._queue.put_nowait(None)  # wake an idle dispatcher now
        except queue.Full:
            pass  # a busy dispatcher sees the stop flag when it drains
        if drain:
            self._drained.wait(timeout_s)
        try:
            os.unlink(self.config.socket_path)
        except OSError:
            pass
        for thread in self._threads:
            thread.join(timeout=1.0)
        # the acceptor is gone, so no connection registers from here on;
        # SHUT_RD turns an idle handler's blocking recv() into EOF while
        # a reply still being written goes out unharmed
        with self._lock:
            conns = dict(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        # one budget for all handlers: without a drain, some may still be
        # waiting on their tickets
        deadline = time.monotonic() + 1.0
        for thread in conns.values():
            thread.join(timeout=max(0.0, deadline - time.monotonic()))

    # -- socket side --------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break  # listener shut down: stopping
            thread = threading.Thread(
                target=self._handle_conn, args=(conn,),
                name="service-conn", daemon=True,
            )
            with self._lock:
                self._conns[conn] = thread
                self._accepted += 1
            thread.start()

    def _handle_conn(self, conn: socket.socket) -> None:
        try:
            self._serve_conn(conn)
        finally:
            with self._lock:
                self._conns.pop(conn, None)
            conn.close()

    def _serve_conn(self, conn: socket.socket) -> None:
        while True:
            try:
                message = protocol.recv_message(conn)
            except protocol.ProtocolError as exc:
                try:
                    protocol.send_message(
                        conn,
                        protocol.error_reply(
                            protocol.BAD_REQUEST, str(exc)
                        ),
                    )
                except OSError:
                    pass
                return
            if message is None:
                return  # client closed cleanly
            reply = self._route(message)
            try:
                protocol.send_message(conn, reply)
            except OSError:
                return  # client gone; result (if any) stays cached

    # -- request routing ----------------------------------------------

    def _route(self, message: dict) -> dict:
        op = message.get("op")
        if op == "ping":
            return protocol.ok_reply({
                "pong": True,
                "pid": os.getpid(),
                "uptime_s": time.monotonic() - self._started_at,
                "stopping": self._stopping.is_set(),
            })
        if op == "stats":
            return protocol.ok_reply(self.stats())
        if op == "shutdown":
            # reply first (the handler sends after we return), then the
            # drain proceeds in the background exactly like SIGTERM
            threading.Thread(
                target=self._request_shutdown, daemon=True
            ).start()
            return protocol.ok_reply({"stopping": True})
        if op == "unblock" and self.config.test_hooks:
            self._unblock.set()
            return protocol.ok_reply({"unblocked": True})
        if op in ("cell", "sweep") or (
            op == "block" and self.config.test_hooks
        ):
            return self._admit(op, message)
        return protocol.error_reply(
            protocol.BAD_REQUEST, f"unknown op {op!r}"
        )

    def _request_shutdown(self) -> None:
        time.sleep(0.05)  # let the shutdown reply flush first
        self._shutdown_requested.set()
        self.stop(drain=True)

    def _admit(self, op: str, message: dict) -> dict:
        if self._stopping.is_set():
            return protocol.error_reply(
                protocol.SHUTTING_DOWN,
                "daemon is draining; request not admitted",
            )
        timeout_s = message.get("timeout_s", self.config.deadline_s)
        if timeout_s is not None:
            try:
                timeout_s = float(timeout_s)
            except (TypeError, ValueError):
                return protocol.error_reply(
                    protocol.BAD_REQUEST,
                    f"timeout_s must be a number, got {timeout_s!r}",
                )
            if timeout_s <= 0:
                return protocol.error_reply(
                    protocol.BAD_REQUEST,
                    f"timeout_s must be > 0, got {timeout_s}",
                )
        request_id = message.get("request_id")
        if request_id is not None:
            request_id = str(request_id)
        with self._lock:
            ticket = None
            if request_id is not None:
                cached = self._completed.get(request_id)
                if cached is not None:
                    # idempotent replay of a completed request: serve
                    # the recorded reply, never re-run the cell
                    self._counters["deduped_served"] += 1
                    return cached
                ticket = self._inflight.get(request_id)
                if ticket is not None:
                    # a retry of an in-flight request joins the pending
                    # execution instead of double-running it
                    self._counters["deduped_joined"] += 1
            if ticket is None:
                hit = (
                    self.pipeline.query_cached(message.get("spec"))
                    if op == "cell" else None
                )
                if hit is not None:
                    # a cached result: answered here, never queued,
                    # counted as if the dispatcher had served it
                    reply = protocol.ok_reply(hit[0], stages_ran=hit[1])
                    self._counters["admitted"] += 1
                    self._counters["completed"] += 1
                    if request_id is not None:
                        self._completed.put(request_id, reply)
                    return reply
                ticket = self._new_ticket(op, message, request_id,
                                          timeout_s)
                if isinstance(ticket, dict):
                    return ticket  # shed: SERVICE_BUSY reply
        # wait OUTSIDE the lock: the dispatcher needs it to complete
        # the ticket, and joiners must not serialise behind each other
        return self._await(ticket, timeout_s)

    def _new_ticket(self, op: str, message: dict, request_id: str | None,
                    timeout_s: float | None) -> "_Ticket | dict":
        """Admit one new request (caller holds the lock); a full queue
        returns the structured SERVICE_BUSY reply instead of a ticket."""

        ticket = _Ticket(op, message, request_id, timeout_s)
        try:
            self._queue.put_nowait(ticket)
        except queue.Full:
            self._counters["shed"] += 1
            return protocol.error_reply(
                protocol.SERVICE_BUSY,
                "admission queue is full; retry with backoff",
                queue_depth=self._queue.qsize(),
                queue_limit=self.config.queue_limit,
            )
        self._counters["admitted"] += 1
        if request_id is not None:
            self._inflight[request_id] = ticket
        return ticket

    def _await(self, ticket: _Ticket, timeout_s: float | None) -> dict:
        wait = None
        if timeout_s is not None:
            wait = max(
                0.0,
                (ticket.deadline or (time.monotonic() + timeout_s))
                - time.monotonic(),
            )
        if not ticket.done.wait(wait):
            with self._lock:
                self._counters["deadline_timeouts"] += 1
            return protocol.error_reply(
                protocol.DEADLINE_EXCEEDED,
                f"request exceeded its {timeout_s}s deadline",
                timeout_s=timeout_s,
                state="executing" if ticket.started else "queued",
            )
        assert ticket.reply is not None
        return ticket.reply

    # -- dispatcher side ----------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            try:
                ticket = self._queue.get(timeout=0.1)
            except queue.Empty:
                ticket = None
            if ticket is None:
                if self._stopping.is_set() and self._queue.empty():
                    break  # queue drained and no new admissions: done
                continue
            self._execute(ticket)
        self._drained.set()

    def _execute(self, ticket: _Ticket) -> None:
        if (
            ticket.deadline is not None
            and time.monotonic() >= ticket.deadline
        ):
            # the deadline died in the queue: don't burn dispatcher
            # time on a result nobody is waiting for
            reply = protocol.error_reply(
                protocol.DEADLINE_EXCEEDED,
                "deadline expired before execution started",
                timeout_s=ticket.timeout_s,
                state="queued",
            )
        else:
            ticket.started = True
            self._executing = ticket.op
            try:
                reply = self._perform(ticket)
            except SpecError as exc:
                reply = protocol.error_reply(protocol.BAD_REQUEST, str(exc))
            except CellExecutionError as exc:
                code = (
                    protocol.DEADLINE_EXCEEDED if exc.kind == "stalled"
                    else protocol.CELL_EXECUTION_ERROR
                )
                reply = protocol.error_reply(
                    code, str(exc),
                    label=exc.label, kind=exc.kind, attempts=exc.attempts,
                    detail=exc.detail,
                    history=[asdict(h) for h in exc.history],
                )
            except Exception as exc:  # daemon survives any request
                reply = protocol.error_reply(
                    protocol.INTERNAL_ERROR,
                    f"{type(exc).__name__}: {exc}",
                    exception=type(exc).__name__,
                )
            finally:
                self._executing = None
        with self._lock:
            ticket.reply = reply
            self._counters["completed"] += 1
            if not reply.get("ok"):
                self._counters["errors"] += 1
            if ticket.request_id is not None:
                self._completed.put(ticket.request_id, reply)
                self._inflight.pop(ticket.request_id, None)
        ticket.done.set()

    def _perform(self, ticket: _Ticket) -> dict:
        if ticket.op == "block":  # test hook: hold the dispatcher
            while not (
                self._unblock.is_set() or self._stopping.is_set()
            ):
                time.sleep(0.01)
            self._unblock.clear()
            return protocol.ok_reply({"blocked": True})
        if ticket.op == "cell":
            payload, ran = self.pipeline.query(ticket.message.get("spec"))
            return protocol.ok_reply(payload, stages_ran=ran)
        assert ticket.op == "sweep"
        return self._perform_sweep(ticket)

    def _perform_sweep(self, ticket: _Ticket) -> dict:
        message = ticket.message
        raw_specs = message.get("specs")
        if not isinstance(raw_specs, list) or not raw_specs:
            raise SpecError("sweep requires a non-empty 'specs' list")
        specs = [normalize_spec(s) for s in raw_specs]
        workers = message.get("workers")
        workers = (
            resolve_workers(self.config.workers) if workers is None
            else int(workers)
        )
        failpoint = (
            message.get("failpoint") if self.config.test_hooks else None
        )
        if workers > 1 and len(specs) > 1:
            fn = {
                "kill_worker": _crash_cell_worker,
                "hang_worker": _hang_cell_worker,
            }.get(failpoint, compute_cell_payload)
            retries = int(message.get("retries", self.config.retries))
            payloads = run_resilient(
                fn, specs,
                workers=workers,
                timeout_s=ticket.remaining(),
                retries=retries,
                backoff_s=0.05,
                label=_spec_label,
                fallback=False,  # a dead worker is a structured reply,
                                 # never a silent in-daemon rerun
            )
            stages = None  # stages ran in the workers, cold by design
            for spec, payload in zip(specs, payloads):
                # fan-out results warm the daemon's result cache (the
                # artefact bundles stay cold: they lived in the workers)
                self.pipeline.results.put(spec_key(spec), payload)
        else:
            payloads = []
            stages = []
            for spec in specs:
                payload, ran = self.pipeline.query(spec)
                payloads.append(payload)
                stages.append(ran)
        return protocol.ok_reply(
            {"cells": payloads}, stages_ran=stages, workers=workers
        )

    # -- introspection ------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
            connections = {
                "accepted": self._accepted, "open": len(self._conns),
            }
        return {
            "pid": os.getpid(),
            "uptime_s": time.monotonic() - self._started_at,
            "socket": self.config.socket_path,
            "queue_depth": self._queue.qsize(),
            "queue_limit": self.config.queue_limit,
            "executing": self._executing,
            "stopping": self._stopping.is_set(),
            "requests": counters,
            "connections": connections,
            "caches": self.pipeline.cache_stats(),
            "stage_runs": dict(self.pipeline.stage_runs),
        }
