"""Blocking client for the simulation service.

:class:`ServiceClient` keeps one Unix-socket connection to the daemon,
opened lazily by the first request and reused by every request after
it, frames each message (:mod:`repro.service.protocol`), and maps the
reply envelope onto Python: success returns the reply dict, structured
errors raise typed exceptions carrying the error code and details.  A
request whose answer the daemon already holds therefore costs one
socket round trip.

Connection discipline:

* a lock serialises concurrent callers, so one request is on the
  connection at a time and every caller reads its own reply;
* a *reused* connection that turns out dead before any reply byte
  arrives (EOF, ``EPIPE``, ``ECONNRESET``: the daemon restarted, or it
  closed the connection after a malformed frame) is replaced once and
  the request resent with the same ``request_id``; that reconnect does
  not count against ``retries``;
* a reply timeout, or any other error, drops the connection without a
  resend, so a late reply can never answer the next request;
* after ``fork`` the child opens its own connection;
* :meth:`ServiceClient.close`, leaving a ``with`` block and garbage
  collection close the connection.

Retry discipline:

* **connect failures** (daemon not up yet, stale socket) and
  **overload sheds** (``SERVICE_BUSY``) are retried up to ``retries``
  times with capped, deterministically jittered exponential backoff
  (:func:`repro.concurrency.backoff_delay` keyed by the request id, so
  two clients hammering a busy daemon don't retry in lockstep);
* the ``request_id`` is generated **once** and reused verbatim across
  retries — the daemon's idempotency layer guarantees a retried request
  joins the in-flight execution or replays the recorded reply, never
  double-runs the cell;
* ``DEADLINE_EXCEEDED`` is *not* retried (the deadline was the budget);
  it raises :class:`ServiceTimeout`.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid

from ..concurrency import backoff_delay
from . import protocol


class ServiceError(RuntimeError):
    """A structured error reply from the daemon (``error.code`` and the
    remaining detail fields are preserved on the exception)."""

    def __init__(self, message: str, code: str = protocol.INTERNAL_ERROR,
                 details: dict | None = None):
        super().__init__(message)
        self.code = code
        self.details = dict(details or {})


class ServiceBusy(ServiceError):
    """Admission queue full and the retry budget is spent."""


class ServiceTimeout(ServiceError):
    """The per-request deadline expired (server- or client-side)."""


class ServiceUnavailable(ServiceError):
    """Could not reach a daemon on the socket within the retry budget."""


class _StaleConnection(Exception):
    """A reused connection was dead before any reply byte arrived."""


class ServiceClient:
    """Blocking client over one persistent connection (opened lazily).

    ``request_timeout_s`` bounds the *client-side* wait for a reply; the
    per-request ``timeout_s`` (when given) is also sent to the daemon as
    the server-side deadline, and the client waits slightly longer than
    the server so the structured ``DEADLINE_EXCEEDED`` reply — which
    names where the request died — wins over a bare socket timeout.
    """

    #: client-side slack on top of a server-side deadline (seconds)
    DEADLINE_SLACK_S = 5.0

    def __init__(self, socket_path: str | None = None, *,
                 connect_timeout_s: float = 5.0,
                 request_timeout_s: float | None = None,
                 retries: int = 3,
                 backoff_s: float = 0.05,
                 backoff_cap_s: float = 2.0):
        from .daemon import default_socket_path

        self.socket_path = socket_path or default_socket_path()
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        #: the process that opened ``_sock`` (a forked child must not
        #: share it)
        self._pid = os.getpid()

    # -- connection ---------------------------------------------------

    def close(self) -> None:
        """Close the connection (the next request opens a new one)."""

        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        sock = getattr(self, "_sock", None)
        if sock is not None:
            sock.close()

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.connect_timeout_s)
            sock.connect(self.socket_path)
        except BaseException:
            sock.close()
            raise
        return sock

    # -- plumbing -----------------------------------------------------

    def _reply_wait_s(self, message: dict) -> float | None:
        deadline = message.get("timeout_s")
        if deadline is not None:
            return float(deadline) + self.DEADLINE_SLACK_S
        return self.request_timeout_s

    def _exchange(self, sock: socket.socket, message: dict) -> dict:
        """One request/reply on ``sock``.  Raises :class:`_StaleConnection`
        when the peer is gone before the first reply byte."""

        try:
            protocol.send_message(sock, message)
            sock.settimeout(self._reply_wait_s(message))
            if not sock.recv(1, socket.MSG_PEEK):
                raise _StaleConnection("daemon closed the connection")
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise _StaleConnection(str(exc)) from exc
        reply = protocol.recv_message(sock)
        assert reply is not None  # the peeked byte starts the frame
        return reply

    def _roundtrip(self, message: dict) -> dict:
        if self._pid != os.getpid():
            # forked: the inherited socket is the parent's connection
            # (close only this process's copy) and the inherited lock may
            # be held by a parent thread that does not exist here
            self._pid = os.getpid()
            self._lock = threading.Lock()
            self.close()
        with self._lock:
            try:
                reused = self._sock is not None
                if not reused:
                    self._sock = self._connect()
                try:
                    return self._exchange(self._sock, message)
                except _StaleConnection:
                    if not reused:
                        raise
                # the reused connection had died while idle: one fresh
                # connection, same message, not counted as a retry
                self.close()
                self._sock = self._connect()
                return self._exchange(self._sock, message)
            except BaseException:
                # a timeout or any other failure leaves the stream at an
                # unknown position: never read a reply from it again
                self.close()
                raise

    def request(self, message: dict) -> dict:
        """Send one request (with retries) and return the ``ok`` reply.

        Raises :class:`ServiceUnavailable`, :class:`ServiceBusy`,
        :class:`ServiceTimeout` or :class:`ServiceError` on failure.
        """

        message = dict(message)
        request_id = str(message.setdefault("request_id", uuid.uuid4().hex))
        attempt = 0
        while True:
            attempt += 1
            try:
                reply = self._roundtrip(message)
            except (TimeoutError, socket.timeout) as exc:
                # reply-wait expired: the deadline is the budget, and a
                # blind retry would just wait it out again — surface it
                raise ServiceTimeout(
                    f"no reply from {self.socket_path} within the "
                    "client-side wait",
                    code=protocol.DEADLINE_EXCEEDED,
                    details={"client_side": True},
                ) from exc
            except (OSError, protocol.ProtocolError,
                    _StaleConnection) as exc:
                if attempt > self.retries:
                    raise ServiceUnavailable(
                        f"cannot reach simulation daemon on "
                        f"{self.socket_path}: {exc}",
                        code="UNAVAILABLE",
                    ) from exc
                time.sleep(backoff_delay(
                    attempt, self.backoff_s, self.backoff_cap_s,
                    token=request_id,
                ))
                continue
            if reply.get("ok"):
                return reply
            error = reply.get("error") or {}
            code = error.get("code", protocol.INTERNAL_ERROR)
            text = error.get("message", "unspecified service error")
            details = {
                k: v for k, v in error.items()
                if k not in ("code", "message")
            }
            if code == protocol.SERVICE_BUSY and attempt <= self.retries:
                time.sleep(backoff_delay(
                    attempt, self.backoff_s, self.backoff_cap_s,
                    token=request_id,
                ))
                continue
            if code == protocol.SERVICE_BUSY:
                raise ServiceBusy(text, code=code, details=details)
            if code == protocol.DEADLINE_EXCEEDED:
                raise ServiceTimeout(text, code=code, details=details)
            raise ServiceError(text, code=code, details=details)

    # -- typed operations ---------------------------------------------

    def ping(self) -> dict:
        return self.request({"op": "ping"})["result"]

    def stats(self) -> dict:
        return self.request({"op": "stats"})["result"]

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})["result"]

    def cell(self, *, timeout_s: float | None = None,
             request_id: str | None = None, **spec) -> dict:
        """Run (or replay from cache) one cell; returns the full reply
        (``result`` payload plus ``stages_ran`` metadata)."""

        message: dict = {"op": "cell", "spec": spec}
        if timeout_s is not None:
            message["timeout_s"] = timeout_s
        if request_id is not None:
            message["request_id"] = request_id
        return self.request(message)

    def sweep(self, specs: list[dict], *, workers: int | None = None,
              retries: int | None = None,
              timeout_s: float | None = None,
              failpoint: str | None = None,
              request_id: str | None = None) -> dict:
        """Run a batch of cells (fanned out over worker processes when
        ``workers > 1``); returns the full reply."""

        message: dict = {"op": "sweep", "specs": list(specs)}
        if workers is not None:
            message["workers"] = workers
        if retries is not None:
            message["retries"] = retries
        if timeout_s is not None:
            message["timeout_s"] = timeout_s
        if failpoint is not None:
            message["failpoint"] = failpoint
        if request_id is not None:
            message["request_id"] = request_id
        return self.request(message)
