"""Fuzz the wire protocol against a live daemon.

Two input surfaces, each driven by hypothesis over one daemon:

* request objects — well-framed JSON objects with random ops, wrong
  types, non-finite numbers and extra keys, including cell specs that
  differ from a valid one in a single field.  Every request must get
  a reply, either ``ok`` or a structured error whose code is a protocol
  code other than ``INTERNAL_ERROR``.
* raw frames — garbage bytes, truncated frames, oversize length
  prefixes, invalid UTF-8, non-object JSON.  A bad frame may close its
  own connection (after a ``BAD_REQUEST`` reply, which a reset loses
  when bytes past the bad frame were never read), never the daemon: a
  fresh ``ping`` still succeeds.

Neither surface may raise in a daemon thread: an uncaught exception
there would drop the connection without a reply.

The generated specs stay cheap: a spec that validates is kept only
when it asks for a tiny cell, and a sweep never fans out to worker
processes.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.service import protocol
from repro.service.caches import SPEC_FIELDS, normalize_spec
from repro.specs import SpecError

pytestmark = pytest.mark.service

#: codes a fuzzed request may be answered with
EXPECTED_CODES = {
    protocol.SERVICE_BUSY,
    protocol.DEADLINE_EXCEEDED,
    protocol.CELL_EXECUTION_ERROR,
    protocol.BAD_REQUEST,
    protocol.SHUTTING_DOWN,
}

#: a valid, tiny cell; fuzzed specs differ from it in one field
TINY_SPEC = {"app": "alya", "nranks": 2, "iterations": 1}

#: reply wait per request: long enough for a tiny cold cell
REPLY_TIMEOUT_S = 30.0

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=8,
)


def _cheap(spec) -> bool:
    """Whether the daemon can answer ``spec`` without a costly cell:
    either it does not validate, or it asks for a tiny one."""

    try:
        norm = normalize_spec(spec)
    except SpecError:
        return True
    except Exception:
        return True  # a validator fault: the daemon must answer it too
    return (
        norm["nranks"] <= 4
        and norm["iterations"] <= 2
        and norm["topology"] == "fitted"
    )


near_valid_specs = st.builds(
    lambda field, value: {**TINY_SPEC, field: value},
    st.sampled_from(SPEC_FIELDS + ("bogus",)),
    json_values,
).filter(_cheap)

ops = (
    st.sampled_from(["ping", "stats", "cell", "sweep", "block", "unblock"])
    | st.text(max_size=8).filter(lambda op: op != "shutdown")
    | json_scalars.filter(lambda op: not isinstance(op, str))
)


@st.composite
def requests(draw) -> dict:
    request = {"op": draw(ops)}
    if draw(st.booleans()):
        request["spec"] = draw(near_valid_specs | json_values)
    if draw(st.booleans()):
        specs = draw(
            st.lists(near_valid_specs, min_size=1, max_size=2) | json_values
        )
        request["specs"] = specs
        workers = draw(json_values)
        if not (isinstance(specs, list) and len(specs) > 1):
            # at most one spec: the sweep runs in-process whatever
            # ``workers`` says, so no worker process starts
            request["workers"] = workers
    for key in ("timeout_s", "request_id", "retries", "failpoint", "extra"):
        if draw(st.booleans()):
            request[key] = draw(json_values)
    return request


@contextmanager
def _thread_errors():
    """Collect exceptions that escape any thread while the block runs."""

    errors: list[str] = []
    previous = threading.excepthook
    threading.excepthook = lambda args: errors.append(
        f"{args.exc_type.__name__}: {args.exc_value}"
    )
    try:
        yield errors
    finally:
        threading.excepthook = previous


def _connect(daemon) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(REPLY_TIMEOUT_S)
    sock.connect(daemon.config.socket_path)
    return sock


def _ping(daemon) -> None:
    with _connect(daemon) as sock:
        protocol.send_message(sock, {"op": "ping"})
        reply = protocol.recv_message(sock)
    assert reply is not None and reply["ok"] and reply["result"]["pong"]


def test_fuzzed_requests_get_structured_replies(daemon_factory):
    daemon, _client = daemon_factory(workers=1)

    @given(request=requests())
    # inputs that once raised: a wait or a number too large for the
    # platform, NaN deadlines, and sweep counts that are not integers
    @example({"op": "cell", "spec": TINY_SPEC, "timeout_s": 10**400})
    @example({"op": "cell", "spec": TINY_SPEC, "timeout_s": float("inf")})
    @example({"op": "cell", "spec": TINY_SPEC, "timeout_s": 1e300})
    @example({"op": "cell", "spec": TINY_SPEC, "timeout_s": float("nan")})
    @example({"op": "cell", "spec": {**TINY_SPEC, "displacement": 10**400}})
    @example({"op": "sweep", "specs": [TINY_SPEC], "workers": "abc"})
    @example({"op": "sweep", "specs": [TINY_SPEC], "workers": float("nan")})
    @example({"op": "sweep", "specs": [TINY_SPEC], "workers": [1]})
    @example({"op": "sweep", "specs": [TINY_SPEC], "retries": "x"})
    @settings(max_examples=60, deadline=None)
    def check(request):
        with _connect(daemon) as sock:
            protocol.send_message(sock, request)
            reply = protocol.recv_message(sock)
        assert reply is not None, request
        if not reply["ok"]:
            assert reply["error"]["code"] in EXPECTED_CODES, (request, reply)
        timeout_s = request.get("timeout_s")
        if request["op"] in ("cell", "sweep") and timeout_s != timeout_s:
            # a NaN deadline is refused, not left to expire at once
            assert reply["error"]["code"] == protocol.BAD_REQUEST

    with _thread_errors() as errors:
        check()
        _ping(daemon)
    assert errors == []


def _frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


raw_frames = st.one_of(
    st.binary(max_size=64),                                   # garbage
    st.binary(min_size=1, max_size=64).map(_frame),           # not JSON
    json_values.filter(
        lambda v: not (isinstance(v, dict) and v.get("op") == "shutdown")
    ).map(lambda v: _frame(json.dumps(v).encode())),
    st.builds(                                                # truncated
        lambda payload, cut: _frame(payload)[:cut],
        st.binary(min_size=1, max_size=32),
        st.integers(1, 35),
    ),
    st.integers(protocol.MAX_FRAME_BYTES + 1, 2**32 - 1).map(
        lambda n: struct.pack(">I", n)                         # oversize
    ),
    st.just(_frame(b"[" * 100_000)),                          # deep JSON
    st.just(_frame(b"\xff\xfe{}")),                           # bad UTF-8
)


def _replies(sock):
    """The replies on ``sock`` until the daemon closes it."""

    while True:
        try:
            reply = protocol.recv_message(sock)
        except (protocol.ProtocolError, ConnectionResetError):
            return  # closed mid-reply, or reset over unread input
        if reply is None:
            return
        yield reply


def test_bad_frames_close_only_their_connection(daemon_factory):
    daemon, _client = daemon_factory(workers=1)
    bystander = _connect(daemon)

    @given(frame=raw_frames)
    @settings(max_examples=40, deadline=None)
    def check(frame):
        with _connect(daemon) as sock:
            sock.sendall(frame)
            # end of input: a short frame is now a truncated one
            sock.shutdown(socket.SHUT_WR)
            for reply in _replies(sock):
                # a well-formed object frame was a request: answered
                # like any other; anything else is a BAD_REQUEST
                if not reply["ok"]:
                    assert reply["error"]["code"] in EXPECTED_CODES, reply
        _ping(daemon)

    with _thread_errors() as errors:
        check()
    assert errors == []
    # a connection opened before the fuzzing is still served
    protocol.send_message(bystander, {"op": "ping"})
    assert protocol.recv_message(bystander)["ok"]
    bystander.close()
