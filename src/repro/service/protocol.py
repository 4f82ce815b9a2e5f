"""Length-prefixed JSON protocol for the simulation service.

Every message — request or reply — is one *frame*: a 4-byte big-endian
unsigned length followed by that many bytes of UTF-8 JSON encoding a
single object.  The framing is symmetric (client and daemon use the
same two functions), self-delimiting (no sentinel bytes inside the
payload to escape), and bounded (:data:`MAX_FRAME_BYTES` caps a frame so
a corrupt or hostile peer cannot make the daemon allocate gigabytes).

JSON is the wire format on purpose: every result field the service
returns is a float/int/str, and Python's ``json`` round-trips floats
through ``repr`` exactly, so the bit-for-bit warm == cold determinism
contract survives the wire — a daemon-served result compares equal,
float by float, to one computed in-process.

Replies are an envelope::

    {"ok": true,  "result": {...}, ...}          # success
    {"ok": false, "error": {"code": C, "message": M, ...}}  # failure

with ``code`` one of the module constants below.  Errors are data, not
exceptions: a shed request (``SERVICE_BUSY``), an expired deadline
(``DEADLINE_EXCEEDED``) and a crashed worker (``CELL_EXECUTION_ERROR``,
carrying the label/kind/attempt history of the underlying
:class:`repro.concurrency.CellExecutionError`) all reach the client as
structured, machine-readable replies — never as a hang or a dropped
connection.
"""

from __future__ import annotations

import json
import struct

#: largest frame either side will send or accept (64 MiB)
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")

# structured error codes (the reply envelope's ``error.code``)
SERVICE_BUSY = "SERVICE_BUSY"            # admission queue full: shed
DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"  # per-request deadline expired
CELL_EXECUTION_ERROR = "CELL_EXECUTION_ERROR"  # worker crashed/stalled
BAD_REQUEST = "BAD_REQUEST"              # malformed op or cell spec
SHUTTING_DOWN = "SHUTTING_DOWN"          # daemon draining: not admitted
INTERNAL_ERROR = "INTERNAL_ERROR"        # unexpected daemon-side failure


class ProtocolError(RuntimeError):
    """The peer violated the framing (truncated frame, oversize length,
    non-JSON payload, non-object message)."""


def send_message(sock, obj) -> None:
    """Serialise ``obj`` as one length-prefixed JSON frame on ``sock``."""

    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(> {MAX_FRAME_BYTES})"
        )
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock, n: int, *, mid_frame: bool) -> bytes | None:
    """Read exactly ``n`` bytes; None on clean EOF before the first byte.

    EOF *inside* a frame (``mid_frame`` or after a partial read) is a
    :class:`ProtocolError` — the peer died mid-message.
    """

    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks and not mid_frame:
                return None  # clean close between frames
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining} of {n} "
                "bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock) -> dict | None:
    """Read one frame from ``sock``; None when the peer closed cleanly."""

    header = _recv_exact(sock, _HEADER.size, mid_frame=False)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (> {MAX_FRAME_BYTES})"
        )
    payload = _recv_exact(sock, length, mid_frame=True)
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's stack
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must encode an object, got {type(message).__name__}"
        )
    return message


def ok_reply(result, **extra) -> dict:
    """Success envelope (``extra`` carries out-of-band metadata such as
    ``stages_ran`` — kept *outside* ``result`` so warm and cold results
    stay byte-identical)."""

    reply = {"ok": True, "result": result}
    reply.update(extra)
    return reply


def error_reply(code: str, message: str, **details) -> dict:
    """Failure envelope with a structured, machine-readable error."""

    error = {"code": code, "message": message}
    error.update(details)
    return {"ok": False, "error": error}
