"""Plain-text trace serialisation (a simplified Dimemas ``.dim`` dialect).

The format is line-oriented and diff-friendly::

    #TRACE name=<name> nranks=<n> key=value ...
    #RANK <rank>
    C <duration_us>
    P <call_id> <peer> <size_bytes> <tag> [<recv_peer> <recv_size>]
    G <call_id> <size_bytes> <root>

Floats are written with full ``repr`` precision so a round-trip is exact.
A malformed file raises :class:`TraceParseError` carrying the offending
line number: a header without ``name=``, a repeated header key or a
second header, an ``nranks`` or ``#RANK`` index that is not a
non-negative integer, a declared ``nranks`` the ``#RANK`` sections do
not match, and any bad record.
"""

from __future__ import annotations

import io
import os
from typing import IO, Iterable

from .events import Collective, Compute, MPICall, PointToPoint, TraceRecord
from .trace import ProcessTrace, Trace

_HEADER = "#TRACE"
_RANK = "#RANK"


def _fmt_meta_value(value) -> str:
    s = str(value)
    if any(c.isspace() or c == "=" for c in s):
        raise ValueError(f"meta value {value!r} contains whitespace or '='")
    return s


def dump_trace(trace: Trace, stream: IO[str]) -> None:
    """Write ``trace`` to a text stream."""

    meta = " ".join(
        f"{k}={_fmt_meta_value(v)}" for k, v in sorted(trace.meta.items())
    )
    header = f"{_HEADER} name={trace.name} nranks={trace.nranks}"
    if meta:
        header += " " + meta
    stream.write(header + "\n")
    for proc in trace.processes:
        stream.write(f"{_RANK} {proc.rank}\n")
        for rec in proc.records:
            stream.write(_format_record(rec) + "\n")


def _format_record(rec: TraceRecord) -> str:
    if isinstance(rec, Compute):
        return f"C {rec.duration_us!r}"
    if isinstance(rec, PointToPoint):
        base = f"P {int(rec.call)} {rec.peer} {rec.size_bytes} {rec.tag}"
        if rec.recv_peer is not None or rec.recv_size_bytes is not None:
            rp = "-" if rec.recv_peer is None else rec.recv_peer
            rs = "-" if rec.recv_size_bytes is None else rec.recv_size_bytes
            base += f" {rp} {rs}"
        return base
    if isinstance(rec, Collective):
        return f"G {int(rec.call)} {rec.size_bytes} {rec.root}"
    raise TypeError(f"unknown record type: {type(rec).__name__}")


def dumps_trace(trace: Trace) -> str:
    buf = io.StringIO()
    dump_trace(trace, buf)
    return buf.getvalue()


def save_trace(trace: Trace, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as f:
        dump_trace(trace, f)


class TraceParseError(ValueError):
    """Raised when a trace file is malformed; carries the line number."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def load_trace(path: str | os.PathLike) -> Trace:
    with open(path, "r", encoding="utf-8") as f:
        return parse_trace(f)


def loads_trace(text: str) -> Trace:
    return parse_trace(io.StringIO(text))


def _parse_header(lineno: int, fields: Iterable[str]) -> dict[str, str]:
    """A ``#TRACE`` line's ``key=value`` fields, values still raw."""

    raw: dict[str, str] = {}
    for field in fields:
        key, sep, value = field.partition("=")
        if not sep:
            raise TraceParseError(lineno, f"bad meta field {field!r}")
        if key in raw:
            raise TraceParseError(lineno, f"header key {key!r} given twice")
        raw[key] = value
    return raw


def _meta_value(raw: str) -> object:
    """A meta value as the int or float it spells, else the string."""

    for conv in (int, float):
        try:
            return conv(raw)
        except ValueError:
            continue
    return raw


def _parse_int(lineno: int, what: str, raw: str) -> int:
    """``raw`` as a non-negative int, else a :class:`TraceParseError`."""

    try:
        value = int(raw)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise TraceParseError(
        lineno, f"{what} must be a non-negative integer, got {raw!r}"
    )


def parse_trace(stream: IO[str]) -> Trace:
    name: str | None = None
    nranks: int | None = None
    meta: dict = {}
    processes: list[ProcessTrace] = []
    current: ProcessTrace | None = None

    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("//"):
            continue
        parts = line.split()
        if parts[0] == _HEADER:
            if name is not None:
                raise TraceParseError(lineno, "second #TRACE header")
            fields = _parse_header(lineno, parts[1:])
            if "name" not in fields:
                raise TraceParseError(lineno, "header missing name=")
            name = fields.pop("name")
            if "nranks" in fields:
                nranks = _parse_int(lineno, "nranks", fields.pop("nranks"))
            meta = {key: _meta_value(raw) for key, raw in fields.items()}
            continue
        if parts[0] == _RANK:
            if len(parts) != 2:
                raise TraceParseError(lineno, "bad #RANK line")
            rank = _parse_int(lineno, "#RANK index", parts[1])
            if rank != len(processes):
                raise TraceParseError(
                    lineno, f"ranks out of order: got {rank}, expected {len(processes)}"
                )
            current = ProcessTrace(rank)
            processes.append(current)
            continue
        if current is None:
            raise TraceParseError(lineno, "record before any #RANK line")
        current.append(_parse_record(lineno, line))

    if name is None:
        raise TraceParseError(0, "missing #TRACE header")
    if nranks is not None and nranks != len(processes):
        raise TraceParseError(
            0, f"header declares {nranks} ranks but file contains {len(processes)}"
        )
    return Trace(name, processes, meta)


def _parse_record(lineno: int, line: str) -> TraceRecord:
    parts = line.split()
    kind = parts[0]
    try:
        if kind == "C":
            if len(parts) != 2:
                raise ValueError("C record takes exactly one field")
            return Compute(float(parts[1]))
        if kind == "P":
            if len(parts) not in (5, 7):
                raise ValueError("P record takes 4 or 6 fields")
            call = MPICall(int(parts[1]))
            peer, size, tag = int(parts[2]), int(parts[3]), int(parts[4])
            if len(parts) == 7:
                rp = None if parts[5] == "-" else int(parts[5])
                rs = None if parts[6] == "-" else int(parts[6])
                return PointToPoint(
                    call, peer, size, tag, recv_peer=rp, recv_size_bytes=rs
                )
            return PointToPoint(call, peer, size, tag)
        if kind == "G":
            if len(parts) != 4:
                raise ValueError("G record takes exactly three fields")
            return Collective(MPICall(int(parts[1])), int(parts[2]), int(parts[3]))
        raise ValueError(f"unknown record kind {kind!r}")
    except (ValueError, KeyError) as exc:
        raise TraceParseError(lineno, str(exc)) from exc
