"""Serialisation tests for repro.trace.io, including property-based
round-trips."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.events import Collective, Compute, MPICall, PointToPoint
from repro.trace.io import (
    TraceParseError,
    dumps_trace,
    loads_trace,
)
from repro.trace.trace import ProcessTrace, Trace


def test_roundtrip_small(small_ring_trace):
    text = dumps_trace(small_ring_trace)
    back = loads_trace(text)
    assert back.name == small_ring_trace.name
    assert back.nranks == small_ring_trace.nranks
    assert back.total_records == small_ring_trace.total_records
    for a, b in zip(small_ring_trace, back):
        assert a.records == b.records


def test_meta_roundtrip():
    t = Trace.empty("meta", 2, iterations=5, scale=1.5, mode="strong")
    text = dumps_trace(t)
    back = loads_trace(text)
    assert back.meta == {"iterations": 5, "scale": 1.5, "mode": "strong"}


def test_float_precision_exact():
    t = Trace.empty("f", 1)
    t[0].compute(0.1 + 0.2)  # 0.30000000000000004
    back = loads_trace(dumps_trace(t))
    assert back[0].records[0].duration_us == t[0].records[0].duration_us


def test_rejects_missing_header():
    with pytest.raises(TraceParseError):
        loads_trace("C 1.0\n")


def test_rejects_out_of_order_ranks():
    with pytest.raises(TraceParseError, match="out of order"):
        loads_trace("#TRACE name=x nranks=2\n#RANK 1\n")


def test_rejects_unknown_record():
    with pytest.raises(TraceParseError):
        loads_trace("#TRACE name=x nranks=1\n#RANK 0\nZ 1 2\n")


def test_rejects_bad_field_count():
    with pytest.raises(TraceParseError):
        loads_trace("#TRACE name=x nranks=1\n#RANK 0\nC 1.0 2.0\n")


def test_rejects_rank_count_mismatch():
    with pytest.raises(TraceParseError):
        loads_trace("#TRACE name=x nranks=3\n#RANK 0\n")


def _parse_error(text):
    with pytest.raises(TraceParseError) as info:
        loads_trace(text)
    return info.value


def test_rejects_header_without_name():
    err = _parse_error("// x\n#TRACE nranks=1\n#RANK 0\n")
    assert err.lineno == 2 and "name=" in str(err)


def test_rejects_non_integer_nranks():
    err = _parse_error("#TRACE name=x nranks=abc\n#RANK 0\n")
    assert err.lineno == 1 and "nranks" in str(err)


def test_rejects_fractional_nranks():
    err = _parse_error("#TRACE name=x nranks=1.5\n#RANK 0\n")
    assert err.lineno == 1 and "'1.5'" in str(err)


def test_rejects_non_integer_rank_index():
    err = _parse_error("#TRACE name=x nranks=1\n#RANK x\n")
    assert err.lineno == 2 and "#RANK" in str(err)


def test_rejects_repeated_header_key():
    err = _parse_error("#TRACE name=x nranks=1 iterations=2 iterations=3\n")
    assert err.lineno == 1 and "'iterations' given twice" in str(err)


def test_rejects_second_header():
    err = _parse_error("#TRACE name=x nranks=1\n#RANK 0\n#TRACE name=y\n")
    assert err.lineno == 3


def test_rejects_glued_directive():
    err = _parse_error("#TRACEx name=x nranks=0\n")
    assert err.lineno == 1


def test_name_is_kept_verbatim():
    assert loads_trace("#TRACE name=1.50 nranks=0\n").name == "1.50"


_TRACE_TOKENS = st.sampled_from([
    "#TRACE", "#RANK", "name=x", "nranks=1", "nranks=2", "nranks=-1",
    "nranks=1.5", "name=", "=", "k=v", "C", "P", "G", "0", "1", "-1",
    "1.5", "nan", "inf", "-", "x", "99999999999999999999", "//",
])


@given(lines=st.lists(
    st.lists(_TRACE_TOKENS, max_size=8).map(" ".join), max_size=8,
))
@settings(max_examples=300, deadline=None)
def test_any_text_parses_or_raises_trace_parse_error(lines):
    try:
        loads_trace("\n".join(lines))
    except TraceParseError:
        pass


def test_declared_zero_ranks_must_match():
    with pytest.raises(TraceParseError, match="declares 0 ranks"):
        loads_trace("#TRACE name=x nranks=0\n#RANK 0\n")
    assert loads_trace("#TRACE name=x\n#RANK 0\n").nranks == 1
    assert loads_trace(dumps_trace(Trace.empty("e", 0))).nranks == 0


def test_comments_and_blank_lines_ignored():
    text = "#TRACE name=x nranks=1\n\n// a comment\n#RANK 0\nC 1.0\n"
    t = loads_trace(text)
    assert t.total_records == 1


# ---------------------------------------------------------------- property

_p2p_calls = st.sampled_from(
    [MPICall.SEND, MPICall.RECV, MPICall.ISEND, MPICall.IRECV]
)
_coll_calls = st.sampled_from(
    [MPICall.ALLREDUCE, MPICall.BCAST, MPICall.BARRIER, MPICall.ALLTOALL]
)

_record = st.one_of(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False).map(Compute),
    st.builds(
        PointToPoint,
        call=_p2p_calls,
        peer=st.integers(0, 3),
        size_bytes=st.integers(0, 1 << 30),
        tag=st.integers(0, 1 << 16),
    ),
    st.builds(
        PointToPoint,
        call=st.just(MPICall.SENDRECV),
        peer=st.integers(0, 3),
        size_bytes=st.integers(0, 1 << 20),
        tag=st.integers(0, 100),
        recv_peer=st.integers(0, 3),
        recv_size_bytes=st.integers(0, 1 << 20),
    ),
    st.builds(
        Collective,
        call=_coll_calls,
        size_bytes=st.integers(0, 1 << 30),
        root=st.integers(0, 3),
    ),
)


@given(records=st.lists(st.lists(_record, max_size=12), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(records):
    procs = []
    for r, recs in enumerate(records):
        p = ProcessTrace(r)
        for rec in recs:
            p.append(rec)
        procs.append(p)
    trace = Trace("prop", procs)
    back = loads_trace(dumps_trace(trace))
    assert back.nranks == trace.nranks
    for a, b in zip(trace, back):
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert type(ra) is type(rb)
            if isinstance(ra, Compute):
                assert math.isclose(ra.duration_us, rb.duration_us) or (
                    ra.duration_us == rb.duration_us
                )
            else:
                assert ra == rb
