"""Analytic golden values: a two-rank ping-pong on the fitted XGFT.

Rank 0 sends S bytes to rank 1 and waits for S bytes back; rank 1
receives, then answers.  Nothing else runs, so every quantity follows
by hand from ``repro.constants`` and the fabric's cut-through rule.

Constants: ``L = MPI_LATENCY_US`` (1 us), ``h = SWITCH_HOP_LATENCY_US``
(0.1 us), ``B = LINK_BANDWIDTH_BYTES_PER_US`` (40 Gb/s = 5000 B/us),
``seg = SEGMENT_SIZE_BYTES / B`` (2048 B = 0.4096 us).

Cut-through (``Fabric.transfer``): a message ready at ``t`` enters its
first link at ``t + L``; each link starts serialising when the head
arrives (no contention here: the pong uses the reverse channels) and
the head reaches the next link ``min(seg, S/B) + h`` later.  Over a
route of ``k`` links the last byte therefore lands at

    t + L + (k - 1) * (min(seg, S/B) + h) + S/B  =:  t + D(k, S).

Same-leaf hosts are ``k = 2`` links apart (host-leaf-host), cross-leaf
hosts ``k = 4`` (host-leaf-spine-leaf-host).

* eager (``S <= EAGER_THRESHOLD_BYTES``): the ping leaves at 0 and lands
  at ``D``; rank 1's receive (posted at 0) completes then and its pong
  lands at ``2D``.  Rank 0's own send ended at ``L + S/B < D``, so
  ``exec_time = 2 * D``.
* rendezvous (``S > EAGER_THRESHOLD_BYTES``): the RTS flies for ``L``
  (software latency only), the posted receive matches it at ``L`` and
  the CTS releases the payload at ``L + L``, landing at ``2L + D``.
  The pong repeats the handshake from there:
  ``exec_time = 2 * (2L + D)``.

Each HCA link carries exactly one message per direction, so each of its
two channels is busy for ``S / B``.  The replay runs through
``replay_baseline`` and through a one-job ``replay_cluster_baseline``
on both kernels, pinning the shared composition to this arithmetic.

**Late receiver** (the unexpected-RTS path, rendezvous only): rank 1
computes for ``C > L`` before it receives, so the ping's RTS, landing at
``L``, waits unexpected.  Rank 1 matches it at ``C``; the CTS releases
the payload at ``C + L`` and the ping lands at ``T1 = C + L + D``.  The
ping's source buffer drains at ``C + 2L + S/B``, which ends rank 0's
send (SEND, or ISEND + WAITALL).

* receive side RECV or IRECV + WAITALL: rank 1's receive ends at
  ``T1``, then it sends the pong (the same send kind as rank 0).  Its
  RTS lands at ``T1 + L``; rank 0's receive has been posted since
  ``C + 2L + S/B``, so it matches at once and the pong lands at
  ``T1 + 2L + D``: ``exec_time = C + 3L + 2D``.  Rank 1's pong send ends
  at its source drain, ``T1 + 3L + S/B``.
* receive side SENDRECV (one tag both ways): rank 1's sendrecv injects
  the pong's RTS at ``C`` too.  It lands at ``C + L`` while rank 0 is
  still inside its send, so the pong waits unexpected as well; rank 0's
  receive matches it at ``C + 2L + S/B`` and the pong lands at
  ``exec_time = C + 3L + S/B + D``.  Rank 1's sendrecv ends at the
  pong's source drain, ``C + 4L + 2S/B`` (earlier, as ``D > L + S/B``).
"""

import pytest

from repro.cluster import ClusterJob, Job, replay_cluster_baseline
from repro.constants import (
    EAGER_THRESHOLD_BYTES,
    LINK_BANDWIDTH_BYTES_PER_US,
    MPI_LATENCY_US,
    SEGMENT_SIZE_BYTES,
    SWITCH_HOP_LATENCY_US,
)
from repro.sim import ReplayConfig, fabric_for, replay_baseline
from repro.sim.program import compile_trace
from repro.trace.events import Compute, MPICall, PointToPoint
from repro.trace.trace import Trace

L, H, B = MPI_LATENCY_US, SWITCH_HOP_LATENCY_US, LINK_BANDWIDTH_BYTES_PER_US
SEG = SEGMENT_SIZE_BYTES / B

#: two eager sizes (one below a segment, one at the threshold) and a
#: rendezvous size
SIZES = (1024, EAGER_THRESHOLD_BYTES, 64 * 1024)

#: fabric host count -> links between hosts 0 and 1 on the fitted XGFT
#: (a 4-host fit puts hosts 0 and 1 on one leaf, a 2-host fit splits
#: them across two leaves)
PLACEMENTS = {"same-leaf": (4, 2), "cross-leaf": (2, 4)}


def ping_pong(size):
    trace = Trace.empty("pingpong", 2)
    trace[0].append(PointToPoint(MPICall.SEND, 1, size, tag=1))
    trace[0].append(PointToPoint(MPICall.RECV, 1, size, tag=2))
    trace[1].append(PointToPoint(MPICall.RECV, 0, size, tag=1))
    trace[1].append(PointToPoint(MPICall.SEND, 0, size, tag=2))
    return trace


def expected_exec_time(size, links):
    one_way = L + (links - 1) * (min(SEG, size / B) + H) + size / B
    if size > EAGER_THRESHOLD_BYTES:
        one_way += 2 * L
    return 2 * one_way


def run_single(trace, cfg, fabric):
    return replay_baseline(trace, cfg, fabric=fabric).exec_time_us


def run_cluster(trace, cfg, fabric):
    job = ClusterJob(
        job=Job(index=0, app="alya", nranks=2, arrival_us=0.0),
        trace=trace,
        programs=compile_trace(trace) if cfg.kernel == "fast" else None,
    )
    result = replay_cluster_baseline(
        [job], cfg, num_hosts=fabric.topo.num_hosts, fabric=fabric
    )
    assert result.jobs[0].hosts == (0, 1)
    return result.exec_time_us


@pytest.mark.parametrize("driver", (run_single, run_cluster),
                         ids=("replay_baseline", "cluster"))
@pytest.mark.parametrize("kernel", ("fast", "reference"))
@pytest.mark.parametrize("placement", tuple(PLACEMENTS))
@pytest.mark.parametrize("size", SIZES)
def test_ping_pong_matches_hand_arithmetic(driver, kernel, placement, size):
    num_hosts, links = PLACEMENTS[placement]
    cfg = ReplayConfig(seed=3, kernel=kernel)
    fabric = fabric_for(num_hosts, cfg)
    assert len(fabric.routes.path(0, 1)) - 1 == links

    exec_time = driver(ping_pong(size), cfg, fabric)

    assert exec_time == pytest.approx(
        expected_exec_time(size, links), rel=1e-12
    )
    for host in (0, 1):
        link = fabric.host_link(host)
        for channel in (link.forward, link.backward):
            assert channel.busy_us() == pytest.approx(size / B, rel=1e-12)


#: rank 1's compute before its receive in the late-receiver cases (> L)
C = 10 * L
RENDEZVOUS = SIZES[-1]


def send_ops(kind, peer, size, tag):
    if kind == "SEND":
        return [PointToPoint(MPICall.SEND, peer, size, tag=tag)]
    return [PointToPoint(MPICall.ISEND, peer, size, tag=tag),
            PointToPoint(MPICall.WAITALL, 0, 0, 0)]


def recv_ops(kind, peer, size, tag):
    if kind == "RECV":
        return [PointToPoint(MPICall.RECV, peer, size, tag=tag)]
    if kind == "IRECV+WAITALL":
        return [PointToPoint(MPICall.IRECV, peer, size, tag=tag),
                PointToPoint(MPICall.WAITALL, 0, 0, 0)]
    return [PointToPoint(MPICall.SENDRECV, peer, size, tag=tag)]


def late_ping_pong(size, send_kind, recv_kind):
    """The late-receiver trace, and how many ops rank 0's ping send and
    rank 1's ping receive take."""

    pong_tag = 1 if recv_kind == "SENDRECV" else 2
    ping_send = send_ops(send_kind, 1, size, 1)
    ping_recv = recv_ops(recv_kind, 0, size, 1)
    trace = Trace.empty("late-pingpong", 2)
    trace[0].records += ping_send + recv_ops("RECV", 1, size, pong_tag)
    trace[1].records += [Compute(C)] + ping_recv
    if recv_kind != "SENDRECV":
        trace[1].records += send_ops(send_kind, 0, size, pong_tag)
    return trace, len(ping_send), len(ping_recv)


@pytest.mark.parametrize("kernel", ("fast", "reference"))
@pytest.mark.parametrize("placement", tuple(PLACEMENTS))
@pytest.mark.parametrize("send_kind", ("SEND", "ISEND+WAITALL"))
@pytest.mark.parametrize("recv_kind", ("RECV", "IRECV+WAITALL", "SENDRECV"))
def test_late_receiver_rendezvous(kernel, placement, send_kind, recv_kind):
    num_hosts, links = PLACEMENTS[placement]
    cfg = ReplayConfig(seed=3, kernel=kernel)
    fabric = fabric_for(num_hosts, cfg)
    size = RENDEZVOUS
    ser = size / B
    d = L + (links - 1) * (min(SEG, ser) + H) + ser
    ping_lands = C + L + d
    if recv_kind == "SENDRECV":
        exec_time = C + 3 * L + ser + d
        rank1_end = C + 4 * L + 2 * ser
    else:
        exec_time = C + 3 * L + 2 * d
        rank1_end = ping_lands + 3 * L + ser
    trace, send_len, recv_len = late_ping_pong(size, send_kind, recv_kind)

    result = replay_baseline(trace, cfg, fabric=fabric)

    # event logs hold MPI calls only: rank 1's compute burst is not one
    rank0, rank1 = result.event_logs
    assert [ev.exit_us for ev in (rank0[send_len - 1], rank0[-1], rank1[-1])] \
        == pytest.approx([C + 2 * L + ser, exec_time, rank1_end], rel=1e-12)
    assert result.exec_time_us == pytest.approx(exec_time, rel=1e-12)
    if recv_kind != "SENDRECV":
        assert rank1[recv_len - 1].exit_us == pytest.approx(
            ping_lands, rel=1e-12
        )
    for host in (0, 1):
        link = fabric.host_link(host)
        for channel in (link.forward, link.backward):
            assert channel.busy_us() == pytest.approx(ser, rel=1e-12)
