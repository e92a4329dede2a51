"""Mutation smoke tests: every invariant class must actually fire.

A checker that never fails is indistinguishable from no checker.  Each
test seeds one deliberate violation — either end-to-end (mutating live
model state mid-run) or at the hook level with real connected objects —
and asserts the corresponding :class:`ConformanceError`.
"""

import pytest

from repro.check import ConformanceError
from repro.providers import Testbed
from repro.via import Descriptor
from repro.via.constants import CompletionStatus, Reliability, ViState
from repro.via.descriptor import DataSegment

from conftest import connected_endpoints, run_pair, run_proc


def _connected(provider="mvia", reliability=None):
    """Checked testbed with an established connection on each side."""
    tb = Testbed(provider, check=True)
    c_setup, s_setup = connected_endpoints(tb, reliability=reliability)
    got = {}

    def c():
        got["c"] = yield from c_setup()

    def s():
        got["s"] = yield from s_setup()

    run_pair(tb, c(), s())
    return tb, got["c"], got["s"]


def test_fifo_reorder_caught_end_to_end():
    """Seed a self-consistent completion reordering inside the live
    receive queue; the shadow FIFO must still catch it."""
    tb, (hc, vic, rc, mhc), (hs, vis, rs, mhs) = _connected()

    def server_mutated():
        d1 = Descriptor.recv([hs.segment(rs, mhs, 0, 64)])
        d2 = Descriptor.recv([hs.segment(rs, mhs, 64, 64)])
        yield from hs.post_recv(vis, d1)
        yield from hs.post_recv(vis, d2)
        # the seeded bug: swap BOTH queue views so the model stays
        # internally consistent while violating posted order
        q, c = vis.recv_q.posted, vis.recv_q._claimable
        q[0], q[1] = q[1], q[0]
        c[0], c[1] = c[1], c[0]
        yield from hs.recv_wait(vis)

    def client_send():
        d = Descriptor.send([hc.segment(rc, mhc, 0, 64)])
        yield from hc.post_send(vic, d)
        yield from hc.send_wait(vic)

    with pytest.raises(ConformanceError, match="FIFO violation"):
        run_pair(tb, client_send(), server_mutated())


def test_double_completion_fires():
    tb, _, (hs, vis, rs, mhs) = _connected()
    d = Descriptor.recv([hs.segment(rs, mhs, 0, 64)])
    run_proc(tb.sim, hs.post_recv(vis, d))
    d.control.status = CompletionStatus.SUCCESS
    tb.checker.on_complete(vis.recv_q, d, CompletionStatus.SUCCESS)
    with pytest.raises(ConformanceError, match="not posted"):
        tb.checker.on_complete(vis.recv_q, d, CompletionStatus.SUCCESS)


def test_completion_without_status_writeback_fires():
    tb, _, (hs, vis, rs, mhs) = _connected()
    d = Descriptor.recv([hs.segment(rs, mhs, 0, 64)])
    run_proc(tb.sim, hs.post_recv(vis, d))
    # model "completes" the head but forgot the status writeback
    with pytest.raises(ConformanceError, match="PENDING"):
        tb.checker.on_complete(vis.recv_q, d, CompletionStatus.PENDING)


def test_cq_deposit_before_writeback_fires():
    tb, _, (hs, vis, rs, mhs) = _connected()
    pending = Descriptor.recv([hs.segment(rs, mhs, 0, 64)])
    with pytest.raises(ConformanceError, match="precedes"):
        tb.checker.on_cq_deposit(_FakeCq(), vis.recv_q, pending)
    orphan = Descriptor.recv([hs.segment(rs, mhs, 0, 64)])
    orphan.control.status = CompletionStatus.SUCCESS
    with pytest.raises(ConformanceError, match="without a completed"):
        tb.checker.on_cq_deposit(_FakeCq(), vis.recv_q, orphan)


class _FakeCq:
    cq_id = 999


def test_illegal_vi_transition_fires():
    tb, (hc, vic, _rc, _mhc), _ = _connected()
    with pytest.raises(ConformanceError, match="illegal transition"):
        tb.checker.on_vi_transition(vic, ViState.IDLE, ViState.ERROR)


def test_dma_through_deregistered_handle_fires():
    tb, (hc, vic, rc, mhc), _ = _connected()
    d = Descriptor.send([hc.segment(rc, mhc, 0, 64)])
    run_proc(tb.sim, hc.deregister_mem(mhc))
    with pytest.raises(ConformanceError, match="deregistered handle"):
        tb.checker.on_local_dma(tb.provider(tb.node_names[0]), vic, d)


def test_deregister_under_posted_descriptor_fires():
    tb, _, (hs, vis, rs, mhs) = _connected()
    d = Descriptor.recv([hs.segment(rs, mhs, 0, 64)])
    run_proc(tb.sim, hs.post_recv(vis, d))
    with pytest.raises(ConformanceError, match="still references"):
        run_proc(tb.sim, hs.deregister_mem(mhs))


def test_dma_outside_registered_range_fires():
    tb, (hc, vic, rc, mhc), _ = _connected()
    overrun = DataSegment(rc.base + rc.length - 8, 64, mhc)
    beyond = Descriptor.send([overrun])
    with pytest.raises(ConformanceError, match="outside handle"):
        tb.checker.on_local_dma(tb.provider(tb.node_names[0]), vic, beyond)


def test_retransmission_on_unreliable_vi_fires():
    tb, (hc, vic, _rc, _mhc), _ = _connected(
        reliability=Reliability.UNRELIABLE)
    with pytest.raises(ConformanceError, match="UNRELIABLE"):
        tb.checker.on_retransmit(vic)


def test_out_of_order_reliable_delivery_fires():
    tb, _, (hs, vis, _rs, _mhs) = _connected(
        reliability=Reliability.RELIABLE_DELIVERY)
    tb.checker.on_deliver(vis, 0)
    with pytest.raises(ConformanceError, match="out of order"):
        tb.checker.on_deliver(vis, 2)


def test_duplicate_datagram_delivery_fires():
    tb, _, (hs, vis, _rs, _mhs) = _connected(
        reliability=Reliability.UNRELIABLE)
    tb.checker.on_deliver(vis, 0)
    tb.checker.on_deliver(vis, 3)       # gaps are legal datagrams
    with pytest.raises(ConformanceError, match="duplicate delivery"):
        tb.checker.on_deliver(vis, 1)


def test_packet_conservation_audit_fires():
    tb, client, server = _connected()
    hc, vic, rc, mhc = client
    hs, vis, rs, mhs = server

    def c():
        hc.write(rc, b"x" * 32)
        segs = [hc.segment(rc, mhc, 0, 32)]
        yield from hc.post_send(vic, Descriptor.send(segs))
        yield from hc.send_wait(vic)

    def s():
        segs = [hs.segment(rs, mhs, 0, 32)]
        yield from hs.post_recv(vis, Descriptor.recv(segs))
        yield from hs.recv_wait(vis)

    run_pair(tb, c(), s())
    tb.run()                                 # drain to quiesce
    tb.checker.check_quiesced(tb)            # clean audit passes
    channel = tb.fabric.node(tb.node_names[0]).nic.port
    channel.sent_packets += 1                # seeded accounting bug
    with pytest.raises(ConformanceError, match="conservation"):
        tb.checker.check_quiesced(tb)
