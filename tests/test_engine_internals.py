"""Direct tests of engine internals and rare wire conditions."""

import pytest

from repro.hw.link import Packet
from repro.obs.harvest import harvest_testbed
from repro.obs.profile import profile_transfer
from repro.providers import Testbed, get_spec
from repro.providers.engine import AckPayload, DataFrag, RdmaReadReq
from repro.via import CompletionStatus, Descriptor, Reliability

from conftest import (connected_endpoints, run_pair, run_proc, simple_recv,
                      simple_send)


def _inject(tb, src, dst, kind, size, payload):
    """Transmit a hand-crafted packet from src to dst."""
    def body():
        pkt = Packet(src=src, dst=dst, kind=kind, size=size, payload=payload)
        yield from tb.provider(src).node.nic.transmit(pkt)
        yield tb.sim.timeout(200.0)

    run_proc(tb.sim, body())
    tb.run()


def test_ack_for_unknown_message_ignored():
    tb = Testbed("clan")
    _inject(tb, "node0", "node1", "via-ack", 16,
            AckPayload(dst_vi=999, seq=7, kind="ack"))
    # no crash, nothing tracked
    assert not tb.provider("node1").engine._unacked


def test_nak_read_for_unknown_read_ignored():
    tb = Testbed("clan")
    _inject(tb, "node0", "node1", "via-ack", 16,
            AckPayload(dst_vi=1, seq=12345, kind="nak_read"))
    assert not tb.provider("node1").engine._pending_reads


def test_read_resp_for_unknown_read_dropped():
    tb = Testbed("clan")
    _inject(tb, "node0", "node1", "via-data", 8,
            DataFrag(src_vi=1, dst_vi=2, seq=0, frag=0, nfrags=1,
                     offset=0, total_len=8, data=b"orphaned",
                     op="read_resp", read_id=777))
    assert tb.provider("node1").engine.drops >= 1


def test_read_req_to_unknown_vi_dropped():
    tb = Testbed("clan")
    _inject(tb, "node0", "node1", "via-read", 16,
            RdmaReadReq(src_vi=1, dst_vi=31337, read_id=1,
                        remote_addr=0x1000, remote_handle=1, length=8))
    assert tb.provider("node1").engine.drops >= 1


def test_trailing_fragment_without_state_dropped():
    """A fragment with frag>0 arriving with no reassembly state (e.g.
    after a drop) is discarded quietly."""
    tb = Testbed("clan")
    cs, ss = connected_endpoints(tb)
    vis = {}

    def client():
        h, vi, region, mh = yield from cs()
        vis["client"] = vi
        while "server" not in vis:
            yield tb.sim.timeout(1.0)
        frag = DataFrag(src_vi=vi.vi_id, dst_vi=vis["server"].vi_id,
                        seq=5, frag=1, nfrags=3, offset=100,
                        total_len=300, data=b"x" * 100, op="send")
        pkt = Packet(src="node0", dst="node1", kind="via-data", size=100,
                     payload=frag)
        yield from h.node.nic.transmit(pkt)
        yield tb.sim.timeout(200.0)

    def server():
        h, vi, region, mh = yield from ss()
        vis["server"] = vi
        yield tb.sim.timeout(400.0)

    run_pair(tb, client(), server())
    assert tb.provider("node1").engine.drops >= 1


def test_retransmit_timer_stops_after_ack():
    """Timers armed under loss-possible conditions do nothing once the
    ack lands — no spurious retransmissions."""
    tb = Testbed("clan", loss_rate=0.000001, seed=2)  # timers armed
    cs, ss = connected_endpoints(
        tb, reliability=Reliability.RELIABLE_DELIVERY)

    def client():
        h, vi, region, mh = yield from cs()
        for _ in range(5):
            yield from simple_send(h, vi, region, mh, b"steady")
        # outlive the rto period to let every timer fire and observe
        yield tb.sim.timeout(5_000.0)

    def server():
        h, vi, region, mh = yield from ss()
        segs = [h.segment(region, mh, 0, 8)]
        for _ in range(5):
            yield from h.post_recv(vi, Descriptor.recv(segs))
            yield from h.recv_wait(vi)

    run_pair(tb, client(), server())
    assert tb.provider("node0").engine.retransmissions == 0
    assert not tb.provider("node0").engine._unacked


def test_unreliable_vi_with_loss_simply_loses():
    tb = Testbed("bvia", loss_rate=0.999999, seed=1)
    # the handshake needs the wire: disable loss, connect, re-enable
    channels = [tb.fabric.node(n).nic.port
                for n in tb.node_names]
    for ch in channels:
        ch.loss_rate = 0.0
    cs, ss = connected_endpoints(tb)
    out = {}

    def client():
        h, vi, region, mh = yield from cs()
        for ch in channels:
            ch.loss_rate = 0.999999
        desc = yield from simple_send(h, vi, region, mh, b"gone")
        out["send_status"] = desc.status  # local completion regardless

    def server():
        h, vi, region, mh = yield from ss()
        segs = [h.segment(region, mh, 0, 8)]
        yield from h.post_recv(vi, Descriptor.recv(segs))
        yield tb.sim.timeout(10_000.0)
        out["outstanding"] = vi.recv_q.outstanding

    run_pair(tb, client(), server())
    assert out["send_status"] is CompletionStatus.SUCCESS
    assert out["outstanding"] == 1  # never completed: the message is gone


def test_control_packet_unknown_type_rejected():
    tb = Testbed("clan")
    from repro.via import VipInvalidParameter

    with pytest.raises(VipInvalidParameter):
        tb.provider("node0").handle_control_packet(object())


def test_registry_unknown_provider():
    with pytest.raises(KeyError, match="unknown provider"):
        get_spec("nonexistent")


def test_spec_builders_return_new_specs():
    spec = get_spec("bvia")
    faster = spec.with_costs(post_cost=0.1)
    assert faster.costs.post_cost == 0.1
    assert spec.costs.post_cost != 0.1
    from repro.providers.costs import DispatchKind

    direct = spec.with_choices(dispatch=DispatchKind.DIRECT)
    assert direct.choices.dispatch is DispatchKind.DIRECT
    assert spec.choices.dispatch is not DispatchKind.DIRECT
    from repro.hw import GIGE

    moved = spec.with_network(GIGE)
    assert moved.network is GIGE


def test_costmodel_scaled():
    costs = get_spec("clan").costs
    double = costs.scaled(2.0)
    assert double.vi_create == costs.vi_create * 2
    assert double.tlb_miss == costs.tlb_miss * 2
    # limits are not scaled
    assert double.max_transfer_size == costs.max_transfer_size


def test_transport_failure_breaks_the_connection():
    """Exhausted retries are a connection-level event: the VI moves to
    ERROR and its remaining work is flushed (VIA catastrophic-error
    semantics)."""
    from repro.via import ViState

    spec = get_spec("clan").with_costs(rto=100.0, max_retries=2)
    tb = Testbed(spec, loss_rate=0.999999, seed=1)
    channels = [tb.fabric.node(n).nic.port
                for n in tb.node_names]
    rates = [ch.loss_rate for ch in channels]
    for ch in channels:
        ch.loss_rate = 0.0
    cs, ss = connected_endpoints(
        tb, reliability=Reliability.RELIABLE_DELIVERY)
    out = {}

    def client():
        h, vi, region, mh = yield from cs()
        for ch, rate in zip(channels, rates):
            ch.loss_rate = rate
        segs = [h.segment(region, mh, 0, 8)]
        # two sends: the first fails, the second must be FLUSHED
        yield from h.post_send(vi, Descriptor.send(segs))
        yield from h.post_send(vi, Descriptor.send(segs))
        first = yield from h.send_wait(vi, timeout=60_000.0)
        second = yield from h.send_wait(vi, timeout=60_000.0)
        out["first"] = first.status
        out["second"] = second.status
        out["state"] = vi.state

    def server():
        h, vi, region, mh = yield from ss()
        segs = [h.segment(region, mh, 0, 8)]
        yield from h.post_recv(vi, Descriptor.recv(segs))

    run_pair(tb, client(), server())
    assert out["first"] is CompletionStatus.TRANSPORT_ERROR
    assert out["second"] is CompletionStatus.FLUSHED
    assert out["state"] is ViState.ERROR


@pytest.mark.parametrize("fidelity, frags", [("auto", 0), ("packet", 8 * 64)])
def test_fast_forward_builds_no_fragments(monkeypatch, fidelity, frags):
    """A fast-forwarded message is planned from its geometry: no
    DataFrag exists unless the packet path runs (64 per message here)."""
    made = []

    class CountingFrag(DataFrag):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self.frag)

    monkeypatch.setattr("repro.providers.engine.DataFrag", CountingFrag)
    size, count = 65_536, 8
    payloads = [bytes([i + 1]) * size for i in range(count)]
    received = []
    tb = Testbed("clan", mtu=1024, fidelity=fidelity)
    client_setup, server_setup = connected_endpoints(tb, bufsize=size)

    def client():
        ep = yield from client_setup()
        for data in payloads:
            yield from simple_send(*ep, data)

    def server():
        h, vi, region, mh = yield from server_setup()
        for _ in payloads:
            _, data = yield from simple_recv(h, vi, region, mh, size)
            received.append(data)

    run_pair(tb, client(), server())
    assert received == payloads
    assert len(made) == frags
    assert tb.sim.ff_bursts == (count if fidelity == "auto" else 0)


@pytest.mark.parametrize("fidelity", ["auto", "packet"])
def test_fast_forward_declines_are_counted_by_reason(fidelity):
    """A one-fragment send at ``auto`` declines as ``single_fragment``;
    packet mode never plans, so its harvest names no decline and keeps
    its bytes.  ``vibe profile`` prints the count under fast-forward."""
    tb = Testbed("clan", fidelity=fidelity)
    client_setup, server_setup = connected_endpoints(tb, bufsize=64)

    def client():
        ep = yield from client_setup()
        yield from simple_send(*ep, b"x" * 64)

    def server():
        h, vi, region, mh = yield from server_setup()
        yield from simple_recv(h, vi, region, mh, 64)

    run_pair(tb, client(), server())
    declines = {name: m["value"]
                for name, m in harvest_testbed(tb).snapshot().items()
                if name.startswith("sim.ff.decline.")}
    if fidelity == "packet":
        assert declines == {}
        return
    assert declines == {"sim.ff.decline.single_fragment": 1}
    summary = profile_transfer("clan", fidelity=fidelity).summary()
    assert "declined            2  single_fragment" in summary
