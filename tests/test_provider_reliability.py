"""Provider tests: reliability levels, loss, retransmission, duplicates."""

import pytest

from repro.providers import Testbed, get_spec
from repro.via import CompletionStatus, Descriptor, Reliability

from conftest import connected_endpoints, run_pair, simple_recv, simple_send


def test_unreliable_send_completes_locally(provider_name):
    """With no receiver descriptor and UNRELIABLE service the send still
    completes (fire and forget)."""
    tb = Testbed(provider_name)
    cs, ss = connected_endpoints(tb, reliability=Reliability.UNRELIABLE)
    result = {}

    def client():
        h, vi, region, mh = yield from cs()
        desc = yield from simple_send(h, vi, region, mh, b"void")
        result["status"] = desc.status

    def server():
        h, vi, region, mh = yield from ss()
        # never posts a receive

    run_pair(tb, client(), server())
    assert result["status"] is CompletionStatus.SUCCESS


@pytest.mark.parametrize("level", [Reliability.RELIABLE_DELIVERY,
                                   Reliability.RELIABLE_RECEPTION])
def test_reliable_send_completes_after_ack(provider_name, level):
    tb = Testbed(provider_name)
    cs, ss = connected_endpoints(tb, reliability=level)
    result = {}

    def client():
        h, vi, region, mh = yield from cs()
        desc = yield from simple_send(h, vi, region, mh, b"acked")
        result["status"] = desc.status
        result["acks"] = tb.provider("node0").engine.messages_sent

    def server():
        h, vi, region, mh = yield from ss()
        _desc, data = yield from simple_recv(h, vi, region, mh, 64)
        result["data"] = data

    run_pair(tb, client(), server())
    assert result["status"] is CompletionStatus.SUCCESS
    assert result["data"] == b"acked"


def test_loss_recovery_with_retransmission(provider_name):
    tb = Testbed(provider_name, loss_rate=0.3, seed=3)
    cs, ss = connected_endpoints(
        tb, reliability=Reliability.RELIABLE_DELIVERY)
    n = 12
    result = {"got": []}

    def client():
        h, vi, region, mh = yield from cs()
        for i in range(n):
            h.write(region, bytes([i]) * 8)
            segs = [h.segment(region, mh, 0, 8)]
            yield from h.post_send(vi, Descriptor.send(segs))
            desc = yield from h.send_wait(vi)
            assert desc.status is CompletionStatus.SUCCESS

    def server():
        h, vi, region, mh = yield from ss()
        for i in range(n):
            _desc, data = yield from simple_recv(h, vi, region, mh, 8)
            result["got"].append(data)

    run_pair(tb, client(), server())
    assert result["got"] == [bytes([i]) * 8 for i in range(n)]
    assert tb.provider("node0").engine.retransmissions > 0


def test_duplicates_do_not_consume_extra_descriptors():
    """Force an ack loss so the sender retransmits an already-delivered
    message; the receiver must filter it (exactly-once semantics)."""
    tb = Testbed("clan", loss_rate=0.25, seed=11)
    cs, ss = connected_endpoints(
        tb, reliability=Reliability.RELIABLE_DELIVERY)
    n = 30
    result = {}

    def client():
        h, vi, region, mh = yield from cs()
        for i in range(n):
            h.write(region, bytes([i, i, i, i]))
            segs = [h.segment(region, mh, 0, 4)]
            yield from h.post_send(vi, Descriptor.send(segs))
            yield from h.send_wait(vi)

    def server():
        h, vi, region, mh = yield from ss()
        seen = []
        for i in range(n):
            _desc, data = yield from simple_recv(h, vi, region, mh, 4)
            seen.append(data[0])
        result["seen"] = seen
        result["outstanding"] = vi.recv_q.outstanding

    run_pair(tb, client(), server())
    # every message delivered exactly once, in order
    assert result["seen"] == list(range(n))
    assert result["outstanding"] == 0


def test_transport_error_after_retries_exhausted():
    """100% loss: a reliable send must eventually fail, not hang."""
    spec = get_spec("clan").with_costs(rto=100.0, max_retries=3)
    tb = Testbed(spec, loss_rate=0.999999, seed=1)
    cs, ss = connected_endpoints(
        tb, reliability=Reliability.RELIABLE_DELIVERY)
    result = {}

    def client():
        h, vi, region, mh = yield from cs()
        while not result.get("armed"):
            yield tb.sim.timeout(10.0)
        desc = yield from simple_send(h, vi, region, mh, b"doomed")
        result["status"] = desc.status

    def server():
        h, vi, region, mh = yield from ss()
        segs = [h.segment(region, mh, 0, 8)]
        yield from h.post_recv(vi, Descriptor.recv(segs))

    # The connection handshake rides the same lossy uplinks, so hold the
    # loss off until both sides are connected, then let it eat the data.
    channels = [tb.fabric.node(n).nic.port
                for n in tb.node_names]
    rates = [ch.loss_rate for ch in channels]
    for ch in channels:
        ch.loss_rate = 0.0

    def arm_loss():
        yield tb.sim.timeout(3000.0)  # well past the cLAN connect cost
        for ch, rate in zip(channels, rates):
            ch.loss_rate = rate
        result["armed"] = True

    cproc = tb.spawn(client(), "client")
    tb.spawn(server(), "server")
    tb.spawn(arm_loss(), "arm-loss")
    tb.run(cproc)
    assert result["status"] is CompletionStatus.TRANSPORT_ERROR


def test_reliable_delivery_faster_or_equal_to_reception_for_sender():
    """Send completion: delivery acks fire before placement, reception
    acks after — the sender sees delivery first."""
    times = {}
    for level in (Reliability.RELIABLE_DELIVERY,
                  Reliability.RELIABLE_RECEPTION):
        tb = Testbed("clan")
        cs, ss = connected_endpoints(tb, reliability=level, bufsize=32768)
        out = {}

        def client():
            h, vi, region, mh = yield from cs()
            t0 = tb.now
            yield from simple_send(h, vi, region, mh, b"z" * 28672)
            out["t"] = tb.now - t0

        def server():
            h, vi, region, mh = yield from ss()
            yield from simple_recv(h, vi, region, mh, 28672)

        run_pair(tb, client(), server())
        times[level] = out["t"]
    assert times[Reliability.RELIABLE_DELIVERY] <= \
        times[Reliability.RELIABLE_RECEPTION]
