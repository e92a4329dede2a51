"""Cross-cutting TransferConfig combinations and remaining corners."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.providers import Testbed
from repro.via import Reliability, VipTimeout
from repro.via.constants import WaitMode
from repro.vibe import TransferConfig, run_bandwidth, run_latency
from repro.vibe.rusage import cpu_utilization, getrusage

from conftest import run_proc


def test_blocking_bandwidth_works(provider_name):
    m = run_bandwidth(provider_name,
                      TransferConfig(size=4096, count=30,
                                     mode=WaitMode.BLOCK))
    assert m.bandwidth_mbs > 0
    # blocking frees the receiver's CPU while streaming
    assert m.cpu_recv < 1.0


def test_send_cq_bandwidth(provider_name):
    m = run_bandwidth(provider_name,
                      TransferConfig(size=1024, count=30, use_send_cq=True))
    assert m.bandwidth_mbs > 0


def test_both_cqs_latency(provider_name):
    m = run_latency(provider_name,
                    TransferConfig(size=64, use_send_cq=True,
                                   use_recv_cq=True))
    assert m.latency_us > 0


def test_reliability_override_with_cq_and_segments():
    m = run_latency("clan", TransferConfig(
        size=4096, segments=4, use_recv_cq=True,
        reliability=Reliability.RELIABLE_RECEPTION,
    ))
    assert m.latency_us > 0


def test_mtu_and_reuse_combined():
    m = run_latency("bvia", TransferConfig(
        size=16384, mtu=2048, buffer_pool=8, reuse_fraction=0.5, iters=16,
    ))
    base = run_latency("bvia", TransferConfig(size=16384, mtu=2048,
                                              iters=16))
    assert m.latency_us > base.latency_us  # reuse misses on top of MTU


def test_latency_insensitive_to_seed(provider_name):
    """The base path has no randomness: seeds must not matter."""
    a = run_latency(provider_name, TransferConfig(size=256), seed=0)
    b = run_latency(provider_name, TransferConfig(size=256), seed=99)
    assert a.latency_us == b.latency_us


def test_connect_wait_server_timeout():
    tb = Testbed("clan")

    def server():
        h = tb.open("node1", "server")
        with pytest.raises(VipTimeout):
            yield from h.connect_wait(5, timeout=1000.0)

    run_proc(tb.sim, server())


def test_rusage_module_roundtrip():
    tb = Testbed("clan")
    h = tb.open("node0", "app")

    def body():
        before = getrusage(h)
        yield from h.actor.busy(10.0)
        yield from h.actor.busy(5.0, "sys")
        after = getrusage(h)
        assert cpu_utilization(before, after, 30.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            cpu_utilization(before, after, 0.0)

    run_proc(tb.sim, body())


@given(st.floats(min_value=0.01, max_value=0.15),
       st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_reliable_delivery_survives_any_loss_rate(loss, seed):
    """Property: under any plausible loss rate, every reliably-sent
    message is delivered exactly once, in order."""
    from repro.via import Descriptor
    from conftest import connected_endpoints, run_pair, simple_recv

    tb = Testbed("clan", loss_rate=loss, seed=seed)
    # keep the handshake off the lossy wire
    channels = [tb.fabric.node(n).nic.port
                for n in tb.node_names]
    for ch in channels:
        ch.loss_rate = 0.0
    cs, ss = connected_endpoints(
        tb, reliability=Reliability.RELIABLE_DELIVERY)
    n = 10
    got = []

    def client():
        h, vi, region, mh = yield from cs()
        for ch in channels:
            ch.loss_rate = loss
        for i in range(n):
            h.write(region, bytes([i]) * 4)
            segs = [h.segment(region, mh, 0, 4)]
            yield from h.post_send(vi, Descriptor.send(segs))
            yield from h.send_wait(vi, timeout=500_000.0)

    def server():
        h, vi, region, mh = yield from ss()
        for _ in range(n):
            _desc, data = yield from simple_recv(h, vi, region, mh, 4)
            got.append(data[0])

    run_pair(tb, client(), server())
    assert got == list(range(n))
