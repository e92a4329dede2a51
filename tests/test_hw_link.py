"""Unit tests for channels and packets."""

import pytest

from repro.hw.link import Channel, Packet
from repro.sim import Simulator

from conftest import run_proc


def make_channel(sim, **kw):
    defaults = dict(bandwidth=100.0, prop_delay=1.0)
    defaults.update(kw)
    ch = Channel(sim, **defaults)
    got = []
    ch.sink = lambda pkt: got.append((pkt, sim.now))
    return ch, got


def test_packet_validation():
    with pytest.raises(ValueError):
        Packet(src="a", dst="b", kind="x", size=-1)


def test_serialization_plus_propagation():
    sim = Simulator()
    ch, got = make_channel(sim, bandwidth=100.0, prop_delay=1.0)
    pkt = Packet(src="a", dst="b", kind="data", size=1000)

    def body():
        yield from ch.send(pkt)
        return sim.now

    sent_at = run_proc(sim, body())
    sim.run()
    assert sent_at == pytest.approx(10.0)         # 1000B / 100B-per-us
    assert got[0][1] == pytest.approx(11.0)       # + 1us propagation


def test_header_and_per_packet_overhead():
    sim = Simulator()
    ch, got = make_channel(sim, bandwidth=100.0, prop_delay=0.0,
                           header_bytes=100, per_packet_cost=2.0)
    pkt = Packet(src="a", dst="b", kind="data", size=100)
    assert ch.serialization_time(pkt) == pytest.approx(2.0 + 2.0)
    run_proc(sim, ch.send(pkt))
    sim.run()
    assert got[0][1] == pytest.approx(4.0)


def test_back_to_back_packets_pipeline():
    """Serialisation occupies the line; propagation does not."""
    sim = Simulator()
    ch, got = make_channel(sim, bandwidth=100.0, prop_delay=5.0)

    def sender():
        for i in range(3):
            yield from ch.send(Packet("a", "b", "data", 1000))

    run_proc(sim, sender())
    sim.run()
    times = [t for _p, t in got]
    # arrivals spaced by serialisation time (10), not ser+prop (15)
    assert times == [pytest.approx(15.0), pytest.approx(25.0),
                     pytest.approx(35.0)]


def test_fifo_delivery_order():
    sim = Simulator()
    ch, got = make_channel(sim)

    def sender():
        for i in range(5):
            yield from ch.send(Packet("a", "b", "data", 10, payload=i))

    run_proc(sim, sender())
    sim.run()
    assert [p.payload for p, _t in got] == [0, 1, 2, 3, 4]


def test_loss_rate_drops_deterministically_with_seed():
    import random

    sim = Simulator()
    ch = Channel(sim, bandwidth=100.0, prop_delay=0.0, loss_rate=0.5,
                 rng=random.Random(42))
    got = []
    ch.sink = lambda pkt: got.append(pkt)

    def sender():
        for i in range(100):
            yield from ch.send(Packet("a", "b", "data", 1))

    run_proc(sim, sender())
    sim.run()
    assert ch.sent_packets == 100
    assert 30 < ch.dropped_packets < 70
    assert len(got) == 100 - ch.dropped_packets


def test_channel_requires_sink():
    sim = Simulator()
    ch = Channel(sim, bandwidth=1.0, prop_delay=0.0)
    with pytest.raises(RuntimeError):
        run_proc(sim, ch.send(Packet("a", "b", "x", 1)))


def test_channel_parameter_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Channel(sim, bandwidth=0.0, prop_delay=0.0)
    with pytest.raises(ValueError):
        Channel(sim, bandwidth=1.0, prop_delay=-1.0)
    with pytest.raises(ValueError):
        Channel(sim, bandwidth=1.0, prop_delay=0.0, loss_rate=1.0)


def test_byte_accounting():
    sim = Simulator()
    ch, _ = make_channel(sim)
    run_proc(sim, ch.send(Packet("a", "b", "d", 123)))
    sim.run()
    assert ch.sent_bytes == 123
