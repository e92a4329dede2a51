"""Unit tests for fabric presets, switch forwarding, and topology."""

import pytest

from repro.hw import GIGANET, GIGE, MYRINET, Fabric, Packet
from repro.sim import Simulator

from conftest import run_proc


def deliver_one(params, size=1000):
    sim = Simulator()
    fab = Fabric(sim, params)
    got = []
    fab.node("node1").nic.rx_handler = lambda p: got.append(sim.now)

    def body():
        yield from fab.node("node0").nic.transmit(
            Packet("node0", "node1", "data", size)
        )

    run_proc(sim, body())
    sim.run()
    return got[0]


def test_presets_have_expected_relative_latency():
    t_myri = deliver_one(MYRINET)
    t_gige = deliver_one(GIGE)
    t_clan = deliver_one(GIGANET)
    # store-and-forward Ethernet pays double serialisation + switch
    assert t_gige > t_myri
    assert t_gige > t_clan


def test_gige_store_and_forward_doubles_serialisation():
    t = deliver_one(GIGE, size=1500)
    ser = (1500 + GIGE.header_bytes) / GIGE.bandwidth + GIGE.per_packet_cost
    # two serialisations (uplink + downlink) plus fixed delays
    fixed = 2 * GIGE.prop_delay + GIGE.switch_latency
    assert t == pytest.approx(2 * ser + fixed, rel=0.01)


def test_cut_through_single_serialisation():
    t = deliver_one(MYRINET, size=16000)
    ser = (16000 + MYRINET.header_bytes) / MYRINET.bandwidth \
        + MYRINET.per_packet_cost
    fixed = 2 * MYRINET.prop_delay + MYRINET.switch_latency
    assert t == pytest.approx(ser + fixed, rel=0.02)


def test_switch_rejects_unknown_destination():
    sim = Simulator()
    fab = Fabric(sim, MYRINET)

    def body():
        yield from fab.node("node0").nic.transmit(
            Packet("node0", "nowhere", "data", 10)
        )

    with pytest.raises(KeyError):
        run_proc(sim, body())
        sim.run()


def test_three_node_fabric():
    sim = Simulator()
    fab = Fabric(sim, GIGANET, node_names=("a", "b", "c"))
    got = {"b": [], "c": []}
    fab.node("b").nic.rx_handler = lambda p: got["b"].append(p.payload)
    fab.node("c").nic.rx_handler = lambda p: got["c"].append(p.payload)

    def body():
        yield from fab.node("a").nic.transmit(Packet("a", "b", "d", 1, "to-b"))
        yield from fab.node("a").nic.transmit(Packet("a", "c", "d", 1, "to-c"))

    run_proc(sim, body())
    sim.run()
    assert got == {"b": ["to-b"], "c": ["to-c"]}


def test_duplicate_node_names_rejected():
    with pytest.raises(ValueError):
        Fabric(Simulator(), MYRINET, node_names=("x", "x"))


def test_with_loss_and_mtu_builders():
    lossy = GIGE.with_loss(0.1)
    assert lossy.loss_rate == 0.1 and GIGE.loss_rate == 0.0
    small = MYRINET.with_mtu(512)
    assert small.mtu == 512 and MYRINET.mtu == 32768
    with pytest.raises(ValueError):
        MYRINET.with_mtu(10)


def test_nodes_get_host_params():
    from repro.hw import HostParams

    sim = Simulator()
    host = HostParams(mem_copy_bw=50.0, tlb_entries=8)
    fab = Fabric(sim, MYRINET, host=host)
    node = fab.node("node0")
    assert node.cpu.mem_copy_bw == 50.0
    assert node.nic.tlb.entries == 8


# -- output-port contention model ----------------------------------------
# Two-node goldens: the port model must add nothing to uncontended paths.
# These exact values predate OutputPort and must never drift.
TWO_NODE_GOLDENS = {
    "myrinet": 7.40625,
    "gige": 20.216,
    "giganet": 9.95892857142857,
}


def test_two_node_delivery_pinned_to_seed_goldens():
    assert deliver_one(MYRINET) == TWO_NODE_GOLDENS["myrinet"]
    assert deliver_one(GIGE) == TWO_NODE_GOLDENS["gige"]
    assert deliver_one(GIGANET) == TWO_NODE_GOLDENS["giganet"]


def _converge(params, senders=4, size=16000, per_sender=1):
    """N senders flood one sink concurrently; returns (arrivals, port)."""
    sim = Simulator()
    names = tuple("abcdefgh"[:senders]) + ("sink",)
    fab = Fabric(sim, params, node_names=names)
    got = []
    fab.node("sink").nic.rx_handler = lambda p: got.append(sim.now)

    def send(src):
        for _ in range(per_sender):
            yield from fab.node(src).nic.transmit(
                Packet(src, "sink", "data", size))

    for s in names[:-1]:
        sim.process(send(s))
    sim.run()
    return sorted(got), fab.switch.port("sink")


def test_cut_through_converging_senders_drain_at_line_rate():
    arrivals, port = _converge(MYRINET)
    frame = (16000 + MYRINET.header_bytes) / MYRINET.bandwidth
    deltas = [b - a for a, b in zip(arrivals, arrivals[1:])]
    # all four frames land, serialised by the output port at exactly
    # one frame time apart — not the old infinite-rate downlink
    assert len(arrivals) == 4
    for d in deltas:
        assert d == pytest.approx(frame, rel=1e-9)
    assert port.contended == 3
    assert port.drops == 0 and port.backpressured == 0
    assert port.max_backlog_us == pytest.approx(3 * frame, rel=1e-9)
    # exact event order: a hop that runs ahead of or behind a
    # same-instant event moves these timestamps and counters
    assert arrivals == [101.25, 201.29999999999998, 301.35, 401.4]
    assert (port.forwarded, port.max_backlog_us) == (4, 300.15)


def test_cut_through_single_sender_never_contends():
    _, port = _converge(MYRINET, senders=1, per_sender=8)
    assert port.forwarded == 8
    assert port.contended == 0
    assert port.max_backlog_us == 0.0


def test_store_and_forward_tail_drops_past_port_buffer():
    arrivals, port = _converge(GIGE.with_port_buffer(1), senders=4,
                               size=1400, per_sender=4)
    assert port.forwarded == 16
    assert port.drops > 0
    assert len(arrivals) == 16 - port.drops
    # determinism: same run, same drops
    arrivals2, port2 = _converge(GIGE.with_port_buffer(1), senders=4,
                                 size=1400, per_sender=4)
    assert arrivals2 == arrivals and port2.drops == port.drops
    # exact event order (see the converging-senders test)
    assert arrivals == [26.616, 38.623999999999995, 50.63199999999999,
                        62.639999999999986, 74.64799999999998]
    assert (port.drops, port.contended) == (11, 0)


def test_cut_through_backpressure_counted_past_buffer():
    params = MYRINET.with_port_buffer(1)
    arrivals, port = _converge(params, senders=6, size=30000)
    assert port.contended > 0
    assert port.backpressured > 0   # backlog beyond one frame of buffer
    assert port.drops == 0          # wormhole flow control never drops
    # exact event order (see the converging-senders test)
    assert arrivals == [188.83749999999998, 376.3875, 563.9375,
                        751.4875000000002, 939.0375000000001, 1126.5875]
    assert (port.contended, port.backpressured,
            port.max_backlog_us) == (5, 4, 937.75)


def test_with_port_buffer_builder_validates():
    small = GIGE.with_port_buffer(2)
    assert small.port_buffer_frames == 2
    assert GIGE.port_buffer_frames == 64
    with pytest.raises(ValueError):
        GIGE.with_port_buffer(0)
