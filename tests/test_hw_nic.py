"""Unit tests for the NIC model: translation cache and DMA engine."""

import inspect

import pytest

from repro.hw.nic import NIC, DMAEngine, TranslationCache
from repro.sim import Simulator

from conftest import run_proc


def test_tlb_hit_miss_accounting():
    tlb = TranslationCache(entries=2)
    assert tlb.lookup(1) is None
    tlb.insert(1, 101)
    assert tlb.lookup(1) == 101
    assert tlb.hits == 1 and tlb.misses == 1
    assert tlb.hit_rate == pytest.approx(0.5)


def test_tlb_lru_eviction():
    tlb = TranslationCache(entries=2)
    tlb.insert(1, 101)
    tlb.insert(2, 102)
    tlb.lookup(1)            # refresh 1; 2 becomes LRU
    tlb.insert(3, 103)       # evicts 2
    assert tlb.evictions == 1
    assert tlb.lookup(2) is None
    assert tlb.lookup(1) == 101
    assert tlb.lookup(3) == 103


def test_tlb_invalidate_and_flush():
    tlb = TranslationCache(entries=4)
    tlb.insert(1, 101)
    tlb.invalidate(1)
    assert tlb.lookup(1) is None
    tlb.insert(2, 102)
    tlb.flush()
    assert len(tlb) == 0


def test_tlb_insert_existing_updates():
    tlb = TranslationCache(entries=2)
    tlb.insert(1, 101)
    tlb.insert(1, 201)
    assert tlb.lookup(1) == 201
    assert len(tlb) == 1


def test_tlb_requires_capacity():
    with pytest.raises(ValueError):
        TranslationCache(entries=0)


def test_dma_transfer_time():
    sim = Simulator()
    dma = DMAEngine(sim, bandwidth=100.0, per_transfer_cost=1.0)
    assert dma.transfer_time(1000) == pytest.approx(11.0)

    def body():
        yield from dma.transfer(500)

    run_proc(sim, body())
    assert sim.now == pytest.approx(6.0)
    assert dma.transfers == 1 and dma.bytes_moved == 500


def test_dma_serializes_transfers():
    sim = Simulator()
    dma = DMAEngine(sim, bandwidth=100.0)
    done = []

    def body(n):
        yield from dma.transfer(1000)
        done.append((n, sim.now))

    sim.process(body(0))
    sim.process(body(1))
    sim.run()
    assert done == [(0, pytest.approx(10.0)), (1, pytest.approx(20.0))]


def test_dma_zero_bytes_costs_setup_only():
    sim = Simulator()
    dma = DMAEngine(sim, bandwidth=100.0, per_transfer_cost=0.5)

    def body():
        yield from dma.transfer(0)

    run_proc(sim, body())
    assert sim.now == pytest.approx(0.5)


def test_dma_rejects_negative():
    sim = Simulator()
    dma = DMAEngine(sim, bandwidth=100.0)

    def body():
        yield from dma.transfer(-1)

    with pytest.raises(ValueError):
        run_proc(sim, body())
    with pytest.raises(ValueError):
        DMAEngine(sim, bandwidth=0.0)


def test_nic_requires_port_and_handler():
    sim = Simulator()
    nic = NIC(sim, "n0")
    from repro.hw.link import Packet

    with pytest.raises(RuntimeError):
        run_proc(sim, nic.transmit(Packet("a", "b", "d", 1)))
    with pytest.raises(RuntimeError):
        nic.deliver(Packet("a", "b", "d", 1))


def test_nic_counts_traffic():
    from repro.hw import Fabric, MYRINET, Packet

    sim = Simulator()
    fab = Fabric(sim, MYRINET)
    got = []
    fab.node("node1").nic.rx_handler = got.append

    def body():
        yield from fab.node("node0").nic.transmit(
            Packet("node0", "node1", "d", 64)
        )

    run_proc(sim, body())
    sim.run()
    assert fab.node("node0").nic.tx_packets == 1
    assert fab.node("node1").nic.rx_packets == 1
    assert len(got) == 1


def test_launch_starts_where_a_transmit_process_would():
    """``NIC.launch`` is a callback chain keyed like a new process's
    boot: a transmit process spawned first takes the line first."""
    from repro.hw import Fabric, MYRINET, Packet

    sim = Simulator()
    fab = Fabric(sim, MYRINET)
    got = []
    fab.node("node1").nic.rx_handler = lambda p: got.append(p.payload)
    nic = fab.node("node0").nic
    sim.process(nic.transmit(Packet("node0", "node1", "d", 64, "process")))
    nic.launch(Packet("node0", "node1", "d", 64, "chain"))
    sim.run()
    assert got == ["process", "chain"]
    assert nic.tx_packets == 2
    with pytest.raises(RuntimeError):
        NIC(sim, "detached").launch(Packet("a", "b", "d", 1))


# -- the () contract: a transfer that ran in place returns (), one that
# must queue returns the generator that waits ---------------------------

def test_dma_transfer_returns_empty_tuple_when_run_in_place():
    sim = Simulator()
    dma = DMAEngine(sim, bandwidth=100.0, per_transfer_cost=1.0)
    got = []

    def body():
        wait = dma.transfer(500)
        got.append((wait, sim.now))
        yield from wait
        dma._ff_busy_until = 10.0     # a burst's occupancy; nothing else due
        wait = dma.transfer(100)
        got.append((wait, sim.now))
        yield from wait

    run_proc(sim, body())
    assert got == [((), 6.0), ((), 12.0)]
    assert (dma.transfers, dma.bytes_moved) == (2, 600)
    assert sim.inplace_events == 2 + 1 + 2


def test_dma_transfer_returns_a_generator_while_the_bus_is_busy():
    sim = Simulator()
    dma = DMAEngine(sim, bandwidth=100.0)
    got = []

    def body(n):
        wait = dma.transfer(1000)
        got.append((n, inspect.isgenerator(wait), dma._bus.in_use))
        yield from wait
        got.append((n, sim.now))

    sim.process(body(0))
    sim.process(body(1))
    sim.run()
    # body(0) queues because body(1)'s start is due at the same instant
    # (its hold is taken once the generator runs); body(1) finds the bus
    # taken by that hold
    assert got == [(0, True, 0), (1, True, 1), (0, 10.0), (1, 20.0)]
    assert (dma._bus.in_use, dma._bus.queued) == (0, 0)


def test_dma_transfer_returns_a_generator_behind_a_burst_it_cannot_skip():
    """A burst left the bus busy until t=10 and another event is due at
    t=5, so the wait cannot run in place: the call returns a generator
    that waits to t=10, then holds the bus."""
    sim = Simulator()
    dma = DMAEngine(sim, bandwidth=100.0, per_transfer_cost=1.0)
    dma._ff_busy_until = 10.0
    sim.timeout(5.0)
    got = []

    def body():
        wait = dma.transfer(100)
        got.append((inspect.isgenerator(wait), sim.now, dma.transfers))
        yield from wait
        got.append(sim.now)

    run_proc(sim, body())
    assert got == [(True, 0.0, 0), 12.0]
    assert (dma.transfers, dma.bytes_moved) == (1, 100)
