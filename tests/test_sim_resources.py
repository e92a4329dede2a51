"""Unit tests for Resource / Signal."""

import pytest

from repro.sim import Resource, Signal, SimulationError, Simulator


def test_resource_grants_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(n):
        yield from res.acquire(2.0)
        order.append((n, sim.now))

    for n in range(3):
        sim.process(worker(n))
    sim.run()
    assert order == [(0, 2.0), (1, 4.0), (2, 6.0)]


def test_resource_capacity_two_overlaps():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def worker(n):
        yield from res.acquire(2.0)
        done.append((n, sim.now))

    for n in range(4):
        sim.process(worker(n))
    sim.run()
    assert done == [(0, 2.0), (1, 2.0), (2, 4.0), (3, 4.0)]


def test_resource_release_without_request():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_counts():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    req1 = res.request()
    req2 = res.request()
    assert res.in_use == 1 and res.queued == 1
    req2.cancel()
    assert res.queued == 0
    res.release()
    assert res.in_use == 0
    assert req1.triggered


def test_resource_bad_capacity():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)


def test_acquire_interrupted_while_queued_does_not_leak_the_slot():
    """A waiter closed in the queue must leave it: ``close()`` closes
    live processes in start order, so the waiter, started first, goes
    before the holder, whose release would otherwise grant the waiter's
    dead hold and keep the slot."""
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker(start, hold):
        yield sim.timeout(start)
        yield from res.acquire(hold)

    sim.process(worker(1.0, 1.0))       # the waiter
    sim.process(worker(0.0, 10.0))      # the holder
    while not res.queued:
        assert sim.run_events(1) == 1
    assert (sim.now, res.in_use, res.queued) == (1.0, 1, 1)
    sim.close()
    assert (res.in_use, res.queued) == (0, 0)


def test_hold_fires_after_grant_and_keeps_the_slot():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def worker(name):
        yield res.hold(2.0)
        log.append((name, sim.now, res.in_use, res.queued))
        res.release()

    sim.process(worker("a"))
    sim.process(worker("b"))
    sim.run()
    assert log == [("a", 2.0, 1, 1), ("b", 4.0, 1, 0)]
    assert (res.in_use, res.queued) == (0, 0)


def test_hold_rejects_negative_duration():
    with pytest.raises(ValueError):
        Resource(Simulator()).hold(-1.0)


def test_abandon_is_idempotent_and_frees_a_granted_slot():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = res.hold(1.0)
    queued = res.hold(1.0)
    assert (res.in_use, res.queued) == (1, 1)
    queued.abandon()
    queued.abandon()
    assert (res.in_use, res.queued) == (1, 0)
    granted.abandon()
    granted.abandon()
    assert (res.in_use, res.queued) == (0, 0)
    sim.run()        # the abandoned grant still fires, as a bare event
    assert sim.events_run == 1 and sim.ctx_switches == 0
    assert not granted.triggered


def test_signal_broadcasts_to_all_waiters():
    sim = Simulator()
    sig = Signal(sim)
    woke = []

    def waiter(n):
        value = yield sig.wait()
        woke.append((n, value))

    for n in range(3):
        sim.process(waiter(n))

    def firer():
        yield sim.timeout(1.0)
        count = sig.fire("go")
        assert count == 3

    sim.process(firer())
    sim.run()
    assert sorted(woke) == [(0, "go"), (1, "go"), (2, "go")]
    assert sig.fire_count == 1


def test_signal_fire_with_no_waiters():
    sim = Simulator()
    sig = Signal(sim)
    assert sig.fire() == 0


def test_signal_waiters_after_fire_need_new_fire():
    sim = Simulator()
    sig = Signal(sim)
    sig.fire()
    woke = []

    def waiter():
        yield sig.wait()
        woke.append(sim.now)

    def firer():
        yield sim.timeout(2.0)
        sig.fire()

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert woke == [2.0]
