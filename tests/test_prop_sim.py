"""Property-based tests for the simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cpu import HostCPU
from repro.hw.nic import DMAEngine
from repro.sim import Resource, ResourceHold, ResourceRequest, Simulator, Timeout


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                max_size=50))
@settings(max_examples=60, deadline=None)
def test_events_always_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.timeout(d).callbacks.append(lambda e: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=1,
                max_size=20))
@settings(max_examples=40, deadline=None)
def test_capacity_one_resource_serialises_total_time(holds):
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker(hold):
        yield from res.acquire(hold)

    for hold in holds:
        sim.process(worker(hold))
    sim.run()
    assert sim.now == sum(holds)


@given(st.integers(min_value=2, max_value=8),
       st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1,
                max_size=24))
@settings(max_examples=30, deadline=None)
def test_resource_never_exceeds_capacity(capacity, holds):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    peak = [0]

    def worker(hold):
        yield res.request()
        peak[0] = max(peak[0], res.in_use)
        try:
            yield sim.timeout(hold)
        finally:
            res.release()

    for hold in holds:
        sim.process(worker(hold))
    sim.run()
    assert peak[0] <= capacity
    # and work-conserving: finishes no later than serial execution
    assert sim.now <= sum(holds) + 1e-9


# -- Resource.hold against its request() + timeout() reference -----------

def reference_hold(res, duration, in_place=False):
    """The reference for ``hold``: ``yield request()`` then ``yield
    timeout(duration)``, close-safe the way ``CpuActor._acquire_cpu``
    is (cancel while queued, release once granted).  Returns holding.
    ``in_place`` takes the grant and the timeout in place wherever the
    kernel allows (``advance_grant``, ``advance``)."""
    if not (in_place and res.advance_grant()):
        req = res.request()
        try:
            yield req
        except BaseException:
            if req.triggered:
                res.release()
            else:
                req.cancel()
            raise
    if not (in_place and res.sim.advance(duration)):
        try:
            yield res.sim.timeout(duration)
        except BaseException:
            res.release()
            raise


def timed_hold(res, duration):
    hold = res.hold(duration)
    try:
        yield hold
    except BaseException:
        hold.abandon()
        raise


def reference_acquire(res, duration):
    yield from reference_hold(res, duration)
    res.release()


def in_place_acquire(res, duration):
    if not res.advance_hold(duration):
        yield from timed_hold(res, duration)
    res.release()


def reference_busy(actor, duration, kind="user"):
    """The reference for ``CpuActor.busy``: request() + timeout()."""
    if duration == 0.0:
        return
    yield from actor._acquire_cpu()
    try:
        yield actor.sim.timeout(duration)
        actor.charge(duration, kind)
    finally:
        actor.cpu.resource.release()


#: small multiples of 0.5 µs, so same-instant ties are the common case
_TICK = st.integers(min_value=0, max_value=4).map(lambda k: k * 0.5)
_STEP = st.one_of(
    # (kind, resource, duration, through acquire())
    st.tuples(st.just("hold"), st.integers(0, 2), _TICK, st.booleans()),
    st.tuples(st.just("timeout"), _TICK),
    st.tuples(st.just("zero")),      # timeout(0)
    st.tuples(st.just("kick")),      # re-yield a processed event
)
_PROGRAM = st.fixed_dictionaries({
    "k": st.integers(min_value=2, max_value=3),
    "procs": st.lists(st.tuples(_TICK, st.lists(_STEP, min_size=1, max_size=8)),
                      min_size=1, max_size=10),
    "noise": st.lists(_TICK, max_size=24),
})


def run_program(program, variant, stepwise=False, bus_busy_until=0.0):
    """Run a random resource program; return everything observable.

    ``variant`` picks the waits: ``"reference"`` (request() + timeout()),
    ``"hold"`` (``Resource.hold``/``acquire``), ``"in_place"`` (the
    ``advance`` helpers, falling back to queued waits) or ``"helpers"``
    (the ``in_place`` waits, but resource 0 is a host CPU held through
    ``CpuActor.busy``, or ``copy`` for an acquire step, and resource 1 a
    DMA bus held through ``DMAEngine.transfer``, behind a burst's
    occupancy until ``bus_busy_until``; these release the slot
    themselves and return ``()`` when they ran in place).  ``stepwise``
    drives the run by ``run_events(1)``, which never runs a wait in
    place, instead of ``run()``."""
    sim = Simulator()
    resources = [Resource(sim, 1), Resource(sim, 1),
                 Resource(sim, program["k"])]
    log = []
    helpers = variant == "helpers"
    if helpers:
        variant = "in_place"
        # a copy of n bytes, or a transfer of n bytes, takes n / 2 us
        cpu = HostCPU(sim, mem_copy_bw=2.0)
        dma = DMAEngine(sim, bandwidth=2.0)
        dma._ff_busy_until = bus_busy_until
        resources[:2] = [cpu.resource, dma._bus]
    in_place = variant == "in_place"
    held = {"reference": reference_hold, "hold": timed_hold,
            "in_place": lambda res, d: reference_hold(res, d, True)}[variant]
    acquire = {"reference": reference_acquire,
               "hold": lambda res, d: res.acquire(d),
               "in_place": in_place_acquire}[variant]

    def wait(d):
        if not (in_place and sim.advance(d)):
            yield sim.timeout(d)

    def body(pid, start, steps):
        yield sim.timeout(start)
        for i, step in enumerate(steps):
            if step[0] == "hold":
                _, r, d, via_acquire = step
                res = resources[r]
                if helpers and r < 2:
                    actor = cpu.actor(f"p{pid}")
                    yield from (dma.transfer(int(2 * d)) if r
                                else actor.copy(int(2 * d)) if via_acquire
                                else actor.busy(d))
                    log.append((sim.now, pid, i, res.in_use, res.queued))
                elif via_acquire:
                    yield from acquire(res, d)
                    log.append((sim.now, pid, i, res.in_use, res.queued))
                else:
                    yield from held(res, d)
                    log.append((sim.now, pid, i, res.in_use, res.queued))
                    res.release()
            elif step[0] == "timeout":
                yield from wait(step[1])
                log.append((sim.now, pid, i))
            elif step[0] == "zero":
                yield from wait(0.0)
                log.append((sim.now, pid, i))
            else:
                done = sim.timeout(0.0)
                yield done
                yield done
                log.append((sim.now, pid, i, "kick"))

    for pid, (start, steps) in enumerate(program["procs"]):
        sim.process(body(pid, start, steps))
    for n, delay in enumerate(program["noise"]):
        sim.timeout(delay).callbacks.append(
            lambda _e, n=n: log.append((sim.now, "noise", n)))
    if stepwise:
        while sim.run_events(1):
            pass
    else:
        sim.run()
    usage = None
    if helpers:
        usage = ([(name, a.rusage.utime, a.rusage.stime)
                  for name, a in sorted(cpu._actors.items())],
                 dma.transfers, dma.bytes_moved)
    return (log, sim.now, sim.events_run, sim._seq, sim.ctx_switches, usage,
            [(r.in_use, r.queued) for r in resources])


@given(_PROGRAM)
@settings(max_examples=120, deadline=None)
def test_hold_matches_request_timeout_reference(program):
    """``hold(d)`` resumes the holder once where the reference resumes it
    twice, yet the completion log (times and same-instant order), the
    clock and every kernel counter must come out identical."""
    got = run_program(program, "hold")
    want = run_program(program, "reference")
    assert got == want
    assert all(slot == (0, 0) for slot in got[-1])


@given(_PROGRAM)
@settings(max_examples=120, deadline=None)
def test_in_place_waits_match_the_queued_run(program):
    """The ``advance`` helpers under ``run()``, which takes a wait in
    place wherever the kernel proves its wake-up next, against the same
    program under a ``run_events(1)`` loop, which never does: the log,
    the clock, every kernel counter and every slot come out identical,
    and both match the request() + timeout() reference."""
    got = run_program(program, "in_place")
    assert got == run_program(program, "in_place", stepwise=True)
    assert got == run_program(program, "reference")


@given(_PROGRAM, _TICK)
@settings(max_examples=120, deadline=None)
def test_host_helpers_in_place_match_the_queued_run(program, bus_busy_until):
    """``CpuActor.busy``/``copy`` and ``DMAEngine.transfer`` return
    ``()`` when they ran in place and a generator when the wait must
    queue.  Under ``run()``, which takes what it can in place, and under
    a ``run_events(1)`` loop, which never does, the log, the clock,
    every kernel counter, every slot, each actor's rusage and the DMA
    counters come out identical."""
    got = run_program(program, "helpers", bus_busy_until=bus_busy_until)
    assert got == run_program(program, "helpers", stepwise=True,
                              bus_busy_until=bus_busy_until)
    assert all(slot == (0, 0) for slot in got[-1])


@pytest.mark.parametrize("when", ["queued", "granted", "holding"])
def test_busy_interrupt_matches_reference(when):
    """``CpuActor.busy`` closed by ``Simulator.close`` while queued,
    after its grant but before the grant record fires, and mid-hold:
    its cleanup frees the slot, as the request() + timeout() reference's
    does, and both runs reach that point with the same clock and kernel
    counters.  ``run_events(1)`` steps each run to the state.  The
    waiter starts first, so ``close()`` (start order) runs its cleanup
    before the holder's."""
    start, charge, held = 1.0, 3.0, 5.0

    def scenario(use_hold):
        sim = Simulator()
        cpu = HostCPU(sim)
        res = cpu.resource
        busy = ((lambda a, d: a.busy(d)) if use_hold else reference_busy)

        def worker(name, wait, duration):
            if wait:
                yield sim.timeout(wait)
            yield from busy(cpu.actor(name), duration)

        victim = sim.process(worker("work", start, charge))
        sim.process(worker("hold", 0.0, held))

        def reached():
            target = victim._target
            if target is None:
                return False
            if when == "queued":
                return target in res._queue
            if when == "granted":
                if use_hold:        # the grant record has not fired
                    return target in sim._immediate
                return (target.__class__ is ResourceRequest
                        and target.triggered)
            if use_hold:            # the grant fired; the hold runs
                return target.__class__ is ResourceHold and target.triggered
            return target.__class__ is Timeout and target.delay == charge

        while not reached():
            assert sim.run_events(1) == 1
        point = (sim.now, sim.events_run, sim._seq, sim.ctx_switches,
                 res.in_use, res.queued)
        sim.close()
        return point, (res.in_use, res.queued)

    got = scenario(use_hold=True)
    assert got == scenario(use_hold=False)
    point, slot = got
    assert point[0] == (start if when == "queued" else held)
    assert point[-2:] == (1, int(when == "queued"))
    assert slot == (0, 0)
