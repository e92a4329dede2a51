"""Unit tests for the host CPU / rusage model."""

import inspect

import pytest

from repro.hw.cpu import HostCPU, Rusage
from repro.sim import Simulator

from conftest import run_proc


def test_busy_charges_user_time():
    sim = Simulator()
    cpu = HostCPU(sim)
    actor = cpu.actor("a")

    def body():
        yield from actor.busy(5.0)
        yield from actor.busy(2.0, "sys")

    run_proc(sim, body())
    assert actor.rusage.utime == 5.0
    assert actor.rusage.stime == 2.0
    assert actor.rusage.total == 7.0
    assert sim.now == 7.0


def test_busy_zero_is_free():
    sim = Simulator()
    actor = HostCPU(sim).actor("a")

    def body():
        yield from actor.busy(0.0)

    run_proc(sim, body())
    assert sim.now == 0.0 and actor.rusage.total == 0.0


def test_busy_rejects_negative_and_bad_kind():
    sim = Simulator()
    actor = HostCPU(sim).actor("a")
    with pytest.raises(ValueError):
        actor.charge(-1.0)
    with pytest.raises(ValueError):
        actor.charge(1.0, "weird")

    def body():
        yield from actor.busy(-1.0)

    with pytest.raises(ValueError):
        run_proc(sim, body())


def test_copy_cost_scales_with_bytes():
    sim = Simulator()
    cpu = HostCPU(sim, mem_copy_bw=100.0)
    actor = cpu.actor("a")
    assert cpu.copy_cost(1000) == pytest.approx(10.0)

    def body():
        yield from actor.copy(500)

    run_proc(sim, body())
    assert sim.now == pytest.approx(5.0)
    assert actor.rusage.stime == pytest.approx(5.0)


def test_spin_wait_charges_wall_time():
    sim = Simulator()
    cpu = HostCPU(sim)
    actor = cpu.actor("a")
    ev = sim.event()

    def trigger():
        yield sim.timeout(8.0)
        ev.succeed("v")

    def body():
        value = yield from actor.spin_wait(ev)
        return value

    sim.process(trigger())
    assert run_proc(sim, body()) == "v"
    assert actor.rusage.utime == pytest.approx(8.0)


def test_block_wait_is_idle_plus_wakeup():
    sim = Simulator()
    cpu = HostCPU(sim)
    actor = cpu.actor("a")
    ev = sim.event()

    def trigger():
        yield sim.timeout(8.0)
        ev.succeed(None)

    def body():
        yield from actor.block_wait(ev, wakeup_cost=3.0, delay=2.0)

    sim.process(trigger())
    run_proc(sim, body())
    assert sim.now == pytest.approx(13.0)   # 8 wait + 2 delay + 3 handler
    assert actor.rusage.stime == pytest.approx(3.0)
    assert actor.rusage.utime == 0.0


def test_two_actors_contend_for_one_cpu():
    sim = Simulator()
    cpu = HostCPU(sim)
    a, b = cpu.actor("a"), cpu.actor("b")
    done = []

    def body(actor, name):
        yield from actor.busy(4.0)
        done.append((name, sim.now))

    sim.process(body(a, "a"))
    sim.process(body(b, "b"))
    sim.run()
    assert done == [("a", 4.0), ("b", 8.0)]


def test_spinner_holds_cpu_against_other_actor():
    sim = Simulator()
    cpu = HostCPU(sim)
    a, b = cpu.actor("spin"), cpu.actor("work")
    ev = sim.event()
    done = []

    def spinner():
        yield from a.spin_wait(ev)
        done.append(("spin", sim.now))

    def trigger():
        yield sim.timeout(5.0)
        ev.succeed(None)

    def worker():
        yield sim.timeout(1.0)       # arrives while spinner holds the CPU
        yield from b.busy(2.0)
        done.append(("work", sim.now))

    sim.process(spinner())
    sim.process(trigger())
    sim.process(worker())
    sim.run()
    assert done == [("spin", 5.0), ("work", 7.0)]


def test_actor_identity_and_snapshot():
    sim = Simulator()
    cpu = HostCPU(sim)
    assert cpu.actor("x") is cpu.actor("x")
    actor = cpu.actor("x")
    actor.charge(4.0)
    snap = actor.snapshot()
    actor.charge(1.0)
    delta = actor.rusage - snap
    assert delta.utime == 1.0
    assert isinstance(snap, Rusage)


def test_bad_copy_bandwidth_rejected():
    with pytest.raises(ValueError):
        HostCPU(Simulator(), mem_copy_bw=0.0)


def test_spin_wait_failure_releases_cpu_and_charges_time():
    """A failing event mid-spin must free the CPU and bill the spin."""
    sim = Simulator()
    cpu = HostCPU(sim)
    actor = cpu.actor("a")
    ev = sim.event()
    caught = []

    def failer():
        yield sim.timeout(6.0)
        ev.fail(RuntimeError("nic died"))

    def spinner():
        try:
            yield from actor.spin_wait(ev)
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(failer())
    sim.process(spinner())
    sim.run()
    assert caught == ["nic died"]
    assert actor.rusage.utime == pytest.approx(6.0)   # spin until failure
    assert cpu.resource.in_use == 0                   # CPU released
    assert cpu.resource.queued == 0

    # the CPU must be immediately reusable after the failed spin
    def after():
        yield from actor.busy(2.0)

    run_proc(sim, after())
    assert cpu.resource.in_use == 0


def _close_while_queued(sim, cpu, waiter_body):
    """Start ``waiter_body`` (it waits 1 us, then wants the CPU) before
    a holder that takes the CPU for 10 us at t=0, step with
    ``run_events(1)`` until the waiter is queued, and close the run.
    ``close()`` closes in start order, so the waiter's cleanup runs
    while its request is still queued."""
    holder = cpu.actor("hold")

    def hold_body():
        yield from holder.busy(10.0)

    sim.process(waiter_body())
    sim.process(hold_body())
    while not cpu.resource.queued:
        assert sim.run_events(1) == 1
    assert (sim.now, cpu.resource.in_use) == (1.0, 1)
    sim.close()


def test_spin_wait_interrupt_while_queued_leaves_no_stale_request():
    """Closing an actor still queued for the CPU in ``spin_wait`` must
    not leak the slot: the dangling request would be granted to nobody
    when the holder releases, leaving the CPU taken."""
    sim = Simulator()
    cpu = HostCPU(sim)
    spinner = cpu.actor("spin")
    ev = sim.event()

    def spin_body():
        yield sim.timeout(1.0)
        yield from spinner.spin_wait(ev)

    _close_while_queued(sim, cpu, spin_body)
    assert cpu.resource.in_use == 0
    assert cpu.resource.queued == 0
    assert spinner.rusage.total == 0.0   # never got the CPU: nothing billed


def test_busy_interrupt_while_queued_leaves_no_stale_request():
    """The same for a charge queued in ``busy``."""
    sim = Simulator()
    cpu = HostCPU(sim)
    worker = cpu.actor("work")

    def work_body():
        yield sim.timeout(1.0)
        yield from worker.busy(5.0)

    _close_while_queued(sim, cpu, work_body)
    assert cpu.resource.in_use == 0
    assert cpu.resource.queued == 0
    assert worker.rusage.total == 0.0


# -- the () contract: a charge that ran in place returns (), one that
# must queue returns the generator that waits ---------------------------

def test_busy_copy_and_acquire_return_empty_tuple_when_run_in_place():
    sim = Simulator()
    cpu = HostCPU(sim, mem_copy_bw=100.0)
    actor = cpu.actor("a")
    got = []

    def body():
        wait = actor.busy(3.0)
        got.append((wait, sim.now))
        yield from wait
        wait = actor.copy(200)
        got.append((wait, sim.now))
        yield from wait
        wait = actor._acquire_cpu()
        got.append((wait, cpu.resource.in_use))
        yield from wait
        cpu.resource.release()

    run_proc(sim, body())
    # each ran before the call returned: the clock had already moved
    assert got == [((), 3.0), ((), 5.0), ((), 1)]
    assert (actor.rusage.utime, actor.rusage.stime) == (3.0, 2.0)
    assert sim.inplace_events == 2 + 2 + 1
    assert cpu.resource.in_use == 0


def test_busy_copy_and_acquire_return_a_generator_while_the_cpu_is_held():
    """A spinner holds the CPU until t=4; three workers arrive at t=1.
    Each call returns a generator that has not run yet, and the waits
    are granted in FIFO order once the spinner lets go."""
    sim = Simulator()
    cpu = HostCPU(sim, mem_copy_bw=100.0)
    spinner = cpu.actor("spin")
    worker = cpu.actor("work")
    got = []

    def spin():
        yield from spinner.spin_wait(sim.timeout(4.0))

    def work(name, call):
        yield sim.timeout(1.0)
        wait = call()
        got.append((name, inspect.isgenerator(wait), sim.now))
        yield from wait
        if name == "acquire":
            cpu.resource.release()
        got.append((name, sim.now))

    sim.process(spin())
    sim.process(work("busy", lambda: worker.busy(2.0)))
    sim.process(work("copy", lambda: worker.copy(100)))
    sim.process(work("acquire", worker._acquire_cpu))
    sim.run()
    assert got == [("busy", True, 1.0), ("copy", True, 1.0),
                   ("acquire", True, 1.0), ("busy", 6.0), ("copy", 7.0),
                   ("acquire", 7.0)]
    assert (worker.rusage.utime, worker.rusage.stime) == (2.0, 1.0)
    assert (cpu.resource.in_use, cpu.resource.queued) == (0, 0)


def test_busy_asks_the_fault_injector_once_per_charge():
    """Under ``cpu_jitter`` the scaled duration is both the wait and the
    charge, and ``faults.cpu_time`` runs once per charge, on the queued
    path and the in-place one alike (never for a zero charge)."""

    class Jitter:
        def __init__(self):
            self.calls = []

        def cpu_time(self, cpu_name, duration):
            self.calls.append((cpu_name, duration))
            return duration * 2

    sim = Simulator()
    cpu = HostCPU(sim, mem_copy_bw=100.0, name="node0")
    spinner, worker = cpu.actor("spin"), cpu.actor("work")
    sim.faults = jitter = Jitter()
    waits = []

    def spin():
        yield from spinner.spin_wait(sim.timeout(4.0))

    def work():
        yield sim.timeout(1.0)
        for wait in (lambda: worker.busy(1.0),      # queued behind the spin
                     lambda: worker.busy(0.5),      # in place
                     lambda: worker.busy(0.0),
                     lambda: worker.copy(100, "sys")):
            wait = wait()
            waits.append(wait == ())
            yield from wait

    sim.process(spin())
    sim.process(work())
    sim.run()
    assert jitter.calls == [("node0", 1.0), ("node0", 0.5), ("node0", 1.0)]
    assert waits == [False, True, True, True]
    assert sim.now == 4.0 + 2.0 + 1.0 + 2.0
    assert (worker.rusage.utime, worker.rusage.stime) == (3.0, 2.0)
