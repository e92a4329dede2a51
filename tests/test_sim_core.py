"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Simulator,
    SimulationError,
    Timeout,
)


def test_timeout_advances_clock():
    sim = Simulator()
    t = sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0
    assert t.processed


def test_timeout_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        ev = sim.timeout(delay, delay)
        ev.callbacks.append(lambda e: order.append(e.value))
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for i in range(5):
        ev = sim.timeout(1.0, i)
        ev.callbacks.append(lambda e: order.append(e.value))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_value():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("payload")
    sim.run()
    assert ev.ok and ev.value == "payload"


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_unhandled_failure_propagates():
    sim = Simulator()
    sim.event().fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_defused_failure_is_silent():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("boom"))
    ev.defuse()
    sim.run()  # no raise


def test_process_returns_value():
    sim = Simulator()

    def body():
        yield sim.timeout(2.0)
        return 42

    proc = sim.process(body())
    assert sim.run(proc) == 42
    assert sim.now == 2.0


def test_process_waits_on_event_value():
    sim = Simulator()
    ev = sim.event()

    def trigger():
        yield sim.timeout(1.0)
        ev.succeed("hello")

    def waiter():
        value = yield ev
        return value

    sim.process(trigger())
    proc = sim.process(waiter())
    assert sim.run(proc) == "hello"


def test_process_receives_event_failure():
    sim = Simulator()
    ev = sim.event()

    def trigger():
        yield sim.timeout(1.0)
        ev.fail(ValueError("nope"))

    def waiter():
        with pytest.raises(ValueError, match="nope"):
            yield ev
        return "handled"

    sim.process(trigger())
    proc = sim.process(waiter())
    assert sim.run(proc) == "handled"


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def crasher():
        yield sim.timeout(1.0)
        raise KeyError("inner")

    def outer():
        with pytest.raises(KeyError):
            yield sim.process(crasher())
        return "ok"

    proc = sim.process(outer())
    assert sim.run(proc) == "ok"


def test_process_can_wait_on_already_processed_event():
    sim = Simulator()
    ev = sim.timeout(0.0, "early")
    sim.run()
    assert ev.processed

    def body():
        value = yield ev
        return value

    proc = sim.process(body())
    assert sim.run(proc) == "early"


def test_process_yielding_non_event_is_an_error():
    sim = Simulator()

    def body():
        yield 42

    proc = sim.process(body())
    with pytest.raises(SimulationError, match="must yield Event"):
        sim.run(proc)


def test_nested_processes():
    sim = Simulator()

    def inner(n):
        yield sim.timeout(n)
        return n * 2

    def outer():
        a = yield sim.process(inner(3))
        b = yield sim.process(inner(4))
        return a + b

    proc = sim.process(outer())
    assert sim.run(proc) == 14
    assert sim.now == 7.0


def test_interrupt_raises_in_process():
    sim = Simulator()
    caught = []

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            caught.append(intr.cause)
        return "done"

    def attacker(proc):
        yield sim.timeout(1.0)
        proc.interrupt("reason")

    proc = sim.process(victim())
    sim.process(attacker(proc))
    assert sim.run(proc) == "done"
    assert caught == ["reason"]
    assert sim.now < 100.0


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.run(proc)
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_anyof_fires_on_first():
    sim = Simulator()
    fast = sim.timeout(1.0, "fast")
    slow = sim.timeout(5.0, "slow")

    def body():
        results = yield AnyOf(sim, [fast, slow])
        return results

    proc = sim.process(body())
    results = sim.run(proc)
    assert results == {fast: "fast"}
    assert sim.now == 1.0


def test_allof_waits_for_all():
    sim = Simulator()
    a = sim.timeout(1.0, "a")
    b = sim.timeout(5.0, "b")

    def body():
        results = yield AllOf(sim, [a, b])
        return results

    proc = sim.process(body())
    results = sim.run(proc)
    assert results == {a: "a", b: "b"}
    assert sim.now == 5.0


def test_empty_condition_triggers_immediately():
    sim = Simulator()

    def body():
        result = yield AllOf(sim, [])
        return result

    assert sim.run(sim.process(body())) == {}


def test_run_until_time():
    sim = Simulator()
    fired = []
    for d in (1.0, 2.0, 3.0):
        sim.timeout(d).callbacks.append(lambda e: fired.append(sim.now))
    sim.run(until=2.5)
    assert fired == [1.0, 2.0]
    assert sim.now == 2.5


def test_run_until_past_deadline_rejected():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    never = sim.event()

    def body():
        yield never

    proc = sim.process(body())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(proc)


def test_peek():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7.0)
    assert sim.peek() == 0.0 or sim.peek() == 7.0  # bootstrap-free timeout
    sim.run()
    assert sim.peek() == float("inf")


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        log = []

        def worker(n):
            for i in range(3):
                yield sim.timeout(n * 0.5 + 0.1)
                log.append((sim.now, n, i))

        for n in range(4):
            sim.process(worker(n))
        sim.run()
        return log

    assert build() == build()


def test_call_soon_takes_the_key_a_process_boot_takes():
    """A call record runs at ``(now, next seq)`` among same-instant
    process boots, counts one event and one seq, resumes no process and
    leaves no completion event."""
    sim = Simulator()
    log = []

    def proc(tag):
        log.append(tag)
        yield sim.timeout(0.0)

    sim.process(proc("p1"))
    sim.call_soon(log.append, "call")
    sim.process(proc("p2"))
    assert sim._seq == 3
    sim.run(until=0.0)
    assert log == ["p1", "call", "p2"]
    # two boots, one call, two timeouts, two process completions
    assert sim.events_run == 7
    assert sim.ctx_switches == 4


def test_call_soon_error_propagates_out_of_run_at_that_step():
    sim = Simulator()

    def boom(arg):
        raise KeyError(arg)

    sim.call_soon(boom, "x")
    sim.timeout(1.0)
    with pytest.raises(KeyError):
        sim.run()
    assert sim.events_run == 1 and sim.now == 0.0
