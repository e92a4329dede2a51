"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import AnyOf, Simulator, SimulationError


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


def test_empty_condition_triggers_immediately():
    sim = Simulator()

    def body():
        result = yield AnyOf(sim, [])
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


# -- teardown: finished work drops its own cycles ---------------------------

def test_finished_process_holds_no_resume_callback():
    sim = Simulator()

    def ok():
        yield sim.timeout(1.0)

    def bad():
        yield sim.timeout(1.0)
        raise KeyError("x")

    good, failed = sim.process(ok()), sim.process(bad())
    assert list(sim._processes) == [good, failed]
    failed.defuse()
    sim.run()
    for proc in (good, failed):
        assert proc._resume_cb is None
    assert sim._processes == {}


def test_stale_timeout_loses_its_callback_once_anyof_fired():
    sim = Simulator()
    ev = sim.event()
    stale = sim.timeout(100.0)
    cond = sim.any_of([ev, stale])
    ev.succeed("first")
    assert sim.run(cond) == {ev: "first"}
    assert stale.callbacks == []
    sim.run()   # the stale timeout still fires, with its own seq
    assert stale.processed and sim.now == 100.0
    assert (sim.events_run, sim._seq) == (3, 3)


def test_condition_triggered_in_its_constructor_registers_nowhere():
    sim = Simulator()
    done = sim.event()
    done.succeed("done")
    sim.run()
    pending = sim.timeout(50.0)
    cond = AnyOf(sim, [done, pending])
    assert cond.triggered and pending.callbacks == []
    sim.run()
    assert sim.now == 50.0


def test_close_runs_each_live_finally_once_in_start_order():
    sim = Simulator()
    log = []

    def body(tag, spawn=False):
        try:
            yield sim.timeout(10.0)
        finally:
            log.append(tag)
            if spawn:           # a finally block may start a process
                sim.process(body("late"))

    sim.process(body("a", spawn=True))
    sim.process(body("b"))
    waiter = sim.process(body("c"))
    cond = sim.any_of([sim.event(), sim.timeout(20.0)])

    def on_cond():
        yield cond

    sim.process(on_cond())
    sim.run(until=5.0)
    sim.close()
    assert log == ["a", "b", "c"]   # "late" never started: no finally
    assert sim._processes == {} and not waiter.triggered
    assert not sim._heap and not sim._immediate and not sim._buckets
    assert all(ev.callbacks == [] for ev in cond.events)
    sim.close()
    assert log == ["a", "b", "c"]


# -- in-place wake-ups: advance() runs a wait in place or refuses it -------

def _counters(sim):
    return (sim.now, sim.events_run, sim._seq, sim.ctx_switches)


def test_advance_runs_a_sole_wakeup_in_place():
    """With nothing else due, the wait runs in place and adds exactly
    what the queued timeout would have: one seq, one event, one resume."""
    def build(in_place):
        sim = Simulator()
        log = []

        def proc():
            yield sim.timeout(1.0)
            if not (in_place and sim.advance(2.0)):
                yield sim.timeout(2.0)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        return sim, log

    sim, log = build(True)
    ref, ref_log = build(False)
    assert log == ref_log == [3.0]
    assert _counters(sim) == _counters(ref)
    assert (sim.inplace_events, ref.inplace_events) == (1, 0)


def _refused(setup, drive=None):
    """Run a process that tries ``advance(2.0)`` at t=1 after ``setup``
    (called at that instant); return (advanced?, log)."""
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(1.0)
        setup(sim, log)
        ok = sim.advance(2.0)
        log.append(("advance", ok, sim.now))
        if not ok:
            yield sim.timeout(2.0)
        log.append(("woke", sim.now))

    sim.process(proc())
    (drive or Simulator.run)(sim)
    assert sim.inplace_events == 0
    return log


def test_advance_refused_with_an_immediate_record_pending():
    log = _refused(lambda sim, log: sim.call_soon(log.append, "call"))
    assert log == [("advance", False, 1.0), "call", ("woke", 3.0)]


def test_advance_refused_when_an_entry_is_due_at_the_wakeup_instant():
    """A tie at now + d has the lower seq, so it must run first."""
    sim = Simulator()
    log = []
    sim.timeout(3.0).callbacks.append(lambda e: log.append("tie"))

    def proc():
        yield sim.timeout(1.0)
        ok = sim.advance(2.0)
        if not ok:
            yield sim.timeout(2.0)
        log.append(("woke", ok, sim.now))

    sim.process(proc())
    sim.run()
    assert log == ["tie", ("woke", False, 3.0)]


def test_advance_refused_for_a_waker_with_a_second_callback():
    """The second callback of the event that woke the process must still
    see the old clock."""
    sim = Simulator()
    log = []
    ev = sim.timeout(1.0)

    def proc():
        yield ev
        ok = sim.advance(2.0)
        log.append(("advance", ok))
        if not ok:
            yield sim.timeout(2.0)

    sim.process(proc())
    sim.run(until=0.5)
    ev.callbacks.append(lambda e: log.append(("second", sim.now)))
    sim.run()
    assert log == [("advance", False), ("second", 1.0)]
    assert sim.now == 3.0


def test_advance_refused_in_a_partly_drained_same_time_bucket():
    sim = Simulator()
    log = []
    for i in range(16):             # enough heap entries to use buckets
        sim.timeout(100.0 + i)

    def proc():
        yield sim.timeout(1.0)
        ok = sim.advance(0.5)
        log.append(("advance", ok))
        if not ok:
            yield sim.timeout(0.5)
        log.append(("woke", sim.now))

    def other():
        sim.timeout(1.0).callbacks.append(lambda e: log.append("bucket"))
        yield sim.timeout(0.0)

    sim.process(proc())
    sim.process(other())
    sim.run(until=0.0)
    assert len(sim._buckets[1.0]) == 2
    sim.run()
    assert log == [("advance", False), "bucket", ("woke", 1.5)]


def test_advance_refused_after_the_waker_schedules_at_its_instant():
    """The last entry of a same-time bucket wakes the process, which
    schedules an entry at that instant: the bucket was closed before the
    wake-up ran, so the new entry is on the heap and runs first."""
    sim = Simulator()
    log = []
    for i in range(16):             # enough heap entries to use buckets
        sim.timeout(100.0 + i)

    def proc():
        yield sim.timeout(1.0)
        sim.timeout(0.0).callbacks.append(
            lambda e: log.append(("zero", sim.now)))
        ok = sim.advance(0.5)
        log.append(("advance", ok))
        if not ok:
            yield sim.timeout(0.5)
        log.append(("woke", sim.now))

    sim.process(proc())
    sim.run()
    assert log == [("advance", False), ("zero", 1.0), ("woke", 1.5)]


def test_advance_refused_past_the_run_deadline():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(1.0)
        ok = sim.advance(5.0)
        log.append(("advance", ok))
        if not ok:
            yield sim.timeout(5.0)
        log.append(("woke", sim.now))

    sim.process(proc())
    sim.run(until=4.0)
    assert log == [("advance", False)] and sim.now == 4.0
    sim.run()
    assert log[-1] == ("woke", 6.0)


def test_advance_never_runs_in_place_under_step():
    """run_events(1) runs one queue entry per call."""
    def drive(sim):
        while sim.peek() != float("inf"):
            sim.run_events(1)

    log = _refused(lambda sim, log: None, drive)
    assert log == [("advance", False, 1.0), ("woke", 3.0)]


def test_resource_in_place_hold_and_grant_need_a_free_slot():
    from repro.sim import Resource

    sim = Simulator()
    res = Resource(sim, 1)
    log = []

    def proc():
        yield sim.timeout(1.0)
        assert res.advance_grant()          # free slot, nothing due
        assert not res.advance_hold(1.0)    # the slot is taken
        assert not res.advance_grant()
        res.release()
        assert res.advance_hold(1.0)
        log.append(sim.now)
        res.release()

    sim.process(proc())
    sim.run()
    assert log == [2.0] and res.in_use == 0
    # timeout 1 + grant 1 + hold 2, plus the boot and the process end
    assert (sim.events_run, sim.inplace_events) == (6, 3)


# -- quiescent(): nothing but the running process can act again ----------

def _quiescent_at_1(setup=None, drive=Simulator.run):
    """Run a process that calls ``setup(sim)`` at t=1 and then asks
    ``quiescent()``; return the answer."""
    sim = Simulator()
    seen = []

    def proc():
        # a wait whose event won the race leaves its deadline timeout
        # queued with no callback, as a poll answered in time does
        sim.any_of([sim.timeout(0.5), sim.timeout(5.0)])
        yield sim.timeout(1.0)
        if setup is not None:
            setup(sim)
        seen.append(sim.quiescent())

    sim.process(proc())
    drive(sim)
    return seen[0]


def test_quiescent_with_only_callback_less_timeouts_left():
    assert _quiescent_at_1() is True
    assert _quiescent_at_1(lambda sim: sim.timeout(3.0)) is True


def test_quiescent_false_while_a_second_process_lives():
    sim = Simulator()
    never = sim.event()
    seen = []

    def waiter():
        yield never

    def proc():
        yield sim.timeout(1.0)
        seen.append(sim.quiescent())

    sim.process(waiter())
    sim.process(proc())
    sim.run()
    assert seen == [False]


def test_quiescent_false_with_a_pending_timeout_that_has_a_callback():
    def setup(sim):
        sim.timeout(3.0).callbacks.append(lambda e: None)

    assert _quiescent_at_1(setup) is False


def test_quiescent_false_with_an_immediate_record_pending():
    def setup(sim):
        sim.call_soon(lambda arg: None, None)

    assert _quiescent_at_1(setup) is False


def test_quiescent_false_with_a_fault_injector_attached():
    def setup(sim):
        sim.faults = object()  # the kernel only asks whether one is set

    assert _quiescent_at_1(setup) is False


def test_quiescent_false_under_step_and_run_events():
    def stepped(sim):
        while sim.peek() != float("inf"):
            sim.run_events(1)

    assert _quiescent_at_1(drive=stepped) is False
    assert _quiescent_at_1(drive=lambda sim: sim.run_events(100)) is False
    assert Simulator().quiescent() is False  # nothing running at all


@pytest.mark.parametrize("live", [False, True])
def test_quiescent_reads_every_member_of_a_same_time_bucket(live):
    """Past 16 heap entries same-time schedules share one bucket slot;
    a callback on any member, not just the first, keeps the run live."""
    def setup(sim):
        for i in range(16):
            sim.timeout(10.0 + i)
        sim.timeout(4.0)
        late = sim.timeout(4.0)
        assert late in [e for _, e in sim._buckets[5.0]]
        if live:
            late.callbacks.append(lambda e: None)

    assert _quiescent_at_1(setup) is (not live)
