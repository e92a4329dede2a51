"""S1 — performance of the simulation substrate itself.

Unlike the paper-reproduction benches (deterministic single shots),
these measure the *wall-clock* cost of the discrete-event kernel and
the full VIA stack, with real pytest-benchmark rounds — the numbers
that bound how large an experiment the repo can simulate.
"""

import gc
import sys

from repro.providers import Testbed
from repro.sim import Resource, Simulator
from repro.via import Descriptor, Reliability
from repro.vibe.harness import TransferConfig, run_bandwidth, run_latency

from conftest import PROVIDERS


def test_kernel_event_throughput(benchmark):
    """Raw timeout events through the heap."""
    N = 20_000

    def run():
        sim = Simulator()
        for i in range(N):
            sim.timeout(float(i % 97))
        sim.run()
        return sim.now

    result = benchmark(run)
    assert result == 96.0


def test_kernel_process_switching(benchmark):
    """Generator processes ping-ponging through events."""
    N = 2_000

    def run():
        sim = Simulator()
        res = Resource(sim, 1)

        def worker():
            for _ in range(5):
                yield from res.acquire(1.0)

        for _ in range(N // 5):
            sim.process(worker())
        sim.run()
        return sim.now

    assert benchmark(run) == float(N)


def test_kernel_allocation_footprint():
    """Guardrail for the kernel fast paths: a scheduled timeout must stay
    within a small per-event block budget (object pools + packed heap
    tuples), and draining must return pooled objects rather than retain
    per-event garbage.  A regression that reintroduces per-event closures,
    dicts, or unpooled Event objects shows up as extra blocks here long
    before it shows up as wall-clock noise.
    """
    # warm the simulator's object pools and CPython's internal caches
    gc.collect()
    sim = Simulator()
    for i in range(2000):
        sim.timeout(float(i % 7))
    sim.run()
    gc.collect()
    gc.disable()
    try:
        base = sys.getallocatedblocks()
        n = 10_000
        for i in range(n):
            sim.timeout(float(i % 97))
        scheduled = sys.getallocatedblocks() - base
        sim.run()
        drained = sys.getallocatedblocks() - base
    finally:
        gc.enable()
    # measured ~4.7 blocks/event (Timeout + callbacks list + heap/bucket
    # tuples); one extra per-event closure or dict would add >= 1-2
    blocks_per_event = scheduled / n
    assert blocks_per_event <= 7.0, (
        f"{blocks_per_event:.2f} allocated blocks per scheduled event "
        f"(budget 7.0) — a kernel fast path has regressed")
    # after the drain only the bounded pools may be left (~2.3k blocks)
    assert drained <= 6000, (
        f"{drained} blocks retained after drain (budget 6000) — "
        f"per-event garbage is being kept alive")


def test_hold_allocation_footprint():
    """Guardrail for timed resource holds: a hold in flight (granted,
    its timed part scheduled) must stay within a small per-hold block
    budget, and a drained batch of holds may retain only the bounded
    pools.  A grant that allocated a request event, a timeout or a
    closure again would show up here first.
    """
    n = 10_000
    gc.collect()
    sim = Simulator()
    res = Resource(sim, capacity=n)      # every hold is granted at once
    for i in range(2000):                # warm the pools and caches
        res.hold(float(1 + i % 7))
    sim.run()
    for _ in range(2000):
        res.release()
    gc.collect()
    gc.disable()
    try:
        base = sys.getallocatedblocks()
        for i in range(n):
            res.hold(float(1 + i % 97))
        sim.run(until=sim.now + 0.5)     # deliver every grant record
        in_flight = sys.getallocatedblocks() - base
        sim.run()
        for _ in range(n):
            res.release()
        drained = sys.getallocatedblocks() - base
    finally:
        gc.enable()
    # measured ~5.9 blocks/hold (the hold, its callbacks list, two seq
    # ints, its heap/bucket entry); request() + timeout() took ~8.7
    blocks_per_hold = in_flight / n
    assert blocks_per_hold <= 7.0, (
        f"{blocks_per_hold:.2f} allocated blocks per held slot "
        f"(budget 7.0) — the timed-hold fast path has regressed")
    assert res.in_use == 0 and res.queued == 0
    # as for plain timeouts: only the bounded pools (~2.3k blocks)
    assert drained <= 6000, (
        f"{drained} blocks retained after draining {n} holds "
        f"(budget 6000) — per-hold garbage is being kept alive")


def test_message_call_budget():
    """Guardrail for the host-side cost of a message: the Python calls
    (``sys.setprofile`` "call" events, which include every generator
    resume) that a 64 B ping-pong and a 64 B stream take per message on
    every provider's harness engine, set-up included.  Waits that ran
    in place return ``()`` instead of building a generator, untraced
    runs build no trace arguments and a descriptor sums its segments
    once; a change that brings one of these back shows up here as a
    count, which no host's speed moves.
    """
    cfg = TransferConfig(size=64)
    per_message = {}
    for provider in ("mvia", "bvia", "clan", "iba"):
        for engine, messages in ((run_latency, 2 * (cfg.warmup + cfg.iters)),
                                 (run_bandwidth, cfg.count)):
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                if event == "call":
                    calls += 1

            sys.setprofile(profile)
            try:
                engine(provider, cfg)
            finally:
                sys.setprofile(None)
            per_message[f"{provider}/{engine.__name__}"] = calls / messages
    # measured 204-234 calls per message (212-243 while a memory access
    # checked its region's bounds through contains/end calls, 304-334
    # before waits that run in place stopped building generators)
    worst = max(per_message, key=per_message.get)
    assert per_message[worst] <= 250, (
        f"{per_message[worst]:.1f} Python calls per message on {worst} "
        f"(budget 250): {per_message}")


def _one_reliable_message(tb, src, dst):
    """Connect ``src`` to ``dst`` and send one 2 KiB reliable message."""
    def client():
        h = tb.open(src, "c")
        vi = yield from h.create_vi(
            reliability=Reliability.RELIABLE_DELIVERY)
        r = h.alloc(2048)
        mh = yield from h.register_mem(r)
        yield from h.connect(vi, dst, 3)
        yield from h.post_send(vi, Descriptor.send([h.segment(r, mh, 0, 2048)]))
        yield from h.send_wait(vi)

    def server():
        h = tb.open(dst, "s")
        vi = yield from h.create_vi(
            reliability=Reliability.RELIABLE_DELIVERY)
        r = h.alloc(2048)
        mh = yield from h.register_mem(r)
        yield from h.post_recv(vi, Descriptor.recv([h.segment(r, mh, 0, 2048)]))
        req = yield from h.connect_wait(3)
        yield from h.accept(req, vi)
        yield from h.recv_wait(vi)

    tb.spawn(client(), "client")
    tb.spawn(server(), "server")
    tb.run()


def test_wire_hops_spawn_no_process(monkeypatch):
    """Guardrail for the callback-chain hops: NIC transmit and every
    switch forward (flat star, leaf and spine) run without a process.
    Of the processes a reliable message spawns, only the engine's
    ``send``/``rx-*`` ones and the test's own may remain."""
    spawned = []
    real = Simulator.process

    def spy(sim, generator, name=None):
        spawned.append(name)
        return real(sim, generator, name)

    monkeypatch.setattr(Simulator, "process", spy)
    star = Testbed("clan", node_names=("node0", "node1", "node2"))
    _one_reliable_message(star, "node0", "node1")
    tiered = Testbed("clan", leaf_groups=(("a0", "a1"), ("b0", "b1")))
    _one_reliable_message(tiered, "a0", "b0")

    # the data and its ack crossed every hop kind
    assert star.fabric.switch.forwarded >= 2
    assert tiered.fabric.spine.forwarded >= 2
    assert spawned.count("rx-data") == spawned.count("rx-ack") == 2
    hops = [n for n in spawned
            if n not in ("client", "server", "rx-data", "rx-ack")
            and not n.startswith("send-vi")]
    assert hops == [], f"wire hops spawned processes: {sorted(set(hops))}"


def test_via_message_rate(benchmark):
    """Full-stack messages simulated per wall-second (cLAN, 4 B)."""
    N = 300

    def run():
        tb = Testbed("clan")
        done = {}

        def client():
            h = tb.open("node0", "c")
            vi = yield from h.create_vi()
            r = h.alloc(64)
            mh = yield from h.register_mem(r)
            yield from h.connect(vi, "node1", 3)
            segs = [h.segment(r, mh, 0, 4)]
            for _ in range(N):
                yield from h.post_send(vi, Descriptor.send(segs))
                yield from h.send_wait(vi)
            done["ok"] = True

        def server():
            h = tb.open("node1", "s")
            vi = yield from h.create_vi()
            r = h.alloc(64)
            mh = yield from h.register_mem(r)
            segs = [h.segment(r, mh, 0, 4)]
            for _ in range(N):
                yield from h.post_recv(vi, Descriptor.recv(segs))
            req = yield from h.connect_wait(3)
            yield from h.accept(req, vi)
            for _ in range(N):
                yield from h.recv_wait(vi)

        cp = tb.spawn(client())
        sp = tb.spawn(server())
        tb.run(cp)
        tb.run(sp)
        return done["ok"]

    assert benchmark(run)


def test_fragmented_transfer_rate(benchmark):
    """A 28 KiB transfer on the 1500 B-MTU fabric (20 fragments)."""
    def run():
        tb = Testbed("mvia")
        out = {}

        def client():
            h = tb.open("node0", "c")
            vi = yield from h.create_vi()
            r = h.alloc(28672)
            mh = yield from h.register_mem(r)
            yield from h.connect(vi, "node1", 3)
            segs = [h.segment(r, mh, 0, 28672)]
            for _ in range(10):
                yield from h.post_send(vi, Descriptor.send(segs))
                yield from h.send_wait(vi)

        def server():
            h = tb.open("node1", "s")
            vi = yield from h.create_vi()
            r = h.alloc(28672)
            mh = yield from h.register_mem(r)
            segs = [h.segment(r, mh, 0, 28672)]
            for _ in range(10):
                yield from h.post_recv(vi, Descriptor.recv(segs))
            req = yield from h.connect_wait(3)
            yield from h.accept(req, vi)
            for _ in range(10):
                yield from h.recv_wait(vi)
            out["t"] = tb.now

        cp = tb.spawn(client())
        sp = tb.spawn(server())
        tb.run(cp)
        tb.run(sp)
        return out["t"]

    assert benchmark(run) > 0
