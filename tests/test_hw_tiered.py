"""Tests for the two-tier (leaf/spine) fabric."""

import pytest

from repro.hw import Packet, TieredFabric
from repro.providers import Testbed
from repro.sim import Simulator
from repro.via import Descriptor

from conftest import run_proc

GROUPS = (("a0", "a1"), ("b0", "b1"))


def test_construction_validates():
    sim = Simulator()
    from repro.hw import MYRINET

    with pytest.raises(ValueError, match="unique"):
        TieredFabric(sim, MYRINET, (("x",), ("x",)))
    with pytest.raises(ValueError, match="two leaves"):
        TieredFabric(sim, MYRINET, (("a", "b"),))


def test_local_and_remote_delivery():
    sim = Simulator()
    from repro.hw import GIGANET

    fab = TieredFabric(sim, GIGANET, GROUPS)
    got = {}
    for name in fab.node_names:
        fab.node(name).nic.rx_handler = \
            (lambda n: lambda p: got.setdefault(n, []).append(p.payload))(name)

    def body():
        yield from fab.node("a0").nic.transmit(
            Packet("a0", "a1", "d", 16, "intra"))
        yield from fab.node("a0").nic.transmit(
            Packet("a0", "b1", "d", 16, "inter"))

    run_proc(sim, body())
    sim.run()
    assert got["a1"] == ["intra"]
    assert got["b1"] == ["inter"]
    assert fab.same_leaf("a0", "a1")
    assert not fab.same_leaf("a0", "b0")
    # the inter-leaf packet crossed the spine
    assert fab.spine.forwarded == 1
    assert fab.leaves[0].forwarded_up == 1


def test_cross_leaf_latency_exceeds_intra_leaf():
    def lat(a, b, disc):
        tb = Testbed("clan", leaf_groups=GROUPS)
        out = {}

        def client():
            h = tb.open(a, "c")
            vi = yield from h.create_vi()
            r = h.alloc(4096)
            mh = yield from h.register_mem(r)
            yield from h.connect(vi, b, disc)
            segs = [h.segment(r, mh, 0, 4096)]
            yield from h.post_recv(vi, Descriptor.recv(segs))
            t0 = tb.now
            yield from h.post_send(vi, Descriptor.send(segs))
            yield from h.send_wait(vi)
            yield from h.recv_wait(vi)
            out["lat"] = (tb.now - t0) / 2

        def server():
            h = tb.open(b, "s")
            vi = yield from h.create_vi()
            r = h.alloc(4096)
            mh = yield from h.register_mem(r)
            segs = [h.segment(r, mh, 0, 4096)]
            yield from h.post_recv(vi, Descriptor.recv(segs))
            req = yield from h.connect_wait(disc)
            yield from h.accept(req, vi)
            yield from h.recv_wait(vi)
            yield from h.post_send(vi, Descriptor.send(segs))
            yield from h.send_wait(vi)

        cp = tb.spawn(client())
        tb.spawn(server())
        tb.run(cp)
        return out["lat"]

    assert lat("a0", "b0", 11) > lat("a0", "a1", 10) * 1.3


def test_spine_contention_halves_crossing_flows():
    """Two simultaneous cross-leaf streams share the spine uplink; two
    intra-leaf streams do not contend at all."""
    def aggregate(pairs, cross):
        tb = Testbed("clan", leaf_groups=GROUPS)
        done = {}
        n, size = 20, 16384

        def sender(a, b, disc, idx):
            h = tb.open(a, f"c{idx}")
            vi = yield from h.create_vi()
            r = h.alloc(size)
            mh = yield from h.register_mem(r)
            yield from h.connect(vi, b, disc)
            segs = [h.segment(r, mh, 0, size)]
            for _ in range(n):
                yield from h.post_send(vi, Descriptor.send(segs))
                yield from h.send_wait(vi)

        def receiver(b, disc, idx):
            h = tb.open(b, f"s{idx}")
            vi = yield from h.create_vi()
            r = h.alloc(size)
            mh = yield from h.register_mem(r)
            segs = [h.segment(r, mh, 0, size)]
            for _ in range(n):
                yield from h.post_recv(vi, Descriptor.recv(segs))
            req = yield from h.connect_wait(disc)
            yield from h.accept(req, vi)
            for _ in range(n):
                yield from h.recv_wait(vi)
            done[idx] = tb.now

        t0 = None
        procs = []
        for idx, (a, b) in enumerate(pairs):
            procs.append(tb.spawn(sender(a, b, 20 + idx, idx)))
            procs.append(tb.spawn(receiver(b, 20 + idx, idx)))
        for p in procs:
            tb.run(p)
        return 2 * n * size / max(done.values()), done

    # two flows inside different leaves: fully parallel
    parallel, done_parallel = aggregate([("a0", "a1"), ("b0", "b1")],
                                        cross=False)
    # two flows both crossing the spine in the same direction: shared
    shared, done_shared = aggregate([("a0", "b0"), ("a1", "b1")], cross=True)
    assert shared < parallel * 0.7
    # exact event order: a hop that runs ahead of or behind a
    # same-instant event moves these finish times
    assert done_parallel == {0: 10557.339025974014, 1: 10557.339025974014}
    assert done_shared == {0: 16483.267597402588, 1: 16629.77474025973}


def test_via_stack_works_across_leaves_all_providers(provider_name):
    tb = Testbed(provider_name, leaf_groups=GROUPS)
    out = {}

    def client():
        h = tb.open("a0", "c")
        vi = yield from h.create_vi()
        r = h.alloc(64)
        mh = yield from h.register_mem(r)
        yield from h.connect(vi, "b1", 5)
        h.write(r, b"across-the-spine")
        segs = [h.segment(r, mh, 0, 16)]
        yield from h.post_send(vi, Descriptor.send(segs))
        yield from h.send_wait(vi)

    def server():
        h = tb.open("b1", "s")
        vi = yield from h.create_vi()
        r = h.alloc(64)
        mh = yield from h.register_mem(r)
        segs = [h.segment(r, mh, 0, 16)]
        yield from h.post_recv(vi, Descriptor.recv(segs))
        req = yield from h.connect_wait(5)
        yield from h.accept(req, vi)
        yield from h.recv_wait(vi)
        out["data"] = h.read(r, 16)

    cp = tb.spawn(client())
    sp = tb.spawn(server())
    tb.run(cp)
    tb.run(sp)
    assert out["data"] == b"across-the-spine"
