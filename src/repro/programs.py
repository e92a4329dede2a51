"""Canonical two-node programs: one library of client/server transfers.

VIBe's method is to run one fixed set of programs unchanged on every
VIA implementation, so that any difference in the numbers comes from
the implementation.  These are the programs that everything outside
the paper's measurement harness runs: the conformance workloads,
``vibe profile``, ``vibe trace`` and the latency breakdown.

Each program runs on a testbed the caller built (provider, seed,
fidelity, loss, checker, faults, tracer and live metrics stay the
caller's choice) as actor ``client`` on its first node and ``server``
on its second.  It starts from reset ids, so its trace reads the same
whatever ran earlier in the process (the allocators are process-wide:
start a program only once every other testbed in the process has
finished running), and the client writes a distinct payload into each
message (a write takes no simulated time).  Its :class:`Program`
records:

- ``board`` — completion times: ``completed_at`` (one per message: the
  client's echo in a ping-pong, its send otherwise), ``client_done``
  and ``server_done``;
- ``seen`` — what each receive at a message's destination saw (the
  client's echoes in a ping-pong, the server's receives otherwise);
- ``spans`` — each side's ``setup`` and the client's ``connect``, plus
  each ping-pong round trip as ``rtt`` (client) and ``serve`` (server).
"""

from __future__ import annotations

from typing import NamedTuple

from .obs.spans import SpanRecorder
from .sim.ids import reset_ids
from .via.descriptor import DataSegment, Descriptor
from .via.provider import NicHandle

__all__ = ["Program", "Seen", "pingpong", "stream", "rdma_write", "oneway",
           "split_segments"]

_DISCRIMINATOR = 7
_CTL_SIZE = 4       # the stream's closing acknowledgement
_REPOST_POLL_US = 5.0


def split_segments(handle: NicHandle, region, mh, size: int,
                   nsegments: int) -> list[DataSegment]:
    """Split ``size`` bytes of a buffer into ``nsegments`` data segments."""
    if nsegments < 1:
        raise ValueError("need at least one segment")
    base = size // nsegments
    sizes = [base] * nsegments
    sizes[-1] += size - base * nsegments
    segs = []
    offset = 0
    for s in sizes:
        segs.append(handle.segment(region, mh, offset, s))
        offset += s
    return segs


def _payload(size: int, index: int) -> bytes:
    cycle = bytes((i * 7 + 3 + index * 13) % 256 for i in range(256))
    return (cycle * (size // 256 + 1))[:size]


class Seen(NamedTuple):
    """One receive: its status value, its buffer's bytes after it, and
    its immediate data."""

    status: str
    payload: bytes
    immediate: int | None


class Program:
    """One two-node program on a testbed: ``procs`` are its ``client``
    and ``server`` processes, spawned from the two bodies (each called
    with the program); ``board``, ``seen`` and ``spans`` fill in as they
    run."""

    def __init__(self, tb, client, server) -> None:
        reset_ids()
        self.tb = tb
        self.nodes = tb.node_names[:2]
        self.board: dict = {"completed_at": []}
        self.seen: list[Seen] = []
        self.rec = SpanRecorder(tb.sim)
        self.spans = self.rec.spans
        self.procs = [tb.spawn(client(self), "client"),
                      tb.spawn(server(self), "server")]

    def run(self) -> None:
        """Finish both processes.  Events they leave queued (teardown)
        stay queued: callers drain them or not."""
        for proc in self.procs:
            self.tb.run(proc)

    def _open(self, side: int, reliability, size: int, nbufs: int = 1,
              post: bool = False, **flags):
        """Open ``side``'s handle and VI and register ``nbufs`` buffers
        in its ``setup`` span; ``post`` posts a receive into each buffer
        as soon as it is registered."""
        node = self.nodes[side]
        with self.rec.span("setup", node=node):
            h = self.tb.open(node, ("client", "server")[side])
            vi = yield from h.create_vi(reliability=reliability)
            bufs = []
            for _ in range(nbufs):
                region = h.alloc(max(size, 4))
                mh = yield from h.register_mem(region, **flags)
                bufs.append((region, mh))
                if post:
                    yield from h.post_recv(vi, Descriptor.recv(
                        [h.segment(region, mh, 0, size)]))
        return h, vi, bufs

    def _connect(self, h, vi):
        with self.rec.span("connect", node=self.nodes[0]):
            yield from h.connect(vi, self.nodes[1], _DISCRIMINATOR)

    def _accept(self, h, vi):
        req = yield from h.connect_wait(_DISCRIMINATOR)
        yield from h.accept(req, vi)

    def _saw(self, h, desc, region, size: int) -> None:
        ctl = desc.control
        self.seen.append(Seen(ctl.status.value, h.read(region, size),
                              ctl.immediate))


def pingpong(tb, size: int, count: int = 1, segments: int = 1,
             reliability=None) -> Program:
    """The client sends ``count`` messages and the server echoes each.

    Each side keeps one receive posted into its one buffer, split into
    ``segments`` data segments; the server reposts before it echoes.
    """
    def client(p):
        h, vi, [(region, mh)] = yield from p._open(0, reliability, size)
        segs = split_segments(h, region, mh, size, segments)
        yield from h.post_recv(vi, Descriptor.recv(segs))
        yield from p._connect(h, vi)
        for i in range(count):
            h.write(region, _payload(size, i))
            p.rec.begin("rtt", node=p.nodes[0])
            yield from h.post_send(vi, Descriptor.send(segs))
            yield from h.send_wait(vi)
            done = yield from h.recv_wait(vi)
            p.rec.end("rtt", node=p.nodes[0], size=size)
            p.board["completed_at"].append(done.completed_at)
            p._saw(h, done, region, size)
            if i + 1 < count:
                yield from h.post_recv(vi, Descriptor.recv(segs))
        p.board["client_done"] = tb.now
        yield from h.disconnect(vi)

    def server(p):
        h, vi, [(region, mh)] = yield from p._open(1, reliability, size)
        segs = split_segments(h, region, mh, size, segments)
        yield from h.post_recv(vi, Descriptor.recv(segs))
        yield from p._accept(h, vi)
        for i in range(count):
            with p.rec.span("serve", node=p.nodes[1]):
                yield from h.recv_wait(vi)
                if i + 1 < count:
                    yield from h.post_recv(vi, Descriptor.recv(segs))
                yield from h.post_send(vi, Descriptor.send(segs))
                yield from h.send_wait(vi)
        p.board["server_done"] = tb.now

    return Program(tb, client, server)


def stream(tb, size: int, count: int, window: int = 8,
           reliability=None) -> Program:
    """The client streams ``count`` messages with at most ``window``
    sends in flight, one buffer each, into one receive per message that
    the server posted before accepting; the server then acknowledges
    with a 4-byte message."""
    def client(p):
        h, vi, bufs = yield from p._open(0, reliability, size, window)
        ctl = h.alloc(_CTL_SIZE)
        ctl_mh = yield from h.register_mem(ctl)
        # posted before connecting: the acknowledgement is never unexpected
        yield from h.post_recv(vi, Descriptor.recv(
            [h.segment(ctl, ctl_mh, 0, _CTL_SIZE)]))
        yield from p._connect(h, vi)
        for i in range(count + window):
            if i >= window:                 # reap message i - window
                done = yield from h.send_wait(vi)
                p.board["completed_at"].append(done.completed_at)
            if i < count:
                region, mh = bufs[i % window]
                h.write(region, _payload(size, i))
                yield from h.post_send(vi, Descriptor.send(
                    [h.segment(region, mh, 0, size)]))
        yield from h.recv_wait(vi)
        p.board["client_done"] = tb.now
        yield from h.disconnect(vi)

    def server(p):
        h, vi, pool = yield from p._open(1, reliability, size, count,
                                         post=True)
        ctl = h.alloc(_CTL_SIZE)
        ctl_mh = yield from h.register_mem(ctl)
        yield from p._accept(h, vi)
        for region, _ in pool:
            done = yield from h.recv_wait(vi)
            p._saw(h, done, region, size)
        yield from h.post_send(vi, Descriptor.send(
            [h.segment(ctl, ctl_mh, 0, _CTL_SIZE)]))
        yield from h.send_wait(vi)
        p.board["server_done"] = tb.now

    return Program(tb, client, server)


def rdma_write(tb, size: int, count: int, reliability=None) -> Program:
    """The client RDMA-writes ``count`` messages, each with its index as
    immediate data, into a region the server registered before
    accepting; each write consumes one of the server's empty receives
    (``seen`` holds the region's bytes after each)."""
    target: list = []

    def client(p):
        h, vi, [(region, mh)] = yield from p._open(0, reliability, size)
        yield from p._connect(h, vi)
        raddr, rhandle = target
        segs = [h.segment(region, mh, 0, size)]
        for i in range(count):
            h.write(region, _payload(size, i))
            yield from h.post_send(vi, Descriptor.rdma_write(
                segs, raddr, rhandle, immediate=i))
            done = yield from h.send_wait(vi)
            p.board["completed_at"].append(done.completed_at)
        p.board["client_done"] = tb.now
        yield from h.disconnect(vi)

    def server(p):
        h, vi, [(region, mh)] = yield from p._open(
            1, reliability, size, enable_rdma_write=True)
        target.extend((region.base, mh.handle_id))
        for _ in range(count):
            yield from h.post_recv(vi, Descriptor.recv([]))
        yield from p._accept(h, vi)
        for _ in range(count):
            done = yield from h.recv_wait(vi)
            p._saw(h, done, region, size)
        p.board["server_done"] = tb.now

    return Program(tb, client, server)


def oneway(tb, size: int, count: int = 1) -> Program:
    """The client sends ``count`` messages one at a time: the server
    keeps one receive posted, and the client sends the next message
    once it is reposted (looking every 5 µs)."""
    reposted = [0]

    def client(p):
        h, vi, [(region, mh)] = yield from p._open(0, None, size)
        yield from p._connect(h, vi)
        segs = [h.segment(region, mh, 0, size)]
        for i in range(count):
            while reposted[0] < i:
                yield tb.sim.timeout(_REPOST_POLL_US)
            h.write(region, _payload(size, i))
            yield from h.post_send(vi, Descriptor.send(segs))
            done = yield from h.send_wait(vi)
            p.board["completed_at"].append(done.completed_at)
        p.board["client_done"] = tb.now

    def server(p):
        h, vi, [(region, mh)] = yield from p._open(1, None, size, post=True)
        segs = [h.segment(region, mh, 0, size)]
        yield from p._accept(h, vi)
        for i in range(count):
            done = yield from h.recv_wait(vi)
            p._saw(h, done, region, size)
            if i + 1 < count:
                yield from h.post_recv(vi, Descriptor.recv(segs))
                reposted[0] += 1
        p.board["server_done"] = tb.now

    return Program(tb, client, server)
