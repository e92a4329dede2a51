"""Impact of RDMA operations (paper §3.2.5 / TR [6]): RdmaLat, RdmaBw.

Compares the send/receive model against RDMA write (with immediate
data, so the target application still gets a completion) and — on
providers that implement it — RDMA read.  RDMA skips receive-descriptor
matching on the target, trading it for an address-segment check.
"""

from __future__ import annotations

from ..providers.registry import ProviderSpec, Testbed, get_spec
from ..via.descriptor import Descriptor
from ..units import paper_size_sweep
from .metrics import BenchResult, Measurement

__all__ = ["rdma_write_latency", "rdma_read_latency", "rdma_capable"]


def _name(provider) -> str:
    return provider if isinstance(provider, str) else provider.name


def rdma_capable(provider: "str | ProviderSpec") -> ProviderSpec:
    """A variant of ``provider`` with RDMA read enabled (for the read
    benchmark; none of the paper's three stacks shipped RDMA read)."""
    spec = get_spec(provider)
    return spec.with_choices(supports_rdma_read=True)


def rdma_write_latency(provider: "str | ProviderSpec",
                       sizes: list[int] | None = None,
                       iters: int = 16,
                       seed: int = 0) -> BenchResult:
    """RDMA-write-with-immediate ping-pong latency vs size."""
    sizes = sizes or paper_size_sweep()
    points = [
        Measurement(param=s, latency_us=_rdma_pingpong(provider, s, iters, seed))
        for s in sizes
    ]
    return BenchResult("rdma_write_latency", _name(provider), points)


def _rdma_pingpong(provider, size: int, iters: int, seed: int) -> float:
    tb = Testbed(provider, seed=seed)
    out: dict = {}
    warmup = 2
    handles_xchg: dict = {}

    def body(me: str, peer: str, disc: int, is_client: bool):
        h = tb.open(me, "app-" + me)
        vi = yield from h.create_vi()
        buf = h.alloc(max(size, 4))
        mh = yield from h.register_mem(buf, enable_rdma_write=True)
        handles_xchg[me] = (buf.base, mh.handle_id)
        total = warmup + iters
        if is_client:
            yield from h.connect(vi, peer, disc)
        else:
            # pre-post before accepting so the client's first write (with
            # its descriptor-consuming immediate) can never race us
            yield from h.post_recv(vi, Descriptor.recv([]))
            req = yield from h.connect_wait(disc)
            yield from h.accept(req, vi)
        # out-of-band handle exchange (a real app would bootstrap this
        # over a send/recv pair; the values are plain integers)
        while peer not in handles_xchg:
            yield tb.sim.timeout(1.0)
        raddr, rhandle = handles_xchg[peer]
        segs = [h.segment(buf, mh, 0, size)]
        for i in range(total):
            if is_client and i == warmup:
                out["t0"] = tb.now
            d = Descriptor.rdma_write(segs, raddr, rhandle, immediate=i)
            if is_client:
                # a receive absorbs the peer's immediate-data echo
                yield from h.post_recv(vi, Descriptor.recv([]))
                yield from h.post_send(vi, d)
                yield from h.send_wait(vi)
                yield from h.recv_wait(vi)   # peer's echo write landed
            else:
                yield from h.recv_wait(vi)   # peer's write landed
                if i + 1 < total:
                    yield from h.post_recv(vi, Descriptor.recv([]))
                yield from h.post_send(vi, d)
                yield from h.send_wait(vi)
        if is_client:
            out["t1"] = tb.now

    cproc = tb.spawn(body(tb.node_names[0], tb.node_names[1], 41, True))
    sproc = tb.spawn(body(tb.node_names[1], tb.node_names[0], 41, False))
    tb.run(cproc)
    tb.run(sproc)
    tb.close()
    return (out["t1"] - out["t0"]) / (2 * iters)


def rdma_read_latency(provider: "str | ProviderSpec",
                      sizes: list[int] | None = None,
                      iters: int = 16,
                      seed: int = 0) -> BenchResult:
    """RDMA read round-trip latency vs size (needs an rdma_capable spec)."""
    spec = rdma_capable(provider)
    sizes = sizes or paper_size_sweep()
    points = []
    for size in sizes:
        points.append(Measurement(
            param=size, latency_us=_rdma_read_once(spec, size, iters, seed)
        ))
    return BenchResult("rdma_read_latency", f"{spec.name}+rr", points)


def _rdma_read_once(spec: ProviderSpec, size: int, iters: int,
                    seed: int) -> float:
    tb = Testbed(spec, seed=seed)
    out: dict = {}
    xchg: dict = {}

    def client_body():
        h = tb.open(tb.node_names[0], "client")
        vi = yield from h.create_vi()
        buf = h.alloc(max(size, 4))
        mh = yield from h.register_mem(buf)
        yield from h.connect(vi, tb.node_names[1], 43)
        while "server" not in xchg:
            yield tb.sim.timeout(1.0)
        raddr, rhandle = xchg["server"]
        segs = [h.segment(buf, mh, 0, size)]
        warmup = 2
        for i in range(warmup + iters):
            if i == warmup:
                out["t0"] = tb.now
            d = Descriptor.rdma_read(segs, raddr, rhandle)
            yield from h.post_send(vi, d)
            yield from h.send_wait(vi)
        out["t1"] = tb.now

    def server_body():
        h = tb.open(tb.node_names[1], "server")
        vi = yield from h.create_vi()
        buf = h.alloc(max(size, 4))
        mh = yield from h.register_mem(buf, enable_rdma_read=True)
        xchg["server"] = (buf.base, mh.handle_id)
        req = yield from h.connect_wait(43)
        yield from h.accept(req, vi)
        # passive: the NIC serves reads without application involvement
        while True:
            yield tb.sim.timeout(10_000.0)

    cproc = tb.spawn(client_body(), "client")
    tb.spawn(server_body(), "server")
    tb.run(cproc)
    tb.close()
    return (out["t1"] - out["t0"]) / iters
