"""Multi-client server scalability (the paper's CQ motivation, scaled).

The paper motivates completion queues with servers that "receive
messages from different nodes without the order of the receptions being
important" (§3.2.3) and flags multi-VI behaviour as "insights into
scalability" (§3.2.4).  This benchmark combines both: one server node
holds a VI per client (each on its own fabric node), merges all receive
completions through a single CQ, and serves request/reply transactions
from whichever client's request lands next.

Aggregate transactions/s vs client count exposes both the CQ cost and
any per-open-VI tax (Berkeley VIA's firmware scan hits every added
client twice: more VIs *and* more polling)."""

from __future__ import annotations

from ..providers.registry import ProviderSpec, Testbed
from ..units import US_PER_S
from ..via.constants import WaitMode
from ..via.descriptor import Descriptor
from .metrics import BenchResult, Measurement

__all__ = ["DEFAULT_CLIENT_COUNTS", "multiclient_throughput"]

DEFAULT_CLIENT_COUNTS = (1, 2, 4, 8)


def _name(provider) -> str:
    return provider if isinstance(provider, str) else provider.name


def multiclient_throughput(provider: "str | ProviderSpec",
                           client_counts=DEFAULT_CLIENT_COUNTS,
                           request_size: int = 16,
                           reply_size: int = 1024,
                           transactions: int = 12,
                           seed: int = 0) -> BenchResult:
    """Aggregate transactions/s served, per client count."""
    points = []
    for n in client_counts:
        tps, per_client = _run(provider, n, request_size, reply_size,
                               transactions, seed)
        points.append(Measurement(
            param=n, tps=tps,
            extra={"tps_per_client": per_client},
        ))
    return BenchResult("multiclient_throughput", _name(provider), points,
                       {"request": request_size, "reply": reply_size})


def _run(provider, nclients: int, request_size: int, reply_size: int,
         transactions: int, seed: int):
    names = tuple(["server"] + [f"c{i}" for i in range(nclients)])
    tb = Testbed(provider, node_names=names, seed=seed)
    out: dict = {}
    total = nclients * transactions

    def server_body():
        h = tb.open("server", "server")
        cq = yield from h.create_cq(depth=4 * nclients + 8)
        sessions = {}
        for i in range(nclients):
            vi = yield from h.create_vi(recv_cq=cq)
            req_buf = h.alloc(max(request_size, 4))
            rep_buf = h.alloc(max(reply_size, 4))
            req_mh = yield from h.register_mem(req_buf)
            rep_mh = yield from h.register_mem(rep_buf)
            req_segs = [h.segment(req_buf, req_mh, 0, request_size)]
            rep_segs = [h.segment(rep_buf, rep_mh, 0, reply_size)]
            yield from h.post_recv(vi, Descriptor.recv(req_segs))
            conn = yield from h.connect_wait(500 + i)
            yield from h.accept(conn, vi)
            sessions[vi.vi_id] = (vi, req_segs, rep_segs)
        served = 0
        t0 = None
        while served < total:
            wq, _desc = yield from h.cq_wait(cq, WaitMode.POLL)
            if t0 is None:
                t0 = tb.now
            vi, req_segs, rep_segs = sessions[wq.vi_id]
            yield from h.post_recv(vi, Descriptor.recv(req_segs))
            yield from h.post_send(vi, Descriptor.send(rep_segs))
            yield from h.send_wait(vi)
            served += 1
        out["elapsed"] = tb.now - t0

    def client_body(i: int):
        h = tb.open(f"c{i}", f"client{i}")
        vi = yield from h.create_vi()
        req_buf = h.alloc(max(request_size, 4))
        rep_buf = h.alloc(max(reply_size, 4))
        req_mh = yield from h.register_mem(req_buf)
        rep_mh = yield from h.register_mem(rep_buf)
        req_segs = [h.segment(req_buf, req_mh, 0, request_size)]
        rep_segs = [h.segment(rep_buf, rep_mh, 0, reply_size)]
        yield from h.connect(vi, "server", 500 + i)
        for _ in range(transactions):
            yield from h.post_recv(vi, Descriptor.recv(rep_segs))
            yield from h.post_send(vi, Descriptor.send(req_segs))
            yield from h.send_wait(vi)
            yield from h.recv_wait(vi)

    sproc = tb.spawn(server_body(), "server")
    for i in range(nclients):
        tb.spawn(client_body(i), f"client{i}")
    tb.run(sproc)
    tb.close()
    tps = total / (out["elapsed"] / US_PER_S)
    return tps, tps / nclients
