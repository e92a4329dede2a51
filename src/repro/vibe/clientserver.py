"""Category 3: client-server programming-model benchmark (paper §3.3.1,
Fig. 7).

A synchronous request/reply transaction test: the client sends a
fixed-size request and receives a variable-size reply, using two
distinct buffers; a new request goes out only after the entire previous
reply arrived.  Reported as transactions per second — the paper relates
it to the RPC/method-call rate sustainable on one VI connection.
"""

from __future__ import annotations

from ..providers.registry import ProviderSpec, Testbed
from ..units import US_PER_S, paper_size_sweep
from ..via.constants import WaitMode
from ..via.descriptor import Descriptor
from .metrics import BenchResult, Measurement

__all__ = ["DEFAULT_REQUEST_SIZES", "client_server"]

DEFAULT_REQUEST_SIZES = (16, 256)


def _name(provider) -> str:
    return provider if isinstance(provider, str) else provider.name


def client_server(provider: "str | ProviderSpec",
                  request_size: int = 16,
                  reply_sizes: list[int] | None = None,
                  transactions: int = 24,
                  warmup: int = 3,
                  mode: WaitMode = WaitMode.POLL,
                  seed: int = 0) -> BenchResult:
    """Transactions/second vs reply size for one request size."""
    reply_sizes = reply_sizes or paper_size_sweep()
    points = []
    for reply in reply_sizes:
        tps = _transaction_test(provider, request_size, reply, transactions,
                                warmup, mode, seed)
        points.append(Measurement(param=reply, tps=tps))
    return BenchResult("client_server", _name(provider), points,
                       {"request_size": request_size, "mode": mode.value})


def _transaction_test(provider, request_size: int, reply_size: int,
                      transactions: int, warmup: int, mode: WaitMode,
                      seed: int) -> float:
    tb = Testbed(provider, seed=seed)
    out: dict = {}
    total = warmup + transactions

    def client_body():
        h = tb.open(tb.node_names[0], "client")
        vi = yield from h.create_vi()
        req_buf = h.alloc(max(request_size, 4))
        rep_buf = h.alloc(max(reply_size, 4))
        req_mh = yield from h.register_mem(req_buf)
        rep_mh = yield from h.register_mem(rep_buf)
        yield from h.connect(vi, tb.node_names[1], 61)
        req_segs = [h.segment(req_buf, req_mh, 0, request_size)]
        rep_segs = [h.segment(rep_buf, rep_mh, 0, reply_size)]
        for i in range(total):
            if i == warmup:
                out["t0"] = tb.now
            yield from h.post_recv(vi, Descriptor.recv(rep_segs))
            yield from h.post_send(vi, Descriptor.send(req_segs))
            yield from h.send_wait(vi, mode)
            yield from h.recv_wait(vi, mode)  # the entire reply
        out["t1"] = tb.now
        yield from h.disconnect(vi)

    def server_body():
        h = tb.open(tb.node_names[1], "server")
        vi = yield from h.create_vi()
        req_buf = h.alloc(max(request_size, 4))
        rep_buf = h.alloc(max(reply_size, 4))
        req_mh = yield from h.register_mem(req_buf)
        rep_mh = yield from h.register_mem(rep_buf)
        req_segs = [h.segment(req_buf, req_mh, 0, request_size)]
        rep_segs = [h.segment(rep_buf, rep_mh, 0, reply_size)]
        yield from h.post_recv(vi, Descriptor.recv(req_segs))
        req = yield from h.connect_wait(61)
        yield from h.accept(req, vi)
        for i in range(total):
            yield from h.recv_wait(vi, mode)
            if i + 1 < total:
                yield from h.post_recv(vi, Descriptor.recv(req_segs))
            yield from h.post_send(vi, Descriptor.send(rep_segs))
            yield from h.send_wait(vi, mode)

    cproc = tb.spawn(client_body(), "client")
    sproc = tb.spawn(server_body(), "server")
    tb.run(cproc)
    tb.run(sproc)
    tb.close()
    elapsed = out["t1"] - out["t0"]
    return transactions / (elapsed / US_PER_S)
