"""Concurrent active-VI streams (extends the Fig. 6 study).

The paper's multi-VI benchmark opens *idle* VIs and measures one active
connection.  This extension drives ``k`` VI connections **concurrently**
between the same node pair, measuring aggregate bandwidth and per-stream
fairness — how the NIC engines and the wire actually share.

What it exposes per design:

- the wire is the common ceiling (aggregate ≈ single-stream peak once
  any stream can saturate it);
- Berkeley VIA additionally pays its per-open-VI dispatch scan *per
  message*, so its aggregate falls as streams are added;
- fairness: the engines are FIFO, so streams finish together (Jain's
  index ≈ 1) unless a design starves someone.
"""

from __future__ import annotations

from ..providers.registry import ProviderSpec, Testbed
from ..via.constants import WaitMode
from ..via.descriptor import Descriptor
from .metrics import BenchResult, Measurement

__all__ = ["DEFAULT_STREAM_COUNTS", "concurrent_streams"]

DEFAULT_STREAM_COUNTS = (1, 2, 4, 8)


def _name(provider) -> str:
    return provider if isinstance(provider, str) else provider.name


def concurrent_streams(provider: "str | ProviderSpec",
                       stream_counts=DEFAULT_STREAM_COUNTS,
                       size: int = 4096,
                       messages: int = 30,
                       seed: int = 0) -> BenchResult:
    """Aggregate bandwidth + Jain fairness for k concurrent VI streams."""
    points = []
    for k in stream_counts:
        aggregate, fairness = _run(provider, k, size, messages, seed)
        points.append(Measurement(
            param=k, bandwidth_mbs=aggregate,
            extra={"jain_fairness": fairness},
        ))
    return BenchResult("concurrent_streams", _name(provider), points,
                       {"size": size, "messages": messages})


def _run(provider, k: int, size: int, messages: int, seed: int):
    tb = Testbed(provider, seed=seed)
    finish: dict[int, float] = {}
    rates: dict[int, float] = {}
    start: dict = {}

    def client():
        h = tb.open("node0", "client")
        vis = []
        region = h.alloc(max(size, 4))
        mh = yield from h.register_mem(region)
        for i in range(k):
            vi = yield from h.create_vi()
            yield from h.connect(vi, "node1", 700 + i)
            vis.append(vi)
        segs = [h.segment(region, mh, 0, size)]
        start["t0"] = tb.now

        def stream(vi, idx):
            for _ in range(messages):
                yield from h.post_send(vi, Descriptor.send(segs))
                # BLOCK so k streams share the single host CPU sanely
                yield from h.send_wait(vi, WaitMode.BLOCK)

        procs = [tb.spawn(stream(vi, i), f"stream{i}")
                 for i, vi in enumerate(vis)]
        for p in procs:
            yield p

    def server():
        h = tb.open("node1", "server")
        region = h.alloc(max(size, 4))
        mh = yield from h.register_mem(region)
        vis = []
        for i in range(k):
            vi = yield from h.create_vi()
            segs = [h.segment(region, mh, 0, size)]
            for _ in range(messages):
                yield from h.post_recv(vi, Descriptor.recv(segs))
            req = yield from h.connect_wait(700 + i)
            yield from h.accept(req, vi)
            vis.append(vi)

        def drain(vi, idx):
            for _ in range(messages):
                yield from h.recv_wait(vi, WaitMode.BLOCK)
            finish[idx] = tb.now

        procs = [tb.spawn(drain(vi, i), f"drain{i}")
                 for i, vi in enumerate(vis)]
        for p in procs:
            yield p

    cproc = tb.spawn(client(), "client")
    sproc = tb.spawn(server(), "server")
    tb.run(cproc)
    tb.run(sproc)
    tb.close()

    t0 = start["t0"]
    for idx, t_end in finish.items():
        rates[idx] = messages * size / (t_end - t0)
    aggregate = k * messages * size / (max(finish.values()) - t0)
    total = sum(rates.values())
    sq = sum(r * r for r in rates.values())
    fairness = (total * total) / (k * sq) if sq else 1.0
    return aggregate, fairness
