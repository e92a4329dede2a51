"""Get/Put programming-model benchmarks (paper §5 future work).

Measures one-sided operation latency/throughput through the
:class:`repro.layers.getput.GetPut` layer: puts are RDMA writes on
every provider; gets are one-sided only where the provider implements
RDMA read (the IBA model), and fall back to a request/reply emulation
elsewhere — the benchmark quantifies the cost of that fallback.
"""

from __future__ import annotations

from ..layers.getput import GetPut
from ..layers.msg import MsgEndpoint
from ..providers.registry import ProviderSpec, Testbed, get_spec
from ..units import paper_size_sweep
from .harness import pattern_bytes
from .metrics import BenchResult, Measurement

__all__ = ["getput_latency"]


def _run(provider, size: int, iters: int, op: str, seed: int):
    tb = Testbed(provider, seed=seed)
    out: dict = {}

    def owner():
        h = tb.open(tb.node_names[1], "owner")
        vi = yield from h.create_vi()
        msg = MsgEndpoint(h, vi)
        yield from msg.setup()
        req = yield from h.connect_wait(73)
        yield from h.accept(req, vi)
        gp = GetPut(h, vi, msg)
        win = yield from gp.expose(max(size, 4096))
        h.write(win, pattern_bytes(size))
        if op == "get" and not h.provider.supports_rdma_read:
            yield from gp.serve()
        else:
            while "t1" not in out:
                yield tb.sim.timeout(50.0)

    def peer():
        h = tb.open(tb.node_names[0], "peer")
        vi = yield from h.create_vi()
        msg = MsgEndpoint(h, vi)
        yield from msg.setup()
        yield from h.connect(vi, tb.node_names[1], 73)
        gp = GetPut(h, vi, msg)
        win = yield from gp.attach()
        data = bytes(size)
        # warmup (stages buffers, fills caches)
        if op == "put":
            yield from gp.put(win, 0, data)
        else:
            yield from gp.get(win, 0, size)
        t0 = tb.now
        for _ in range(iters):
            if op == "put":
                yield from gp.put(win, 0, data)
            else:
                got = yield from gp.get(win, 0, size)
                assert len(got) == size
        out["t1"] = tb.now
        out["lat"] = (out["t1"] - t0) / iters
        if op == "get" and not h.provider.supports_rdma_read:
            yield from gp.stop_server()

    pproc = tb.spawn(peer(), "peer")
    tb.spawn(owner(), "owner")
    tb.run(pproc)
    tb.close()
    return out["lat"]


def getput_latency(provider: "str | ProviderSpec",
                   sizes: list[int] | None = None,
                   iters: int = 12, seed: int = 0) -> BenchResult:
    """Per-operation completion latency of put and get vs size."""
    sizes = sizes or [s for s in paper_size_sweep() if s >= 16]
    points = []
    for s in sizes:
        put = _run(provider, s, iters, "put", seed)
        get = _run(provider, s, iters, "get", seed)
        points.append(Measurement(
            param=s,
            extra={"put_us": put, "get_us": get, "get_over_put": get / put},
        ))
    return BenchResult("getput_latency", get_spec(provider).name, points)
