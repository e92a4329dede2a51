"""Distributed-memory (message passing) programming-model benchmarks.

Paper §5: "we plan to develop … similar micro-benchmarks for
distributed memory programming model (MPI)".  These run the paper's
latency/bandwidth methodology *through the message layer*
(:class:`repro.layers.msg.MsgEndpoint`) instead of raw VIA, so the
measured numbers include the layer's own costs — eager copies,
rendezvous handshakes, credit flow control — and show how each
provider's VIBe profile surfaces at the MPI level.
"""

from __future__ import annotations

from ..layers.msg import MsgEndpoint
from ..providers.registry import ProviderSpec, Testbed, get_spec
from ..units import paper_size_sweep
from .harness import pattern_bytes
from .metrics import BenchResult, Measurement

__all__ = ["msg_layer_latency", "msg_layer_bandwidth", "eager_threshold_sweep"]

_TAG = 1
_ACK = 2


def _endpoints(tb: Testbed, eager_size: int, pool: int, reg_cache: bool):
    def client_setup():
        h = tb.open(tb.node_names[0], "client")
        vi = yield from h.create_vi()
        msg = MsgEndpoint(h, vi, eager_size=eager_size, pool=pool,
                          reg_cache=reg_cache)
        yield from msg.setup()
        yield from h.connect(vi, tb.node_names[1], 71)
        return msg

    def server_setup():
        h = tb.open(tb.node_names[1], "server")
        vi = yield from h.create_vi()
        msg = MsgEndpoint(h, vi, eager_size=eager_size, pool=pool,
                          reg_cache=reg_cache)
        yield from msg.setup()
        req = yield from h.connect_wait(71)
        yield from h.accept(req, vi)
        return msg

    return client_setup, server_setup


def _msg_pingpong(provider, size: int, iters: int, warmup: int,
                  eager_size: int, pool: int, reg_cache: bool,
                  seed: int) -> float:
    tb = Testbed(provider, seed=seed)
    cs, ss = _endpoints(tb, eager_size, pool, reg_cache)
    payload = pattern_bytes(size)
    out: dict = {}

    def client():
        msg = yield from cs()
        total = warmup + iters
        for i in range(total):
            if i == warmup:
                out["t0"] = tb.now
            yield from msg.send(_TAG, payload)
            yield from msg.recv(_ACK)
        out["t1"] = tb.now

    def server():
        msg = yield from ss()
        for _ in range(warmup + iters):
            _tag, data = yield from msg.recv(_TAG)
            yield from msg.send(_ACK, data)

    cproc = tb.spawn(client(), "client")
    tb.spawn(server(), "server")
    tb.run(cproc)
    tb.close()
    return (out["t1"] - out["t0"]) / (2 * iters)


def _msg_stream(provider, size: int, count: int, eager_size: int,
                pool: int, reg_cache: bool, seed: int,
                nonblocking: bool = False) -> float:
    tb = Testbed(provider, seed=seed)
    cs, ss = _endpoints(tb, eager_size, pool, reg_cache)
    payload = pattern_bytes(size)
    out: dict = {}

    def client():
        msg = yield from cs()
        yield from msg.recv(_ACK)            # server ready
        t0 = tb.now
        for _ in range(count):
            if nonblocking:
                yield from msg.isend(_TAG, payload)
            else:
                yield from msg.send(_TAG, payload)
        yield from msg.flush_sends()
        yield from msg.recv(_ACK)            # server got everything
        out["bw"] = count * size / (tb.now - t0)

    def server():
        msg = yield from ss()
        yield from msg.send(_ACK, b"go")
        for _ in range(count):
            yield from msg.recv(_TAG)
        yield from msg.send(_ACK, b"done")

    cproc = tb.spawn(client(), "client")
    tb.spawn(server(), "server")
    tb.run(cproc)
    tb.close()
    return out["bw"]


def msg_layer_latency(provider: "str | ProviderSpec",
                      sizes: list[int] | None = None,
                      iters: int = 16, warmup: int = 2,
                      eager_size: int = 4096, pool: int = 16,
                      reg_cache: bool = True, seed: int = 0) -> BenchResult:
    """MsgLat: ping-pong latency through the message layer."""
    sizes = sizes or paper_size_sweep()
    points = [
        Measurement(param=s, latency_us=_msg_pingpong(
            provider, s, iters, warmup, eager_size, pool, reg_cache, seed))
        for s in sizes
    ]
    return BenchResult("msg_layer_latency", get_spec(provider).name, points,
                       {"eager_size": eager_size})


def msg_layer_bandwidth(provider: "str | ProviderSpec",
                        sizes: list[int] | None = None,
                        count: int = 60, eager_size: int = 4096,
                        pool: int = 16, reg_cache: bool = True,
                        nonblocking: bool = False,
                        seed: int = 0) -> BenchResult:
    """MsgBw: streaming bandwidth through the message layer.

    ``nonblocking=True`` streams with ``isend`` — the layer-level
    counterpart of the paper's sender-pipeline-length benchmark.
    """
    sizes = sizes or paper_size_sweep()
    points = [
        Measurement(param=s, bandwidth_mbs=_msg_stream(
            provider, s, count, eager_size, pool, reg_cache, seed,
            nonblocking=nonblocking))
        for s in sizes
    ]
    return BenchResult(
        "msg_layer_bandwidth",
        get_spec(provider).name + ("+isend" if nonblocking else ""),
        points, {"eager_size": eager_size, "nonblocking": nonblocking},
    )


def eager_threshold_sweep(provider: "str | ProviderSpec",
                          size: int = 8192,
                          thresholds=(256, 1024, 4096, 16384),
                          iters: int = 16, seed: int = 0) -> BenchResult:
    """Latency of one message size as the eager threshold moves past it.

    The crossover between 'copy it' (eager) and 'handshake + RDMA'
    (rendezvous) is THE tuning decision VIBe's registration and
    translation benchmarks inform for an MPI implementor.
    """
    points = []
    for thr in thresholds:
        lat = _msg_pingpong(provider, size, iters, 2, thr, 16, True, seed)
        points.append(Measurement(
            param=thr, latency_us=lat,
            extra={"protocol": "eager" if size <= thr else "rendezvous"},
        ))
    return BenchResult("eager_threshold", get_spec(provider).name, points,
                       {"size": size})
