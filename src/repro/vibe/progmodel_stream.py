"""Sockets-layer benchmarks (the paper's ref [17]: High Performance
Sockets over VI Architecture).

Measures the byte-stream layer built on VIA: end-to-end throughput as a
function of the stream's chunking size.  Small chunks pay per-message
overhead; chunks above the eager threshold switch the underlying
message layer to rendezvous and pay handshakes instead — the tuning
surface a sockets-over-VIA implementor works with.
"""

from __future__ import annotations

from ..layers.msg import MsgEndpoint
from ..layers.stream import ViaStream
from ..providers.registry import ProviderSpec, Testbed
from .harness import pattern_bytes
from .metrics import BenchResult, Measurement

__all__ = ["DEFAULT_CHUNKS", "stream_throughput"]

DEFAULT_CHUNKS = (512, 2048, 4096, 16384)


def _name(provider) -> str:
    return provider if isinstance(provider, str) else provider.name


def stream_throughput(provider: "str | ProviderSpec",
                      chunks=DEFAULT_CHUNKS,
                      total_bytes: int = 200_000,
                      eager_size: int = 4096,
                      seed: int = 0) -> BenchResult:
    """Stream ``total_bytes`` and report MB/s per chunk size."""
    points = []
    for chunk in chunks:
        bw = _stream_once(provider, chunk, total_bytes, eager_size, seed)
        points.append(Measurement(param=chunk, bandwidth_mbs=bw))
    return BenchResult("stream_throughput", _name(provider), points,
                       {"total_bytes": total_bytes,
                        "eager_size": eager_size})


def _stream_once(provider, chunk, total_bytes, eager_size, seed) -> float:
    tb = Testbed(provider, seed=seed)
    out: dict = {}
    payload = pattern_bytes(total_bytes)

    def sender():
        h = tb.open("node0", "sender")
        vi = yield from h.create_vi()
        msg = MsgEndpoint(h, vi, eager_size=eager_size)
        yield from msg.setup()
        yield from h.connect(vi, "node1", 91)
        stream = ViaStream(msg, chunk=chunk)
        t0 = tb.now
        yield from stream.write(payload)
        ack = yield from stream.read(1)     # receiver confirms the tail
        assert ack == b"\x06"
        out["bw"] = total_bytes / (tb.now - t0)

    def receiver():
        h = tb.open("node1", "receiver")
        vi = yield from h.create_vi()
        msg = MsgEndpoint(h, vi, eager_size=eager_size)
        yield from msg.setup()
        req = yield from h.connect_wait(91)
        yield from h.accept(req, vi)
        stream = ViaStream(msg, chunk=chunk)
        data = yield from stream.read(total_bytes)
        assert data == payload, "stream corrupted"
        yield from stream.write(b"\x06")

    sproc = tb.spawn(sender(), "sender")
    tb.spawn(receiver(), "receiver")
    tb.run(sproc)
    tb.close()
    return out["bw"]
