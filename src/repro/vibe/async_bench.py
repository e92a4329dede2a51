"""Impact of asynchronous message handling (paper §3.2.5 / TR [6]):
AsyLat.

The base tests always pre-post receive descriptors.  Real applications
race: data can arrive *before* its receive descriptor is posted.  What
happens then is a core design choice:

- **kernel buffering** (M-VIA): the message is staged and delivered
  when the descriptor shows up — a copy, but no loss;
- **NAK + retry** (cLAN, reliable modes): the sender NIC retransmits
  until a descriptor is available — latency quantised by the retry
  backoff;
- **drop** (Berkeley VIA, unreliable): the message is simply lost.

The benchmark sends one message and posts the matching receive
``delay`` µs later, measuring delivery latency (from send post to
receive completion) and whether the message survived at all.
"""

from __future__ import annotations

from ..providers.registry import ProviderSpec, Testbed
from ..via.constants import WaitMode
from ..via.descriptor import Descriptor
from ..via.errors import VipTimeout
from .metrics import BenchResult, Measurement

__all__ = ["DEFAULT_DELAYS", "async_latency"]

DEFAULT_DELAYS = (0.0, 25.0, 100.0, 400.0)

_TIMEOUT = 50_000.0  # declare the message lost after 50 ms


def _name(provider) -> str:
    return provider if isinstance(provider, str) else provider.name


def _one_trial(provider, size: int, delay: float, seed: int) -> Measurement:
    tb = Testbed(provider, seed=seed)
    out: dict = {}

    def client_body():
        h = tb.open(tb.node_names[0], "client")
        vi = yield from h.create_vi()
        buf = h.alloc(max(size, 4))
        mh = yield from h.register_mem(buf)
        yield from h.connect(vi, tb.node_names[1], 31)
        segs = [h.segment(buf, mh, 0, size)]
        out["t_send"] = tb.now
        yield from h.post_send(vi, Descriptor.send(segs))
        try:
            yield from h.send_wait(vi, WaitMode.POLL, timeout=_TIMEOUT)
        except VipTimeout:
            out["send_timeout"] = True

    def server_body():
        h = tb.open(tb.node_names[1], "server")
        vi = yield from h.create_vi()
        buf = h.alloc(max(size, 4))
        mh = yield from h.register_mem(buf)
        req = yield from h.connect_wait(31)
        yield from h.accept(req, vi)
        # deliberately late receive posting
        yield tb.sim.timeout(delay)
        segs = [h.segment(buf, mh, 0, size)]
        yield from h.post_recv(vi, Descriptor.recv(segs))
        try:
            desc = yield from h.recv_wait(vi, WaitMode.POLL, timeout=_TIMEOUT)
            out["t_done"] = tb.now
            out["length"] = desc.control.length
        except VipTimeout:
            out["lost"] = True

    cproc = tb.spawn(client_body(), "client")
    sproc = tb.spawn(server_body(), "server")
    tb.run(cproc)
    tb.run(sproc)
    delivered = "t_done" in out
    engine = tb.provider(tb.node_names[0]).engine
    tb.close()
    return Measurement(
        param=delay,
        latency_us=(out["t_done"] - out["t_send"]) if delivered else None,
        extra={
            "delivered": delivered,
            "retransmissions": engine.retransmissions,
        },
    )


def async_latency(provider: "str | ProviderSpec",
                  size: int = 1024,
                  delays=DEFAULT_DELAYS,
                  seed: int = 0) -> BenchResult:
    """Delivery latency vs receive-posting delay (one message each)."""
    points = [_one_trial(provider, size, d, seed) for d in delays]
    return BenchResult("async_latency", _name(provider), points,
                       {"size": size})
