"""Impact of reliability levels (paper §3.2.5 / TR [6]): RelLat, RelBw.

Sweeps VIA's three reliability levels on one provider.  Unreliable
sends complete locally; reliable delivery completes on a NIC-level
acknowledgement; reliable reception completes only after the data is
placed in the target's memory.  With injected packet loss the benchmark
also demonstrates the *semantics*: unreliable traffic silently loses
messages while the reliable levels retransmit and deliver everything.
"""

from __future__ import annotations

from ..providers.registry import ProviderSpec, Testbed, get_spec
from ..via.constants import CompletionStatus, Reliability, WaitMode
from ..via.descriptor import Descriptor
from ..via.errors import VipTimeout
from .harness import TransferConfig, run_bandwidth, run_latency
from .metrics import BenchResult, Measurement

__all__ = ["reliability_latency", "reliability_bandwidth", "loss_goodput"]

_LEVELS = (Reliability.UNRELIABLE, Reliability.RELIABLE_DELIVERY,
           Reliability.RELIABLE_RECEPTION)


def reliability_latency(provider: "str | ProviderSpec",
                        size: int = 1024,
                        mode: WaitMode = WaitMode.POLL,
                        **overrides) -> BenchResult:
    points = []
    for level in _LEVELS:
        cfg = TransferConfig(size=size, mode=mode, reliability=level,
                             **overrides)
        m = run_latency(provider, cfg)
        points.append(Measurement(param=level.value, latency_us=m.latency_us,
                                  cpu_send=m.cpu_send, cpu_recv=m.cpu_recv))
    return BenchResult("reliability_latency", get_spec(provider).name, points,
                       {"size": size, "mode": mode.value})


def reliability_bandwidth(provider: "str | ProviderSpec",
                          size: int = 4096,
                          mode: WaitMode = WaitMode.POLL,
                          **overrides) -> BenchResult:
    points = []
    for level in _LEVELS:
        cfg = TransferConfig(size=size, mode=mode, reliability=level,
                             **overrides)
        m = run_bandwidth(provider, cfg)
        points.append(Measurement(param=level.value,
                                  bandwidth_mbs=m.bandwidth_mbs,
                                  cpu_send=m.cpu_send, cpu_recv=m.cpu_recv))
    return BenchResult("reliability_bandwidth", get_spec(provider).name,
                       points, {"size": size, "mode": mode.value})


def loss_goodput(provider: "str | ProviderSpec",
                 size: int = 1024,
                 count: int = 60,
                 loss_rate: float = 0.02,
                 seed: int = 0) -> BenchResult:
    """Messages delivered under injected loss, per reliability level.

    Unreliable loses roughly ``loss_rate`` of messages (each direction);
    the reliable levels deliver all of them at a retransmission cost.
    """
    points = []
    for level in _LEVELS:
        delivered, retx, elapsed = _lossy_stream(provider, size, count,
                                                 loss_rate, level, seed)
        points.append(Measurement(
            param=level.value,
            extra={
                "delivered": delivered,
                "sent": count,
                "retransmissions": retx,
                "elapsed_us": elapsed,
            },
        ))
    return BenchResult("loss_goodput", get_spec(provider).name, points,
                       {"size": size, "loss_rate": loss_rate})


def _lossy_stream(provider, size, count, loss_rate, level, seed):
    tb = Testbed(provider, seed=seed, loss_rate=loss_rate)
    out: dict = {"delivered": 0}
    deadline = 200_000.0

    def client_body():
        h = tb.open(tb.node_names[0], "client")
        vi = yield from h.create_vi(reliability=level)
        buf = h.alloc(max(size, 4))
        mh = yield from h.register_mem(buf)
        yield from h.connect(vi, tb.node_names[1], 53)
        segs = [h.segment(buf, mh, 0, size)]
        t0 = tb.now
        for _ in range(count):
            yield from h.post_send(vi, Descriptor.send(segs))
            try:
                desc = yield from h.send_wait(vi, timeout=deadline)
            except VipTimeout:
                break
            if desc.status is not CompletionStatus.SUCCESS:
                # retransmissions exhausted: the VI is in ERROR and
                # another post would raise VipStateError
                break
        out["elapsed"] = tb.now - t0

    def server_body():
        h = tb.open(tb.node_names[1], "server")
        vi = yield from h.create_vi(reliability=level)
        buf = h.alloc(max(size, 4))
        mh = yield from h.register_mem(buf)
        segs = [h.segment(buf, mh, 0, size)]
        for _ in range(count):
            yield from h.post_recv(vi, Descriptor.recv(segs))
        req = yield from h.connect_wait(53)
        yield from h.accept(req, vi)
        for _ in range(count):
            try:
                yield from h.recv_wait(vi, timeout=deadline)
                out["delivered"] += 1
            except VipTimeout:
                break

    cproc = tb.spawn(client_body(), "client")
    sproc = tb.spawn(server_body(), "server")
    tb.run(cproc)
    tb.run(sproc)
    # data-path retransmissions can happen on either endpoint (NAK-driven
    # resends, lost-ack retries), so aggregate across the whole testbed;
    # handshake retransmissions are deliberately excluded — they exist
    # even for unreliable VIs, whose *data* path must never retransmit
    retx = sum(p.engine.retransmissions for p in tb.providers.values())
    tb.close()
    return out["delivered"], retx, out.get("elapsed", 0.0)
