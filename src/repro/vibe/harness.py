"""VIBe measurement harness.

Builds two-node testbeds and runs the paper's two measurement engines:

- the **ping-pong** (latency + CPU utilisation, §3.2.1): the client
  bounces a message off the server; latency is half the round trip,
  averaged over the timed iterations;
- the **streaming** test (bandwidth, §3.2.1): the sender pushes ``count``
  back-to-back messages and stops the clock when the receiver's
  application-level acknowledgement of the last message arrives.

Every data-transfer micro-benchmark in the suite is a parameterisation
of these two engines via :class:`TransferConfig`: buffer-reuse fraction
(address-translation study), completion queues, extra open VIs,
multiple data segments, reliability level, wait mode, MTU, window.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..programs import split_segments
from ..providers.registry import ProviderSpec, Testbed
from ..via.constants import Reliability, WaitMode
from ..via.descriptor import DataSegment, Descriptor
from .metrics import Measurement

__all__ = ["TransferConfig", "Endpoint", "run_latency", "run_bandwidth",
           "reuse_schedule", "split_segments", "pattern_bytes"]

_CTL_SIZE = 4  # application-level control messages (ready / done)
_BYTE_RAMP = bytes(range(256))


def pattern_bytes(n: int) -> bytes:
    """``n`` payload bytes counting 0, 1, ..., 255, 0, 1, ... (the
    programming-model benchmarks' test pattern)."""
    whole, rest = divmod(n, 256)
    return _BYTE_RAMP * whole + _BYTE_RAMP[:rest]


@dataclass(frozen=True)
class TransferConfig:
    """Knobs shared by the latency and bandwidth engines."""

    size: int = 4
    iters: int = 24               # timed ping-pong iterations
    warmup: int = 3
    count: int = 120              # streamed messages (bandwidth)
    window: int = 32              # max un-reaped sends while streaming
    mode: WaitMode = WaitMode.POLL
    reliability: Reliability | None = None   # None = provider default
    use_recv_cq: bool = False
    use_send_cq: bool = False
    buffer_pool: int = 1          # distinct data buffers per side
    reuse_fraction: float = 1.0   # share of iterations reusing buffer 0
    extra_vis: int = 0            # additional open (idle) VIs per side
    segments: int = 1             # data segments per descriptor
    mtu: int | None = None        # override the fabric MTU
    loss_rate: float | None = None
    discriminator: int = 11
    check: bool = False           # attach the conformance checker
    #: "flow" plans every message (one fragment or many) arithmetically;
    #: exact here because both engines move data one way at a time.
    #: "packet" steps every packet; "auto" plans multi-fragment ones.
    fidelity: str = "flow"

    def testbed(self, provider: "str | ProviderSpec", seed: int = 0) -> Testbed:
        return Testbed(provider, seed=seed, loss_rate=self.loss_rate,
                       mtu=self.mtu, check=self.check,
                       fidelity=self.fidelity)


def reuse_schedule(iters: int, reuse_fraction: float, pool: int) -> list[int]:
    """Deterministic buffer index per iteration.

    ``reuse_fraction`` of iterations hit buffer 0 (the reused buffer);
    the rest cycle through buffers 1..pool-1 so translation caches see
    fresh pages (Bresenham-style spreading keeps the mix even).
    """
    if not 0.0 <= reuse_fraction <= 1.0:
        raise ValueError("reuse_fraction must be within [0, 1]")
    if pool < 1:
        raise ValueError("pool must be >= 1")
    schedule: list[int] = []
    acc = 0.0
    fresh = 0
    for _ in range(iters):
        acc += reuse_fraction
        if acc >= 1.0 - 1e-12:
            acc -= 1.0
            schedule.append(0)
        elif pool == 1:
            schedule.append(0)
        else:
            schedule.append(1 + fresh % (pool - 1))
            fresh += 1
    return schedule


class Endpoint:
    """One side's resources: handle, VIs, CQs, registered buffer pool."""

    def __init__(self, tb: Testbed, node: str, actor: str,
                 cfg: TransferConfig) -> None:
        self.tb = tb
        self.node = node
        self.cfg = cfg
        self.handle = tb.open(node, actor)
        self.vi = None
        self.extra = []
        self.recv_cq = None
        self.send_cq = None
        self.buffers: list = []    # [(region, mh)]
        self._data_segs: dict[int, tuple[DataSegment, ...]] = {}
        self.ctl_buf = None
        self.ctl_mh = None

    # -- setup (a timed generator) -----------------------------------------
    def setup(self):
        h, cfg = self.handle, self.cfg
        if cfg.use_recv_cq:
            self.recv_cq = yield from h.create_cq()
        if cfg.use_send_cq:
            self.send_cq = yield from h.create_cq()
        for _ in range(cfg.extra_vis):
            vi = yield from h.create_vi(reliability=cfg.reliability)
            self.extra.append(vi)
        self.vi = yield from h.create_vi(
            reliability=cfg.reliability,
            send_cq=self.send_cq, recv_cq=self.recv_cq,
        )
        pool = max(cfg.buffer_pool, 1)
        for _ in range(pool):
            region = h.alloc(max(cfg.size, _CTL_SIZE))
            mh = yield from h.register_mem(region)
            self.buffers.append((region, mh))
        self.ctl_buf = h.alloc(_CTL_SIZE)
        self.ctl_mh = yield from h.register_mem(self.ctl_buf)

    def data_segs(self, index: int) -> tuple[DataSegment, ...]:
        """Buffer ``index``'s data segments, built once per buffer."""
        index %= len(self.buffers)
        segs = self._data_segs.get(index)
        if segs is None:
            region, mh = self.buffers[index]
            segs = self._data_segs[index] = tuple(split_segments(
                self.handle, region, mh, self.cfg.size, self.cfg.segments))
        return segs

    def ctl_segs(self) -> list[DataSegment]:
        return [self.handle.segment(self.ctl_buf, self.ctl_mh, 0, _CTL_SIZE)]

    # -- completion plumbing (CQ-aware) ------------------------------------
    def wait_recv(self):
        """Wait for a receive completion, via the CQ when configured."""
        h, cfg = self.handle, self.cfg
        if self.recv_cq is not None:
            _wq, desc = yield from h.cq_wait(self.recv_cq, cfg.mode)
            return desc
        desc = yield from h.recv_wait(self.vi, cfg.mode)
        return desc

    def wait_send(self):
        h, cfg = self.handle, self.cfg
        if self.send_cq is not None:
            _wq, desc = yield from h.cq_wait(self.send_cq, cfg.mode)
            return desc
        desc = yield from h.send_wait(self.vi, cfg.mode)
        return desc


def _pair(tb: Testbed, cfg: TransferConfig):
    client = Endpoint(tb, tb.node_names[0], "client", cfg)
    server = Endpoint(tb, tb.node_names[1], "server", cfg)
    return client, server


# ---------------------------------------------------------------------------
# latency (ping-pong) engine
# ---------------------------------------------------------------------------

def run_latency(provider: "str | ProviderSpec", cfg: TransferConfig,
                seed: int = 0) -> Measurement:
    """Ping-pong latency + CPU utilisation for one configuration."""
    tb = cfg.testbed(provider, seed)
    client, server = _pair(tb, cfg)
    schedule = reuse_schedule(cfg.warmup + cfg.iters, cfg.reuse_fraction,
                              max(cfg.buffer_pool, 1))
    out: dict = {}

    def client_body():
        yield from client.setup()
        h, vi = client.handle, client.vi
        yield from h.connect(vi, server.node, cfg.discriminator)
        total = cfg.warmup + cfg.iters
        t0 = u0 = None
        for i in range(total):
            if i == cfg.warmup:
                t0 = tb.now
                u0 = h.actor.snapshot()
            segs = client.data_segs(schedule[i])
            yield from h.post_recv(vi, Descriptor.recv(segs))
            yield from h.post_send(vi, Descriptor.send(segs))
            yield from client.wait_send()
            yield from client.wait_recv()
        wall = tb.now - t0
        usage = h.actor.snapshot() - u0
        out["latency"] = wall / (2 * cfg.iters)
        out["cpu_send"] = usage.total / wall if wall else None
        yield from h.disconnect(vi)

    def server_body():
        yield from server.setup()
        h, vi = server.handle, server.vi
        segs0 = server.data_segs(schedule[0])
        yield from h.post_recv(vi, Descriptor.recv(segs0))
        req = yield from h.connect_wait(cfg.discriminator)
        yield from h.accept(req, vi)
        total = cfg.warmup + cfg.iters
        t0 = u0 = None
        for i in range(total):
            if i == cfg.warmup:
                t0 = tb.now
                u0 = h.actor.snapshot()
            yield from server.wait_recv()
            if i + 1 < total:
                segs = server.data_segs(schedule[i + 1])
                yield from h.post_recv(vi, Descriptor.recv(segs))
            echo = server.data_segs(schedule[i])
            yield from h.post_send(vi, Descriptor.send(echo))
            yield from server.wait_send()
        wall = tb.now - t0
        usage = h.actor.snapshot() - u0
        out["cpu_recv"] = usage.total / wall if wall else None

    cproc = tb.spawn(client_body(), "client")
    sproc = tb.spawn(server_body(), "server")
    tb.run(cproc)
    tb.run(sproc)
    tb.close()
    return Measurement(
        param=cfg.size,
        latency_us=out["latency"],
        cpu_send=out["cpu_send"],
        cpu_recv=out["cpu_recv"],
    )


# ---------------------------------------------------------------------------
# bandwidth (streaming) engine
# ---------------------------------------------------------------------------

def run_bandwidth(provider: "str | ProviderSpec", cfg: TransferConfig,
                  seed: int = 0) -> Measurement:
    """Back-to-back streaming bandwidth for one configuration."""
    tb = cfg.testbed(provider, seed)
    client, server = _pair(tb, cfg)
    schedule = reuse_schedule(cfg.count, cfg.reuse_fraction,
                              max(cfg.buffer_pool, 1))
    out: dict = {}

    def client_body():
        yield from client.setup()
        h, vi = client.handle, client.vi
        # control receives (ready + final ack) are pre-posted before the
        # connection completes, so they can never race the server's sends
        yield from h.post_recv(vi, Descriptor.recv(client.ctl_segs()))
        yield from h.post_recv(vi, Descriptor.recv(client.ctl_segs()))
        yield from h.connect(vi, server.node, cfg.discriminator)
        yield from client.wait_recv()          # server says "ready"
        t0 = tb.now
        u0 = h.actor.snapshot()
        inflight = 0
        for i in range(cfg.count):
            if inflight >= cfg.window:
                yield from client.wait_send()
                inflight -= 1
            segs = client.data_segs(schedule[i])
            yield from h.post_send(vi, Descriptor.send(segs))
            inflight += 1
        while inflight:
            yield from client.wait_send()
            inflight -= 1
        yield from client.wait_recv()          # server acks the last message
        wall = tb.now - t0
        usage = h.actor.snapshot() - u0
        out["bandwidth"] = cfg.count * cfg.size / wall if wall else None
        out["cpu_send"] = usage.total / wall if wall else None
        yield from h.disconnect(vi)

    def server_body():
        yield from server.setup()
        h, vi = server.handle, server.vi
        # pre-post every data receive: the paper's streaming test never
        # exposes the unexpected-message path
        for i in range(cfg.count):
            segs = server.data_segs(schedule[i])
            yield from h.post_recv(vi, Descriptor.recv(segs))
        req = yield from h.connect_wait(cfg.discriminator)
        yield from h.accept(req, vi)
        yield from h.post_send(vi, Descriptor.send(server.ctl_segs()))
        yield from server.wait_send()          # "ready"
        t0 = tb.now
        u0 = h.actor.snapshot()
        for _ in range(cfg.count):
            yield from server.wait_recv()
        wall = tb.now - t0
        usage = h.actor.snapshot() - u0
        out["cpu_recv"] = usage.total / wall if wall else None
        yield from h.post_send(vi, Descriptor.send(server.ctl_segs()))
        yield from server.wait_send()          # final ack

    cproc = tb.spawn(client_body(), "client")
    sproc = tb.spawn(server_body(), "server")
    tb.run(cproc)
    tb.run(sproc)
    tb.close()
    return Measurement(
        param=cfg.size,
        bandwidth_mbs=out["bandwidth"],
        cpu_send=out["cpu_send"],
        cpu_recv=out["cpu_recv"],
    )
