"""Dynamic-runtime benchmarks (paper §3.1: the non-data-transfer costs
"have a significant effect on the scalability of the system,
suitability of the communication subsystem for large and dynamic
runtime systems").

Two measures of *dynamic* behaviour the static sweeps don't cover:

- **connection churn** — sustained connect/use/teardown cycles per
  second, the lifecycle cost Table 1 prices per operation;
- **open-loop tail latency** — Poisson request arrivals against a
  single server; when offered load approaches the service rate the
  queueing tail (p95/p99) separates implementations long before the
  median does.
"""

from __future__ import annotations

import random

from ..providers.registry import ProviderSpec, Testbed, get_spec
from ..units import US_PER_S
from ..via.constants import WaitMode
from ..via.descriptor import Descriptor
from .metrics import BenchResult, Measurement

__all__ = ["connection_churn", "tail_latency_under_load"]


# ---------------------------------------------------------------------------
# connection churn
# ---------------------------------------------------------------------------

def connection_churn(provider: "str | ProviderSpec", cycles: int = 10,
                     payload: int = 64, seed: int = 0) -> Measurement:
    """Full lifecycle rate: create VI -> connect -> one RPC -> teardown.

    Returns cycles/second plus the mean cycle time — dominated by
    Table 1's connection costs, which is the point.
    """
    tb = Testbed(provider, seed=seed)
    out: dict = {}

    def client():
        h = tb.open("node0", "client")
        region = h.alloc(max(payload, 4))
        mh = yield from h.register_mem(region)
        t0 = tb.now
        for i in range(cycles):
            vi = yield from h.create_vi()
            segs = [h.segment(region, mh, 0, payload)]
            yield from h.post_recv(vi, Descriptor.recv(segs))
            yield from h.connect(vi, "node1", 600 + i)
            yield from h.post_send(vi, Descriptor.send(segs))
            yield from h.send_wait(vi)
            yield from h.recv_wait(vi)
            yield from h.disconnect(vi)
            yield from h.destroy_vi(vi)
        out["elapsed"] = tb.now - t0

    def server():
        h = tb.open("node1", "server")
        region = h.alloc(max(payload, 4))
        mh = yield from h.register_mem(region)
        for i in range(cycles):
            vi = yield from h.create_vi()
            segs = [h.segment(region, mh, 0, payload)]
            yield from h.post_recv(vi, Descriptor.recv(segs))
            req = yield from h.connect_wait(600 + i)
            yield from h.accept(req, vi)
            yield from h.recv_wait(vi)
            yield from h.post_send(vi, Descriptor.send(segs))
            yield from h.send_wait(vi)
            while vi.is_connected:
                yield tb.sim.timeout(5.0)
            # the peer's flush may leave nothing to clean, but the
            # lifecycle must end in a destroyable state
            yield from h.destroy_vi(vi)

    cproc = tb.spawn(client(), "client")
    sproc = tb.spawn(server(), "server")
    tb.run(cproc)
    tb.run(sproc)
    tb.close()
    per_cycle = out["elapsed"] / cycles
    return Measurement(
        param=get_spec(provider).name,
        extra={
            "cycles_per_s": US_PER_S / per_cycle,
            "cycle_us": per_cycle,
        },
    )


# ---------------------------------------------------------------------------
# open-loop tail latency
# ---------------------------------------------------------------------------

def tail_latency_under_load(provider: "str | ProviderSpec",
                            loads=(0.3, 0.6, 0.9),
                            requests: int = 120,
                            request_size: int = 64,
                            reply_size: int = 1024,
                            seed: int = 0) -> BenchResult:
    """Sojourn-time percentiles vs offered load.

    ``load`` is relative to the *closed-loop* transaction rate (one
    outstanding request), which bounds true server capacity from below;
    arrivals are Poisson at ``load x closed_loop_rate``.  As the load
    rises the queueing tail (p95/p99) separates from the median — the
    behaviour a static ping-pong cannot show.
    """
    base = _closed_loop_time(provider, request_size, reply_size, seed)
    points = []
    for load in loads:
        inter_arrival = base / load
        lat = _open_loop(provider, requests, request_size, reply_size,
                         inter_arrival, seed)
        lat.sort()

        def pct(p):
            return lat[min(len(lat) - 1, int(p * len(lat)))]

        points.append(Measurement(
            param=load,
            extra={
                "p50_us": pct(0.50),
                "p95_us": pct(0.95),
                "p99_us": pct(0.99),
                "mean_us": sum(lat) / len(lat),
            },
        ))
    return BenchResult("tail_latency", get_spec(provider).name, points,
                       {"request": request_size, "reply": reply_size,
                        "service_us": base})


def _closed_loop_time(provider, request_size, reply_size, seed) -> float:
    """Mean per-transaction time with one request outstanding."""
    from .clientserver import _transaction_test

    tps = _transaction_test(provider, request_size, reply_size,
                            transactions=12, warmup=2,
                            mode=WaitMode.POLL, seed=seed)
    return US_PER_S / tps


def _open_loop(provider, requests, request_size, reply_size,
               inter_arrival, seed) -> list[float]:
    tb = Testbed(provider, seed=seed)
    rng = random.Random(seed * 7919 + 13)
    latencies: list[float] = []

    def client():
        h = tb.open("node0", "client")
        vi = yield from h.create_vi()
        req_buf = h.alloc(max(request_size, 4))
        rep_buf = h.alloc(max(reply_size, 4))
        req_mh = yield from h.register_mem(req_buf)
        rep_mh = yield from h.register_mem(rep_buf)
        rep_segs = [h.segment(rep_buf, rep_mh, 0, reply_size)]
        # pre-post every reply receive (replies return in FIFO order)
        for _ in range(requests):
            yield from h.post_recv(vi, Descriptor.recv(rep_segs))
        yield from h.connect(vi, "node1", 61)
        req_segs = [h.segment(req_buf, req_mh, 0, request_size)]

        arrivals: list[float] = []

        def reaper():
            for i in range(requests):
                yield from h.recv_wait(vi, WaitMode.BLOCK)
                latencies.append(tb.now - arrivals[i])

        reap_proc = tb.spawn(reaper(), "reaper")
        for _ in range(requests):
            yield tb.sim.timeout(rng.expovariate(1.0 / inter_arrival))
            arrivals.append(tb.now)
            yield from h.post_send(vi, Descriptor.send(req_segs))
            # sends complete quickly; reap lazily to keep the queue sane
            while (yield from h.send_done(vi)) is not None:
                pass
        yield reap_proc

    def server():
        h = tb.open("node1", "server")
        vi = yield from h.create_vi()
        req_buf = h.alloc(max(request_size, 4))
        rep_buf = h.alloc(max(reply_size, 4))
        req_mh = yield from h.register_mem(req_buf)
        rep_mh = yield from h.register_mem(rep_buf)
        req_segs = [h.segment(req_buf, req_mh, 0, request_size)]
        rep_segs = [h.segment(rep_buf, rep_mh, 0, reply_size)]
        for _ in range(requests):
            yield from h.post_recv(vi, Descriptor.recv(req_segs))
        req = yield from h.connect_wait(61)
        yield from h.accept(req, vi)
        for _ in range(requests):
            yield from h.recv_wait(vi)
            yield from h.post_send(vi, Descriptor.send(rep_segs))
            yield from h.send_wait(vi)

    cproc = tb.spawn(client(), "client")
    sproc = tb.spawn(server(), "server")
    tb.run(cproc)
    tb.run(sproc)
    tb.close()
    return latencies