"""Per-component latency breakdown (paper §3: "identify how much time
is spent in each of the components in the implementation, and pinpoint
the bottlenecks").

Runs a single traced message transfer and telescopes its timeline into
the architectural phases of a VIA send:

====================  =====================================================
phase                 boundary events
====================  =====================================================
post                  ``host/post_send`` → ``host/doorbell``
staging               ``host/doorbell`` → ``nic/send_queued``
                      (kernel copy + host translation on staged paths)
dispatch              ``nic/send_queued`` → ``nic/desc_fetched``
                      (engine wait, per-VI polling scan, descriptor DMA)
translation           ``nic/desc_fetched`` → ``nic/tx_translated``
tx_dma                ``nic/tx_translated`` → last ``nic/frag_out``
wire                  last ``nic/frag_out`` → last ``nic/frag_in``
                      (serialisation, switch, propagation, rx engine queue)
rx_processing         last ``nic/frag_in`` → receiver ``via/completed``
                      (placement translation + DMA + completion writeback)
reap                  ``via/completed`` → receiver ``host/reaped``
rx_kernel             ``host/reaped`` → ``host/reap_done``
                      (staged paths: per-frame kernel work + copy-out)
====================  =====================================================

The phases telescope: they sum exactly to the observed one-way latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.spans import PhaseBoundary, phase_spans
from ..providers.registry import ProviderSpec, Testbed
from ..sim.trace import Tracer
from ..via.descriptor import Descriptor

__all__ = ["Breakdown", "latency_breakdown", "render_breakdowns",
           "PHASES", "PHASE_BOUNDARIES"]

PHASES = ("post", "staging", "dispatch", "translation", "tx_dma",
          "wire", "rx_processing", "reap", "rx_kernel")

#: the table above as declarative span boundaries (role 0 = sender,
#: role 1 = receiver); shared with ``repro.obs.profile``
PHASE_BOUNDARIES = (
    PhaseBoundary("post", ("host", "post_send", 0), ("host", "doorbell", 0)),
    PhaseBoundary("staging", ("host", "doorbell", 0),
                  ("nic", "send_queued", 0)),
    PhaseBoundary("dispatch", ("nic", "send_queued", 0),
                  ("nic", "desc_fetched", 0)),
    PhaseBoundary("translation", ("nic", "desc_fetched", 0),
                  ("nic", "tx_translated", 0)),
    PhaseBoundary("tx_dma", ("nic", "tx_translated", 0),
                  ("nic", "frag_out", 0)),
    PhaseBoundary("wire", ("nic", "frag_out", 0), ("nic", "frag_in", 1)),
    PhaseBoundary("rx_processing", ("nic", "frag_in", 1),
                  ("via", "completed", 1), end_info={"queue": "recv"}),
    PhaseBoundary("reap", ("via", "completed", 1), ("host", "reaped", 1),
                  start_info={"queue": "recv"}),
    PhaseBoundary("rx_kernel", ("host", "reaped", 1),
                  ("host", "reap_done", 1)),
)


@dataclass
class Breakdown:
    """Phase durations (µs) of one message's one-way journey."""

    provider: str
    size: int
    phases: dict[str, float] = field(default_factory=dict)
    total: float = 0.0

    def bottleneck(self) -> str:
        return max(self.phases, key=self.phases.get)

    def table(self) -> str:
        lines = [f"latency breakdown: {self.provider}, {self.size} B "
                 f"(total {self.total:.2f} us)"]
        for phase in PHASES:
            us = self.phases.get(phase, 0.0)
            share = us / self.total if self.total else 0.0
            bar = "#" * int(round(share * 40))
            lines.append(f"  {phase:<14s} {us:8.2f} us  {share:6.1%}  {bar}")
        return "\n".join(lines)


def latency_breakdown(provider: "str | ProviderSpec", size: int = 1024,
                      seed: int = 0) -> Breakdown:
    """Trace one send and decompose its one-way latency by phase."""
    tb = Testbed(provider, seed=seed)
    tracer = Tracer()
    out: dict = {}

    def client():
        h = tb.open("node0", "client")
        vi = yield from h.create_vi()
        region = h.alloc(max(size, 4))
        mh = yield from h.register_mem(region)
        yield from h.connect(vi, "node1", 3)
        # warm every cache with one untraced message, then trace the next
        segs = [h.segment(region, mh, 0, size)]
        yield from h.post_send(vi, Descriptor.send(segs))
        yield from h.send_wait(vi)
        while not out.get("warmed"):
            yield tb.sim.timeout(5.0)
        tb.sim.tracer = tracer
        yield from h.post_send(vi, Descriptor.send(segs))
        yield from h.send_wait(vi)

    def server():
        h = tb.open("node1", "server")
        vi = yield from h.create_vi()
        region = h.alloc(max(size, 4))
        mh = yield from h.register_mem(region)
        segs = [h.segment(region, mh, 0, size)]
        yield from h.post_recv(vi, Descriptor.recv(segs))
        req = yield from h.connect_wait(3)
        yield from h.accept(req, vi)
        yield from h.recv_wait(vi)
        yield from h.post_recv(vi, Descriptor.recv(segs))
        out["warmed"] = True
        yield from h.recv_wait(vi)
        out["done"] = tb.now

    cproc = tb.spawn(client(), "client")
    sproc = tb.spawn(server(), "server")
    tb.run(cproc)
    tb.run(sproc)
    tb.close()

    name = provider if isinstance(provider, str) else provider.name
    return _parse(tracer, name, size)


def _parse(tracer: Tracer, provider: str, size: int) -> Breakdown:
    # last-match anchors: the warm-up message emitted the same labels
    spans = phase_spans(tracer, PHASE_BOUNDARIES, nodes=("node0", "node1"),
                        select="last")
    bd = Breakdown(provider, size)
    bd.phases = {s.name: s.duration for s in spans}
    bd.total = spans[-1].end - spans[0].start
    return bd


def render_breakdowns(breakdowns: list[Breakdown]) -> str:
    """Providers side by side, one row per phase (µs)."""
    cols = ["phase"] + [f"{b.provider}@{b.size}B" for b in breakdowns]
    rows = [cols]
    for phase in PHASES:
        rows.append([phase] + [f"{b.phases[phase]:.2f}" for b in breakdowns])
    rows.append(["TOTAL"] + [f"{b.total:.2f}" for b in breakdowns])
    widths = [max(len(r[i]) for r in rows) for i in range(len(cols))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(r, widths))
                     for r in rows)
