"""Canonical instrumented transfer: one profiled poll-mode ping-pong.

:func:`profile_transfer` runs the same scripted ping-pong for every
provider — tracer attached from the very first event, a live metrics
registry on the simulator, explicit application-level spans, and the
breakdown phases reconstructed from the trace — and returns everything
as a :class:`TransferProfile`.  It is the engine behind both the
``vibe profile`` CLI subcommand and the golden-trace regression
fixtures in ``tests/test_golden_trace.py``: the run is fully
deterministic, so its exported JSON is byte-identical across repeats
and ``--jobs`` values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from ..sim.trace import TraceEvent, Tracer
from ..via.descriptor import Descriptor
from .harvest import harvest_into
from .metrics import MetricsRegistry
from .perfetto import dumps_trace
from .spans import Span, SpanRecorder, phase_spans

__all__ = ["TransferProfile", "profile_transfer", "run_metadata",
           "combined_trace_json", "combined_metrics_json"]

_DISCRIMINATOR = 7
_DECLINE = "sim.ff.decline."


def _reset_id_counters() -> None:
    """Restart the global id allocators (packets, VIs, descriptors, ...).

    The ids are scoped per testbed anyway — the allocators are global
    only as an allocation convenience — but they appear in trace events,
    so a canonical profile run must not inherit whatever offset earlier
    simulations in this process left behind.  Resetting makes the run's
    exported bytes identical whether it is the first simulation of the
    process or the hundredth (and therefore identical across ``--jobs``
    fan-out, where workers start fresh).  Delegates to
    :func:`repro.sim.ids.reset_ids`, which the snapshot layer shares.
    """
    from ..sim.ids import reset_ids

    reset_ids()


def run_metadata(provider: str, params: dict | None = None) -> dict:
    """Deterministic run metadata (no wall-clock timestamps on purpose)."""
    from .. import __version__

    return {
        "package": "repro",
        "version": __version__,
        "provider": provider,
        "params": dict(params or {}),
    }


@dataclass
class TransferProfile:
    """Everything one profiled ping-pong produced."""

    provider: str
    size: int
    seed: int
    rtt_us: float
    events: list[TraceEvent]
    spans: list[Span]
    registry: MetricsRegistry
    meta: dict

    def trace_json(self) -> str:
        """Perfetto-loadable Chrome-trace JSON (deterministic bytes)."""
        return dumps_trace(self.events, self.spans, meta=self.meta)

    def metrics_json(self) -> str:
        return self.registry.to_json(meta=self.meta)

    def summary(self) -> str:
        lines = [f"profile: {self.provider}, {self.size} B ping-pong "
                 f"(rtt {self.rtt_us:.2f} us)"]
        phases = [s for s in self.spans if s.category == "phase"]
        if phases:
            total = sum(s.duration for s in phases)
            for s in phases:
                share = s.duration / total if total else 0.0
                lines.append(f"  {s.name:<14s} {s.duration:8.2f} us  "
                             f"{share:6.1%}")
            lines.append(f"  {'one-way total':<14s} {total:8.2f} us")
        else:
            # fast-forwarded runs attach no tracer, so nothing anchors
            # the phases: say so rather than print a zero breakdown
            lines.append("  breakdown      needs --fidelity packet "
                         "(no trace at this fidelity)")
        lines.append(f"  events traced  {len(self.events):8d}")
        lines.append(f"  metrics        {len(self.registry):8d}")
        ff_us = self._gauge("sim.ff_time_us") or 0.0
        declines = {name[len(_DECLINE):]: int(self.registry.get(name).value)
                    for name in self.registry.names()
                    if name.startswith(_DECLINE)}
        if ff_us or declines:
            # fast-forward runs only; packet-mode output keeps its bytes
            now_us = self._gauge("sim.now_us") or 1.0
            skipped = int(self._gauge("sim.ff_events_skipped") or 0)
            lines.append(f"  fast-forward   {ff_us:8.2f} us "
                         f"({ff_us / now_us:6.1%} of simulated time, "
                         f"~{skipped} events skipped)")
            for reason, count in declines.items():
                lines.append(f"    declined     {count:8d}  {reason}")
        retx = self._counter_total("via.", ".retransmissions")
        naks = self._counter_total("via.", ".naks_sent")
        dups = self._counter_total("via.", ".drops")
        wire = self._counter_total("wire.", ".drops")
        if retx or naks or dups or wire:
            # only faulted runs grow this section, so lossless output
            # stays byte-identical to earlier releases
            lines.append(f"  reliability    retx={retx} naks={naks} "
                         f"dup_drops={dups} wire_drops={wire}")
        return "\n".join(lines)

    def _gauge(self, name: str) -> float | None:
        try:
            return float(self.registry.get(name).value)
        except KeyError:
            return None

    def _counter_total(self, prefix: str, suffix: str) -> int:
        total = 0
        for name in self.registry.names():
            if name.startswith(prefix) and name.endswith(suffix):
                total += int(self.registry.get(name).value)
        return total


def profile_transfer(provider, size: int = 256, seed: int = 0,
                     loss_rate: float = 0.0,
                     reliability=None,
                     fidelity: str = "packet") -> TransferProfile:
    """Run the canonical profiled poll-mode ping-pong on ``provider``.

    ``loss_rate`` injects wire loss and ``reliability`` picks the VI
    level (a :class:`~repro.via.constants.Reliability`); combine them to
    profile the retransmission machinery.  A lossy run with unreliable
    VIs can drop the only message and never finish — callers must pick
    a reliable level when ``loss_rate > 0``.

    ``fidelity`` other than ``"packet"`` arms flow-level fast-forward;
    an attached tracer would force every message down the packet path,
    so fast-forwarded profiles skip per-event tracing (the trace export
    is empty) and instead report the fraction of simulated time spent
    fast-forwarded in the summary and metrics.
    """
    from ..models.breakdown import PHASE_BOUNDARIES
    from ..providers.registry import Testbed, get_spec

    _reset_id_counters()
    tb = Testbed(provider, seed=seed,
                 loss_rate=loss_rate if loss_rate else None,
                 fidelity=fidelity)
    tracer = Tracer()
    if fidelity == "packet":
        tb.sim.tracer = tracer            # attached before the handshake
    registry = MetricsRegistry()
    tb.sim.metrics = registry
    rec = SpanRecorder(tb.sim)
    out: dict = {}

    def client():
        with rec.span("setup", node="node0"):
            h = tb.open("node0", "client")
            vi = yield from h.create_vi(reliability=reliability)
            region = h.alloc(max(size, 4))
            mh = yield from h.register_mem(region)
        segs = [h.segment(region, mh, 0, size)]
        yield from h.post_recv(vi, Descriptor.recv(segs))
        with rec.span("connect", node="node0"):
            yield from h.connect(vi, "node1", _DISCRIMINATOR)
        rec.begin("rtt", node="node0")
        yield from h.post_send(vi, Descriptor.send(segs))
        yield from h.send_wait(vi)
        yield from h.recv_wait(vi)
        out["rtt"] = rec.end("rtt", node="node0", size=size).duration
        yield from h.disconnect(vi)

    def server():
        with rec.span("setup", node="node1"):
            h = tb.open("node1", "server")
            vi = yield from h.create_vi(reliability=reliability)
            region = h.alloc(max(size, 4))
            mh = yield from h.register_mem(region)
        segs = [h.segment(region, mh, 0, size)]
        yield from h.post_recv(vi, Descriptor.recv(segs))
        req = yield from h.connect_wait(_DISCRIMINATOR)
        yield from h.accept(req, vi)
        with rec.span("serve", node="node1"):
            yield from h.recv_wait(vi)
            yield from h.post_send(vi, Descriptor.send(segs))
            yield from h.send_wait(vi)

    cproc = tb.spawn(client(), "client")
    sproc = tb.spawn(server(), "server")
    tb.run(cproc)
    tb.run(sproc)

    harvest_into(registry, tb)
    tb.close()
    # first-match anchors: the canonical run is cold, so the first
    # occurrence of each marker is the client -> server leg.  Fast-
    # forwarded runs traced nothing, so there are no phases to anchor.
    if fidelity == "packet":
        phases = phase_spans(tracer, PHASE_BOUNDARIES,
                             nodes=("node0", "node1"), select="first")
    else:
        phases = []
    name = get_spec(provider).name
    params = {"size": size, "seed": seed, "benchmark": "profile_pingpong"}
    # only faulted/non-default runs grow extra keys, so default metadata
    # (and every golden fixture derived from it) keeps its exact bytes
    if loss_rate:
        params["loss_rate"] = loss_rate
    if reliability is not None:
        params["reliability"] = reliability.value
    if fidelity != "packet":
        params["fidelity"] = fidelity
    meta = run_metadata(name, params)
    return TransferProfile(
        provider=name, size=size, seed=seed, rtt_us=out["rtt"],
        events=list(tracer.events), spans=rec.spans + phases,
        registry=registry, meta=meta,
    )


# -- multi-provider export (the CLI fans profile_transfer over --providers)

def combined_trace_json(profiles: "list[TransferProfile]") -> str:
    """One Chrome-trace document covering every profiled provider.

    With several providers the node names are prefixed (``clan:node0``)
    so each provider's nodes render as separate Perfetto processes.
    """
    events: list[TraceEvent] = []
    spans: list[Span] = []
    multi = len(profiles) > 1
    for p in profiles:
        prefix = f"{p.provider}:" if multi else ""
        events.extend(replace(ev, node=prefix + ev.node) for ev in p.events)
        spans.extend(replace(sp, node=prefix + sp.node) for sp in p.spans)
    meta = {
        "package": "repro",
        "version": profiles[0].meta["version"] if profiles else "",
        "providers": [p.provider for p in profiles],
        "params": profiles[0].meta["params"] if profiles else {},
    }
    return dumps_trace(events, spans, meta=meta)


def combined_metrics_json(profiles: "list[TransferProfile]") -> str:
    """One metrics document keyed by provider (deterministic bytes)."""
    doc = {
        "meta": {
            "package": "repro",
            "version": profiles[0].meta["version"] if profiles else "",
            "params": profiles[0].meta["params"] if profiles else {},
        },
        "providers": {p.provider: p.registry.snapshot() for p in profiles},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
